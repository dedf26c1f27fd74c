"""itt: a minimal dependent type theory with an impredicative universe of
propositions and a proof-irrelevant propositional equality, together with a
fuel-bounded reducer that detects reduction cycles.

The irrelevant eliminators (cast, Eq_rec, optionally J) fire on convertible
endpoints without inspecting their proof argument.  That is enough to give
well-typed terms with no normal form; the bundled corpus exhibits two such
terms and shows that disabling those rules restores normalization on every
bundled program.
"""

from __future__ import annotations

from .syntax import (
    KIND, PROP, TYPE,
    App, Cast, Eq, EqRec, Global, J, Lam, Pi, Refl, ScopeError, SortT,
    Term, Var, alpha_eq, canonical_key, pretty, shift, subst,
)
from .rules import (
    DEFAULT_FUEL, DEFAULT_RULES, ConversionCycle, Fuel, FuelExhausted, RuleSet,
)
from .env import Context, EnvEntry, GlobalEnv, ctx_extend, ctx_lookup
from .parser import (
    Declaration, ParseError, PragmaCheck, PragmaReduce, Program,
    parse_program, parse_term,
)
from .reduce import (
    CYCLE_DETECTED, FUEL_EXHAUSTED, NORMAL_FORM,
    CycleDetector, CycleReport, Trace, TraceStep,
    head_step, normalize, reduce_with, replay_trace, trace_to_json_lines,
    trace_to_text, whnf, whnf_term,
)
from .convert import is_proposition
from .typecheck import (
    PragmaResult, TypeCheckError, check, elaborate, infer,
)
from .corpus import CASE_NAMES, ExampleCase, load_example, run_all, ruleset_label

__version__ = "0.1.0"
