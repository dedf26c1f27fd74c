"""Readers that only tests need: JSON trace lines back into records, the
free-variable and global-name walks that ``pretty``'s pre-pass is checked
against, the binder name ``pretty`` should show, a closure check over a
global environment, and counts over corpus cases; the budgets a run is
handed, the fuel it spends and what it shows; the calls a kernel function
gets; one head step of a whole term; a spine built from a head and its
arguments, and a spine's head; the benchmark's program generators and the
writer of the expected tables; and the inputs that several test files
share."""

from __future__ import annotations

import functools
import importlib
import importlib.util
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, TypeVar

from itt import (
    App, Context, Fuel, FuelExhausted, Global, GlobalEnv, PragmaReduce, Program,
    RuleSet, Term, TypeCheckError, Var, elaborate, head_step, load_example,
    pretty,
)
import itt.reduce
from itt.corpus import CaseReport, ExampleCase
from itt.reduce import _apply, _unwind
from itt.syntax import CHILDREN, subterms

R = TypeVar("R")


def _load(name: str, path: str):
    """The module at ``path`` in the repository, loaded by path as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's program generators; the module uses only the standard
# library and reaches the kernel through the namespace it is given
# (``kernel``).
workloads = _load("perfbench_workloads", "perfbench/workloads.py")
# The writer of the ``expected/`` tables, and the rule variants (``VARIANTS``)
# whose reductions they record.
record_expected = _load("record_expected", "scripts/record_expected.py")


def kernel(*modules: str) -> SimpleNamespace:
    """The namespace of ``itt`` modules that a workload reaches the kernel by."""
    return SimpleNamespace(**{m: importlib.import_module(f"itt.{m}")
                              for m in modules})


@contextmanager
def recorded_budgets(monkeypatch) -> Iterator[list[Fuel]]:
    """Yield the live list of every budget that ``RuleSet.new_budget`` hands
    out inside the block, in the order it hands them out."""
    budgets: list[Fuel] = []
    new_budget = RuleSet.new_budget

    def recording(rules: RuleSet) -> Fuel:
        budgets.append(new_budget(rules))
        return budgets[-1]

    with monkeypatch.context() as m:
        m.setattr(RuleSet, "new_budget", recording)
        yield budgets


def spent_fuel(monkeypatch, run: Callable[[], R]) -> tuple[R, int]:
    """``run()``'s result, and the fuel spent from every budget that
    ``RuleSet.new_budget`` handed out while it ran, as the benchmark's traced
    run counts it."""
    with recorded_budgets(monkeypatch) as budgets:
        out = run()
    return out, sum(b.rules.fuel - b.remaining for b in budgets)


def counting_calls(monkeypatch, name: str) -> list:
    """Replace ``itt.reduce.<name>`` by a wrapper that counts its calls, and
    return the live list of the first argument of each call."""
    seen, real = [], getattr(itt.reduce, name)

    def counting(*args, **kwargs):
        seen.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(itt.reduce, name, counting)
    return seen


def step_term(env: GlobalEnv, ctx: Context, t: Term,
              budget: Fuel) -> tuple[Term, str] | None:
    """``head_step`` on the whole spine ``t``: its head and argument stack go
    in, and the step's term over its stack comes out as one term, with the
    step's kind; or None if ``t`` is head-stable."""
    r = head_step(env, ctx, *_unwind(t, None), budget)
    return None if r is None else (_apply(*r[0]), r[1])


def apps(head: Term, args: Iterable[Term]) -> Term:
    """``head`` applied to ``args``, the first argument innermost."""
    return functools.reduce(App, args, head)


def spine_head(t: Term) -> Term:
    """The head of the application spine ``t``."""
    while type(t) is App:
        t = t.fn
    return t


# The rule variants that differential runs check each corpus case under.
FLAG_VARIANTS = ({}, {"cast_rule": False}, {"eqrec_rule": False},
                 {"proof_irrelevance": False})


def observe(monkeypatch, program: Program, rules: RuleSet,
            strategy: str) -> tuple[list, list[int]]:
    """What a run shows (each ``#check`` type, each trace's step kinds, step
    keys and status line, or the error that ended it) and the fuel each of
    its budgets spent."""
    with recorded_budgets(monkeypatch) as budgets:
        try:
            _, results = elaborate(program, rules, reduce_strategy=strategy)
            shown = [pretty(r.type_) if r.trace is None else
                     ([(s.kind, s.key) for s in r.trace.steps],
                      r.trace.status_line())
                     for r in results]
        except (TypeCheckError, FuelExhausted, RecursionError) as exc:
            shown = [f"{type(exc).__name__}: {exc}"]
    return shown, [b.rules.fuel - b.remaining for b in budgets]


def parse_trace_json(lines: Iterable[str]) -> tuple[list[dict], str]:
    """Split serialized JSON trace lines into step records and the status line."""
    records: list[dict] = []
    status = ""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("STATUS"):
            status = line
            continue
        records.append(json.loads(line))
    return records, status


def has_free_var(t: Term, lo: int = 0, hi: int | None = None) -> bool:
    """Does a free index in ``[lo, hi)`` occur in ``t``?  No ``hi``: no bound."""
    todo = [(t, 0)]
    while todo:
        cur, depth = todo.pop()
        if type(cur) is Var:
            if lo <= cur.index - depth and (hi is None or cur.index - depth < hi):
                return True
        else:
            todo.extend((getattr(cur, a), depth + u) for a, u in CHILDREN[type(cur)])
    return False


def collect_globals(t: Term) -> set[str]:
    out: set[str] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Global):
            out.add(cur.name)
        stack.extend(subterms(cur))
    return out


def smallest_free_name(base: str, taken: set[str]) -> str:
    """``base`` if it is not taken, else ``base<k>`` for the smallest
    ``k >= 1`` not taken, found by trying every suffix from 1."""
    if base not in taken:
        return base
    k = 1
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def closed_over_axioms(env: GlobalEnv, t: Term) -> bool:
    """True iff ``t`` has no free variables and never reaches an assumption:
    every global it references, transitively through types and definition
    bodies, is a definition or an axiom."""
    if has_free_var(t):
        return False
    seen: set[str] = set()
    pending = list(collect_globals(t))
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        entry = env.lookup(name)
        if entry is None or entry.kind == "assume":
            return False
        if entry.body is not None:
            pending.extend(collect_globals(entry.body))
        pending.extend(collect_globals(entry.type_))
    return True


def checked(report: CaseReport) -> int:
    """How many of the report's entries were checked rather than skipped."""
    return sum(ok is not None for _, ok in report.entries)


def reduce_pragma_count(case: ExampleCase) -> int:
    return sum(isinstance(d, PragmaReduce) for d in case.program.declarations)


def case_env(name: str, **flags: bool) -> tuple[GlobalEnv, RuleSet]:
    """The environment of a corpus case elaborated without its reductions,
    under the case's rule set with ``flags`` changed."""
    case = load_example(name)
    rules = case.rules.updated(**flags)
    env, _ = elaborate(case.program, rules, reduce_strategy=None)
    return env, rules


# counterexample2 without its pragmas (declarations 0-5), then a predicate on
# Top (declaration 6) whose argument must convert with Omega, and the
# identity on Prop that tests pass it.
CE2_DEFS = "\n".join(
    line for line in load_example("counterexample2").source.splitlines()
    if not line.startswith("#"))
CE2_G = """
axiom G : Top -> Prop.
"""
CE2_I = "(fun (A : Prop), fun (a : A), a)"
# counterexample2's declarations, G, a proof g of G at the identity, then
# ``bad`` (declaration 8), whose checking converts Omega with the identity:
# Omega's unfolding repeats with period 2 across conversion's states.
UNFOLDING_CYCLE = (CE2_DEFS + CE2_G + f"axiom g : G {CE2_I}.\n"
                   "def bad : G Omega := g.\n")

# counterexample2's Top, id and tautext (declarations 0-2), G and a proof of
# G at the identity (3-4), then ``bad`` (5), whose type has delta, omega and
# Omega written inline: checking it loops by Beta and CastFire steps inside
# one head reduction, not across conversion's unfolding states.
INLINE_OMEGA = f"""
def Top : Prop := forall (A : Prop), A -> A.
def id : Top -> Top := fun (x : Top), x.
axiom tautext : forall (A : Prop), forall (B : Prop), A -> B -> Eq Prop A B.
{CE2_G}
axiom g : G {CE2_I}.
def bad : G ((fun (z : Top), z (Top -> Top) (fun (x : Top), x) z)
             (fun (A : Prop), fun (a : A),
              cast (Top -> Top) A (tautext (Top -> Top) A (fun (x : Top), x) a)
                (fun (z : Top), z (Top -> Top) (fun (x : Top), x) z))) := g.
"""


# The texts that fuzzed token streams are drawn from: every keyword and its
# Unicode alias, names, every punctuation token, good and bad pragmas, a
# comment, a newline, and texts that are no token.
TOKEN_TEXTS = (
    "def", "axiom", "assume", "forall", "fun", "∀", "λ", "Prop", "Type",
    "Eq", "refl", "Eq_rec", "cast", "J", "x", "y", "A", "Top", "Bot", "d0",
    "d1", "(", ")", ":", ":=", ",", ".", "->", "→",
    "#check", "#reduce", "#oops", "-- note\n", "\n", "@", "0", "_",
)
