"""Definitional equality with optional proof irrelevance.

With proof irrelevance on, the fields that the typing rules fix as proofs of
a proposition are never compared: the proof and the value of ``cast A B e
x``, the proof of ``Eq_rec T P a b x e``, and the value of ``J A B x`` (the
table ``PROOF_FIELDS``).  Every other position is compared structurally,
including proofs passed elsewhere, such as application arguments; typed
irrelevance there is future work (ROADMAP item 1).

Every query spends one unit of fuel, and a query of a term with itself (the
same object) or of two equal leaves (``Var``, ``SortT``, ``Global``) costs
exactly that unit: it is answered before any reduction.  Otherwise weak-head
forms are compared, with lazy delta unfolding as in Lean 4's kernel: a
global unfolds only when the heads disagree (or agree but their parts do
not), and then the head of greater definitional height
(``GlobalEnv.height``) unfolds, the left one on a tie.  Since a body names
only earlier globals, two aliases meet at their common alias without
unfolding past it, and comparisons stay close to the named forms they
started from.  Two heads of height 0 (no defined global) do not convert.

Unfolding can loop, since this theory does not normalize.  A pair of
weak-head forms equal to an earlier pair raises ConversionCycle, a
FuelExhausted that gives the period; the check spends no fuel.  While
checking, ``itt`` reports it with exit code 4, e.g. ``conversion cycle:
declaration 8 (bad): unfolding repeats with period 2``.
"""

from __future__ import annotations

from . import reduce as _reduce
from . import typecheck as _typecheck
from .env import Context, GlobalEnv, ctx_extend
from .rules import DEFAULT_RULES, Fuel, FuelExhausted, RuleSet
from .syntax import (
    CHILDREN, PROP, App, Cast, EqRec, Global, J, Term, alpha_eq, unwind_apps,
)


class ConversionCycle(FuelExhausted):
    """A conversion query whose unfolding states repeat, or (``what`` is
    "reduction") a head reduction whose states repeat.

    Its loop would spend any budget, so it is a FuelExhausted found early;
    ``period`` is the number of steps between the two equal states.
    """

    def __init__(self, period: int, what: str = "unfolding") -> None:
        super().__init__(f"{what} repeats with period {period}")
        self.period = period


def is_proposition(env: GlobalEnv, ctx: Context, type_: Term, rules: RuleSet,
                   budget: Fuel) -> bool:
    """True iff the type of ``type_`` weak-head reduces to the sort Prop.

    Conversion does not call it: it is the reference that ``PROOF_FIELDS``
    is tested against, and a building block for typed irrelevance.
    """
    return _typecheck.infer_whnf(env, ctx, type_, rules, budget) == PROP


def convert(env: GlobalEnv, ctx: Context, t1: Term, t2: Term,
            rules: RuleSet = DEFAULT_RULES, budget: Fuel | None = None) -> bool:
    """Definitional equality under the active rules.

    Raises FuelExhausted when the budget runs out; that outcome is distinct
    from "not convertible" and must never be coerced to False.
    """
    if budget is None:
        budget = rules.new_budget()
    budget.spend()  # conversion queries consume the shared budget
    # identity, not ==: dataclass == recurses and costs O(size); but two
    # leaves (Var, SortT, Global) compare in O(1)
    if t1 is t2 or (not CHILDREN[type(t1)] and t1 == t2):
        return True
    w1 = _reduce.whnf_term(env, ctx, t1, rules, budget, unfold_heads=False)
    w2 = _reduce.whnf_term(env, ctx, t2, rules, budget, unfold_heads=False)
    # Brent's cycle check: the next state depends only on (w1, w2), so a
    # state equal to the one saved at the last power of two never returns.
    saved, power, period = (w1, w2), 1, 0
    while True:
        if type(w1) is type(w2) and _parts_convert(env, ctx, w1, w2, rules, budget):
            return True
        h1, h2 = _height(env, w1), _height(env, w2)
        if h1 == h2 == 0:
            return False
        if h1 >= h2:
            u1 = _reduce.unfold(env, *unwind_apps(w1), budget)
            w1 = _reduce.whnf_term(env, ctx, u1, rules, budget, unfold_heads=False)
        else:
            u2 = _reduce.unfold(env, *unwind_apps(w2), budget)
            w2 = _reduce.whnf_term(env, ctx, u2, rules, budget, unfold_heads=False)
        period += 1
        try:
            repeat = alpha_eq(w1, saved[0]) and alpha_eq(w2, saved[1])
        except RecursionError:  # == recurses: too deep to confirm a repeat
            repeat = False
        if repeat:
            raise ConversionCycle(period)
        if period == power:
            saved, power, period = (w1, w2), 2 * power, 0


def _height(env: GlobalEnv, t: Term) -> int:
    """The definitional height of the head of the spine ``t``."""
    while type(t) is App:
        t = t.fn
    return env.height(t.name) if type(t) is Global else 0


# The fields whose type is a proposition, by the typing rules of
# ``itt.typecheck`` (every Eq-type is a Prop): in ``cast A B e x``,
# e : Eq Prop A B and x : A with A : Prop; in ``Eq_rec T P a b x e``,
# e : Eq T a b; in ``J A B x``, x : A with A : Prop.  Any two proofs of a
# proposition are equal, so with proof irrelevance on these fields are not
# compared.
PROOF_FIELDS: dict[type, tuple[str, ...]] = {
    Cast: ("proof", "val"), EqRec: ("proof",), J: ("val",),
}


def _parts_convert(env: GlobalEnv, ctx: Context, t1: Term, t2: Term,
                   rules: RuleSet, budget: Fuel) -> bool:
    """Do two nodes of the same class agree field by field?"""
    children = CHILDREN[type(t1)]
    if not children:  # Var, SortT or Global: compare the payload
        return t1 == t2
    skip = PROOF_FIELDS.get(type(t1), ()) if rules.proof_irrelevance else ()
    for attr, under in children:
        if attr in skip:
            continue
        inner = ctx_extend(ctx, t1.domain) if under else ctx
        if not convert(env, inner, getattr(t1, attr), getattr(t2, attr),
                       rules, budget):
            return False
    return True
