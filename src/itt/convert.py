"""Type-directed definitional equality with optional proof irrelevance.

With proof irrelevance on, two terms sharing a known type that is a
proposition are convertible without being compared at all: the checker never
inspects proof shapes, only whether endpoints agree.  The common type is
threaded where it is cheaply available (the equality/coercion node fields,
and top-level calls from typing rules); elsewhere comparison is structural.
That approximation is deliberate: full typed conversion would have to carry
types through every position, and nothing here requires it.

Every query spends one unit of fuel, and a query of a term with itself (the
same object) costs exactly that unit: it is answered before any reduction.
Otherwise weak-head forms are compared, with incremental unfolding: a global
unfolds only when the heads disagree (or agree but their parts do not),
which keeps comparisons close to the named forms they started from.

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
from .rules import DEFAULT_RULES, Fuel, FuelExhausted, RuleSet  # re-exported
from .syntax import (
    PROP,
    App, Cast, Eq, EqRec, Global, J, Lam, Pi, Refl, SortT, Term, Var,
    alpha_eq, unwind_apps,
)

__all__ = ["convert", "is_proposition", "ConversionCycle", "RuleSet", "Fuel",
           "FuelExhausted", "DEFAULT_RULES"]


class ConversionCycle(FuelExhausted):
    """A conversion query whose unfolding states repeat.

    Its loop would spend any budget, so it is a FuelExhausted found early;
    ``period`` is the number of unfoldings between the two equal states.
    """

    def __init__(self, period: int) -> None:
        super().__init__(f"unfolding repeats with period {period}")
        self.period = period


def is_proposition(env: GlobalEnv, ctx: Context, type_: Term, rules: RuleSet,
                   budget: Fuel) -> bool:
    """True iff the type of ``type_`` weak-head reduces to the sort Prop."""
    ty = _typecheck.infer(env, ctx, type_, rules, budget)
    return _reduce.whnf_term(env, ctx, ty, rules, budget) == SortT(PROP)


def convert(env: GlobalEnv, ctx: Context, t1: Term, t2: Term,
            common_type: Term | None = None,
            rules: RuleSet = DEFAULT_RULES, budget: Fuel | None = None) -> bool:
    """Definitional equality under the active rules.

    Raises FuelExhausted when the budget runs out; that outcome is distinct
    from "not convertible" and must never be coerced to False.
    """
    if budget is None:
        budget = rules.new_budget()
    budget.spend()  # conversion queries consume the shared budget
    if t1 is t2:  # identity, not ==: dataclass == recurses and costs O(size)
        return True
    if rules.proof_irrelevance and common_type is not None:
        try:
            if is_proposition(env, ctx, common_type, rules, budget):
                return True
        except _typecheck.TypeCheckError:
            pass  # ill-typed annotation on an untyped reduction; gate skipped
    w1 = _reduce.whnf_term(env, ctx, t1, rules, budget, unfold_heads=False)
    w2 = _reduce.whnf_term(env, ctx, t2, rules, budget, unfold_heads=False)
    # Brent's cycle check: the next state depends only on (w1, w2), so a
    # state equal to the one saved at the last power of two never returns.
    saved, power, period = (w1, w2), 1, 0
    while True:
        if type(w1) is type(w2) and _parts_convert(env, ctx, w1, w2, rules, budget):
            return True
        u1 = _reduce.unfold(env, *unwind_apps(w1), budget)
        if u1 is not None:
            w1 = _reduce.whnf_term(env, ctx, u1, rules, budget, unfold_heads=False)
        else:
            u2 = _reduce.unfold(env, *unwind_apps(w2), budget)
            if u2 is None:
                return False
            w2 = _reduce.whnf_term(env, ctx, u2, rules, budget, unfold_heads=False)
        period += 1
        if alpha_eq(w1, saved[0]) and alpha_eq(w2, saved[1]):
            raise ConversionCycle(period)
        if period == power:
            saved, power, period = (w1, w2), 2 * power, 0


def _parts_convert(env: GlobalEnv, ctx: Context, t1: Term, t2: Term,
                   rules: RuleSet, budget: Fuel) -> bool:
    def conv(a: Term, b: Term, common: Term | None = None,
             in_ctx: Context = ctx) -> bool:
        return convert(env, in_ctx, a, b, common, rules, budget)

    match t1, t2:
        case Var(i), Var(j):
            return i == j
        case SortT(s1), SortT(s2):
            return s1 == s2
        case Global(n1), Global(n2):
            return n1 == n2
        case Pi(d1, c1), Pi(d2, c2):
            inner = ctx_extend(ctx, d1)
            return conv(d1, d2) and conv(c1, c2, in_ctx=inner)
        case Lam(d1, b1), Lam(d2, b2):
            inner = ctx_extend(ctx, d1)
            return conv(d1, d2) and conv(b1, b2, in_ctx=inner)
        case App(f1, a1), App(f2, a2):
            return conv(f1, f2) and conv(a1, a2)
        case Eq(ty1, l1, r1), Eq(ty2, l2, r2):
            return conv(ty1, ty2) and conv(l1, l2, ty1) and conv(r1, r2, ty1)
        case Refl(ty1, v1), Refl(ty2, v2):
            return conv(ty1, ty2) and conv(v1, v2, ty1)
        case EqRec(ty1, p1, l1, r1, b1, e1), EqRec(ty2, p2, l2, r2, b2, e2):
            return (conv(ty1, ty2) and conv(p1, p2)
                    and conv(l1, l2, ty1) and conv(r1, r2, ty1)
                    and conv(b1, b2, App(p1, l1))
                    and conv(e1, e2, Eq(ty1, l1, r1)))
        case Cast(s1, d1, e1, v1), Cast(s2, d2, e2, v2):
            return (conv(s1, s2) and conv(d1, d2)
                    and conv(e1, e2, Eq(SortT(PROP), s1, d1))
                    and conv(v1, v2, s1))
        case J(s1, d1, v1), J(s2, d2, v2):
            return conv(s1, s2) and conv(d1, d2) and conv(v1, v2, s1)
    return False
