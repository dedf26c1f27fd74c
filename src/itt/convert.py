"""Definitional equality with optional proof irrelevance.

With proof irrelevance on, the fields that the typing rules fix as proofs of
a proposition, the proof column of ``reduce.FIRINGS``, are never compared.
Every other position is compared structurally, including proofs passed
elsewhere, such as application arguments; typed irrelevance there is future
work (ROADMAP item 1).

Every query spends one unit of fuel, and a query of a term with itself (the
same object) or of two equal leaves (``Var``, ``SortT``, ``Global``) costs
exactly that unit: identity is answered before any reduction, and no rule
steps a leaf.  The same object also comes from one parse, which builds one
``Global`` per name, and from one Beta instantiation that a budget shares
(``Fuel.instances``), so a query of two results of it is answered at once,
even when they diverge, where two copies would be reduced.  Otherwise
weak-head forms are compared, with lazy delta unfolding as in Lean 4's
kernel: a global unfolds only when the heads disagree (or agree but their
parts do not), and then the head of greater definitional height
(``GlobalEnv.height``) unfolds, the left one on a tie.  Since a body names
only earlier globals, two aliases meet at their common alias without
unfolding past it, and comparisons stay close to the named forms they
started from.  Two heads of height 0 (no defined global) do not convert.

A pair of two different bound globals is answered once per environment and
rule set.  Each such pair of weak-head forms that the loop meets, its first
included, is consulted once, and one not found is kept in
``GlobalEnv.conversions``, keyed on ``budget.rules`` and the names, with its
answer and the fuel spent from there to the end.  That fuel cannot change, as a body names only
earlier globals and no entry is replaced, and a run that ends repeats no
state, so the loop from a pair spends alike wherever it was met.  A later
state of a kept pair spends that fuel again, or runs live if the budget
holds less, to run out at the same step; so only a query too deep for
Python's stack may end differently (answered from the memo, not
RecursionError).  A raise stores nothing; the key omits ``ctx``.

Unfolding can loop, since this theory does not normalize.  A pair of
weak-head forms alpha-equal to an earlier pair, at any depth (``alpha_eq``),
raises ConversionCycle, a FuelExhausted that gives the period; the check
spends no fuel.  While checking, ``itt`` reports it with exit code 4, e.g.
``conversion cycle: declaration 8 (bad): unfolding repeats with period 2``.
"""

from __future__ import annotations

from . import reduce as _reduce
from . import typecheck as _typecheck
from .env import Context, GlobalEnv, ctx_extend
from .rules import DEFAULT_RULES, ConversionCycle, Fuel
from .syntax import CHILDREN, PROP, App, Global, Term, alpha_eq, build_apps, unwind_apps


def is_proposition(env: GlobalEnv, ctx: Context, type_: Term, budget: Fuel) -> bool:
    """True iff the type of ``type_`` weak-head reduces to the sort Prop.

    Conversion does not call it: the proof column of ``reduce.FIRINGS`` is
    tested against it, and typed irrelevance will build on it.
    """
    ty = _typecheck.infer(env, ctx, type_, budget)
    return _reduce.whnf_term(env, ctx, ty, budget) == PROP


def convert(env: GlobalEnv, ctx: Context, t1: Term, t2: Term,
            budget: Fuel | None = None) -> bool:
    """Definitional equality under the budget's rules (by default, a fresh
    budget of ``DEFAULT_RULES``).

    Raises FuelExhausted when the budget runs out; that outcome is distinct
    from "not convertible" and must never be coerced to False.

    ``ctx`` is threaded through ``convert``, ``head_step`` and ``normalize``
    because typed irrelevance (ROADMAP item 1) needs the binder types of
    open proofs; until then nothing reads it.
    """
    if budget is None:
        budget = DEFAULT_RULES.new_budget()
    budget.spend()  # conversion queries consume the shared budget
    # identity, not ==: a node's == recurses and costs O(size), and one
    # object that reduces would otherwise be reduced twice
    if t1 is t2:
        return True
    w1 = _reduce.whnf_term(env, ctx, t1, budget, unfold_heads=False)
    w2 = _reduce.whnf_term(env, ctx, t2, budget, unfold_heads=False)
    passed: list[tuple[tuple, int]] = []  # the named pairs met, to store
    # Brent's cycle check: the next state depends only on (w1, w2), so a
    # state equal to the one saved at the last power of two never returns.
    saved, power, period = (w1, w2), 1, 0
    while (answer := _recall(env, w1, w2, budget, passed)) is None:
        answer = type(w1) is type(w2) and _parts_convert(env, ctx, w1, w2, budget)
        if answer:
            break
        h1, h2 = _height(env, w1), _height(env, w2)
        if h1 == h2 == 0:
            break
        if h1 >= h2:
            u1 = build_apps(*_reduce.unfold(env, *unwind_apps(w1), budget))
            w1 = _reduce.whnf_term(env, ctx, u1, budget, unfold_heads=False)
        else:
            u2 = build_apps(*_reduce.unfold(env, *unwind_apps(w2), budget))
            w2 = _reduce.whnf_term(env, ctx, u2, budget, unfold_heads=False)
        period += 1
        if alpha_eq(w1, saved[0]) and alpha_eq(w2, saved[1]):
            raise ConversionCycle(period)
        if period == power:
            saved, power, period = (w1, w2), 2 * power, 0
    for key, left in passed:
        env.conversions[key] = (answer, left - budget.remaining)
    return answer


def _recall(env: GlobalEnv, t1: Term, t2: Term, budget: Fuel,
            passed: list[tuple[tuple, int]]) -> bool | None:
    """The loop's consult of each state: for two bare globals of different
    names, both bound, their stored answer, its fuel spent, if the budget
    holds that fuel.  Otherwise None, and the pair's key and the fuel left
    join ``passed``."""
    if (type(t1) is Global is type(t2) and t1.name != t2.name
            and env.lookup(t1.name) and env.lookup(t2.name)):
        key = (budget.rules, t1.name, t2.name)
        if (hit := env.conversions.get(key)) and hit[1] <= budget.remaining:
            budget.remaining -= hit[1]  # replay the live run's fuel
            return hit[0]
        passed.append((key, budget.remaining))
    return None


def _height(env: GlobalEnv, t: Term) -> int:
    """The definitional height of the head of the spine ``t``."""
    while type(t) is App:
        t = t.fn
    return env.height(t.name) if type(t) is Global else 0


def _parts_convert(env: GlobalEnv, ctx: Context, t1: Term, t2: Term,
                   budget: Fuel) -> bool:
    """Do two nodes of the same class agree field by field?"""
    children = CHILDREN[type(t1)]
    if not children:  # Var, SortT or Global: compare the payload
        return t1 == t2
    firing = _reduce.FIRINGS.get(type(t1))
    skip = firing[-1] if firing and budget.rules.proof_irrelevance else ()
    for attr, under in children:
        if attr in skip:
            continue
        inner = ctx_extend(ctx, t1.domain) if under else ctx
        if not convert(env, inner, getattr(t1, attr), getattr(t2, attr), budget):
            return False
    return True
