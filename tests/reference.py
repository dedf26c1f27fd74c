"""The leftmost-outermost single step that the tests check the kernel's
``nf`` traces against: consecutive snapshots of a strong-normalization trace
must be one ``step`` apart, and an ``nf`` cycle report must return to its
witness after exactly ``period`` steps.

It is not used by ``itt`` itself, which has one traversal, ``normalize``.
It still contracts each redex by the kernel's ``head_step``, so it checks
the traversal order and the snapshots, not the rules.
"""

from __future__ import annotations

from itt import Context, Fuel, GlobalEnv, RuleSet, StepKind, Term, ctx_extend
from itt.reduce import _with_child, head_step
from itt.syntax import CHILDREN


def step(env: GlobalEnv, ctx: Context, t: Term, rules: RuleSet,
         budget: Fuel | None = None) -> tuple[Term, StepKind] | None:
    """Contract the leftmost-outermost redex, or None if ``t`` is in normal
    form with respect to the enabled rules."""
    if budget is None:
        budget = rules.new_budget()
    r = head_step(env, ctx, t, rules, budget)
    if r is not None:
        return r
    for attr, under_binder in CHILDREN[type(t)]:
        child = getattr(t, attr)
        child_ctx = ctx_extend(ctx, t.domain) if under_binder else ctx  # type: ignore[attr-defined]
        sub = step(env, child_ctx, child, rules, budget)
        if sub is not None:
            new_child, kind = sub
            return _with_child(t, attr, new_child), kind
    return None
