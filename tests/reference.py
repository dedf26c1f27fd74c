"""References that the tests check the kernel against.

``shift`` and ``subst`` are written case by case from the de Bruijn
definitions, as plain recursion that builds every node anew.  They share no
code with the kernel's ``shift`` and ``subst``: not its traversal, its
``rebuild`` nor its shared variables.

``step`` is the leftmost-outermost single step that the kernel's ``nf``
traces are checked against: consecutive snapshots of a strong-normalization
trace must be one ``step`` apart, and an ``nf`` cycle report must return to
its witness after exactly ``period`` steps.  It is not used by ``itt``
itself, which has one traversal, ``normalize``.  It contracts Beta with the
``subst`` below, so the kernel's memoized Beta instantiation is checked
against a substitution that shares no code with it; every other rule (Delta
and the three firings) still goes through the kernel's ``head_step``, by
``helpers.step_term``.
"""

from __future__ import annotations

from dataclasses import fields

from itt import (
    App, Context, Fuel, Global, GlobalEnv, Lam, Pi, ScopeError, SortT,
    Term, Var, ctx_extend,
)
from itt.reduce import BETA, _with_child
from itt.syntax import CHILDREN, build_apps, unwind_apps
from helpers import step_term


def shift(t: Term, cutoff: int = 0, amount: int = 1) -> Term:
    """``t`` with every index ``i >= cutoff`` made ``i + amount``; the cutoff
    grows by one under a binder.  An index sent below zero is a
    ``ScopeError``."""
    match t:
        case Var(i) if i >= cutoff:
            if i + amount < 0:
                raise ScopeError(f"index {i} shifted below zero")
            return Var(i + amount)
        case Var() | SortT() | Global():
            return t
        case Pi(dom, cod):
            return Pi(shift(dom, cutoff, amount), shift(cod, cutoff + 1, amount),
                      name=t.name)
        case Lam(dom, body):
            return Lam(shift(dom, cutoff, amount), shift(body, cutoff + 1, amount),
                       name=t.name)
        case App(fn, arg):
            return App(shift(fn, cutoff, amount), shift(arg, cutoff, amount))
    # Eq, Refl, EqRec, Cast and J: every field is a child, none under a binder
    return type(t)(*(shift(getattr(t, f.name), cutoff, amount) for f in fields(t)))


def subst(t: Term, target: int, value: Term) -> Term:
    """``t`` with ``Var(target)`` replaced by ``value`` and every index above
    ``target`` lowered by one.  Under a binder the target is one more and the
    value is shifted by one."""
    match t:
        case Var(i):
            return value if i == target else Var(i - 1) if i > target else t
        case SortT() | Global():
            return t
        case Pi(dom, cod):
            return Pi(subst(dom, target, value),
                      subst(cod, target + 1, shift(value)), name=t.name)
        case Lam(dom, body):
            return Lam(subst(dom, target, value),
                       subst(body, target + 1, shift(value)), name=t.name)
        case App(fn, arg):
            return App(subst(fn, target, value), subst(arg, target, value))
    return type(t)(*(subst(getattr(t, f.name), target, value) for f in fields(t)))


def step(env: GlobalEnv, ctx: Context, t: Term,
         budget: Fuel) -> tuple[Term, str] | None:
    """Contract the leftmost-outermost redex, or None if ``t`` is in normal
    form with respect to the budget's rules."""
    head, args = unwind_apps(t)
    if type(head) is Lam and args:
        budget.spend()
        return build_apps(subst(head.body, 0, args[0]), args[1:]), BETA
    r = step_term(env, ctx, t, budget)
    if r is not None:
        return r
    for attr, under_binder in CHILDREN[type(t)]:
        child = getattr(t, attr)
        child_ctx = ctx_extend(ctx, t.domain) if under_binder else ctx  # type: ignore[attr-defined]
        sub = step(env, child_ctx, child, budget)
        if sub is not None:
            new_child, kind = sub
            return _with_child(t, attr, new_child), kind
    return None
