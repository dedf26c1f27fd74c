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

``key`` is ``canonical_key`` from its definition, a SHA-256 Merkle digest,
with each node's tag and children spelled out: plain recursion that memoizes
nothing and shares no code with the kernel's ``_digest`` or its tables.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

from itt import (
    App, Cast, Context, Eq, EqRec, Fuel, Global, GlobalEnv, J, Lam, Pi, Refl,
    ScopeError, SortT, Term, Var, ctx_extend,
)
from itt.reduce import BETA, _with_child
from itt.syntax import CHILDREN
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
    head, args = t, []  # the arguments, the first one last
    while type(head) is App:
        args.append(head.arg)
        head = head.fn
    if type(head) is Lam and args:
        budget.spend()
        out = subst(head.body, 0, args.pop())
        while args:
            out = App(out, args.pop())
        return out, BETA
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


def key(t: Term) -> str:
    """The hex SHA-256 of ``t``'s one-letter tag followed by its leaf
    payload as text, or by the digests of its children in surface order."""
    return _digest(t).hex()


def _digest(t: Term) -> bytes:
    def node(tag: bytes, *kids: Term) -> bytes:
        return hashlib.sha256(tag + b"".join(_digest(k) for k in kids)).digest()

    match t:
        case Var(i):
            return hashlib.sha256(b"V" + str(i).encode()).digest()
        case SortT(sort):
            return hashlib.sha256(b"S" + sort.encode()).digest()
        case Global(name):
            return hashlib.sha256(b"G" + name.encode()).digest()
        case Pi(dom, cod):
            return node(b"P", dom, cod)
        case Lam(dom, body):
            return node(b"L", dom, body)
        case App(fn, arg):
            return node(b"A", fn, arg)
        case Eq(ty, lhs, rhs):
            return node(b"E", ty, lhs, rhs)
        case Refl(ty, val):
            return node(b"R", ty, val)
        case EqRec(ty, motive, lhs, rhs, base, proof):
            return node(b"Q", ty, motive, lhs, rhs, base, proof)
        case Cast(src, dst, proof, val):
            return node(b"C", src, dst, proof, val)
        case J(src, dst, val):
            return node(b"J", src, dst, val)
    raise TypeError(f"not a term: {t!r}")
