"""Hypothesis strategies for well-scoped terms, and fixed terms that tests
share."""

from __future__ import annotations

import hypothesis.strategies as st

from itt import (
    PROP, TYPE,
    App, Cast, Eq, EqRec, Global, J, Lam, Pi, Refl, Var, pretty,
)
from helpers import apps

GLOBAL_POOL = ("g0", "g1", "g2")


def terms(depth: int = 3, ctx: int = 0) -> st.SearchStrategy:
    """Well-scoped terms with at most ``ctx`` free de Bruijn indices."""
    leaves = [
        st.sampled_from([PROP, TYPE]),
        st.sampled_from([Global(g) for g in GLOBAL_POOL]),
    ]
    if ctx > 0:
        leaves.append(st.integers(0, ctx - 1).map(Var))
    leaf = st.one_of(leaves)
    if depth <= 0:
        return leaf
    sub = terms(depth - 1, ctx)
    bound = terms(depth - 1, ctx + 1)
    return st.one_of(
        leaf,
        st.builds(Pi, sub, bound),
        st.builds(Lam, sub, bound),
        st.builds(App, sub, sub),
        st.builds(Eq, sub, sub, sub),
        st.builds(Refl, sub, sub),
        st.builds(EqRec, sub, sub, sub, sub, sub, sub),
        st.builds(Cast, sub, sub, sub, sub),
        st.builds(J, sub, sub, sub),
    )


closed_terms = terms(depth=3, ctx=0)
open_terms = terms(depth=3, ctx=3)


def _head_redexes(ctx: int) -> st.SearchStrategy:
    """Spines that a rule may step at the head: a beta redex, a pool global,
    or a cast, Eq_rec or J with equal endpoints, applied to up to two more
    terms.  ``terms`` rarely draws one."""
    sub = terms(2, ctx)

    def spines(head: st.SearchStrategy) -> st.SearchStrategy:
        return st.builds(apps, head, st.lists(sub, max_size=2))

    return st.one_of(
        spines(st.builds(App, st.builds(Lam, sub, terms(2, ctx + 1)), sub)),
        spines(st.sampled_from([Global(g) for g in GLOBAL_POOL])),
        spines(st.builds(lambda a, e, x: Cast(a, a, e, x), sub, sub, sub)),
        spines(st.builds(lambda ty, p, a, x, e: EqRec(ty, p, a, a, x, e),
                         sub, sub, sub, sub, sub)),
        spines(st.builds(lambda a, x: J(a, a, x), sub, sub)),
    )


head_redexes = _head_redexes(ctx=3)


def _head_loops(ctx: int) -> st.SearchStrategy:
    """Spines whose head reduction may loop: the self-application
    ``(fun (x : A), x x) (fun (x : A), x x)``, a pool global alone or applied
    to pool globals (once renamed to a corpus program's names, ``Omega`` or
    ``delta omega`` unfolds into its loop), and casts with equal endpoints of
    either, applied to up to two more terms.  Neither ``terms`` nor
    ``head_redexes`` builds one except by chance."""
    sub = terms(1, ctx)
    pool = st.sampled_from([Global(g) for g in GLOBAL_POOL])
    self_app = st.builds(lambda a: App(Lam(a, App(Var(0), Var(0))),
                                       Lam(a, App(Var(0), Var(0)))), sub)
    unfolding = st.builds(apps, pool, st.lists(pool, max_size=2))
    loops = st.one_of(self_app, unfolding)
    casts = st.builds(lambda a, e, x: Cast(a, a, e, x), sub, sub, loops)
    return st.builds(apps, st.one_of(loops, casts),
                     st.lists(sub, max_size=2))


head_loops = _head_loops(ctx=3)


def church_numeral(k: int):
    """Church numeral ``k`` in normal form:
    ``fun (A : Prop), fun (s : A -> A), fun (x : A), s (... (s x))``."""
    body = Var(0)
    for _ in range(k):
        body = App(Var(1), body)
    return Lam(PROP, Lam(Pi(Var(0), Var(1)), Lam(Var(1), body)))


def church_exp_program(m: int, n: int) -> str:
    """The source of a program that defines ``Nat``, the numerals ``m`` and
    ``n`` and ``exp``, then ends in ``#reduce exp m n``."""
    return ("def Nat : Prop := forall (A : Prop), (A -> A) -> A -> A.\n"
            f"def m : Nat := {pretty(church_numeral(m))}.\n"
            f"def n : Nat := {pretty(church_numeral(n))}.\n"
            "def exp : Nat -> Nat -> Nat :=\n"
            "  fun (m : Nat), fun (n : Nat), fun (A : Prop), n (A -> A) (m A).\n"
            "#reduce exp m n.\n")
