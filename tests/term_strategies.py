"""Hypothesis strategies for well-scoped terms, and fixed terms that tests
share."""

from __future__ import annotations

import hypothesis.strategies as st

from itt import (
    PROP, TYPE,
    App, Cast, Eq, EqRec, Global, J, Lam, Pi, Refl, Var,
)

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


def church_numeral(k: int):
    """Church numeral ``k`` in normal form:
    ``fun (A : Prop), fun (s : A -> A), fun (x : A), s (... (s x))``."""
    body = Var(0)
    for _ in range(k):
        body = App(Var(1), body)
    return Lam(PROP, Lam(Pi(Var(0), Var(1)), Lam(Var(1), body)))
