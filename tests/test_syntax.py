from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

import typing

from itt import (
    PROP,
    App, Global, Lam, Pi, ScopeError, SortT, Term, Var,
    alpha_eq, canonical_key, parse_term, pretty, shift, subst,
)
from itt.syntax import CHILDREN, has_free_var
from term_strategies import (
    GLOBAL_POOL, church_numeral, closed_terms, open_terms, terms,
)



def test_shift_free_variable():
    assert shift(Var(0), 0, 1) == Var(1)


def test_shift_bound_variable_fixed():
    assert shift(Lam(PROP, Var(0)), 0, 1) == Lam(PROP, Var(0))


def test_shift_free_under_binder():
    assert shift(Lam(PROP, Var(1)), 0, 2) == Lam(PROP, Var(3))


def test_shift_underflow_is_fatal():
    with pytest.raises(ScopeError):
        shift(Var(0), 0, -1)


def test_subst_direct_hit():
    assert subst(Var(0), 0, Global("top")) == Global("top")


def test_subst_outer_index_drops():
    got = subst(App(Var(0), Var(1)), 0, Global("c"))
    assert got == App(Global("c"), Var(0))


def test_subst_capture_avoided_under_binder():
    got = subst(Lam(PROP, Var(1)), 0, Global("c"))
    assert got == Lam(PROP, Global("c"))


def test_alpha_ignores_display_names():
    a = Lam(PROP, Var(0), name="A")
    b = Lam(PROP, Var(0), name="B")
    assert alpha_eq(a, b)
    assert canonical_key(a) == canonical_key(b)


def test_alpha_distinguishes_indices():
    assert not alpha_eq(Var(0), Var(1))
    assert canonical_key(Var(0)) != canonical_key(Var(1))


def test_alpha_distinguishes_eq_components():
    from itt import Eq
    top, bot = Global("Top"), Global("Bot")
    assert not alpha_eq(Eq(PROP, top, top), Eq(PROP, top, bot))
    # a key depends on the order of the children, not just on their set
    assert canonical_key(Eq(PROP, top, bot)) != canonical_key(Eq(PROP, bot, top))


def test_cycle_snapshots_pairwise_distinct():
    # The three displayed forms of the looping open term, built from source;
    # they repeat as a cycle but are not alpha-equal to each other.
    scope = ("Bot", "Neg", "Top", "delta", "omega", "h")
    forms = [
        parse_term("delta (omega h)", scope),
        parse_term("omega h Top (omega h)", scope),
        parse_term("cast Top Top (h Top Top) delta (omega h)", scope),
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not alpha_eq(forms[i], forms[j])
    assert len({canonical_key(f) for f in forms}) == 3


@given(open_terms, st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
def test_shift_composes(t, a, b, c):
    assert alpha_eq(shift(shift(t, c, a), c, b), shift(t, c, a + b))


def test_children_are_the_compared_term_fields_in_order():
    # shift and subst rebuild a node by passing its children positionally
    assert set(CHILDREN) == set(Term.__subclasses__())
    for cls, fields in CHILDREN.items():
        hints = typing.get_type_hints(cls)
        compared = [f.name for f in dataclasses.fields(cls) if f.compare]
        term_fields = [n for n in compared if hints[n] is Term]
        assert [attr for attr, _ in fields] == term_fields, cls
        if fields:  # besides its children, an inner node has at most a name
            rest = [f.name for f in dataclasses.fields(cls)
                    if f.name not in term_fields]
            assert rest == (["name"] if cls in (Pi, Lam) else []), cls


# Terms whose free indices all lie below ``c``, paired with ``c``.
_below = st.one_of([st.tuples(terms(3, c), st.just(c)) for c in range(4)])


@given(_below, st.integers(-2, 3))
def test_shift_without_affected_index_returns_the_term_itself(tc, n):
    t, c = tc
    assert not has_free_var(t, c)
    assert shift(t, c, n) is t


@given(_below, closed_terms)
def test_subst_without_affected_index_returns_the_term_itself(tc, v):
    t, j = tc
    assert subst(t, j, v) is t


@given(open_terms, closed_terms)
def test_insert_then_substitute_is_identity(t, v):
    assert alpha_eq(subst(shift(t, 0, 1), 0, v), t)


def _rename_binders(t, tag: str):
    if isinstance(t, (Pi, Lam)):
        kids = {f.name: _rename_binders(getattr(t, f.name), tag)
                for f in dataclasses.fields(t) if f.name != "name"}
        return dataclasses.replace(t, name=f"{tag}{id(t) % 97}", **kids)
    if isinstance(t, (Var, SortT, Global)):
        return t
    kids = {f.name: _rename_binders(getattr(t, f.name), tag)
            for f in dataclasses.fields(t)}
    return dataclasses.replace(t, **kids)


@given(closed_terms)
def test_key_respects_alpha(t):
    renamed = _rename_binders(t, "q")
    assert alpha_eq(t, renamed)
    assert canonical_key(t) == canonical_key(renamed)


@given(closed_terms, closed_terms)
def test_key_equal_exactly_when_alpha_equal(a, b):
    assert (canonical_key(a) == canonical_key(b)) == alpha_eq(a, b)


def test_key_memo_is_not_carried_by_replace():
    t = App(Global("f"), Var(0))
    before = canonical_key(t)
    changed = dataclasses.replace(t, arg=Var(1))
    assert canonical_key(changed) == canonical_key(App(Global("f"), Var(1)))
    assert canonical_key(changed) != before
    # the memo sits outside the fields: equality and hashing are unchanged
    assert t == App(Global("f"), Var(0))
    assert hash(t) == hash(App(Global("f"), Var(0)))
    assert canonical_key(t) == before


@given(closed_terms, st.sampled_from(["q", "x", "A"]))
def test_alpha_equal_terms_hash_alike(t, tag):
    renamed = _rename_binders(t, tag)
    fresh = parse_term(pretty(t), scope=GLOBAL_POOL)  # shares no node with t
    assert alpha_eq(t, renamed) and alpha_eq(t, fresh)
    assert hash(t) == hash(renamed) == hash(fresh)


def test_hash_memo_is_not_carried_by_replace():
    t = App(Global("f"), Var(0))
    before = hash(t)
    changed = dataclasses.replace(t, arg=Var(1))
    assert "_hash" not in vars(changed)
    assert hash(changed) == hash(App(Global("f"), Var(1)))
    assert hash(changed) != before
    assert hash(t) == before


def test_hash_of_a_deep_term_does_not_recurse():
    # Church 2^10 in normal form is about 1,030 nodes deep, past the default
    # recursion limit that a field-by-field hash would hit
    a, b = church_numeral(2 ** 10), church_numeral(2 ** 10)
    assert hash(a) == hash(b)
    assert hash(a) != hash(church_numeral(2 ** 10 - 1))


@given(closed_terms)
def test_parse_pretty_roundtrip(t):
    assert alpha_eq(parse_term(pretty(t), scope=GLOBAL_POOL), t)


def test_pretty_forall():
    t = Pi(PROP, Var(0), name="A")
    assert pretty(t) == "forall (A : Prop), A"


def test_pretty_app_chain_left_associated():
    scope = ("omega", "Top", "h")
    t = parse_term("omega h Top (omega h)", scope)
    assert pretty(t) == "omega h Top (omega h)"
    assert alpha_eq(parse_term(pretty(t), scope), t)


def test_pretty_arrow_parenthesizes_left_nesting():
    t = parse_term("(Prop -> Prop) -> Prop")
    assert pretty(t) == "(Prop -> Prop) -> Prop"
    assert alpha_eq(parse_term(pretty(t)), t)


def test_pretty_freshens_shadowing_binders():
    inner = Lam(PROP, Var(1), name="x")  # refers to the outer binder
    t = Lam(PROP, inner, name="x")
    printed = pretty(t)
    assert alpha_eq(parse_term(printed), t)
