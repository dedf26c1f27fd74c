from __future__ import annotations

import dataclasses
import hashlib
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itt import (
    DEFAULT_RULES, KIND, PROP, TYPE,
    App, Cast, Eq, EqRec, GlobalEnv, Global, J, Lam, Pi, Refl, ScopeError,
    SortT, TraceStep, Var,
    alpha_eq, canonical_key, normalize, parse_term, pretty, shift, subst,
)
from itt.reduce import BETA
from itt.syntax import (
    CHILDREN, PRIMITIVES, _print_scan, rebuild, subterms, var,
)
import reference
from helpers import collect_globals, has_free_var, smallest_free_name
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


def _nodes_of(cls: type) -> st.SearchStrategy:
    """Terms of class ``cls`` whose children are open terms, with one more
    free index in scope under the node's binder."""
    if not CHILDREN[cls]:
        return {Var: st.integers(0, 5).map(var), SortT: st.sampled_from([PROP, TYPE]),
                Global: st.sampled_from([Global(g) for g in GLOBAL_POOL])}[cls]
    return st.builds(cls, *(terms(1, ctx=4 + under) for _, under in CHILDREN[cls]))


_NODES = {cls: _nodes_of(cls) for cls in CHILDREN}
_FREE_VALUES = open_terms.filter(has_free_var)


@pytest.mark.parametrize("cls", list(CHILDREN), ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shift_and_subst_agree_with_the_reference(cls, data):
    t = data.draw(_NODES[cls], "t")
    target, cutoff = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    amount = data.draw(st.integers(-1, 2))
    value = data.draw(_FREE_VALUES, "value")
    got = subst(t, target, value)
    want = reference.subst(t, target, value)
    assert got == want and pretty(got) == pretty(want)
    try:
        want = reference.shift(t, cutoff, amount)
    except ScopeError:
        with pytest.raises(ScopeError):
            shift(t, cutoff, amount)
        return
    got = shift(t, cutoff, amount)
    assert got == want and pretty(got) == pretty(want)


def test_reference_shifts_the_value_across_two_binders():
    # the target occurs under two binders, and the value's free variables
    # are shifted across them
    t = Lam(Var(0), Pi(Var(1), App(Var(2), Var(3)), name="y"), name="x")
    value = App(Var(0), Var(2))
    want = Lam(App(Var(0), Var(2)),
               Pi(App(Var(1), Var(3)), App(App(Var(2), Var(4)), Var(2))))
    assert subst(t, 0, value) == reference.subst(t, 0, value) == want
    want = Lam(Var(0), Pi(Var(1), App(Var(2), Var(5))))
    assert shift(t, 1, 2) == reference.shift(t, 1, 2) == want


def test_variables_are_shared_and_equal_to_a_copy():
    names = [f"x{k}" for k in range(6)]
    binders = "".join(f"fun ({x} : Prop), " for x in names)
    for i in range(6):
        shared = var(i)
        assert var(i) is shared
        # the body of six lambdas names the binder i levels out
        body = parse_term(binders + names[-1 - i])
        for _ in names:
            body = body.body
        assert body is shared
        assert subst(Var(i + 1), 0, PROP) is shared
        assert shift(Var(i), 0, 1) is var(i + 1)
        copy = Var(i)
        assert copy is not shared
        assert copy == shared and hash(copy) == hash(shared)
        assert canonical_key(copy) == canonical_key(shared)
        assert pretty(copy) == pretty(shared)
        assert pretty(Lam(PROP, copy)) == pretty(Lam(PROP, shared))


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
    # shift and subst rebuild a node by passing its children positionally,
    # plus the name of a Pi or Lam and nothing else
    for cls, fields in CHILDREN.items():
        if fields:
            kids = {attr for attr, _ in fields}
            rest = [f.name for f in dataclasses.fields(cls) if f.name not in kids]
            assert rest == (["name"] if cls in (Pi, Lam) else []), cls
    bound = {(cls, attr) for cls, fields in CHILDREN.items()
             for attr, under in fields if under}
    assert bound == {(Pi, "codomain"), (Lam, "body")}


# Each node class: its fields in order, the arguments of one instance, and
# that instance's repr.
_V0, _V1, _V2, _V3, _V4, _V5 = (var(i) for i in range(6))
_NODE_CLASSES = {
    Var: (("index",), (3,), "Var(index=3)"),
    SortT: (("sort",), ("Type",), "SortT(sort='Type')"),
    Pi: (("domain", "codomain", "name"), (PROP, _V0, "x"),
         "Pi(domain=SortT(sort='Prop'), codomain=Var(index=0), name='x')"),
    Lam: (("domain", "body", "name"), (_V1, _V0, "y"),
          "Lam(domain=Var(index=1), body=Var(index=0), name='y')"),
    App: (("fn", "arg"), (Global("f"), _V0),
          "App(fn=Global(name='f'), arg=Var(index=0))"),
    Global: (("name",), ("g",), "Global(name='g')"),
    Eq: (("ty", "lhs", "rhs"), (_V0, _V1, _V2),
         "Eq(ty=Var(index=0), lhs=Var(index=1), rhs=Var(index=2))"),
    Refl: (("ty", "val"), (_V0, _V1), "Refl(ty=Var(index=0), val=Var(index=1))"),
    EqRec: (("ty", "motive", "lhs", "rhs", "base", "proof"),
            (_V0, _V1, _V2, _V3, _V4, _V5),
            "EqRec(ty=Var(index=0), motive=Var(index=1), lhs=Var(index=2),"
            " rhs=Var(index=3), base=Var(index=4), proof=Var(index=5))"),
    Cast: (("src", "dst", "proof", "val"), (_V0, _V1, _V2, _V3),
           "Cast(src=Var(index=0), dst=Var(index=1), proof=Var(index=2),"
           " val=Var(index=3))"),
    J: (("src", "dst", "val"), (_V0, _V1, _V2),
        "J(src=Var(index=0), dst=Var(index=1), val=Var(index=2))"),
}


def test_the_node_class_table_covers_every_node_class():
    assert list(_NODE_CLASSES) == list(CHILDREN)


@pytest.mark.parametrize("cls", list(CHILDREN), ids=lambda c: c.__name__)
def test_node_classes_behave_as_frozen_dataclasses(cls):
    names, args, text = _NODE_CLASSES[cls]
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert cls.__match_args__ == names
    node = cls(*args)
    assert node == cls(**dict(zip(names, args)))
    assert repr(node) == text
    hash(node)  # memoizes the digest on ``node``
    first = {int: 7, str: "z"}.get(type(args[0]), Global("h"))
    changed = dataclasses.replace(node, **{names[0]: first})
    assert type(changed) is cls and changed == cls(first, *args[1:])
    assert [getattr(changed, n) for n in names] == [first, *args[1:]]
    assert "_digest" not in vars(changed) and changed != node
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, unknown=None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(node, names[0], first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(node, names[0])
    assert getattr(node, names[0]) == args[0]
    if cls in (Pi, Lam):  # the binder's name is for display only
        renamed = dataclasses.replace(node, name="other")
        assert renamed == node and hash(renamed) == hash(node)
        assert cls(*args[:2]) == node and cls(*args[:2]).name == "_"
    assert node != object() and (node == object()) is False


def test_each_node_class_has_its_own_init_and_eq_code():
    # one code object per class: an __init__ or __eq__ shared by the classes
    # of one arity, as a closure, was slower at every later call
    for method in ("__init__", "__eq__"):
        codes = [vars(cls)[method].__code__ for cls in CHILDREN]
        assert len({id(code) for code in codes}) == len(CHILDREN), method


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


# ``f ((fun (x : Prop), x) _x1)`` with its argument replaced by ``_x1`` in
# each way that a term is rebuilt: by ``dataclasses.replace``, by plugging a
# trace snapshot, and by ``normalize`` after the argument's Beta step.  The
# last snapshot of ``t ((fun (x : Prop), x) _x1)`` is plugged around the
# node that ``normalize`` rebuilt from ``t``.
_REBUILT = {
    "replace": lambda t: dataclasses.replace(t, arg=Var(1)),
    "plug": lambda t: TraceStep(BETA, Var(1), (t, "arg", None)).term,
    "normalize": lambda t: normalize(
        GlobalEnv(), (), App(t, t.arg), DEFAULT_RULES).final.fn,
}


def _redex_arg():
    return App(Global("f"), App(Lam(PROP, Var(0)), Var(1)))


@pytest.mark.parametrize("rebuilt", _REBUILT.values(), ids=_REBUILT)
def test_key_memo_is_not_carried_by_replace(rebuilt):
    t = _redex_arg()
    before = canonical_key(t)
    changed = rebuilt(t)
    assert "_digest" not in vars(changed)  # the rebuilt node starts unkeyed
    assert canonical_key(changed) == canonical_key(App(Global("f"), Var(1)))
    assert canonical_key(changed) != before
    # the memo sits outside the fields: equality and hashing are unchanged
    assert t == _redex_arg()
    assert hash(t) == hash(_redex_arg())
    assert canonical_key(t) == before


@pytest.mark.parametrize("rebuilt", _REBUILT.values(), ids=_REBUILT)
def test_hash_memo_is_not_carried_by_replace(rebuilt):
    # the hash is memoized through the digest, the bytes behind canonical_key
    t = _redex_arg()
    before = hash(t)
    assert before == hash(bytes.fromhex(canonical_key(t)))  # one fingerprint
    changed = rebuilt(t)
    assert "_digest" not in vars(changed)
    assert hash(changed) == hash(App(Global("f"), Var(1)))
    assert hash(changed) != before
    assert hash(t) == before


@given(closed_terms, st.sampled_from(["q", "x", "A"]))
def test_alpha_equal_terms_hash_alike(t, tag):
    renamed = _rename_binders(t, tag)
    fresh = parse_term(pretty(t), scope=GLOBAL_POOL)  # shares no node with t
    assert alpha_eq(t, renamed) and alpha_eq(t, fresh)
    assert hash(t) == hash(renamed) == hash(fresh)


def test_hash_of_a_deep_term_does_not_recurse():
    # Church 2^10 in normal form is about 1,030 nodes deep, past the default
    # recursion limit that a field-by-field hash would hit
    a, b = church_numeral(2 ** 10), church_numeral(2 ** 10)
    assert hash(a) == hash(b)
    assert hash(a) != hash(church_numeral(2 ** 10 - 1))


def test_alpha_eq_of_deep_terms_does_not_recurse():
    # two separately built copies of a numeral about 1,030 deep, on which
    # dataclass == overflows, and a copy whose innermost leaf differs
    a, b = church_numeral(1030), church_numeral(1030)
    with pytest.raises(RecursionError):
        _ = a == b
    assert alpha_eq(a, b)
    body = Var(2)  # the numeral's innermost leaf is Var(0)
    for _ in range(1030):
        body = App(Var(1), body)
    changed = Lam(PROP, Lam(Pi(Var(0), Var(1)), Lam(Var(1), body)))
    assert not alpha_eq(a, changed) and not alpha_eq(changed, a)


def _nodes(t):
    yield t
    for kid in subterms(t):
        yield from _nodes(kid)


def _wrapped(t):
    """``t`` under ``fun (_ : Prop),`` binders, 100 more than the recursion
    limit, built anew at each call, so dataclass == overflows on two of them
    (each level costs it a frame) and ``alpha_eq`` takes its explicit walk."""
    for _ in range(sys.getrecursionlimit() + 100):
        t = Lam(PROP, t)
    return t


def _grafted(t, k, sub):
    """A copy of ``t`` that shares no node with it, with ``sub`` in place of
    its ``k``-th node in preorder."""
    seen = -1

    def copy(t):
        nonlocal seen
        seen += 1
        if seen == k:
            return sub
        if not CHILDREN[type(t)]:
            return dataclasses.replace(t)
        return rebuild(t, [copy(kid) for kid in subterms(t)])

    return copy(t)


@settings(max_examples=60, deadline=None)
@given(open_terms, open_terms, st.data())
def test_alpha_eq_past_the_recursion_limit_agrees_with_eq(a, b, data):
    # a against b, and a against a copy of a with b grafted at one node, so
    # that the two differ, if at all, in one child of one node
    k = data.draw(st.integers(0, sum(1 for _ in _nodes(a)) - 1))
    deep = _wrapped(a)
    for other in (b, _grafted(a, k, b)):
        deep_other = _wrapped(other)
        with pytest.raises(RecursionError):
            _ = deep == deep_other
        assert alpha_eq(deep, deep_other) == (a == other)


@given(open_terms)
@example(App(Pi(PROP, Var(0)), Pi(PROP, Var(0))))  # two binders in slot 0
def test_print_scan_agrees_with_the_tree_walks(t):
    # pretty's one pre-pass against a walk per question: the globals, and
    # each Pi whose codomain has no free index 0
    names, arrows = _print_scan(t)
    assert names == collect_globals(t)
    assert arrows == {id(p) for p in _nodes(t)
                      if type(p) is Pi and not has_free_var(p.codomain, 0, 1)}


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


# Binder names drawn for the pinned printing test: each collides with a
# global of ``_PRINTED_GLOBALS``, with another binder, or with the name that
# freshening another would give.
_PRINTED_BINDERS = ("x", "x", "y", "A", "g0", "x1", "_")
_PRINTED_GLOBALS = ("g0", "x1", "A", "h")


def _printed_term(rng, depth: int, ctx: int):
    """A seeded term whose free indices are below ``ctx``: leaves, binders,
    arrows nested on either side, applications and every primitive."""
    def sub(extra: int = 0):
        return _printed_term(rng, depth - 1, ctx + extra)

    form = rng.randrange(9) if depth > 0 else rng.randrange(3)
    name = rng.choice(_PRINTED_BINDERS)
    if form == 0:
        return rng.choice((PROP, TYPE, KIND))
    if form == 1:
        return Global(rng.choice(_PRINTED_GLOBALS))
    if form == 2:
        return Var(rng.randrange(ctx)) if ctx else PROP
    if form == 3:
        return Pi(sub(), sub(1), name=name)
    if form == 4:  # an arrow: the codomain skips the binder
        return Pi(sub(), shift(sub(), 0, 1), name=name)
    if form == 5:  # the binder is used only in a nested arrow's domain
        inner = Pi(App(Var(0), sub(1)), shift(sub(), 0, 2), name=name)
        return Pi(sub(), inner, name=rng.choice(_PRINTED_BINDERS))
    if form == 6:
        return Lam(sub(), sub(1), name=name)
    if form == 7:
        return App(sub(), sub())
    cls = rng.choice(list(PRIMITIVES.values()))
    return cls(*(sub() for _ in CHILDREN[cls]))


def _printed_chains():
    """300-arrow chains nested on the right and on the left, one under a
    ``forall`` whose binder only the last codomain uses, and 300-deep
    ``forall`` chains whose binders all share one name."""
    right = left = PROP
    used_last = Var(300)
    for k in range(300):  # Var(299 - k) is the free index 0 at its depth
        right = Pi(Global("h") if k % 2 else Var(299 - k), right, name="x")
        left = Pi(left, PROP, name="x")
        used_last = Pi(PROP, used_last, name="x")
    nested = Var(0)
    for _ in range(300):
        nested = Pi(PROP, App(nested, Var(0)), name="x")
    return [right, left, Pi(TYPE, used_last, name="x"), nested,
            Lam(PROP, nested, name="g0")]


def test_printed_text_is_pinned():
    # The digest was computed before ``pretty`` found arrows and globals in
    # one pre-pass, so a change to how a term prints is checked against it.
    rng = random.Random(20)
    digest = hashlib.sha256()
    seeded = [_printed_term(rng, rng.randrange(1, 6), rng.choice((0, 0, 2, 3)))
              for _ in range(2_000)]
    for t in [*seeded, *_printed_chains()]:
        digest.update(pretty(t).encode() + b"\0")
    assert digest.hexdigest() == (
        "ede6e4250cde2e0b47a58778be29eaf8f01f7bacd4d6568e4cf1b86e0882c26b")


def test_same_name_binders_show_the_smallest_free_suffix():
    # binders all named x, alternately forall and fun, under globals x1 and
    # x3.  Each domain applies the enclosing binder, so no forall is an
    # arrow, to a forall on x printed before its own binder's name is taken,
    # so it shows that same name.
    t = App(App(Global("x1"), Global("x3")), Var(0))
    for k in reversed(range(40)):
        inner = Pi(PROP, Var(0), name="x")
        node = Pi if k % 2 else Lam
        t = node(App(Var(0), inner) if k else inner, t, name="x")
    taken, want = {"x1", "x3"}, []
    for _ in range(40):
        want.append(smallest_free_name("x", taken))
        taken.add(want[-1])
    assert want[:4] == ["x", "x2", "x4", "x5"]
    shown = re.findall(r"(?:forall|fun) \((\w+) :", pretty(t))
    assert shown == [name for name in want for _ in range(2)]
