from __future__ import annotations

import dataclasses
import importlib
import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from itt import (
    CASE_NAMES, DEFAULT_FUEL, DEFAULT_RULES, FUEL_EXHAUSTED, PROP,
    App, Cast, ConversionCycle, EnvEntry, Eq, EqRec, Fuel, FuelExhausted,
    Global, J, Lam,
    PragmaCheck, PragmaReduce, Refl, RuleSet, SortT, TypeCheckError, Var,
    ctx_extend, elaborate, infer, is_proposition, load_example,
    normalize, parse_program, parse_term, pretty,
)
import itt
from itt import reduce as reduce_module
from itt.convert import convert
from itt.reduce import FIRINGS
from itt.syntax import CHILDREN
from helpers import CE2_DEFS, CE2_G, CE2_I, INLINE_OMEGA, case_env
from term_strategies import GLOBAL_POOL, open_terms


def test_reflexive_on_globals():
    env, rules = case_env("counterexample1")
    assert convert(env, (), Global("Top"), Global("Top"), rules.new_budget())


def test_top_and_bot_differ():
    env, rules = case_env("counterexample1")
    assert not convert(env, (), Global("Top"), Global("Bot"), rules.new_budget())


def test_unfolding_settles_neg_bot():
    env, rules = case_env("counterexample1")
    lhs = parse_term("Neg Bot", env.names())
    rhs = parse_term("Bot -> Bot", env.names())
    assert convert(env, (), lhs, rhs, rules.new_budget())


_IRRELEVANCE_SRC = """
def Bot : Prop := forall (A : Prop), A.
def Top : Prop := forall (A : Prop), A -> A.
axiom e1 : Eq Prop Top Bot.
axiom e2 : Eq Prop Top Bot.
axiom x1 : Top.
axiom x2 : Top.
"""


def test_proof_irrelevance_identifies_proofs():
    # each eliminator is stuck (Top and Bot do not convert), so the pair is
    # compared field by field; the pairs differ only in a proof field
    rules = RuleSet(j_rule=True)
    env, _ = elaborate(parse_program(_IRRELEVANCE_SRC), rules)
    scope = env.names()
    motive = "(fun (X : Prop), Prop)"
    pairs = [
        ("cast Top Bot e1 x1", "cast Top Bot e2 x2"),
        (f"Eq_rec Prop {motive} Top Bot Top e1",
         f"Eq_rec Prop {motive} Top Bot Top e2"),
        ("J Top Bot x1", "J Top Bot x2"),
    ]
    off = rules.updated(proof_irrelevance=False)
    for a, b in pairs:
        p, q = parse_term(a, scope), parse_term(b, scope)
        assert convert(env, (), p, q, rules.new_budget()), a
        assert not convert(env, (), p, q, off.new_budget()), a
    # refl's value and the sides of Eq are not proofs: compared either way
    never = [
        ("refl Prop Top", "refl Prop Bot"),
        ("Eq Prop Top Bot", "Eq Prop Bot Bot"),
        ("Eq Prop Top Top", "Eq Prop Top Bot"),
    ]
    for a, b in never:
        p, q = parse_term(a, scope), parse_term(b, scope)
        assert not convert(env, (), p, q, rules.new_budget()), a
        assert not convert(env, (), p, q, off.new_budget()), a


# The fields of each primitive that hold an element of a type.  The others
# (carriers, cast and J endpoints, the Eq_rec motive) are types or type
# families, never proofs (and is_proposition rejects a motive: its type,
# T -> Type, has no sort).
_ASKED = {
    Eq: ("lhs", "rhs"), Refl: ("val",), EqRec: ("lhs", "rhs", "base", "proof"),
    Cast: ("proof", "val"), J: ("val",),
}

# Each primitive under binders, so the walk also checks open subterms.
_PRIMITIVES_SRC = _IRRELEVANCE_SRC + """
def coe : forall (A : Prop), forall (B : Prop), Eq Prop A B -> A -> B :=
  fun (A : Prop), fun (B : Prop), fun (e : Eq Prop A B), fun (x : A),
  cast A B e x.
def tr : forall (A : Prop), forall (B : Prop), Eq Prop A B -> Prop :=
  fun (A : Prop), fun (B : Prop), fun (e : Eq Prop A B),
  Eq_rec Prop (fun (X : Prop), Prop) A B A e.
def jay : forall (A : Prop), A -> A := fun (A : Prop), fun (x : A), J A A x.
def r : forall (A : Prop), Eq Prop A A := fun (A : Prop), refl Prop A.
"""


def _programs():
    """(env, rules, root terms) of each corpus program, then of one more."""
    for name in CASE_NAMES:
        case = load_example(name)
        env, _ = elaborate(case.program, case.rules, run_reduce=False)
        pragmas = [d.term for d in case.program.declarations
                   if isinstance(d, (PragmaCheck, PragmaReduce))]
        yield env, case.rules, _roots(env) + pragmas
    rules = RuleSet(j_rule=True)
    env, _ = elaborate(parse_program(_PRIMITIVES_SRC), rules)
    yield env, rules, _roots(env)


def _roots(env):
    return [e.type_ for e in env] + [e.body for e in env if e.body is not None]


def _in_context(t):
    """Every subterm of the closed term ``t``, with its binder context."""
    todo = [(t, ())]
    while todo:
        cur, ctx = todo.pop()
        yield cur, ctx
        for attr, under in CHILDREN[type(cur)]:
            todo.append((getattr(cur, attr),
                         ctx_extend(ctx, cur.domain) if under else ctx))


def test_proof_fields_are_the_fields_typed_by_a_proposition():
    seen = set()
    for env, rules, roots in _programs():
        for root in roots:
            for node, ctx in _in_context(root):
                cls = type(node)
                if cls not in _ASKED:
                    continue
                seen.add(cls)
                proof_fields = FIRINGS[cls][-1] if cls in FIRINGS else ()
                for attr in _ASKED[cls]:
                    budget = rules.new_budget()
                    ty = infer(env, ctx, getattr(node, attr), budget)
                    proof = is_proposition(env, ctx, ty, budget)
                    assert proof == (attr in proof_fields), (
                        f"{cls.__name__}.{attr} in {node}")
    assert seen == set(_ASKED)


@pytest.mark.xfail(strict=True, raises=TypeCheckError,
                   reason="irrelevance is by position: proofs passed as "
                          "arguments are still compared (ROADMAP item 1)")
def test_proofs_in_argument_position_are_irrelevant():
    # the paper's theory accepts this: h1 and h2 prove the same P
    elaborate(parse_program(
        "axiom P : Prop.\n"
        "axiom F : P -> Prop.\n"
        "axiom h1 : P.\n"
        "axiom h2 : P.\n"
        "axiom x : F h1.\n"
        "def y : F h2 := x.\n"))


def test_is_proposition_examples():
    env, rules = case_env("counterexample1")
    budget = rules.new_budget()
    eq = parse_term("Eq Prop Top Top", env.names())
    assert is_proposition(env, (), eq, budget)
    assert not is_proposition(env, (), PROP, budget)
    assert is_proposition(env, (), Global("Top"), budget)


def test_equivalence_relation_on_corpus_types():
    env, rules = case_env("counterexample1")
    terms = [e.type_ for e in env] + [e.body for e in env if e.body is not None]
    for t in terms:
        assert convert(env, (), t, t, rules.new_budget())  # reflexive
    related = [(parse_term("Top", env.names()), parse_term("Neg Bot", env.names())),
               (parse_term("Neg Bot", env.names()),
                parse_term("Bot -> Bot", env.names()))]
    for a, b in related:
        assert convert(env, (), a, b, rules.new_budget())
        assert convert(env, (), b, a, rules.new_budget())  # symmetric
    # transitive across the chain above
    assert convert(env, (), parse_term("Top", env.names()),
                   parse_term("Bot -> Bot", env.names()), rules.new_budget())


@pytest.mark.parametrize("name", CASE_NAMES)
def test_conversion_is_an_equivalence_on_corpus_terms(name):
    for irrelevance in (True, False):
        env, rules = case_env(name, proof_irrelevance=irrelevance)
        rules = rules.updated(fuel=2000)
        roots = _roots(env)
        for t in roots:  # reflexive, on a copy: identity is answered early
            copy = parse_term(pretty(t), env.names())
            assert convert(env, (), t, copy, rules.new_budget()), pretty(t)
        # every ordered pair whose query ends within the fuel
        known = {}
        for i, j in itertools.product(range(len(roots)), repeat=2):
            try:
                known[i, j] = convert(env, (), roots[i], roots[j],
                                      rules.new_budget())
            except FuelExhausted:
                pass
        for (i, j), related in known.items():
            assert known.get((j, i), related) == related, (irrelevance, i, j)
            if related:  # transitive
                for k in range(len(roots)):
                    if known.get((j, k)) and (i, k) in known:
                        assert known[i, k], (irrelevance, i, j, k)


def test_congruence_spot_checks():
    env, rules = case_env("counterexample1")
    scope = env.names()
    a, b = parse_term("Top", scope), parse_term("Neg Bot", scope)
    assert convert(env, (), a, b, rules.new_budget())
    contexts = [
        lambda hole: App(Global("Neg"), hole),
        lambda hole: Eq(PROP, hole, Global("Bot")),
        lambda hole: Cast(hole, Global("Bot"), Var(0), Var(1)),
        lambda hole: Lam(PROP, App(Global("Neg"), hole)),
    ]
    for fill in contexts:
        assert convert(env, (), fill(a), fill(b), rules.new_budget())


def test_disabling_rules_never_creates_conversions():
    env, rules = case_env("sanity-casts")
    scope = env.names()
    pairs = [
        (parse_term("Top", scope), parse_term("Bot", scope)),
        (parse_term("top_eq", scope), parse_term("top_is_bot", scope)),
        (parse_term("Neg Top", scope), parse_term("Neg Bot", scope)),
        (parse_term("cast Top Bot top_is_bot top_value", scope),
         parse_term("top_value", scope)),
    ]
    restricted = rules.updated(cast_rule=False, eqrec_rule=False)
    for a, b in pairs:
        if not convert(env, (), a, b, rules.new_budget()):
            assert not convert(env, (), a, b, restricted.new_budget())


def test_firing_cast_converts_to_its_payload_only_when_enabled():
    env, rules = case_env("sanity-casts")
    scope = env.names()
    fired = parse_term("cast Top Top top_eq top_value", scope)
    payload = parse_term("top_value", scope)
    assert convert(env, (), fired, payload, rules.new_budget())
    off = rules.updated(cast_rule=False)
    assert not convert(env, (), fired, payload, off.new_budget())


def test_fuel_exhaustion_propagates():
    env, rules = case_env("counterexample1")
    lhs = parse_term("Neg Bot", env.names())
    rhs = parse_term("Bot -> Bot", env.names())
    with pytest.raises(FuelExhausted):
        convert(env, (), lhs, rhs, Fuel(1, rules))


def test_reflexive_query_costs_one_unit():
    env, rules = case_env("sanity-casts")
    # the cast fires and the payload unfolds, but the same object needs neither
    t = parse_term("cast Top Top top_eq top_value", env.names())
    budget = Fuel(1, rules)
    assert convert(env, (), t, t, budget)
    assert budget.remaining == 0


_POOL_ENV, _ = elaborate(parse_program(
    "axiom g0 : Prop.\n"
    "def g1 : Prop := forall (A : Prop), A.\n"
    "def g2 : Prop -> Prop := fun (A : Prop), A -> A.\n"))
assert _POOL_ENV.names() == GLOBAL_POOL


def _copy(t):
    """A structural copy of ``t`` that shares no node with it."""
    return dataclasses.replace(
        t, **{f: _copy(getattr(t, f)) for f, _ in CHILDREN[type(t)]})


@settings(max_examples=300)
@given(open_terms)
def test_reflexive_on_distinct_copies(t):
    # the copy shares no node with t, so the identity shortcut cannot answer
    # and, unless t is a leaf, the structural path must be reflexive on its own
    copy = _copy(t)
    assert copy == t and copy is not t
    ctx = (PROP,) * 3
    try:
        assert convert(_POOL_ENV, ctx, t, copy, Fuel(500, DEFAULT_RULES))
    except FuelExhausted:
        pass


def test_divergent_conversion_is_a_detected_cycle():
    # Omega unfolds back to itself inside convert, so no budget suffices; the
    # detector reports that before 100 units are spent, where a plain
    # FuelExhausted would mean the budget simply ran out
    program = parse_program(CE2_DEFS + CE2_G + f"axiom g : G {CE2_I}.\n"
                            "def bad : G Omega := g.\n")
    with pytest.raises(ConversionCycle, match=r"^declaration 8 \(bad\): ") as info:
        elaborate(program, RuleSet(fuel=100))
    assert isinstance(info.value, FuelExhausted)
    assert info.value.period == 2
    assert "period 2" in str(info.value)


@pytest.mark.parametrize("irrelevance", [True, False])
def test_head_reduction_cycle_is_detected_while_checking(monkeypatch,
                                                         irrelevance):
    # bad's loop runs inside one whnf_term call, not across convert's
    # unfolding states; whnf_term's own check reports it within 50 units
    budgets = []
    new_budget = RuleSet.new_budget

    def counting(rules):
        budgets.append(new_budget(rules))
        return budgets[-1]

    monkeypatch.setattr(RuleSet, "new_budget", counting)
    rules = RuleSet(proof_irrelevance=irrelevance)
    with pytest.raises(ConversionCycle, match=r"^declaration 5 \(bad\): "
                       r"reduction repeats with period 4$") as info:
        elaborate(parse_program(INLINE_OMEGA), rules)
    assert info.value.period == 4
    assert rules.fuel - budgets[-1].remaining < 50


def test_cast_whose_side_condition_loops_exhausts_the_reduction(monkeypatch):
    # the cast's endpoints only convert if Omega does: the trace ends as
    # FuelExhausted, with no step, long before its budget is spent
    env, _ = elaborate(parse_program(
        CE2_DEFS + CE2_G + f"axiom p : Eq Prop (G Omega) (G {CE2_I}).\n"
        "axiom x : G Omega.\n"))
    term = parse_term(f"cast (G Omega) (G {CE2_I}) p x", env.names())
    budgets = []
    new_budget = RuleSet.new_budget

    def counting(rules):
        budgets.append(new_budget(rules))
        return budgets[-1]

    monkeypatch.setattr(RuleSet, "new_budget", counting)
    trace = normalize(env, (), term, RuleSet())
    assert trace.status == FUEL_EXHAUSTED and trace.steps == []
    [budget] = budgets
    assert budget.remaining > DEFAULT_FUEL - 100


def _fuel_spent(env, t1, t2):
    budget = Fuel(DEFAULT_FUEL, DEFAULT_RULES)
    assert convert(env, (), t1, t2, budget=budget)
    return DEFAULT_FUEL - budget.remaining


def _alias_chain(n):
    """``def T_k : Prop := T_(k-1)`` for k = 1..n, after a closed T0."""
    return elaborate(parse_program(
        "def T0 : Prop := forall (A : Prop), A -> A.\n" + "".join(
            f"def T{k} : Prop := T{k - 1}.\n" for k in range(1, n + 1))))[0]


def test_long_alias_chain_is_not_a_cycle():
    # 300 distinct unfolding states in a row; the budget pays 1 for the
    # query and 1 per unfolding, and nothing for the cycle check.  Only the
    # later definition unfolds, in either order, until the heads meet
    env = _alias_chain(300)
    for a, b, cost in [(300, 0, 301), (200, 100, 101)]:
        assert _fuel_spent(env, Global(f"T{a}"), Global(f"T{b}")) == cost
        assert _fuel_spent(env, Global(f"T{b}"), Global(f"T{a}")) == cost


def test_random_alias_dag_converts_symmetrically():
    # def U_k : Prop := U_j with j < k: every pair meets at a common alias,
    # and unfolding the later head first makes the cost independent of order
    rng = random.Random(13)
    src = "def U0 : Prop := forall (A : Prop), A -> A.\n" + "".join(
        f"def U{k} : Prop := U{rng.randrange(k)}.\n" for k in range(1, 200))
    env, _ = elaborate(parse_program(src))
    for _ in range(2000):
        i, j = (Global(f"U{rng.randrange(200)}") for _ in range(2))
        assert _fuel_spent(env, i, j) == _fuel_spent(env, j, i)


def test_global_heights_follow_declaration_order():
    env, _ = elaborate(parse_program(
        "def A : Prop := forall (X : Prop), X.\n"
        "axiom B : Prop.\n"
        "def C : Prop := A -> B.\n"
        "assume D : C.\n"
        "def E : Prop := C.\n"))
    assert [env.height(n) for n in "ABCDE"] == [1, 0, 3, 0, 5]
    assert env.height("missing") == 0


def test_equal_leaves_answer_without_reducing(monkeypatch):
    # separately built leaves are == but not the same object: the query
    # spends its one unit and answers before any weak-head reduction
    env, _ = elaborate(parse_program("def T : Prop := forall (A : Prop), A.\n"))
    prop = SortT("Prop")
    assert prop == PROP and prop is not PROP

    def no_reduction(*args, **kwargs):
        raise AssertionError("whnf_term called")

    monkeypatch.setattr(reduce_module, "whnf_term", no_reduction)
    for t1, t2 in [(Global("T"), Global("T")), (Var(2), Var(2)), (prop, PROP)]:
        budget = Fuel(1, DEFAULT_RULES)
        assert convert(env, (PROP,) * 3, t1, t2, budget=budget)
        assert budget.remaining == 0


# An alias forest: N0 is an axiom; each later N_k is an axiom or names an
# earlier N_j.  Two names convert exactly when they reach the same axiom.
_alias_forests = st.integers(2, 8).flatmap(lambda n: st.tuples(*(
    st.one_of(st.none(), st.integers(0, k - 1)) if k else st.none()
    for k in range(n))))


def _alias_program(parents):
    return parse_program("".join(
        f"axiom N{k} : Prop.\n" if j is None else f"def N{k} : Prop := N{j}.\n"
        for k, j in enumerate(parents)))


def _outcome(env, t1, t2, fuel):
    budget = Fuel(fuel, DEFAULT_RULES)
    try:
        result = convert(env, (), t1, t2, budget=budget)
    except FuelExhausted as exc:
        result = type(exc)
    return result, budget.remaining


@settings(max_examples=100, deadline=None)
@given(_alias_forests, st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                          st.integers(1, 12)), max_size=20))
def test_a_memo_hit_replays_the_live_fuel(parents, queries):
    # every query on the warm environment (which answers repeats from its
    # memo) ends as on a fresh one, with the same budget left, even when
    # the budget runs out
    program = _alias_program(parents)
    warm, _ = elaborate(program)
    for i, j, fuel in queries:
        pair = Global(f"N{i % len(parents)}"), Global(f"N{j % len(parents)}")
        cold, _ = elaborate(program)
        assert _outcome(warm, *pair, fuel) == _outcome(cold, *pair, fuel)


def test_a_memo_hit_without_enough_fuel_runs_out_at_the_live_step():
    # the memo knows the query's cost, but a budget one unit short still
    # runs out at the same step as on a fresh environment, leaving -1
    warm, pair = _alias_chain(30), (Global("T30"), Global("T0"))
    cost = _fuel_spent(warm, *pair)
    assert cost == 31
    assert _outcome(_alias_chain(30), *pair, cost - 1) == (FuelExhausted, -1)
    assert _outcome(warm, *pair, cost - 1) == (FuelExhausted, -1)
    assert _outcome(warm, *pair, cost) == (True, 0)


# fired unfolds to a cast that fires to top_value only under the cast rule
_CAST_PAIR_SRC = """
def Top : Prop := forall (A : Prop), A -> A.
axiom top_eq : Eq Prop Top Top.
axiom top_value : Top.
def fired : Top := cast Top Top top_eq top_value.
def plain : Top := top_value.
"""


def test_the_rule_set_is_part_of_the_memo_key():
    on, off = RuleSet(), RuleSet(cast_rule=False)
    pair = Global("fired"), Global("plain")
    for order in [(on, off), (off, on)]:
        env, _ = elaborate(parse_program(_CAST_PAIR_SRC))
        for rules in order + order:  # the second round repeats the first
            assert convert(env, (), *pair, rules.new_budget()) == (rules is on)


def test_a_pair_with_an_unbound_name_is_not_memoized():
    env, _ = elaborate(parse_program("axiom X : Prop.\ndef A : Prop := X.\n"))
    pair = Global("A"), Global("B")
    assert not convert(env, (), *pair)
    env.add(EnvEntry("B", PROP, Global("X"), "def"))
    assert convert(env, (), *pair)


def test_a_query_that_runs_out_of_fuel_stores_nothing():
    env, pair = _alias_chain(30), (Global("T30"), Global("T0"))
    assert _outcome(env, *pair, 10) == (FuelExhausted, -1)
    assert _fuel_spent(env, *pair) == 31


@pytest.mark.parametrize("name", ["syntax", "parser", "rules", "env", "convert",
                                  "reduce", "typecheck", "corpus", "cli"])
def test_package_attribute_is_its_module(name):
    # no function is re-exported under its module's name
    module = importlib.import_module(f"itt.{name}")
    assert getattr(itt, name) is module


def test_kernel_surface():
    assert itt.convert.convert is convert
    # declared next to FuelExhausted, and reachable where it was
    assert itt.convert.ConversionCycle is itt.rules.ConversionCycle
    assert itt.ConversionCycle is itt.rules.ConversionCycle
    # one leftmost-outermost traversal: normalize; tests keep their own step
    assert not hasattr(itt.reduce, "step") and not hasattr(itt, "step")
