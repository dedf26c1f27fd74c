from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings

from itt import (
    DEFAULT_FUEL, FUEL_EXHAUSTED, PROP,
    App, Cast, ConversionCycle, Eq, Fuel, FuelExhausted, Global, Lam, RuleSet,
    SortT, Var,
    convert, elaborate, is_proposition, load_example, normalize,
    parse_program, parse_term,
)
from itt.syntax import CHILDREN
from term_strategies import GLOBAL_POOL, open_terms


def _env(name, **flags):
    case = load_example(name)
    rules = case.rules.updated(**flags)
    env, _ = elaborate(case.program, rules, run_reduce=False)
    return env, rules


def test_reflexive_on_globals():
    env, rules = _env("counterexample1")
    assert convert(env, (), Global("Top"), Global("Top"), rules=rules)


def test_top_and_bot_differ():
    env, rules = _env("counterexample1")
    assert not convert(env, (), Global("Top"), Global("Bot"), rules=rules)


def test_unfolding_settles_neg_bot():
    env, rules = _env("counterexample1")
    lhs = parse_term("Neg Bot", env.names())
    rhs = parse_term("Bot -> Bot", env.names())
    assert convert(env, (), lhs, rhs, rules=rules)


def test_proof_irrelevance_identifies_proofs():
    env, rules = _env("counterexample1")
    scope = env.names()
    p = parse_term("h Top Top", scope)
    q = parse_term("refl Prop Top", scope)
    common = parse_term("Eq Prop Top Top", scope)
    assert convert(env, (), p, q, common, rules)
    # without the common type the shapes disagree
    assert not convert(env, (), p, q, rules=rules)
    # with irrelevance off, nothing identifies them
    off = rules.updated(proof_irrelevance=False)
    assert not convert(env, (), p, q, common, off)


def test_is_proposition_examples():
    env, rules = _env("counterexample1")
    budget = rules.new_budget()
    eq = parse_term("Eq Prop Top Top", env.names())
    assert is_proposition(env, (), eq, rules, budget)
    assert not is_proposition(env, (), SortT(PROP), rules, budget)
    assert is_proposition(env, (), Global("Top"), rules, budget)


def test_equivalence_relation_on_corpus_types():
    env, rules = _env("counterexample1")
    terms = [e.type_ for e in env] + [e.body for e in env if e.body is not None]
    for t in terms:
        assert convert(env, (), t, t, rules=rules)  # reflexive
    related = [(parse_term("Top", env.names()), parse_term("Neg Bot", env.names())),
               (parse_term("Neg Bot", env.names()),
                parse_term("Bot -> Bot", env.names()))]
    for a, b in related:
        assert convert(env, (), a, b, rules=rules)
        assert convert(env, (), b, a, rules=rules)  # symmetric
    # transitive across the chain above
    assert convert(env, (), parse_term("Top", env.names()),
                   parse_term("Bot -> Bot", env.names()), rules=rules)


def test_congruence_spot_checks():
    env, rules = _env("counterexample1")
    scope = env.names()
    a, b = parse_term("Top", scope), parse_term("Neg Bot", scope)
    assert convert(env, (), a, b, rules=rules)
    contexts = [
        lambda hole: App(Global("Neg"), hole),
        lambda hole: Eq(SortT(PROP), hole, Global("Bot")),
        lambda hole: Cast(hole, Global("Bot"), Var(0), Var(1)),
        lambda hole: Lam(SortT(PROP), App(Global("Neg"), hole)),
    ]
    for fill in contexts:
        assert convert(env, (), fill(a), fill(b), rules=rules)


def test_disabling_rules_never_creates_conversions():
    env, rules = _env("sanity-casts")
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
        if not convert(env, (), a, b, rules=rules):
            assert not convert(env, (), a, b, rules=restricted)


def test_firing_cast_converts_to_its_payload_only_when_enabled():
    env, rules = _env("sanity-casts")
    scope = env.names()
    fired = parse_term("cast Top Top top_eq top_value", scope)
    payload = parse_term("top_value", scope)
    assert convert(env, (), fired, payload, rules=rules)
    off = rules.updated(cast_rule=False)
    assert not convert(env, (), fired, payload, rules=off)


def test_fuel_exhaustion_propagates():
    env, rules = _env("counterexample1")
    lhs = parse_term("Neg Bot", env.names())
    rhs = parse_term("Bot -> Bot", env.names())
    with pytest.raises(FuelExhausted):
        convert(env, (), lhs, rhs, rules=rules, budget=Fuel(1))


def test_reflexive_query_costs_one_unit():
    env, rules = _env("sanity-casts")
    # the cast fires and the payload unfolds, but the same object needs neither
    t = parse_term("cast Top Top top_eq top_value", env.names())
    budget = Fuel(1)
    assert convert(env, (), t, t, rules=rules, budget=budget)
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
    # and the structural path must be reflexive on its own
    copy = _copy(t)
    assert copy == t and copy is not t
    ctx = (SortT(PROP),) * 3
    try:
        assert convert(_POOL_ENV, ctx, t, copy, budget=Fuel(500))
    except FuelExhausted:
        pass


# counterexample2 without its pragmas (declarations 0-5), then a predicate on
# Top whose argument must convert with Omega: declarations 6-8
_CE2_DEFS = "\n".join(
    line for line in load_example("counterexample2").source.splitlines()
    if not line.startswith("#"))
_G = """
axiom G : Top -> Prop.
"""
_I = "(fun (A : Prop), fun (a : A), a)"


def test_divergent_conversion_is_a_detected_cycle():
    # Omega unfolds back to itself inside convert, so no budget suffices; the
    # detector reports that before 100 units are spent, where a plain
    # FuelExhausted would mean the budget simply ran out
    program = parse_program(_CE2_DEFS + _G + f"axiom g : G {_I}.\n"
                            "def bad : G Omega := g.\n")
    with pytest.raises(ConversionCycle, match=r"^declaration 8 \(bad\): ") as info:
        elaborate(program, RuleSet(fuel=100))
    assert isinstance(info.value, FuelExhausted)
    assert info.value.period == 2
    assert "period 2" in str(info.value)


def test_cast_whose_side_condition_loops_exhausts_the_reduction():
    # the cast's endpoints only convert if Omega does: the trace ends as
    # FuelExhausted, with no step, long before its budget is spent
    env, _ = elaborate(parse_program(
        _CE2_DEFS + _G + f"axiom p : Eq Prop (G Omega) (G {_I}).\n"
        "axiom x : G Omega.\n"))
    term = parse_term(f"cast (G Omega) (G {_I}) p x", env.names())
    budget = Fuel(DEFAULT_FUEL)
    trace = normalize(env, (), term, RuleSet(), budget)
    assert trace.status == FUEL_EXHAUSTED and trace.steps == []
    assert budget.remaining > DEFAULT_FUEL - 100


def test_long_alias_chain_is_not_a_cycle():
    # 300 distinct unfolding states in a row; the budget pays 1 for the
    # query and 1 per unfolding, and nothing for the cycle check
    src = "def T0 : Prop := forall (A : Prop), A -> A.\n" + "".join(
        f"def T{k} : Prop := T{k - 1}.\n" for k in range(1, 301))
    env, _ = elaborate(parse_program(src))
    budget = Fuel(DEFAULT_FUEL)
    assert convert(env, (), Global("T300"), Global("T0"), budget=budget)
    assert budget.remaining == DEFAULT_FUEL - 301
    assert convert(env, (), Global("T0"), Global("T300"))
