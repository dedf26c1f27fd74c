from __future__ import annotations

import pytest

from itt import (
    CASE_NAMES, DEFAULT_RULES, KIND, PROP, TYPE,
    Fuel, FuelExhausted, Global, GlobalEnv, PragmaReduce, RuleSet,
    TypeCheckError, Var,
    alpha_eq, check, elaborate, infer, load_example, parse_program,
    parse_term, pretty,
)
from itt.convert import convert
from helpers import case_env, kernel, spent_fuel, workloads


def test_pts_ladder():
    env = GlobalEnv()
    assert infer(env, (), PROP, DEFAULT_RULES.new_budget()) == TYPE
    assert infer(env, (), TYPE, DEFAULT_RULES.new_budget()) == KIND
    with pytest.raises(TypeCheckError, match="Kind has no type"):
        infer(env, (), KIND, DEFAULT_RULES.new_budget())
    # impredicativity: quantifying over all propositions stays in Prop
    assert infer(env, (), parse_term("forall (A : Prop), A"),
                 DEFAULT_RULES.new_budget()) == PROP
    with pytest.raises(TypeCheckError,
                       match=r"no Pi-formation rule for \(Type, Kind\)"):
        infer(env, (), parse_term("forall (A : Prop), Type"),
              DEFAULT_RULES.new_budget())


def test_kind_has_no_type():
    env, rules = case_env("counterexample1")
    with pytest.raises(TypeCheckError, match="Kind has no type"):
        infer(env, (), KIND, rules.new_budget())


def test_bot_infers_prop_impredicatively():
    env, rules = case_env("counterexample1")
    bot = parse_term("forall (A : Prop), A")
    assert infer(env, (), bot, rules.new_budget()) == PROP


def test_impredicativity_witnesses_never_type():
    env, rules = case_env("counterexample1")
    for src in ("forall (A : Prop), A", "forall (A : Prop), A -> A"):
        assert infer(env, (), parse_term(src), rules.new_budget()) == PROP


def test_delta_checks_against_top():
    env, rules = case_env("counterexample1")
    body = parse_term("fun (z : Bot), z Top z", env.names())
    check(env, (), body, Global("Top"), rules.new_budget())


def test_delta_body_fails_against_bot():
    env, rules = case_env("counterexample1")
    body = parse_term("fun (z : Bot), z Top z", env.names())
    with pytest.raises(TypeCheckError, match="type mismatch"):
        check(env, (), body, Global("Bot"), rules.new_budget())


def test_cast_instance_types_at_target():
    env, rules = case_env("sanity-casts")
    t = parse_term("cast Top Top top_eq top_value", env.names())
    assert alpha_eq(infer(env, (), t, rules.new_budget()), Global("Top"))


def test_omega_of_second_counterexample():
    env, rules = case_env("counterexample2")
    # its body casts from Top -> Top to A, yet checks against Top
    entry = env.lookup("omega")
    assert entry is not None and entry.body is not None
    got = infer(env, (), entry.body, rules.new_budget())
    assert convert(env, (), got, Global("Top"), rules.new_budget())


def test_no_cumulativity_prop_where_type_required():
    env, rules = case_env("counterexample1")
    # Eq's carrier must be of type Type; Top : Prop does not qualify
    t = parse_term("Eq Top delta delta", env.names())
    with pytest.raises(TypeCheckError, match="sort Type"):
        infer(env, (), t, rules.new_budget())


def test_no_pi_rule_error():
    env, rules = case_env("counterexample1")
    with pytest.raises(TypeCheckError, match="no Pi-formation rule"):
        infer(env, (), parse_term("forall (A : Type), A"), rules.new_budget())


def test_applying_a_non_function():
    env, rules = case_env("counterexample1")
    with pytest.raises(TypeCheckError, match="not a function"):
        infer(env, (), parse_term("Top delta", env.names()), rules.new_budget())


def test_unbound_variable_index():
    env, rules = case_env("counterexample1")
    with pytest.raises(TypeCheckError, match="unbound variable"):
        infer(env, (), Var(3), rules.new_budget())


def test_unbound_global():
    with pytest.raises(TypeCheckError, match=r"^unbound global 'nope'$"):
        infer(GlobalEnv(), (), Global("nope"), DEFAULT_RULES.new_budget())


def test_eq_lands_in_prop():
    env, rules = case_env("counterexample1")
    t = parse_term("Eq Prop Top Top", env.names())
    assert infer(env, (), t, rules.new_budget()) == PROP


def test_refl_gives_reflexive_equation():
    env, rules = case_env("counterexample1")
    t = parse_term("refl Prop Top", env.names())
    want = parse_term("Eq Prop Top Top", env.names())
    assert alpha_eq(infer(env, (), t, rules.new_budget()), want)


def test_eqrec_rule_shape():
    env, rules = case_env("sanity-casts")
    t = parse_term(
        "Eq_rec Prop (fun (X : Prop), Prop) Top (Neg Bot) Bot (refl Prop Top)",
        env.names())
    got = infer(env, (), t, rules.new_budget())
    assert convert(env, (), got, PROP, rules.new_budget())


def test_eqrec_motive_must_land_in_type():
    env, rules = case_env("sanity-casts")
    for src, message in [
        ("Eq_rec Prop (fun (X : Prop), X) Top (Neg Bot) top_value (refl Prop Top)",
         "Eq_rec motive must land in Type, found Prop"),
        ("Eq_rec Prop Prop Top Top top_value (refl Prop Top)",
         "Eq_rec motive is not a function: Type"),
        ("Eq_rec Prop (fun (x : Top), Prop) Top Top top_value (refl Prop Top)",
         "Eq_rec motive domain Top does not match carrier Prop"),
    ]:
        with pytest.raises(TypeCheckError, match=f"^{message}$"):
            infer(env, (), parse_term(src, env.names()), rules.new_budget())


def test_j_disabled_by_default():
    env, rules = case_env("counterexample1")
    t = parse_term("J Top Top delta", env.names())
    with pytest.raises(TypeCheckError, match="^J is not part of the active rule set"):
        infer(env, (), t, rules.new_budget())


def test_j_enabled_types_at_target():
    env, rules = case_env("girard-j")
    t = parse_term("J Top Bot top_id", env.names())
    assert alpha_eq(infer(env, (), t, rules.new_budget()), Global("Bot"))


def test_elaborate_reports_failing_declaration_index():
    for src, message in [
        ("def Bot : Prop := forall (A : Prop), A.\n"
         "def bad : Bot := Prop.\n", r"declaration 1 \(bad\)"),
        ("axiom p : Prop. axiom h : p. axiom x : h.",
         r"^declaration 2 \(x\): type of x is not a type: h : p$"),
    ]:
        with pytest.raises(TypeCheckError, match=message):
            elaborate(parse_program(src))


def test_fuel_exhaustion_is_distinct_from_type_error():
    env, rules = case_env("counterexample1")
    body = parse_term("fun (z : Bot), z Top z", env.names())
    with pytest.raises(FuelExhausted):
        check(env, (), body, Global("Top"), Fuel(2, rules))


def test_infer_is_deterministic():
    env, rules = case_env("counterexample2")
    t = parse_term("delta omega", env.names())
    assert alpha_eq(infer(env, (), t, rules.new_budget()),
                    infer(env, (), t, rules.new_budget()))


def test_axioms_are_opaque_entries():
    env, _ = case_env("counterexample2")
    entry = env.lookup("tautext")
    assert entry.kind == "axiom" and entry.body is None


def test_stated_types_stored_verbatim():
    env, _ = case_env("counterexample1")
    want = parse_term("Neg (forall (A : Prop), forall (B : Prop), Eq Prop A B)",
                      env.names())
    assert alpha_eq(env.lookup("Omega").type_, want)
    assert pretty(env.lookup("Omega").type_) == (
        "Neg (forall (A : Prop), forall (B : Prop), Eq Prop A B)")


def test_check_chain_fuel_is_pinned(monkeypatch):
    # the fuel of the ten seed-1 check-chain programs, as the benchmark's
    # traced run counts it (every budget handed out while elaborating); a
    # change that alters it changes what checking does, not only its speed
    k = kernel("parser", "typecheck", "convert")
    chain, suffix, spent = workloads.CheckChain(k, 1), workloads.Suffixes(1), 0
    for spec in chain.specs():
        prog = chain.make(spec, suffix())
        verdict, fuel = spent_fuel(monkeypatch, lambda: chain.run(prog))
        spent += fuel
        assert chain.check(prog, verdict) is None
    assert spent == 21_467


@pytest.mark.parametrize("name, budgets", zip(CASE_NAMES, (10, 9, 11, 9, 6, 16)))
def test_one_budget_per_declaration_and_per_reduce(monkeypatch, name, budgets):
    # every declaration is checked under one budget of the case's rules, and
    # each #reduce that runs makes one more; a nested call that made its own
    # budget would add to the count and hide the fuel it spent
    case = load_example(name)
    made = []
    new_budget = RuleSet.new_budget

    def counting(rules):
        made.append(new_budget(rules))
        return made[-1]

    monkeypatch.setattr(RuleSet, "new_budget", counting)
    decls = case.program.declarations
    elaborate(case.program, case.rules, reduce_strategy=case.strategy)
    reduces = sum(isinstance(d, PragmaReduce) for d in decls)
    assert len(made) == budgets == len(decls) + reduces
    assert all(b.rules is case.rules for b in made)
    made.clear()
    elaborate(case.program, case.rules, run_reduce=False)
    assert len(made) == len(decls)
