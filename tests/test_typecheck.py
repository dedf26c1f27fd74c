from __future__ import annotations

import pytest

from itt import (
    KIND, PROP, TYPE,
    Fuel, FuelExhausted, Global, GlobalEnv, JDisabledError,
    TypeCheckError, Var,
    alpha_eq, check, convert, elaborate, infer, load_example, parse_program,
    parse_term, pretty,
)


def _env(name, **flags):
    case = load_example(name)
    rules = case.rules.updated(**flags)
    env, _ = elaborate(case.program, rules, run_reduce=False)
    return env, rules


def test_pts_ladder():
    env = GlobalEnv()
    assert infer(env, (), PROP) == TYPE
    assert infer(env, (), TYPE) == KIND
    with pytest.raises(TypeCheckError, match="Kind has no type"):
        infer(env, (), KIND)
    # impredicativity: quantifying over all propositions stays in Prop
    assert infer(env, (), parse_term("forall (A : Prop), A")) == PROP
    with pytest.raises(TypeCheckError,
                       match=r"no Pi-formation rule for \(Type, Kind\)"):
        infer(env, (), parse_term("forall (A : Prop), Type"))


def test_kind_has_no_type():
    env, rules = _env("counterexample1")
    with pytest.raises(TypeCheckError, match="Kind has no type"):
        infer(env, (), KIND, rules)


def test_bot_infers_prop_impredicatively():
    env, rules = _env("counterexample1")
    assert infer(env, (), parse_term("forall (A : Prop), A"), rules) == PROP


def test_impredicativity_witnesses_never_type():
    env, rules = _env("counterexample1")
    for src in ("forall (A : Prop), A", "forall (A : Prop), A -> A"):
        assert infer(env, (), parse_term(src), rules) == PROP


def test_delta_checks_against_top():
    env, rules = _env("counterexample1")
    body = parse_term("fun (z : Bot), z Top z", env.names())
    check(env, (), body, Global("Top"), rules)


def test_delta_body_fails_against_bot():
    env, rules = _env("counterexample1")
    body = parse_term("fun (z : Bot), z Top z", env.names())
    with pytest.raises(TypeCheckError, match="type mismatch"):
        check(env, (), body, Global("Bot"), rules)


def test_cast_instance_types_at_target():
    env, rules = _env("sanity-casts")
    t = parse_term("cast Top Top top_eq top_value", env.names())
    assert alpha_eq(infer(env, (), t, rules), Global("Top"))


def test_omega_of_second_counterexample():
    env, rules = _env("counterexample2")
    # its body casts from Top -> Top to A, yet checks against Top
    entry = env.lookup("omega")
    assert entry is not None and entry.body is not None
    got = infer(env, (), entry.body, rules)
    assert convert(env, (), got, Global("Top"), rules=rules)


def test_no_cumulativity_prop_where_type_required():
    env, rules = _env("counterexample1")
    # Eq's carrier must be of type Type; Top : Prop does not qualify
    t = parse_term("Eq Top delta delta", env.names())
    with pytest.raises(TypeCheckError, match="sort Type"):
        infer(env, (), t, rules)


def test_no_pi_rule_error():
    env, rules = _env("counterexample1")
    with pytest.raises(TypeCheckError, match="no Pi-formation rule"):
        infer(env, (), parse_term("forall (A : Type), A"), rules)


def test_applying_a_non_function():
    env, rules = _env("counterexample1")
    with pytest.raises(TypeCheckError, match="not a function"):
        infer(env, (), parse_term("Top delta", env.names()), rules)


def test_unbound_variable_index():
    env, rules = _env("counterexample1")
    with pytest.raises(TypeCheckError, match="unbound variable"):
        infer(env, (), Var(3), rules)


def test_eq_lands_in_prop():
    env, rules = _env("counterexample1")
    t = parse_term("Eq Prop Top Top", env.names())
    assert infer(env, (), t, rules) == PROP


def test_refl_gives_reflexive_equation():
    env, rules = _env("counterexample1")
    t = parse_term("refl Prop Top", env.names())
    want = parse_term("Eq Prop Top Top", env.names())
    assert alpha_eq(infer(env, (), t, rules), want)


def test_eqrec_rule_shape():
    env, rules = _env("sanity-casts")
    t = parse_term(
        "Eq_rec Prop (fun (X : Prop), Prop) Top (Neg Bot) Bot (refl Prop Top)",
        env.names())
    got = infer(env, (), t, rules)
    assert convert(env, (), got, PROP, rules=rules)


def test_eqrec_motive_must_land_in_type():
    env, rules = _env("sanity-casts")
    t = parse_term(
        "Eq_rec Prop (fun (X : Prop), X) Top (Neg Bot) top_value (refl Prop Top)",
        env.names())
    with pytest.raises(TypeCheckError, match="motive"):
        infer(env, (), t, rules)


def test_j_disabled_by_default():
    env, rules = _env("counterexample1")
    t = parse_term("J Top Top delta", env.names())
    with pytest.raises(JDisabledError):
        infer(env, (), t, rules)


def test_j_enabled_types_at_target():
    env, rules = _env("girard-j")
    t = parse_term("J Top Bot top_id", env.names())
    assert alpha_eq(infer(env, (), t, rules), Global("Bot"))


def test_elaborate_reports_failing_declaration_index():
    src = ("def Bot : Prop := forall (A : Prop), A.\n"
           "def bad : Bot := Prop.\n")
    with pytest.raises(TypeCheckError, match=r"declaration 1 \(bad\)"):
        elaborate(parse_program(src))


def test_fuel_exhaustion_is_distinct_from_type_error():
    env, rules = _env("counterexample1")
    body = parse_term("fun (z : Bot), z Top z", env.names())
    with pytest.raises(FuelExhausted):
        check(env, (), body, Global("Top"), rules, Fuel(2))


def test_infer_is_deterministic():
    env, rules = _env("counterexample2")
    t = parse_term("delta omega", env.names())
    assert alpha_eq(infer(env, (), t, rules), infer(env, (), t, rules))


def test_axioms_are_opaque_entries():
    env, _ = _env("counterexample2")
    entry = env.lookup("tautext")
    assert entry.kind == "axiom" and entry.body is None


def test_stated_types_stored_verbatim():
    env, _ = _env("counterexample1")
    want = parse_term("Neg (forall (A : Prop), forall (B : Prop), Eq Prop A B)",
                      env.names())
    assert alpha_eq(env.lookup("Omega").type_, want)
    assert pretty(env.lookup("Omega").type_) == (
        "Neg (forall (A : Prop), forall (B : Prop), Eq Prop A B)")
