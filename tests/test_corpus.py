from __future__ import annotations

import dataclasses
from importlib import resources

import pytest

from itt import (
    CASE_NAMES, FuelExhausted,
    Global, PragmaReduce,
    alpha_eq, elaborate, load_example, parse_term,
    run_all, ruleset_label,
)
from itt.corpus import run_case
from itt.parser import PragmaCheck
from helpers import checked, closed_over_axioms, reduce_pragma_count


def test_every_case_loads_and_elaborates():
    for name in CASE_NAMES:
        case = load_example(name)
        env, results = elaborate(case.program, case.rules,
                                 reduce_strategy=case.strategy)
        assert len(env) > 0
        assert results


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match="unknown example"):
        load_example("nonsense")


def test_default_rules_all_cases_pass():
    reports = run_all()
    assert all(r.passed for r in reports)
    assert all(checked(r) > 0 for r in reports)


def test_cast_disabled_outcomes_recorded_and_met():
    reports = run_all({"cast_rule": False})
    assert all(r.passed and checked(r) > 0 for r in reports)


def test_cast_and_eqrec_disabled():
    reports = run_all({"cast_rule": False, "eqrec_rule": False})
    assert all(r.passed and checked(r) > 0 for r in reports)


def test_irrelevance_off_still_diverges():
    # the coercion's side condition compares endpoints, not proofs, so
    # turning irrelevance off does not restore normalization
    for name in ("counterexample1", "counterexample2"):
        report = run_case(load_example(name), {"proof_irrelevance": False})
        assert report.passed and checked(report) > 0
        assert "irrel:off" in report.ruleset


def test_unrecorded_ruleset_skips_instead_of_failing():
    report = run_case(load_example("sanity-church"), {"j_rule": True})
    assert report.passed
    assert any(ok is None for _, ok in report.entries)


def test_counterexample1_omega_type_as_displayed():
    case = load_example("counterexample1")
    env, _ = elaborate(case.program, case.rules, run_reduce=False)
    want = parse_term(
        "Neg (forall (A : Prop), forall (B : Prop), Eq Prop A B)", env.names())
    assert alpha_eq(env.lookup("Omega").type_, want)


def test_counterexample2_omega_is_closed_over_axioms():
    case = load_example("counterexample2")
    env, _ = elaborate(case.program, case.rules, run_reduce=False)
    assert closed_over_axioms(env, Global("Omega"))
    assert closed_over_axioms(env, env.lookup("Omega").body)


def test_counterexample1_reduce_target_is_open():
    case = load_example("counterexample1")
    env, _ = elaborate(case.program, case.rules, run_reduce=False)
    (reduce_decl,) = [d for d in case.program.declarations
                      if isinstance(d, PragmaReduce)]
    assert not closed_over_axioms(env, reduce_decl.term)  # mentions assume h


def test_propext_variant_derives_the_equality_axiom():
    case = load_example("counterexample2-propext")
    env, _ = elaborate(case.program, case.rules, run_reduce=False)
    tautext = env.lookup("tautext")
    assert tautext.kind == "def" and tautext.body is not None
    assert env.lookup("propext").kind == "axiom"
    want = parse_term(
        "forall (A : Prop), forall (B : Prop), A -> B -> Eq Prop A B",
        env.names())
    assert alpha_eq(tautext.type_, want)


def test_ruleset_label_round_trips_flags():
    case = load_example("girard-j")
    assert ruleset_label(case.rules) == "cast:on,eqrec:on,j:on,irrel:on"
    assert ruleset_label(case.rules.updated(cast_rule=False,
                                            proof_irrelevance=False)) == \
        "cast:off,eqrec:on,j:on,irrel:off"


def test_expected_tables_cover_every_reduce_pragma():
    for name in CASE_NAMES:
        case = load_example(name)
        label = ruleset_label(case.rules)
        for ordinal in range(1, reduce_pragma_count(case) + 1):
            assert (case.strategy, label, ordinal) in case.expected_reduce


def test_case_names_match_the_files():
    data = resources.files("itt.corpus")
    for subdir, suffix in (("examples", ".itt"), ("expected", ".txt")):
        stems = {f.name.removesuffix(suffix) for f in (data / subdir).iterdir()
                 if f.name.endswith(suffix)}
        assert stems == set(CASE_NAMES), subdir


def test_one_expected_check_per_check_pragma():
    for name in CASE_NAMES:
        case = load_example(name)
        pragmas = [d for d in case.program.declarations
                   if isinstance(d, PragmaCheck)]
        assert len(case.expected_checks) == len(pragmas), name


def test_run_case_honours_case_rules():
    base = load_example("sanity-church")
    case = dataclasses.replace(base, rules=base.rules.updated(cast_rule=False))
    assert run_case(case).ruleset == "cast:off,eqrec:on,j:off,irrel:on"


def test_run_case_fuel_is_an_override():
    report = run_case(load_example("counterexample1"), {"fuel": 5})
    assert isinstance(report.stopped_by, FuelExhausted)
    assert report.entries == [("FuelExhausted: declaration 3 (delta): "
                               "step budget exhausted", False)]
    assert not report.passed
