from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from itt import (
    CASE_NAMES, Fuel, FuelExhausted,
    Global, PragmaReduce, RuleSet, TypeCheckError,
    alpha_eq, elaborate, load_example, parse_program, parse_term, pretty,
    run_all, ruleset_label,
)
from itt.corpus import run_case
from itt.parser import PragmaCheck
from helpers import (
    FLAG_VARIANTS, checked, closed_over_axioms, recorded_budgets,
    reduce_pragma_count,
)


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
    env, _ = elaborate(case.program, case.rules, reduce_strategy=None)
    want = parse_term(
        "Neg (forall (A : Prop), forall (B : Prop), Eq Prop A B)", env.names())
    assert alpha_eq(env.lookup("Omega").type_, want)


def test_counterexample2_omega_is_closed_over_axioms():
    case = load_example("counterexample2")
    env, _ = elaborate(case.program, case.rules, reduce_strategy=None)
    assert closed_over_axioms(env, Global("Omega"))
    assert closed_over_axioms(env, env.lookup("Omega").body)


def test_counterexample1_reduce_target_is_open():
    case = load_example("counterexample1")
    env, _ = elaborate(case.program, case.rules, reduce_strategy=None)
    (reduce_decl,) = [d for d in case.program.declarations
                      if isinstance(d, PragmaReduce)]
    assert not closed_over_axioms(env, reduce_decl.term)  # mentions assume h


def test_propext_variant_derives_the_equality_axiom():
    case = load_example("counterexample2-propext")
    env, _ = elaborate(case.program, case.rules, reduce_strategy=None)
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


_ROOT = Path(__file__).resolve().parents[1]
# Loads two trees' kernels into one process, one after the other, as
# scripts/ab.py does, and prints each tree's source of one example.
_LOAD_TWO_TREES = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from ab import load_kernel
first, second = (load_kernel(Path(tree)) for tree in sys.argv[2:])
print(json.dumps([k.corpus.load_example("sanity-church").source
                  for k in (first, second)]))
"""


def test_each_loaded_tree_reads_its_own_examples(tmp_path):
    shutil.copytree(_ROOT / "src" / "itt", tmp_path / "src" / "itt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    example = tmp_path / "src" / "itt" / "corpus" / "examples" / "sanity-church.itt"
    own = example.read_text(encoding="utf-8")
    example.write_text(own + "-- edited in the copy\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_TWO_TREES, str(_ROOT / "scripts"),
         str(_ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [own, own + "-- edited in the copy\n"]


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


# One declaration that asks conversion the same question about two bound
# globals twice, so that the second answer comes from the environment's
# memo.  No corpus case asks a repeat with less fuel left than the first
# answer spent.
_REPEATED_QUERY = parse_program("""
def T : Prop := forall (A : Prop), A -> A.
def T1 : Prop := T.
def T2 : Prop := T1.
def S1 : Prop := T.
axiom x : T2.
axiom F : S1 -> S1 -> Prop.
#check F x x.
""")


def _run(monkeypatch, program, rules, strategy):
    """What a run shows (each pragma's result, or the error that ended it),
    the fuel that each of its budgets spent, and whether a budget stopped
    it: a spend found the budget empty."""
    stopped = []
    spend = Fuel.spend

    def stopping(self):
        try:
            spend(self)
        except FuelExhausted:
            stopped.append(self)
            raise

    with (recorded_budgets(monkeypatch) as budgets,
          monkeypatch.context() as m):
        m.setattr(Fuel, "spend", stopping)
        try:
            _, results = elaborate(program, rules, reduce_strategy=strategy)
            shown = [(r.index, pretty(r.type_)) if r.trace is None else
                     (r.index, r.trace.status_line(), len(r.trace.steps))
                     for r in results]
        except (TypeCheckError, FuelExhausted) as exc:
            shown = [f"{type(exc).__name__}: {exc}"]
    return shown, [rules.fuel - b.remaining for b in budgets], bool(stopped)


def test_fuel_is_monotone(monkeypatch):
    # a run is stopped exactly at the budgets below its cost, the most that
    # one of its budgets spends at the default fuel; any larger budget shows
    # the same results and spends the same fuel
    programs = [(c.program, c.rules) for c in map(load_example, CASE_NAMES)]
    programs.append((_REPEATED_QUERY, RuleSet()))
    for program, base in programs:
        for flags, strategy in itertools.product(FLAG_VARIANTS, ("whnf", "nf")):
            rules = base.updated(**flags)
            shown, spent, stopped = _run(monkeypatch, program, rules, strategy)
            assert not stopped
            cost = max(spent)
            for fuel in [*range(1, cost + 2), 2 * cost, 10 * cost]:
                got = _run(monkeypatch, program, rules.updated(fuel=fuel),
                           strategy)
                assert got[2] == (fuel < cost), (flags, strategy, fuel)
                if not got[2]:
                    assert got[:2] == (shown, spent), (flags, strategy, fuel)
