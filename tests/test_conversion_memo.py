"""The conversion memo, ``GlobalEnv.conversions``.

``convert`` stores the answer and the fuel of every pair of different bound
globals that its loop meets as a pair of weak-head forms, the first one
included, and answers a later state of any query from it.  These tests run
the same work with the memo and with a memo that never answers and keeps
nothing, and check that answers, outcomes and the fuel of every budget agree.
"""

from __future__ import annotations

import itertools
import random

from itt import (
    CASE_NAMES, DEFAULT_FUEL, DEFAULT_RULES, PROP, App, EnvEntry, Fuel,
    FuelExhausted, Global, GlobalEnv, Lam, Var, load_example, parse_term,
)
import itt.reduce
from itt.convert import convert
from helpers import FLAG_VARIANTS, observe, recorded_budgets


class _NoMemo(dict):
    """A conversion memo on which every lookup misses and every store is
    dropped, so every query runs live."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


def _forget_conversions(monkeypatch) -> None:
    """Give every environment made from now on a memo that keeps nothing."""
    init = GlobalEnv.__init__

    def forgetful(self):
        init(self)
        self.conversions = _NoMemo()

    monkeypatch.setattr(GlobalEnv, "__init__", forgetful)


def _counting_unfold(monkeypatch) -> list[int]:
    """Count the Delta unfoldings that conversion makes."""
    calls = [0]
    unfold = itt.reduce.unfold

    def counting(*args):
        calls[0] += 1
        return unfold(*args)

    monkeypatch.setattr(itt.reduce, "unfold", counting)
    return calls


def _alias_dag_queries(monkeypatch) -> list:
    """Queries on the random alias DAG of
    ``test_random_alias_dag_converts_symmetrically`` (``def U_k : Prop :=
    U_j`` with ``j < k``), built one definition at a time.  After each
    definition come queries on names up to five past the last one bound, so
    some sides are unbound, each under the default fuel or a small one that
    may run out.  Each query's answer or outcome, and its budget's fuel."""
    parents, rng = random.Random(13), random.Random(7)
    env = GlobalEnv()
    env.add(EnvEntry("U0", PROP, parse_term("forall (A : Prop), A -> A"),
                     "def"))
    seen = []
    with recorded_budgets(monkeypatch) as budgets:
        for k in range(1, 200):
            env.add(EnvEntry(f"U{k}", PROP, Global(f"U{parents.randrange(k)}"),
                             "def"))
            for _ in range(4):
                i, j = (Global(f"U{rng.randrange(k + 6)}") for _ in range(2))
                fuel = rng.choice([DEFAULT_FUEL, rng.randrange(1, 60)])
                budget = DEFAULT_RULES.updated(fuel=fuel).new_budget()
                try:
                    seen.append(convert(env, (), i, j, budget))
                except FuelExhausted as exc:
                    seen.append(type(exc))
    return list(zip(seen, (b.rules.fuel - b.remaining for b in budgets)))


def test_the_conversion_memo_changes_no_answer_outcome_or_fuel(monkeypatch):
    # every corpus case under four rule variants and both strategies, and
    # queries on a growing alias DAG: the same results, outcomes and fuel
    # per budget with the memo as with a memo that never answers, and
    # fewer unfoldings
    runs = [(case.program, case.rules.updated(**flags), strategy)
            for case in map(load_example, CASE_NAMES)
            for flags, strategy in itertools.product(FLAG_VARIANTS,
                                                     ("whnf", "nf"))]
    observed, unfolds = {}, {}
    for memo in (True, False):
        with monkeypatch.context() as m:
            if not memo:
                _forget_conversions(m)
            calls = _counting_unfold(m)
            observed[memo] = ([observe(m, *run) for run in runs],
                              _alias_dag_queries(m))
        unfolds[memo] = calls[0]
    (got_runs, got_dag), (want_runs, want_dag) = observed[True], observed[False]
    for run, got, want in zip(runs, got_runs, want_runs):
        assert got == want, (run[1], run[2])
    assert got_dag == want_dag
    # not vacuous: some queries run out, some sides are unbound, the memo
    # answers some states
    outcomes = {seen for seen, _ in got_dag}
    assert outcomes == {True, False, FuelExhausted}
    assert unfolds[True] < unfolds[False]


def _stored_from(t1) -> dict:
    """The memo after ``t1`` is converted with T0 in a fresh environment of
    ``def T_k : Prop := T_(k-1)`` for k = 1..5, after a closed T0."""
    env = GlobalEnv()
    env.add(EnvEntry("T0", PROP, parse_term("forall (A : Prop), A"), "def"))
    for k in range(1, 6):
        env.add(EnvEntry(f"T{k}", PROP, Global(f"T{k - 1}"), "def"))
    assert convert(env, (), t1, Global("T0"), Fuel(DEFAULT_FUEL, DEFAULT_RULES))
    return env.conversions


def test_a_state_met_while_unfolding_is_stored_with_its_own_fuel():
    # T5 against T0 passes T4, T3, T2 and T1: each pair is stored with the
    # fuel from that state to the end, one unfolding per step
    assert _stored_from(Global("T5")) == {
        (DEFAULT_RULES, f"T{k}", "T0"): (True, k) for k in range(1, 6)}


def test_a_first_state_reached_by_reduction_is_stored_with_its_own_fuel():
    # (fun x => x) T5 reaches the first state (T5, T0) by one Beta, which
    # that state's fuel does not count
    redex = App(Lam(PROP, Var(0), name="x"), Global("T5"))
    assert _stored_from(redex) == _stored_from(Global("T5"))
