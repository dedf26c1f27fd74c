"""Differential gate for traced cycle detection.

``reduce._spine`` spots a repeat with the Brent check of ``whnf_term`` and
then certifies it with ``CycleDetector``.  The reference below is the exact
detector alone: it puts every state of the spine into one ``CycleDetector``
and stops at the first repeat.  Swapping it in for ``_spine`` must not
change any trace text or status line, at any budget, under either strategy.
"""

from __future__ import annotations

import sys

import pytest

from itt import (
    CASE_NAMES, CYCLE_DETECTED, ConversionCycle, CycleDetector, FuelExhausted,
    PragmaReduce, alpha_eq, elaborate, load_example, parse_term,
    reduce_with, trace_to_text, whnf_term,
)
import itt.reduce
from itt.reduce import TraceStep, _CycleFound
from helpers import step_term
from reference import step

VARIANTS = ({}, {"proof_irrelevance": False}, {"cast_rule": False},
            {"j_rule": True})
# Tail lengths around Brent's power-of-two saves.
TAILS = (0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33)


def reference_spine(env, ctx, sub, frame, budget, steps):
    """Every state of the spine goes into one detector; stop at the first
    repeat."""
    detector = CycleDetector()
    detector.observe(len(steps), sub)
    while (r := step_term(env, ctx, sub, budget)) is not None:
        sub, kind = r
        steps.append(TraceStep(kind, sub, frame))
        report = detector.observe(len(steps), sub)
        if report is not None:
            raise _CycleFound(report)
    return sub


@pytest.fixture
def certified_after_exhaustion(monkeypatch):
    """Count the runs whose cycle is certified only after the budget ran
    out.  A ``ConversionCycle`` is a ``FuelExhausted`` too, but it is a
    repeat that Brent's check saw, so it does not count."""
    count = [0]
    certify = itt.reduce._certify

    def counting(*args):
        error = sys.exc_info()[1]
        exhausted = (isinstance(error, FuelExhausted)
                     and not isinstance(error, ConversionCycle))
        try:
            certify(*args)
        except _CycleFound:
            count[0] += exhausted
            raise

    monkeypatch.setattr(itt.reduce, "_certify", counting)
    return count


def _compare(env, term, rules, strategy, monkeypatch, render=True):
    """Run ``strategy`` with and without the reference; return the cycle's
    first index plus period, or None.  Without ``render`` the snapshots are
    compared by alpha-equality instead of their printed text."""
    got = reduce_with(env, (), term, rules, strategy)
    with monkeypatch.context() as m:
        m.setattr(itt.reduce, "_spine", reference_spine)
        want = reduce_with(env, (), term, rules, strategy)
    if render:
        assert trace_to_text(got) == trace_to_text(want)
    assert got.status_line() == want.status_line()
    assert len(got.steps) == len(want.steps)
    assert all(a.kind == b.kind and alpha_eq(a.sub, b.sub)
               for a, b in zip(got.steps, want.steps))
    if want.cycle is None:
        return None
    first = want.cycle.first_index
    assert alpha_eq(got.snapshots()[first], want.snapshots()[first])
    return first + want.cycle.period


def _sweep_fuel(env, term, rules, strategy, monkeypatch, render=True,
                stride=1) -> bool:
    """Compare at the default budget and, if it cycles, at every ``stride``-th
    budget up to three times the steps to the first repeat; return whether it
    cycles."""
    horizon = _compare(env, term, rules, strategy, monkeypatch)
    if horizon is None:
        return False
    for fuel in range(1, 3 * horizon + 1, stride):
        _compare(env, term, rules.updated(fuel=fuel), strategy, monkeypatch,
                 render)
    return True


def test_corpus_cycles_match_the_exact_detector(monkeypatch,
                                                 certified_after_exhaustion):
    cycles = 0
    for name in CASE_NAMES:
        case = load_example(name)
        for flags in VARIANTS:
            rules = case.rules.updated(**flags)
            env, _ = elaborate(case.program, rules, reduce_strategy=None)
            for decl in case.program.declarations:
                if not isinstance(decl, PragmaReduce):
                    continue
                for strategy in ("whnf", "nf"):
                    cycles += _sweep_fuel(env, decl.term, rules, strategy,
                                          monkeypatch)
    assert cycles >= 10
    assert certified_after_exhaustion[0] > 0


def test_long_tails_match_the_exact_detector(monkeypatch,
                                             certified_after_exhaustion):
    """``(fun (y1 : Top), ... fun (yk : Top), Omega) omega ... omega`` and its
    ``id`` wrapper first repeat after about k steps.  The exact detector
    hashes each state of these long spines, so every fourth budget is
    compared, by alpha-equality."""
    case = load_example("counterexample2")
    env, _ = elaborate(case.program, case.rules, reduce_strategy=None)
    firsts = set()
    for k in TAILS:
        binders = "".join(f"fun (y{j} : Top), " for j in range(k))
        body = f"({binders}Omega)" + " omega" * k
        for src in (body, f"id ({body})"):
            term = parse_term(src, env.names())
            trace = reduce_with(env, (), term, case.rules, "whnf")
            assert trace.status == CYCLE_DETECTED
            firsts.add(trace.cycle.first_index)
            _sweep_fuel(env, term, case.rules, "whnf", monkeypatch,
                        render=False, stride=4)
    assert max(firsts) > 32
    assert certified_after_exhaustion[0] > 0


def test_corpus_cycle_reports_are_certificates():
    """A cycle report claims that ``period`` steps from its witness return to
    the witness, and that no fewer do.  Re-run exactly those steps with no
    detector: ``head_step`` (by ``step_term``) for whnf, the
    leftmost-outermost ``step`` for nf.  From a whnf witness, ``whnf_term``
    must report the same period."""
    checked = 0
    for name in CASE_NAMES:
        case = load_example(name)
        for flags in VARIANTS:
            rules = case.rules.updated(**flags)
            env, _ = elaborate(case.program, rules, reduce_strategy=None)
            for decl in case.program.declarations:
                if not isinstance(decl, PragmaReduce):
                    continue
                for strategy, one_step in (("whnf", step_term), ("nf", step)):
                    trace = reduce_with(env, (), decl.term, rules, strategy)
                    if trace.status != CYCLE_DETECTED:
                        continue
                    witness = trace.snapshots()[trace.cycle.first_index]
                    period = trace.cycle.period
                    state, budget = witness, rules.new_budget()
                    for n in range(1, period + 1):
                        state, _ = one_step(env, (), state, budget)
                        assert alpha_eq(state, witness) == (n == period)
                    if strategy == "whnf":
                        with pytest.raises(ConversionCycle) as info:
                            whnf_term(env, (), witness, rules.new_budget())
                        assert info.value.period == period
                    checked += 1
    assert checked >= 10
