"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are exact alpha-equality for terms and exact status /
step-bound checks for reduction outcomes.
"""

from __future__ import annotations

from itt import (
    CYCLE_DETECTED, NORMAL_FORM,
    Cast, EnvEntry, Global, Var,
    alpha_eq, elaborate, infer, load_example, normalize, parse_term,
    pretty, replay_trace, trace_to_json_lines, whnf,
)
from itt.convert import convert
from itt.parser import PragmaCheck, PragmaReduce
from helpers import parse_trace_json, spine_head
from reference import step


def _elaborated(name, **flags):
    case = load_example(name)
    rules = case.rules.updated(**flags)
    env, results = elaborate(case.program, rules, reduce_strategy=case.strategy)
    return case, rules, env, results


def _passed(n: int, text: str) -> None:
    print(f"criterion {n}: PASS — {text}")


def test_criterion_1_cast_rule_fidelity():
    case, rules, env, _ = _elaborated("counterexample1")
    env.add(EnvEntry("eq_ax", parse_term("Eq Prop Top Top", env.names()),
                     None, "axiom"))
    scope = env.names()
    proof_ty = parse_term("Eq Prop Top Top", scope)
    proofs = [
        ((), parse_term("h Top Top", scope)),
        ((), parse_term("refl Prop Top", scope)),
        ((), parse_term("eq_ax", scope)),
        ((proof_ty,), Var(0)),
    ]
    for ctx, p in proofs:
        got_ty = infer(env, ctx, p, rules.new_budget())
        assert convert(env, ctx, got_ty, proof_ty, rules.new_budget())  # well-typed
        term = Cast(Global("Top"), Global("Top"), p, Global("delta"))
        got = step(env, ctx, term, rules.new_budget())
        assert got is not None
        result, kind = got
        assert kind == "CastFire"
        assert alpha_eq(result, Global("delta"))  # exact, single step
        # mutate the proof to a fresh variable of the same type: identical
        mutated = Cast(Global("Top"), Global("Top"), Var(len(ctx)),
                       Global("delta"))
        mut_ctx = (proof_ty,) + ctx
        got_mut = step(env, mut_ctx, mutated, rules.new_budget())
        assert got_mut is not None
        assert got_mut[1] == "CastFire"
        assert alpha_eq(got_mut[0], result)
    _passed(1, "cast fires on equal endpoints, never inspecting the proof")


def test_criterion_2_first_counterexample_cycle():
    case, rules, env, results = _elaborated("counterexample1")
    (trace,) = [r.trace for r in results if r.kind == "reduce"]
    assert trace.strategy == "nf"
    assert trace.status == CYCLE_DETECTED
    assert len(trace.steps) <= 50
    snaps = trace.snapshots()
    first, period = trace.cycle.first_index, trace.cycle.period
    window = snaps[first:first + period]
    scope = env.names()
    displayed = [
        "delta (omega h)",
        "omega h Top (omega h)",
        "cast Top Top (h Top Top) delta (omega h)",
    ]
    for src in displayed:
        want = parse_term(src, scope)
        assert any(alpha_eq(w, want) for w in window), src
    _passed(2, f"open self-application loops with period {period}, "
               f"witnessing all three displayed forms")


def test_criterion_3_second_counterexample_weak_head():
    case, rules, env, results = _elaborated("counterexample2")
    (trace,) = [r.trace for r in results if r.kind == "reduce"]
    assert trace.strategy == "whnf"
    assert trace.status == CYCLE_DETECTED  # not NormalForm, not FuelExhausted
    assert len(trace.steps) <= 50
    _passed(3, f"closed term has no weak-head normal form "
               f"(cycle at step {trace.cycle.first_index}, "
               f"period {trace.cycle.period})")


def test_criterion_4_normalization_restored():
    for name in ("counterexample1", "counterexample2"):
        case = load_example(name)
        restricted = case.rules.updated(cast_rule=False, eqrec_rule=False)
        env, results = elaborate(case.program, restricted, reduce_strategy="nf")
        (trace,) = [r.trace for r in results if r.kind == "reduce"]
        assert trace.status == NORMAL_FORM
        # a stuck coercion in head position
        assert isinstance(spine_head(trace.final), Cast)
        assert step(env, (), trace.final, restricted.new_budget()) is None
    _passed(4, "disabling cast/Eq_rec leaves stuck casts and full normal forms")


def test_criterion_5_typing_fidelity():
    displayed = {
        "counterexample1": {
            "Bot": "Prop",
            "Neg": "Prop -> Prop",
            "Top": "Prop",
            "delta": "Top",
            "omega": "Neg (forall (A : Prop), forall (B : Prop), Eq Prop A B)",
            "Omega": "Neg (forall (A : Prop), forall (B : Prop), Eq Prop A B)",
        },
        "counterexample2": {
            "id": "Top -> Top",
            "delta": "Top -> Top",
            "omega": "Top",
            "Omega": "Top",
        },
    }
    for name, table in displayed.items():
        case, rules, env, _ = _elaborated(name)
        for global_name, type_src in table.items():
            entry = env.lookup(global_name)
            want = parse_term(type_src, env.names())
            assert convert(env, (), entry.type_, want,
                           rules.new_budget()), global_name
            # re-infer the body from scratch; exact up to conversion
            got = infer(env, (), entry.body, rules.new_budget())
            assert convert(env, (), got, want, rules.new_budget()), global_name
    _passed(5, "every displayed signature type-checks as stated")


def test_criterion_6_j_variant():
    case, rules, env, _ = _elaborated("girard-j")
    assert rules.j_rule
    scope = env.names()
    fires = parse_term("J Top Top top_id", scope)
    got = step(env, (), fires, rules.new_budget())
    assert got == (Global("top_id"), "JFire")  # one step, exactly x
    stuck = parse_term("J Top Bot top_id", scope)
    tr = whnf(env, (), stuck, rules)
    assert tr.status == NORMAL_FORM and tr.final == stuck  # no head step fires
    assert not any(s.kind == "JFire"
                   for s in normalize(env, (), stuck, rules).steps)
    _passed(6, "J fires exactly on equal propositions and sticks otherwise")


def test_criterion_7_kernel_self_consistency():
    from itt import CASE_NAMES
    checked_steps = 0
    for name in CASE_NAMES:
        case, rules, env, results = _elaborated(name)
        scope = env.names()

        # parse/pretty round-trip over every term the case contains
        corpus_terms = []
        for decl in case.program.declarations:
            match decl:
                case EnvEntry(_, ty, body):
                    corpus_terms.extend(t for t in (ty, body) if t is not None)
                case PragmaCheck(term) | PragmaReduce(term):
                    corpus_terms.append(term)
        for entry in env:
            corpus_terms.append(entry.type_)
        for t in corpus_terms:
            assert alpha_eq(parse_term(pretty(t), scope), t)

        for res in results:
            if res.kind != "reduce":
                continue
            trace = res.trace

            # replay: the recorded steps reproduce every snapshot
            assert replay_trace(env, (), trace, rules)

            # JSON serialization round-trips and replays snapshot by snapshot
            records, status_line = parse_trace_json(trace_to_json_lines(trace))
            assert status_line == trace.status_line()
            assert len(records) == len(trace.steps)
            for record, snap in zip(records, trace.steps):
                assert alpha_eq(parse_term(record["term"], scope), snap.term)
                assert record["key"] == snap.key

            # subject reduction: each traced step preserves the type
            want = infer(env, (), trace.initial, rules.new_budget())
            for snap in trace.steps:
                got = infer(env, (), snap.term, rules.new_budget())
                assert convert(env, (), got, want, rules.new_budget())
                checked_steps += 1
            for snap_t in (trace.snapshots()):
                assert alpha_eq(parse_term(pretty(snap_t), scope), snap_t)
    assert checked_steps > 0
    _passed(7, f"subject reduction, trace replay and round-trip hold over "
               f"{checked_steps} traced steps")


def test_criterion_8_sanity_normalization():
    case, rules, env, results = _elaborated("sanity-church")
    (trace,) = [r.trace for r in results if r.kind == "reduce"]
    assert trace.status == NORMAL_FORM
    # hand-derived oracle: 2^2 beta-reduces to the literal numeral four
    four = parse_term(
        "fun (A : Prop), fun (s : A -> A), fun (x : A), s (s (s (s x)))")
    assert alpha_eq(trace.final, four)
    assert all(s.kind == "Beta" or s.kind.startswith("Delta(")
               for s in trace.steps)
    _passed(8, "Church 2^2 strongly normalizes to 4 by beta/delta alone")
