from __future__ import annotations

import dataclasses
import functools
import importlib.util
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from itt import (
    CASE_NAMES, CYCLE_DETECTED, NORMAL_FORM, FUEL_EXHAUSTED, PROP,
    App, Cast, ConversionCycle, CycleDetector, Eq, Fuel, FuelExhausted,
    Global, GlobalEnv, Lam, Pi, Refl, RuleSet, Term, Var,
    alpha_eq, canonical_key, elaborate, head_step, infer,
    load_example, normalize, parse_program, parse_term, pretty, replay_trace,
    trace_to_json_lines, trace_to_text, whnf, whnf_term,
)
import itt.reduce
from itt.convert import convert
from itt.env import EnvEntry
from itt.reduce import BETA, FIRINGS, TraceStep, _apply
from itt.rules import RULES
from itt.syntax import CHILDREN, PRIMITIVES, EqRec, J
from helpers import (
    apps, counting_calls, kernel, parse_trace_json, spent_fuel, spine_head,
    step_term, workloads,
)
from reference import step
from term_strategies import (
    church_exp_program, church_numeral, head_loops, head_redexes, open_terms,
)


def _env(name, **flags):
    case = load_example(name)
    rules = case.rules.updated(**flags)
    env, _ = elaborate(case.program, rules, reduce_strategy=None)
    return case, env, rules


def _reduce_trace(name, **flags):
    case = load_example(name)
    rules = case.rules.updated(**flags)
    env, results = elaborate(case.program, rules, reduce_strategy=case.strategy)
    traces = [r.trace for r in results if r.kind == "reduce"]
    return case, env, rules, traces


def test_cast_step_fires_on_equal_endpoints():
    _, env, rules = _env("counterexample1")
    scope = env.names()
    t = parse_term("cast Top Top (h Top Top) delta", scope)
    got = step(env, (), t, rules.new_budget())
    assert got is not None
    result, kind = got
    assert kind == "CastFire"
    assert result == Global("delta")  # exactly, in one step


def test_cast_proof_shape_is_never_inspected():
    _, env, rules = _env("counterexample1")
    proof_ty = parse_term("Eq Prop Top Top", env.names())
    ctx = (proof_ty,)
    t = Cast(Global("Top"), Global("Top"), Var(0), Global("delta"))
    got = step(env, ctx, t, rules.new_budget())
    assert got == (Global("delta"), "CastFire")


def test_stuck_cast_has_no_head_step():
    _, env, rules = _env("counterexample1")
    t = parse_term("cast Top Bot (h Top Top) delta", env.names())
    assert step_term(env, (), t, rules.new_budget()) is None


def test_stuck_cast_on_normal_components_has_no_step_at_all():
    _, env, rules = _env("counterexample1")
    bot_nf = parse_term("forall (A : Prop), A")
    top_nf = parse_term("(forall (A : Prop), A) -> (forall (A : Prop), A)")
    ctx = (parse_term("Eq Prop Top Bot", env.names()), Global("Top"))
    t = Cast(top_nf, bot_nf, Var(0), Var(1))
    assert step(env, ctx, t, rules.new_budget()) is None


def test_eqrec_fires_via_conversion_of_endpoints():
    _, env, rules = _env("counterexample1")
    scope = env.names()
    t = parse_term(
        "Eq_rec Prop (fun (X : Prop), Prop) Top (Neg Bot) Bot (h Top (Neg Bot))",
        scope)
    got = step(env, (), t, rules.new_budget())
    assert got == (Global("Bot"), "EqRecFire")


def test_beta_contracts_self_application():
    _, env, rules = _env("counterexample1")
    scope = env.names()
    t = App(parse_term("fun (z : Bot), z Top z", scope), Global("omega"))
    got = step(env, (), t, rules.new_budget())
    assert got is not None and got[1] == BETA
    assert alpha_eq(got[0], parse_term("omega Top omega", scope))


def test_whnf_of_defined_global_is_normal_form():
    _, env, rules = _env("counterexample1")
    trace = whnf(env, (), Global("delta"), rules)
    assert trace.status == NORMAL_FORM
    assert isinstance(trace.final, Lam)  # lambda head is stable


def test_whnf_detects_closed_cycle():
    _, env, rules, traces = _reduce_trace("counterexample2")
    (trace,) = traces
    assert trace.strategy == "whnf"
    assert trace.status == CYCLE_DETECTED
    assert trace.cycle.first_index == 1 and trace.cycle.period == 6
    snaps = trace.snapshots()
    assert alpha_eq(snaps[1], parse_term("delta omega", env.names()))
    assert alpha_eq(snaps[1], snaps[1 + 6])


def test_whnf_with_cast_disabled_sticks():
    _, env, rules, traces = _reduce_trace("counterexample2", cast_rule=False)
    (trace,) = traces
    assert trace.status == NORMAL_FORM
    assert isinstance(spine_head(trace.final), Cast)


def test_normalize_detects_cycle_under_binder():
    _, env, rules = _env("counterexample1")
    trace = normalize(env, (), Global("Omega"), rules)
    assert trace.status == CYCLE_DETECTED
    assert trace.cycle.period == 6
    # the loop starts only after reduction moves under the hypothesis binder
    assert isinstance(trace.steps[0].term, Lam)
    # the witness is the whole term, not the spine the cycle was found on
    first, period = trace.cycle.first_index, trace.cycle.period
    snaps = trace.snapshots()
    assert isinstance(snaps[first], Lam)
    assert alpha_eq(snaps[first], snaps[first + period])


def test_normalize_open_body_cycles_with_literal_witnesses():
    _, env, rules, traces = _reduce_trace("counterexample1")
    (trace,) = traces
    assert trace.status == CYCLE_DETECTED
    assert trace.cycle.first_index == 0 and trace.cycle.period == 6
    snaps = trace.snapshots()
    assert alpha_eq(snaps[0], parse_term("delta (omega h)", env.names()))
    assert alpha_eq(snaps[0], snaps[6])
    window = snaps[trace.cycle.first_index:
                   trace.cycle.first_index + trace.cycle.period]
    scope = env.names()
    for displayed in ("delta (omega h)",
                      "omega h Top (omega h)",
                      "cast Top Top (h Top Top) delta (omega h)"):
        want = parse_term(displayed, scope)
        assert any(alpha_eq(w, want) for w in window)


def test_normalize_church_exponentiation():
    _, env, rules, traces = _reduce_trace("sanity-church")
    (trace,) = traces
    assert trace.status == NORMAL_FORM
    four = parse_term(
        "fun (A : Prop), fun (s : A -> A), fun (x : A), s (s (s (s x)))")
    assert alpha_eq(trace.final, four)


def test_normalizing_sequences_never_report_cycles():
    for name in ("sanity-church", "sanity-casts", "girard-j"):
        _, _, _, traces = _reduce_trace(name)
        assert all(t.status == NORMAL_FORM for t in traces)


def test_rule_gating_restores_normalization_everywhere():
    # elaborate under each case's own rules (girard-j needs J to type-check),
    # then reduce with every irrelevant-elimination rule off: pure beta/delta
    from itt import CASE_NAMES, PragmaReduce, reduce_with
    for name in CASE_NAMES:
        case, env, rules = _env(name)
        restricted = rules.updated(cast_rule=False, eqrec_rule=False,
                                   j_rule=False)
        for decl in case.program.declarations:
            if not isinstance(decl, PragmaReduce):
                continue
            t = reduce_with(env, (), decl.term, restricted, case.strategy)
            assert t.status == NORMAL_FORM
            assert all(s.kind == "Beta" or s.kind.startswith("Delta(")
                       for s in t.steps)


def test_normal_form_status_means_step_absent():
    from itt import CASE_NAMES
    for name in CASE_NAMES:
        case, env, rules, traces = _reduce_trace(name)
        for t in traces:
            if t.status == NORMAL_FORM and t.strategy == "nf":
                assert step(env, (), t.final, rules.new_budget()) is None


def test_traces_are_reproducible():
    for name in ("counterexample1", "counterexample2", "sanity-church"):
        case, env, rules, traces = _reduce_trace(name)
        for t in traces:
            assert replay_trace(env, (), t, rules)


_NAT_PRELUDE = """
def Nat : Prop := forall (A : Prop), (A -> A) -> A -> A.
def zero : Nat := fun (A : Prop), fun (s : A -> A), fun (z : A), z.
def succ : Nat -> Nat := fun (n : Nat),
  fun (A : Prop), fun (s : A -> A), fun (z : A), s (n A s z).
def add : Nat -> Nat -> Nat := fun (m : Nat), fun (n : Nat),
  fun (A : Prop), fun (s : A -> A), fun (z : A), m A s (n A s z).
def mul : Nat -> Nat -> Nat := fun (m : Nat), fun (n : Nat),
  fun (A : Prop), fun (s : A -> A), m A (n A s).
"""


def _nat_exprs(depth: int) -> st.SearchStrategy:
    """(source, value) of Nat expressions at most ``depth`` deep, built from
    the prelude's Church arithmetic and identity casts."""
    leaf = st.just(("zero", 0))
    if depth <= 0:
        return leaf
    sub = _nat_exprs(depth - 1)
    return st.one_of(
        leaf,
        sub.map(lambda e: (f"succ ({e[0]})", e[1] + 1)),
        sub.map(lambda e: (f"cast Nat Nat (refl Prop Nat) ({e[0]})", e[1])),
        st.tuples(sub, sub).map(
            lambda p: (f"add ({p[0][0]}) ({p[1][0]})", p[0][1] + p[1][1])),
        st.tuples(sub, sub).map(
            lambda p: (f"mul ({p[0][0]}) ({p[1][0]})", p[0][1] * p[1][1])),
    )


@settings(max_examples=100, deadline=None)
@given(_nat_exprs(4))
def test_replay_matches_the_original_run_on_generated_programs(expr):
    src, value = expr
    program = parse_program(_NAT_PRELUDE + f"#reduce {src}.\n")
    for cast_rule in (True, False):
        rules = RuleSet(cast_rule=cast_rule)
        for strategy in ("whnf", "nf"):
            env, results = elaborate(program, rules, reduce_strategy=strategy)
            trace = results[-1].trace
            assert replay_trace(env, (), trace, rules)
            records, status = parse_trace_json(trace_to_json_lines(trace))
            assert status == trace.status_line()
            assert [r["key"] for r in records] == [s.key for s in trace.steps]
            if strategy == "nf" and cast_rule:
                assert trace.status == NORMAL_FORM
                assert alpha_eq(trace.final, church_numeral(value))


def test_fuel_exhaustion_status():
    case = load_example("sanity-church")
    rules = case.rules
    env, _ = elaborate(case.program, rules, reduce_strategy=None)
    tiny = RuleSet(fuel=3)
    trace = normalize(env, (), parse_term("exp two two", env.names()), tiny)
    assert trace.status == FUEL_EXHAUSTED


def test_j_fires_only_when_enabled():
    _, env, rules = _env("girard-j")
    scope = env.names()
    t = parse_term("J Top Top top_id", scope)
    assert step(env, (), t, rules.new_budget()) == (Global("top_id"), "JFire")
    stuck = parse_term("J Top Bot top_id", scope)
    assert step_term(env, (), stuck, rules.new_budget()) is None
    disabled = rules.updated(j_rule=False)
    assert step_term(env, (), t, disabled.new_budget()) is None


_FIRING_SRC = """
axiom A : Prop.
axiom B : Prop.
def A2 : Prop := A.
axiom a : A.
axiom e : Eq Prop A A2.
axiom h : Eq Prop A B.
"""
# For each eliminator, a well-typed instance whose endpoints convert without
# being the same term, then one whose endpoints do not convert.
_FIRING_CASES = {
    Cast: ("cast A A2 e a", "cast A B h a"),
    EqRec: ("Eq_rec Prop (fun (X : Prop), Prop) A A2 B e",
            "Eq_rec Prop (fun (X : Prop), Prop) A B A h"),
    J: ("J A A2 a", "J A B a"),
}


def test_firing_rows_name_a_toggle_and_fields_of_their_class():
    helps = {f.name: f.metadata["rule"][2] for f in RULES}
    keywords = {cls: kw for kw, cls in PRIMITIVES.items()}
    assert set(FIRINGS) == set(_FIRING_CASES)
    for cls, (toggle, lhs, rhs, payload, _, proof) in FIRINGS.items():
        assert toggle in helps
        assert keywords[cls] in helps[toggle]  # its flag's help names it
        assert {lhs, rhs, payload, *proof} <= {a for a, _ in CHILDREN[cls]}
        assert lhs != rhs and payload not in (lhs, rhs)


@pytest.mark.parametrize("cls", list(_FIRING_CASES), ids=lambda c: c.__name__)
def test_each_firing_steps_as_its_row_says(cls):
    rules = RuleSet(j_rule=True)
    env, _ = elaborate(parse_program(_FIRING_SRC), rules)
    fires, stuck = (parse_term(src, env.names()) for src in _FIRING_CASES[cls])
    toggle, _, _, payload, kind, _ = FIRINGS[cls]
    trace = whnf(env, (), fires, rules)
    assert [s.kind for s in trace.steps[:1]] == [kind]
    assert trace.steps[0].term == getattr(fires, payload)
    budget = rules.new_budget()  # the step keeps the type, by the typing rules
    assert convert(env, (), infer(env, (), trace.steps[0].term, budget),
                   infer(env, (), fires, budget), budget)
    assert step_term(env, (), stuck, rules.new_budget()) is None
    off = rules.updated(**{toggle: False})
    assert step_term(env, (), fires, off.new_budget()) is None


def test_cycle_witness_replays_to_itself():
    for name in ("counterexample1", "counterexample2"):
        case, env, rules, traces = _reduce_trace(name)
        (trace,) = traces
        witness = trace.snapshots()[trace.cycle.first_index]
        cur = witness
        budget = rules.new_budget()
        for _ in range(trace.cycle.period):
            cur, _ = step_term(env, (), cur, budget)
        assert alpha_eq(cur, witness)


def test_cycle_detector_reports_first_repeat():
    det = CycleDetector()
    a, b = Var(0), Var(1)
    assert det.observe(0, a) is None
    assert det.observe(1, b) is None
    report = det.observe(2, a)
    assert report is not None
    assert (report.first_index, report.period) == (0, 2)


def test_cycle_detector_hash_collision_falls_back_to_alpha(monkeypatch):
    for cls in CHILDREN:  # every term hashes alike: only == tells them apart
        monkeypatch.setattr(cls, "__hash__", lambda self: 0)
    det = CycleDetector()
    first = Lam(PROP, Var(0), name="x")
    other = Lam(PROP, Var(1), name="x")
    assert hash(first) == hash(other) and not alpha_eq(first, other)
    assert det.observe(0, first) is None
    assert det.observe(1, other) is None  # collision, no report
    report = det.observe(2, Lam(PROP, Var(0), name="y"))
    assert report is not None
    assert (report.first_index, report.period) == (0, 2)  # first, not other
    # states over a stack: same head and argument count, so one key
    assert det.observe(3, first, (Var(1), None, 1)) is None
    assert det.observe(4, first, (Var(0), None, 1)) is None  # other argument
    assert det.observe(5, other, (Var(1), None, 1)) is None  # other head
    report = det.observe(6, App(Lam(PROP, Var(0), name="y"), Var(1)))
    assert report is not None
    assert (report.first_index, report.period) == (3, 3)


def test_cycle_detector_a_state_over_a_stack_is_its_built_term():
    f, a, b = Lam(PROP, Var(0), name="x"), Global("a"), Global("b")
    forms = [(apps(f, [a, b]),), (App(f, a), (b, None, 1)),
             (Lam(PROP, Var(0), name="y"), (a, (b, None, 1), 2))]
    for one in forms:
        for other in forms:
            det = CycleDetector()
            assert det.observe(0, *one) is None
            assert det.observe(1, f, (a, None, 1)) is None  # one argument less
            report = det.observe(2, *other)
            assert report is not None
            assert (report.first_index, report.period) == (0, 2)


# A spine this long overflows the stack of dataclass ==, so a check that
# compares its states by == alone cannot see them repeat.
_DEEP = 3 * sys.getrecursionlimit()
_SPINES = pytest.mark.parametrize("n", [50, _DEEP], ids=["shallow", "deep"])


def _self_app() -> Term:
    return Lam(PROP, App(Var(0), Var(0)), name="z")


def _loop(n: int) -> Term:
    """``(fun (z : Prop), z z) (fun (z : Prop), z z) a ... a``, ``n`` times
    ``a``, built anew at each call."""
    return apps(App(_self_app(), _self_app()), [Global("a")] * n)


def _loop_env() -> GlobalEnv:
    """The axiom ``a``, ``omega := fun (z : Prop), z z`` and ``Omega :=
    omega omega``, entered without type checking: reduction and conversion
    read only the bodies."""
    env = GlobalEnv()
    env.add(EnvEntry("a", PROP, None, "axiom"))
    env.add(EnvEntry("omega", Pi(PROP, PROP), _self_app(), "def"))
    env.add(EnvEntry("Omega", PROP, App(Global("omega"), Global("omega")),
                     "def"))
    return env


@_SPINES
def test_a_loop_of_any_depth_is_detected_untraced(n):
    with pytest.raises(ConversionCycle) as cycle:
        whnf_term(_loop_env(), (), _loop(n), RuleSet(fuel=50).new_budget())
    assert cycle.value.period == 1


@_SPINES
def test_a_loop_of_any_depth_is_certified_traced(n):
    trace = whnf(_loop_env(), (), _loop(n), RuleSet(fuel=50))
    assert trace.status_line() == "STATUS CycleDetected first=0 period=1"


@_SPINES
def test_a_conversion_loop_of_any_depth_is_detected(n):
    spine = apps(Global("Omega"), [Global("a")] * n)
    with pytest.raises(ConversionCycle) as cycle:
        convert(_loop_env(), (), spine, PROP, RuleSet(fuel=200).new_budget())
    assert cycle.value.period == 1


def test_cycle_detector_confirms_a_repeat_of_deep_terms():
    det = CycleDetector()
    assert det.observe(0, _loop(_DEEP)) is None
    assert det.observe(1, _loop(_DEEP - 1)) is None
    report = det.observe(2, _loop(_DEEP))  # built apart from the first
    assert report is not None
    assert (report.first_index, report.period) == (0, 2)


@_SPINES
def test_a_terminating_spine_of_any_depth_returns(n):
    spine = apps(Lam(PROP, Var(0), name="x"), [Global("a")] * n)
    want = apps(Global("a"), [Global("a")] * (n - 1))
    got = whnf_term(_loop_env(), (), spine, RuleSet(fuel=50).new_budget())
    assert alpha_eq(got, want)
    trace = whnf(_loop_env(), (), spine, RuleSet(fuel=50))
    assert trace.status_line() == "STATUS NormalForm"
    assert len(trace.steps) == 1


_ALIASES = """
axiom A : Prop.
axiom F : Prop -> Prop.
axiom a : Prop.
def f : Prop := F A.
def g : Prop := f.
"""


def test_whnf_term_returns_the_objects_it_reaches():
    # a term reached over an empty stack is returned as it is, not rebuilt:
    # conversion's identity shortcut depends on these shared objects
    env, _ = elaborate(parse_program(_ALIASES))
    budget = RuleSet().new_budget()
    assert whnf_term(env, (), Global("g"), budget) is env.lookup("f").body
    redex = parse_term("(fun (x : Prop), F x) a", env.names())
    assert whnf_term(env, (), redex, budget) is whnf_term(env, (), redex,
                                                          budget)
    for stable in ("F a", "forall (x : Prop), x"):
        spine = parse_term(stable, env.names())
        assert whnf_term(env, (), spine, budget) is spine


def _count_apps(monkeypatch) -> dict[str, int]:
    """The number of ``App`` nodes built and compared from here on."""
    counts = {"__init__": 0, "__eq__": 0}
    for name in counts:
        def counting(self, *args, _name=name, _real=getattr(App, name)):
            counts[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(App, name, counting)
    return counts


def test_head_reduction_is_linear_in_the_spine(monkeypatch):
    # the identity applied to n copies of itself, then to ``a``: each Beta
    # pops one argument, so no step builds or compares the spine
    n, ident = 300, Lam(PROP, Var(0), name="x")
    env, a = _loop_env(), Global("a")
    spine = apps(ident, [ident] * n + [a])
    counts = _count_apps(monkeypatch)
    assert whnf_term(env, (), spine, RuleSet().new_budget()) is a
    assert counts["__init__"] <= n and counts["__eq__"] <= n
    trace = whnf(env, (), spine, RuleSet())
    assert trace.status == NORMAL_FORM and len(trace.steps) == n + 1
    assert counts["__init__"] == 0  # no snapshot read yet
    assert alpha_eq(trace.snapshots()[1], apps(ident, [ident] * (n - 1)
                                                     + [a]))


def _grow_env():
    """counterexample2 with ``delta`` growing ``Omega``'s spine at each turn,
    as the contract dump's ``grow-diverge`` input, with irrelevance off."""
    spec = importlib.util.spec_from_file_location(
        "contract_dump", Path(__file__).resolve().parents[1] / "scripts"
        / "contract_dump.py")
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    rules = RuleSet(proof_irrelevance=False)
    return elaborate(parse_program(dump._GROW_DEFS.decode()), rules)[0], rules


def test_grow_diverge_exhausts_its_budget_without_a_cycle():
    env, rules = _grow_env()
    trace = whnf(env, (), Global("Omega"), rules.updated(fuel=1000))
    assert trace.status == FUEL_EXHAUSTED and trace.cycle is None
    assert len(trace.steps) == 667
    budget = rules.updated(fuel=4000).new_budget()
    with pytest.raises(FuelExhausted) as info:
        whnf_term(env, (), Global("Omega"), budget)
    assert not isinstance(info.value, ConversionCycle)
    assert budget.remaining == -1


def test_certifying_an_exhausted_trace_builds_no_spine(monkeypatch):
    # the certifier compares the machine's states, so a traced run builds
    # no more ``App`` nodes than the untraced loop; one that rebuilt each
    # state's spine to compare it built 56,018 here
    env, rules = _grow_env()
    rules = rules.updated(fuel=1000)
    counts = _count_apps(monkeypatch)
    with pytest.raises(FuelExhausted):
        whnf_term(env, (), Global("Omega"), rules.new_budget())
    untraced, counts["__init__"] = counts["__init__"], 0
    trace = whnf(env, (), Global("Omega"), rules)
    assert trace.status == FUEL_EXHAUSTED and len(trace.steps) == 667
    assert counts["__init__"] <= untraced


def test_each_trace_step_is_printed_once(monkeypatch):
    _, _, _, traces = _reduce_trace("counterexample2")
    (trace,) = traces
    printed = counting_calls(monkeypatch, "pretty")
    text = trace_to_text(trace)
    lines = trace_to_json_lines(trace)
    assert [id(t) for t in printed] == [id(s.term) for s in trace.steps]
    shown = [s.text for s in trace.steps]
    assert [line.split(" ", 2)[2] for line in text.splitlines()[:-1]] == shown
    assert [r["term"] for r in parse_trace_json(lines)[0]] == shown


def test_trace_text_format():
    _, env, rules, traces = _reduce_trace("counterexample2")
    text = trace_to_text(traces[0]).splitlines()
    assert text[0].startswith("1 Delta(Omega) ")
    assert text[-1] == "STATUS CycleDetected first=1 period=6"


LITERAL_KINDS = {
    "sanity-casts": [
        ["CastFire", "Delta(top_value)", "Delta(Bot)"],
        ["CastFire", "Delta(top_value)", "Delta(Bot)"],
        ["Delta(Top)", "Delta(Neg)", "Beta", "Delta(Bot)", "Delta(Bot)",
         "Delta(Bot)", "Delta(top_value)", "Delta(Bot)"],
        ["EqRecFire", "Delta(Bot)"],
    ],
    "girard-j": [["JFire", "Delta(top_id)"],
                 ["Delta(Top)", "Delta(Bot)", "Delta(top_id)"]],
}


@pytest.mark.parametrize("name", sorted(LITERAL_KINDS))
def test_trace_kinds_are_literal_texts(name):
    """The kind column of the text trace and the ``kind`` field of the JSON
    trace are exactly these strings, under each case's own rules (girard-j's
    turn ``j_rule`` on)."""
    _, env, rules, traces = _reduce_trace(name)
    texts, records = [], []
    for trace in traces:
        texts.append([line.split(" ", 2)[1]
                      for line in trace_to_text(trace).splitlines()[:-1]])
        records.append([r["kind"] for r in
                        parse_trace_json(trace_to_json_lines(trace))[0]])
        assert replay_trace(env, (), trace, rules)
    assert texts == records == LITERAL_KINDS[name]


def test_trace_json_lines_parse_and_replay():
    _, env, rules, traces = _reduce_trace("counterexample2")
    trace = traces[0]
    records, status = parse_trace_json(trace_to_json_lines(trace))
    assert status == "STATUS CycleDetected first=1 period=6"
    assert [r["index"] for r in records] == list(range(1, len(trace.steps) + 1))
    scope = env.names()
    for record, snap in zip(records, trace.steps):
        assert alpha_eq(parse_term(record["term"], scope), snap.term)
        assert record["key"] == snap.key
        assert record["kind"] == snap.kind


def _tampered(trace, **changes):
    return dataclasses.replace(trace, steps=list(trace.steps), **changes)


def test_replay_rejects_tampered_traces():
    _, env, rules, traces = _reduce_trace("counterexample2")
    (trace,) = traces
    assert replay_trace(env, (), trace, rules)
    steps = trace.steps
    kind = _tampered(trace)
    kind.steps[2] = TraceStep(BETA if steps[2].kind != BETA else "CastFire",
                              steps[2].sub, steps[2].frame)
    sub = _tampered(trace)
    sub.steps[2] = TraceStep(steps[2].kind, steps[3].sub, steps[2].frame)
    assert not alpha_eq(sub.steps[2].term, steps[2].term)
    dropped = _tampered(trace)
    del dropped.steps[-1]
    period = _tampered(trace, cycle=dataclasses.replace(
        trace.cycle, period=trace.cycle.period + 1))
    for bad in (kind, sub, dropped, period):
        assert not replay_trace(env, (), bad, rules)


@pytest.mark.parametrize("depth", [450, 600])
def test_deep_one_step_trace_replays(depth):
    # fun (x : Prop), s (... s ((fun (y : Prop), y) x)), built without the
    # parser; comparing its snapshots node by node would overflow the stack
    env, _ = elaborate(parse_program("axiom s : Prop -> Prop.\n"))
    body = App(Lam(PROP, Var(0), name="y"), Var(0))
    for _ in range(depth):
        body = App(Global("s"), body)
    rules = RuleSet()
    trace = normalize(env, (), Lam(PROP, body, name="x"), rules)
    assert trace.status == NORMAL_FORM and len(trace.steps) == 1
    assert replay_trace(env, (), trace, rules)


def test_replay_digests_no_snapshot(monkeypatch):
    # the recorded steps are keyed, as a JSON trace keys them; replay compares
    # the fresh run's snapshots with them and keys none of its own
    _, env, rules, traces = _reduce_trace("counterexample2")
    (trace,) = traces
    trace_to_json_lines(trace)
    keyed = counting_calls(monkeypatch, "canonical_key")
    assert replay_trace(env, (), trace, rules)
    assert keyed == []


def test_replay_compares_snapshots_too_deep_for_eq():
    # (fun (x : Prop), x) a a ... a: one Beta step to a spine of ``a`` three
    # times the recursion limit long, on which == overflows
    a, n = Global("a"), 3 * sys.getrecursionlimit()
    rules = RuleSet()
    trace = whnf(GlobalEnv(), (), apps(Lam(PROP, Var(0), name="x"), [a] * n),
                 rules)
    assert trace.status == NORMAL_FORM and len(trace.steps) == 1
    assert replay_trace(GlobalEnv(), (), trace, rules)
    bad = _tampered(trace)
    args = [a] * (n - 1)
    args[1] = Global("b")  # next to the head, the deepest argument but one
    bad.steps[0] = TraceStep(trace.steps[0].kind, apps(a, args), None)
    with pytest.raises(RecursionError):  # so alpha_eq takes its own walk
        _ = bad.steps[0].term == trace.steps[0].term
    assert not replay_trace(GlobalEnv(), (), bad, rules)


def test_each_step_field_is_computed_once(monkeypatch):
    _, _, _, traces = _reduce_trace("sanity-church")
    (trace,) = traces
    for s in trace.steps:  # forget what the run itself read
        for field in ("sub", "term", "key", "text"):
            vars(s).pop(field, None)
    calls = {name: counting_calls(monkeypatch, name)
             for name in ("_apply", "_with_child", "canonical_key", "pretty")}
    for s in trace.steps:
        for field in ("sub", "term", "key", "text"):
            assert getattr(s, field) is getattr(s, field)
    frames = 0
    for s in trace.steps:
        frame = s.frame
        while frame is not None:
            frames, frame = frames + 1, frame[2]
    assert frames > len(trace.steps) > 1
    assert {name: len(seen) for name, seen in calls.items()} == {
        "_apply": len(trace.steps), "_with_child": frames,
        "canonical_key": len(trace.steps), "pretty": len(trace.steps)}


@pytest.mark.parametrize(("m", "n", "steps"), [(2, 9, 2049), (3, 6, 1461)])
def test_deep_church_exponentiation_normalizes(m, n, steps):
    # the normal form is m**n applications deep; keys must not recurse on it
    assert church_numeral(2) == parse_term(
        "fun (A : Prop), fun (s : A -> A), fun (x : A), s (s x)")
    _, results = elaborate(parse_program(church_exp_program(m, n)),
                           reduce_strategy="nf")
    trace = results[-1].trace
    assert trace.status == NORMAL_FORM and len(trace.steps) == steps
    assert canonical_key(trace.final) == canonical_key(church_numeral(m ** n))


def test_church_nf_steps_and_fuel_are_pinned(monkeypatch):
    # the 28 seed-1 church-nf programs: each normalizes to the numeral m^n
    # in the benchmark's pinned number of steps, and together they spend the
    # fuel the benchmark's traced run counts; a change that alters either
    # changes what normalization does, not only its speed
    church = workloads.ChurchNf(kernel("parser", "typecheck", "syntax"), 1)
    suffix, spent = workloads.Suffixes(1), 0
    assert len(church.specs()) == 28
    for m, n in church.specs():
        prog = church.make((m, n), suffix())
        verdict, fuel = spent_fuel(monkeypatch, lambda: church.run(prog))
        spent += fuel
        assert church.check(prog, verdict) is None
    assert spent == 5_755


@pytest.mark.parametrize("name", CASE_NAMES)
def test_reduction_preserves_types(name):
    # every snapshot of every trace has the type of the term it started from
    case = load_example(name)
    for flags in ({}, {"cast_rule": False}, {"proof_irrelevance": False}):
        rules = case.rules.updated(**flags)
        for strategy in ("whnf", "nf"):
            env, results = elaborate(case.program, rules,
                                     reduce_strategy=strategy)
            for res in results:
                if res.kind != "reduce":
                    continue
                ty = infer(env, (), res.term, rules.new_budget())
                for snap in res.trace.snapshots():
                    got = infer(env, (), snap, rules.new_budget())
                    assert convert(env, (), got, ty, rules.new_budget()), (
                        flags, strategy, pretty(snap))


RULE_VARIANTS = ({}, {"cast_rule": False},
                 {"cast_rule": False, "eqrec_rule": False},
                 {"proof_irrelevance": False})


@pytest.mark.parametrize("flags", RULE_VARIANTS)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_snapshots_built_on_demand_match_a_fresh_run(name, flags):
    case, env, rules, traces = _reduce_trace(name, **flags)
    scope = env.names()
    for trace in traces:
        # no whole-term snapshot exists until a consumer asks for one
        assert not any("term" in vars(s) or "key" in vars(s)
                       for s in trace.steps)
        snaps = trace.snapshots()
        for s, before, after in zip(trace.steps, snaps, snaps[1:]):
            assert s.term is after
            fresh = parse_term(pretty(after), scope)  # nothing memoized
            assert s.key == canonical_key(fresh)
            budget = rules.new_budget()
            got = (step_term(env, (), before, budget)
                   if trace.strategy == "whnf" else
                   step(env, (), before, budget))
            assert got is not None and got[1] == s.kind
            assert alpha_eq(got[0], after)


STABLE_HEADS = (PROP, Pi(PROP, Var(0)), Eq(PROP, PROP, PROP), Refl(PROP, PROP),
                Var(0))


@pytest.mark.parametrize("args", [(), (PROP,), (Var(0), Global("Top"))])
@pytest.mark.parametrize("head, unfold_heads",
                         [(h, True) for h in STABLE_HEADS]
                         + [(Global("Top"), False), (Global("delta"), False)])
def test_stable_spine_answers_at_once(monkeypatch, head, unfold_heads, args):
    # a head that no rule steps returns the spine itself, spends no fuel and
    # asks head_step nothing; the globals are defined, so unfolding would
    # step them
    _, env, rules = _env("counterexample1")
    t = apps(head, args)
    budget = Fuel(10, rules)

    def no_step(*_):
        raise AssertionError("head_step called")

    monkeypatch.setattr(itt.reduce, "head_step", no_step)
    assert whnf_term(env, (PROP,), t, budget, unfold_heads) is t
    assert budget.remaining == 10


def test_held_back_delta_asks_head_step_once(monkeypatch):
    # the beta step leaves a defined global at the head; with Delta held
    # back, that spine is returned without asking head_step again
    _, env, rules = _env("counterexample1")
    asked = []

    def counting(*args):
        asked.append(_apply(*args[2:4]))  # the whole spine asked about
        return head_step(*args)

    monkeypatch.setattr(itt.reduce, "head_step", counting)
    t = App(Lam(PROP, Global("delta")), PROP)
    got = whnf_term(env, (), t, rules.new_budget(), unfold_heads=False)
    assert got == Global("delta") and asked == [t]


@functools.cache
def _case_env(name):
    return _env(name)[1]


def _looped_whnf(env, ctx, t, budget, unfold_heads, states):
    """The weak-head loop before stable heads answered at once and before
    its Brent check; it holds Delta back by stopping at a global head, and
    appends each state it reaches to ``states``."""
    states.append(t)
    while unfold_heads or not isinstance(spine_head(t), Global):
        if (r := step_term(env, ctx, t, budget)) is None:
            break
        t = r[0]
        states.append(t)
    return t


def _whnf_outcome(whnf_fn, env, ctx, t, rules, unfold_heads):
    budget = Fuel(200, rules)
    try:
        result = whnf_fn(env, ctx, t, budget, unfold_heads)
    except Exception as exc:  # every failure must match too
        return exc, budget.remaining
    return result, budget.remaining


def _rename_globals(t, names, offset):
    """``t`` with each pool global ``g<i>`` renamed to a name of the case."""
    if isinstance(t, Global):
        return Global(names[(int(t.name[1:]) + offset) % len(names)])
    return dataclasses.replace(t, **{
        f: _rename_globals(getattr(t, f), names, offset)
        for f, _ in CHILDREN[type(t)]})


_SELF_APPLY = Lam(PROP, App(Var(0), Var(0)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CASE_NAMES),
       st.one_of(open_terms, head_redexes, head_loops),
       st.integers(0, 7), st.booleans(), st.booleans(), st.booleans(),
       st.booleans())
@example("counterexample2", App(_SELF_APPLY, _SELF_APPLY), 0, True, True,
         True, False)
def test_whnf_term_matches_the_head_step_loop(name, t, offset, unfold_heads,
                                              cast_rule, eqrec_rule, j_rule):
    """``whnf_term`` ends as the plain loop does, with the same budget left,
    except that it may stop a loop whose states repeat: it then raises
    ``ConversionCycle`` with a period that the plain loop's states confirm,
    having spent less than the whole budget."""
    env = _case_env(name)
    t = _rename_globals(t, env.names(), offset)
    rules = RuleSet(cast_rule=cast_rule, eqrec_rule=eqrec_rule, j_rule=j_rule)
    ctx = (PROP,) * 3
    states = []
    got, got_left = _whnf_outcome(whnf_term, env, ctx, t, rules, unfold_heads)
    want, want_left = _whnf_outcome(
        functools.partial(_looped_whnf, states=states), env, ctx, t, rules,
        unfold_heads)
    if isinstance(got, ConversionCycle) and not isinstance(want,
                                                           ConversionCycle):
        assert isinstance(want, FuelExhausted)
        assert any(alpha_eq(a, b) for a, b in zip(states, states[got.period:]))
        assert got_left > want_left
        return
    assert got_left == want_left
    if isinstance(want, Term):
        assert isinstance(got, Term) and alpha_eq(got, want)
    else:
        assert (type(got), str(got)) == (type(want), str(want))
