"""Trace rendering against a print of each snapshot on its own.

``trace_to_text`` and ``trace_to_json_lines`` print a run of steps at a deep
frame once, around a hole at the spine, and then print only each step's
spine.  These tests compare every rendered line with the line that a whole
print of the snapshot gives, on traces that no renderer has read before.
"""

from __future__ import annotations

import json
import sys

import pytest

from itt import (
    CASE_NAMES, DEFAULT_RULES, PROP, App, Global, GlobalEnv, Lam, Trace,
    TraceStep, Var, alpha_eq, canonical_key, elaborate, load_example,
    normalize, parse_program, parse_term, pretty, trace_to_json_lines,
    trace_to_text,
)
from itt.render import _CUT_LEVELS
from itt.rules import RULES
from helpers import counting_calls
from term_strategies import church_exp_program


def _label_flags(label: str) -> dict[str, bool]:
    """The rule flags of an expected/ table label such as
    ``cast:on,eqrec:on,j:off,irrel:on``."""
    on = dict(part.split(":") for part in label.split(","))
    return {f.name: on[f.metadata["rule"][1]] == "on" for f in RULES}


def _corpus_runs():
    for name in CASE_NAMES:
        case = load_example(name)
        for label in sorted({label for _, label, _ in case.expected_reduce}):
            yield (f"{name}[{label}]", case.source, case.strategy,
                   case.rules.updated(**_label_flags(label)))


def _k_binders(name: str, k: int) -> str:
    return "".join(f"fun ({name}{i} : Prop), " for i in range(k))


# A spine at a frame of more than _CUT_LEVELS binders whose steps change the
# snapshot's global set: Delta(use) brings in x and drops use, and Delta(x)
# drops x.  The outer binder x prints as x1 while the global x is in the
# snapshot, so each change shows in the frame's text.
GLOBALS_CHANGE = (
    "def x : Prop -> Prop := fun (y : Prop), y.\n"
    "def use : Prop -> Prop := fun (y : Prop), x y.\n"
    f"#reduce fun (x : Prop), {_k_binders('a', 9)}use a8.\n")

# A spine under a frame Pi whose binder only the spine uses: the Pi prints
# as forall until a Beta drops that use, and as an arrow after it.
ARROW_CHANGES = (
    "axiom P : Prop.\n"
    "def K : Prop -> Prop -> Prop := fun (u : Prop), fun (v : Prop), v.\n"
    "#reduce " + "".join(f"forall (a{i} : Prop), " for i in range(9))
    + "forall (b : Prop), K b P.\n")

_RUNS = [
    *_corpus_runs(),
    *((f"church-{2 ** n}", church_exp_program(2, n), "nf", None)
      for n in range(2, 7)),
    ("globals-change", GLOBALS_CHANGE, "nf", None),
    ("arrow-changes", ARROW_CHANGES, "nf", None),
]


def _traces(source, strategy, rules):
    """The reduce traces of ``source``, parsed afresh, so that they share no
    node, and so no memo, with any other run's, but the shared leaves."""
    program = parse_program(source)
    env, results = (elaborate(program, reduce_strategy=strategy) if rules is None
                    else elaborate(program, rules, reduce_strategy=strategy))
    return env, [r.trace for r in results if r.kind == "reduce"]


@pytest.mark.parametrize(("source", "strategy", "rules"),
                         [run[1:] for run in _RUNS], ids=[run[0] for run in _RUNS])
def test_rendered_lines_match_a_whole_print_of_each_snapshot(source, strategy, rules):
    env, texts = _traces(source, strategy, rules)
    _, jsons = _traces(source, strategy, rules)
    _, refs = _traces(source, strategy, rules)
    scope = env.names()
    assert texts and len(texts) == len(jsons) == len(refs)
    for shown, keyed, ref in zip(texts, jsons, refs):
        text = trace_to_text(shown).split("\n")
        lines = trace_to_json_lines(keyed)
        want_text = [f"{i} {s.kind} {pretty(s.term)}"
                     for i, s in enumerate(ref.steps, 1)]
        want_json = [json.dumps({"index": i, "kind": s.kind, "term": pretty(s.term),
                                 "key": canonical_key(s.term)})
                     for i, s in enumerate(ref.steps, 1)]
        assert text == [*want_text, ref.status_line()]
        assert lines == [*want_json, ref.status_line()]
        # and JSON after text, as the benchmark renders a trace
        assert trace_to_json_lines(shown) == lines
        for line, s in zip(text, shown.steps):
            printed = line.split(" ", 2)[2]
            assert alpha_eq(parse_term(printed, scope), s.term)


def _cut_steps(trace):
    """The steps whose frame is deep enough to be printed once per run."""
    deep = []
    for s in trace.steps:
        levels, f = 0, s.frame
        while f is not None:
            levels, f = levels + 1, f[2]
        deep.append(levels >= _CUT_LEVELS)
    return deep


@pytest.mark.parametrize("source", [church_exp_program(2, 6), GLOBALS_CHANGE,
                                    ARROW_CHANGES], ids=["church-64", "globals", "arrow"])
def test_text_at_a_deep_frame_prints_the_spine_only(monkeypatch, source):
    # a step at a deep frame builds no snapshot and calls no whole print,
    # unless its spine uses the binder of a frame Pi printed as an arrow
    _, (trace,) = _traces(source, "nf", None)
    calls = counting_calls(monkeypatch, "pretty")
    trace_to_text(trace)
    deep = _cut_steps(trace)
    assert sum(deep) > 1
    whole = [s for s, d in zip(trace.steps, deep) if not d or "term" in vars(s)]
    assert len(calls) == len(whole)
    if source is ARROW_CHANGES:  # Delta(K) gives (fun u v, v) b P, which uses b
        assert len(whole) == sum(not d for d in deep) + 1
    else:
        assert len(whole) == sum(not d for d in deep)


def test_json_at_a_deep_frame_keys_the_path_without_building_it(monkeypatch):
    # a step whose text was cut is keyed up its frame: no snapshot is built
    # and canonical_key is not called; the keys are compared above
    _, (trace,) = _traces(church_exp_program(2, 6), "nf", None)
    calls = counting_calls(monkeypatch, "canonical_key")
    trace_to_json_lines(trace)
    deep = _cut_steps(trace)
    assert sum(deep) > 1
    assert ["term" in vars(s) for s in trace.steps] == [not d for d in deep]
    assert len(calls) == sum(not d for d in deep)


def test_a_frame_holding_nul_prints_whole():
    # NUL marks the hole in a frame's text, and no parsed name holds it; a
    # built one does, so its frame cannot be cut there
    t = App(Global("n\0"), App(Lam(PROP, Var(0)), PROP))
    for _ in range(_CUT_LEVELS):
        t = Lam(PROP, t)
    traces = [normalize(GlobalEnv(), (), t, DEFAULT_RULES) for _ in range(2)]
    (step,), (ref,) = (trace.steps for trace in traces)
    assert step.kind == "Beta" and all(_cut_steps(traces[0]))
    assert trace_to_text(traces[0]).split("\n")[0] == f"1 Beta {pretty(ref.term)}"
    assert pretty(ref.term).endswith(", n\0 Prop")


def test_json_lines_escape_as_json_dumps():
    name = 'g"q\\b\ns\x01é\U0001d538'
    kind = 'Delta("\\\n\x1f é)'
    trace = Trace(Global(name), [TraceStep(kind, App(Global(name), PROP), None)],
                  "whnf")
    line, status = trace_to_json_lines(trace)
    (step,) = trace.steps
    assert line == json.dumps({"index": 1, "kind": kind, "term": step.text,
                               "key": step.key})
    assert json.loads(line)["term"] == f"{name} Prop"
    assert status == "STATUS NormalForm"


def test_a_snapshot_too_deep_to_print_whole_raises_at_a_deep_frame():
    # each half prints within the recursion limit, but not the two together:
    # the spine's print keeps the headroom it has under the frame
    binders = sys.getrecursionlimit() * 3 // 10  # two frames each to print
    source = (f"def d := {_k_binders('b', binders)}b0.\n"
              f"#reduce {_k_binders('a', binders)}d.\n")
    _, (trace,) = _traces(source, "nf", None)
    (step,) = trace.steps
    assert step.kind == "Delta(d)"
    assert pretty(step.sub).startswith("fun (b0 : Prop), ")
    assert isinstance(step.frame[0], Lam)
    with pytest.raises(RecursionError):
        pretty(step.term)
    _, (again,) = _traces(source, "nf", None)
    with pytest.raises(RecursionError):
        trace_to_text(again)
    _, (again,) = _traces(source, "nf", None)
    with pytest.raises(RecursionError):
        trace_to_json_lines(again)
