"""Small-step reduction: single steps, weak-head and strong drivers, step
tracing, and online cycle detection.

Reduction rules (the three firings are gated by the active RuleSet):

    App(Lam(_, b), a)       |> subst(b, 0, a)                        Beta
    Global(n) with a body   |> body                                  Delta
    Cast(A, B, e, x)        |> x   when A and B are convertible      CastFire
    EqRec(T, P, a, b, x, e) |> x   when a and b are convertible      EqRecFire
    J(A, B, x)              |> x   when A and B are convertible      JFire

CastFire and EqRecFire never look at the shape of the proof argument; only
the endpoints are compared.  Delta is need-driven: a global unfolds when its
weak-head form is demanded (it heads the spine being reduced) or during
strong normalization, so traces keep named forms as long as possible.

Divergence is not observed as a timeout but *detected*: each reduction spine
keeps a dictionary from the terms it has visited to their step index, and
reports the first repeat as a cycle with its period.  Terms are their own
keys: the memoized structural hash finds a candidate, and ``==``, which is
alpha-equality, confirms it, so a hash collision is never reported.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from . import convert as _convert
from .env import Context, GlobalEnv, ctx_extend
from .rules import Fuel, FuelExhausted, RuleSet
from .syntax import (
    CHILDREN, Cast, EqRec, Global, J, Lam, Term,
    alpha_eq, build_apps, canonical_key, pretty, subst, unwind_apps,
)

NORMAL_FORM = "NormalForm"
FUEL_EXHAUSTED = "FuelExhausted"
CYCLE_DETECTED = "CycleDetected"


@dataclass(frozen=True)
class StepKind:
    tag: str  # Beta | Delta | CastFire | EqRecFire | JFire
    name: str | None = None  # unfolded global, for Delta

    def __str__(self) -> str:
        return f"{self.tag}({self.name})" if self.name is not None else self.tag


BETA = StepKind("Beta")
CAST_FIRE = StepKind("CastFire")
EQREC_FIRE = StepKind("EqRecFire")
J_FIRE = StepKind("JFire")


def delta(name: str) -> StepKind:
    return StepKind("Delta", name)


# Where a spine subterm sits in the whole term: (parent node, field the
# subterm replaces, the parent's own frame); None at the root.
Frame = tuple[Term, str, "Frame"] | None


def _plug(sub: Term, frame: Frame) -> Term:
    """The whole term with ``sub`` in the hole that ``frame`` describes."""
    while frame is not None:
        node, attr, frame = frame
        sub = dataclasses.replace(node, **{attr: sub})
    return sub


@dataclass(frozen=True, eq=False)
class TraceStep:
    """One step: its kind and the contracted spine subterm in its frame.  The
    whole-term snapshot, its key and its printed form are built on first
    access, so each is built at most once."""
    kind: StepKind
    sub: Term
    frame: Frame

    @cached_property
    def term(self) -> Term:
        return _plug(self.sub, self.frame)

    @cached_property
    def key(self) -> str:
        return canonical_key(self.term)

    @cached_property
    def text(self) -> str:
        return pretty(self.term)


@dataclass(frozen=True)
class CycleReport:
    first_index: int
    period: int
    witness: Term


@dataclass
class Trace:
    initial: Term
    steps: list[TraceStep]
    strategy: str  # "whnf" | "nf"
    status: str = NORMAL_FORM
    cycle: CycleReport | None = None

    def snapshots(self) -> list[Term]:
        """Initial term followed by the result of each step."""
        return [self.initial, *(s.term for s in self.steps)]

    @property
    def final(self) -> Term:
        return self.steps[-1].term if self.steps else self.initial

    def status_line(self) -> str:
        if self.status == CYCLE_DETECTED and self.cycle is not None:
            return (f"STATUS CycleDetected first={self.cycle.first_index} "
                    f"period={self.cycle.period}")
        return f"STATUS {self.status}"


class CycleDetector:
    """Term-index map over one reduction spine.

    A term is looked up by its structural hash and confirmed by ``==``
    (alpha-equality), so terms with equal hashes that are not alpha-equal
    are both recorded and never reported.  The witness is the first
    occurrence.
    """

    def __init__(self) -> None:
        self._seen: dict[Term, tuple[int, Term]] = {}

    def observe(self, index: int, term: Term) -> CycleReport | None:
        first, old = self._seen.setdefault(term, (index, term))
        return None if first == index else CycleReport(first, index - first, old)


class _CycleFound(Exception):
    def __init__(self, report: CycleReport) -> None:
        self.report = report


def head_step(env: GlobalEnv, ctx: Context, t: Term, rules: RuleSet,
              budget: Fuel, unfold_heads: bool = True) -> tuple[Term, StepKind] | None:
    """One step at the head of the application spine, or None if head-stable.

    ``unfold_heads=False`` suppresses Delta so that conversion can unfold
    incrementally on its own terms.
    """
    head, args = unwind_apps(t)
    match head:
        case Lam(_, body) if args:
            budget.spend()
            return build_apps(subst(body, 0, args[0]), args[1:]), BETA
        case Cast(src, dst, _, val) if rules.cast_rule:
            if _convert.convert(env, ctx, src, dst, rules=rules, budget=budget):
                budget.spend()
                return build_apps(val, args), CAST_FIRE
        case EqRec(_, _, lhs, rhs, base, _) if rules.eqrec_rule:
            if _convert.convert(env, ctx, lhs, rhs, rules=rules, budget=budget):
                budget.spend()
                return build_apps(base, args), EQREC_FIRE
        case J(src, dst, val) if rules.j_rule:
            if _convert.convert(env, ctx, src, dst, rules=rules, budget=budget):
                budget.spend()
                return build_apps(val, args), J_FIRE
        case Global(name) if unfold_heads:
            unfolded = unfold(env, head, args, budget)
            if unfolded is not None:
                return unfolded, delta(name)
    return None


def unfold(env: GlobalEnv, head: Term, args: list[Term],
           budget: Fuel) -> Term | None:
    """Delta: the spine ``head args`` with a defined global head replaced by
    its body, or None when the head is not a defined global."""
    if isinstance(head, Global):
        entry = env.lookup(head.name)
        if entry is not None and entry.body is not None:
            budget.spend()
            return build_apps(entry.body, args)
    return None


def whnf_term(env: GlobalEnv, ctx: Context, t: Term, rules: RuleSet,
              budget: Fuel, unfold_heads: bool = True) -> Term:
    """Weak-head form without tracing (used by checking and conversion)."""
    while (r := head_step(env, ctx, t, rules, budget, unfold_heads)) is not None:
        t = r[0]
    return t


def step(env: GlobalEnv, ctx: Context, t: Term, rules: RuleSet,
         budget: Fuel | None = None) -> tuple[Term, StepKind] | None:
    """Contract the leftmost-outermost redex, or None if ``t`` is in normal
    form with respect to the enabled rules."""
    if budget is None:
        budget = rules.new_budget()
    r = head_step(env, ctx, t, rules, budget)
    if r is not None:
        return r
    for attr, under_binder in CHILDREN[type(t)]:
        child = getattr(t, attr)
        child_ctx = ctx_extend(ctx, t.domain) if under_binder else ctx  # type: ignore[attr-defined]
        sub = step(env, child_ctx, child, rules, budget)
        if sub is not None:
            new_child, kind = sub
            return dataclasses.replace(t, **{attr: new_child}), kind
    return None


def _spine(env: GlobalEnv, ctx: Context, sub: Term, frame: Frame,
           rules: RuleSet, budget: Fuel, steps: list[TraceStep]) -> Term:
    """Head-reduce the spine ``sub`` in place at ``frame``, recording each step.

    The detector is keyed on the spine subterm: the frame is fixed while the
    spine runs, so plugging is injective in ``sub`` and a repeat of the whole
    term is exactly a repeat of the subterm.  Only the reported witness is
    plugged back into the whole term.
    """
    detector = CycleDetector()
    detector.observe(len(steps), sub)
    while (r := head_step(env, ctx, sub, rules, budget)) is not None:
        sub, kind = r
        steps.append(TraceStep(kind, sub, frame))
        report = detector.observe(len(steps), sub)
        if report is not None:
            raise _CycleFound(dataclasses.replace(
                report, witness=_plug(report.witness, frame)))
    return sub


def _traced(trace: Trace, run: Callable[[], object]) -> Trace:
    """Run a reduction, recording a found cycle or an exhausted budget."""
    try:
        run()
    except _CycleFound as found:
        trace.status = CYCLE_DETECTED
        trace.cycle = found.report
    except FuelExhausted:
        trace.status = FUEL_EXHAUSTED
    return trace


def whnf(env: GlobalEnv, ctx: Context, t: Term, rules: RuleSet) -> Trace:
    """Head reduction only: never under binders, never into arguments except
    as conversion side conditions demand."""
    trace = Trace(t, [], "whnf")
    return _traced(trace, lambda: _spine(env, ctx, t, None, rules,
                                         rules.new_budget(), trace.steps))


def normalize(env: GlobalEnv, ctx: Context, t: Term, rules: RuleSet,
              budget: Fuel | None = None) -> Trace:
    """Strong normalization: head-reduce, then recurse under binders and into
    arguments.  Every snapshot is the whole term, so consecutive snapshots
    are related by exactly one step.

    Cycle detection restarts per reduction spine: a repeat on one spine is
    already a divergence proof, while repeats across spines are not cycles.
    """
    fuel = rules.new_budget() if budget is None else budget
    trace = Trace(t, [], "nf")

    def rec(sub: Term, frame: Frame, sctx: Context) -> Term:
        cur = _spine(env, sctx, sub, frame, rules, fuel, trace.steps)
        for attr, under_binder in CHILDREN[type(cur)]:
            child_ctx = ctx_extend(sctx, cur.domain) if under_binder else sctx  # type: ignore[attr-defined]
            child = getattr(cur, attr)
            new_child = rec(child, (cur, attr, frame), child_ctx)
            if new_child is not child:
                cur = dataclasses.replace(cur, **{attr: new_child})
        return cur

    return _traced(trace, lambda: rec(t, None, ctx))


def reduce_with(env: GlobalEnv, ctx: Context, t: Term, rules: RuleSet,
                strategy: str) -> Trace:
    """Run ``strategy`` on ``t`` with a fresh budget of ``rules.fuel``."""
    if strategy == "whnf":
        return whnf(env, ctx, t, rules)
    if strategy == "nf":
        return normalize(env, ctx, t, rules)
    raise ValueError(f"unknown strategy {strategy!r}")


# --- trace serialization and replay ----------------------------------------

def trace_to_text(trace: Trace) -> str:
    """One step per line: ``<index> <StepKind> <pretty term>``, then STATUS."""
    lines = [f"{i} {s.kind} {s.text}"
             for i, s in enumerate(trace.steps, start=1)]
    lines.append(trace.status_line())
    return "\n".join(lines)


def trace_to_json_lines(trace: Trace) -> list[str]:
    lines = [json.dumps({"index": i, "kind": str(s.kind),
                         "term": s.text, "key": s.key})
             for i, s in enumerate(trace.steps, start=1)]
    lines.append(trace.status_line())
    return lines


def parse_trace_json(lines: Iterable[str]) -> tuple[list[dict], str]:
    """Split serialized JSON trace lines into step records and the status line."""
    records: list[dict] = []
    status = ""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("STATUS"):
            status = line
            continue
        records.append(json.loads(line))
    return records, status


def replay_trace(env: GlobalEnv, ctx: Context, trace: Trace,
                 rules: RuleSet) -> bool:
    """Re-run the recorded strategy and confirm it reproduces every snapshot,
    key and kind, plus the final status."""
    fresh = reduce_with(env, ctx, trace.initial, rules, trace.strategy)
    if fresh.status != trace.status or len(fresh.steps) != len(trace.steps):
        return False
    for a, b in zip(fresh.steps, trace.steps):
        if a.kind != b.kind or not alpha_eq(a.term, b.term) or a.key != b.key:
            return False
    if trace.cycle is not None:
        if fresh.cycle != trace.cycle:
            return False
    return True
