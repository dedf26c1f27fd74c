"""Small-step reduction: head steps, weak-head and strong drivers, step
tracing, and online cycle detection.

Reduction rules, each with its step kind: the text that traces print for
it (the three firings are the rows of ``FIRINGS``, each gated by a toggle of
the budget's ``RuleSet``):

    App(Lam(_, b), a)       |> subst(b, 0, a), once per budget       Beta
    Global(n) with a body   |> body                                  Delta(n)
    Cast(A, B, e, x)        |> x   when A and B are convertible      CastFire
    EqRec(T, P, a, b, x, e) |> x   when a and b are convertible      EqRecFire
    J(A, B, x)              |> x   when A and B are convertible      JFire

A spine reduces as a head and an argument ``Stack``, as in Krivine's
machine: cons cells ``(arg, rest, length)``, the first argument on top, None
when empty, tails shared.  A step builds no ``App``.  Beta pops an argument
and substitutes once per budget for each pair of body and argument objects
(``budget.instances``); a repeat shares the result but spends its fuel.

CastFire and EqRecFire never look at the shape of the proof argument; only
the endpoints are compared.  Delta is need-driven: a global unfolds when its
weak-head form is demanded (it heads the spine being reduced) or during
strong normalization, so traces keep named forms as long as possible.

Divergence is not observed as a timeout but *detected*.  Every head
reduction, traced or not, runs Brent's check in ``whnf_term``: each state is
compared, by argument count and then ``alpha_eq`` at any depth, with one
state re-saved at each power of two steps; a repeat raises ``ConversionCycle``.
A traced spine then certifies, as when the budget or the stack runs out:
``CycleDetector`` replays its recorded states, reports the first repeat and
its period, and drops the later steps.  So the first repeat is exact, and a
cycle is only ever reported where ``alpha_eq`` confirmed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from . import convert as _convert
from .env import Context, GlobalEnv, ctx_extend
from .rules import ConversionCycle, Fuel, FuelExhausted, RuleSet
from .syntax import (
    CHILDREN, App, Cast, Eq, EqRec, Global, J, Lam, Pi, Refl, SortT, Term, Var,
    alpha_eq, canonical_key, pretty, rebuild, subst,
)

NORMAL_FORM = "NormalForm"
FUEL_EXHAUSTED = "FuelExhausted"
CYCLE_DETECTED = "CycleDetected"


BETA = "Beta"

# Each eliminator fires when its toggle is on and its two endpoint fields
# convert: one step to its payload field, traced as its kind.  The proof
# fields are those that the typing rules give a proposition as type, so
# conversion skips them under proof irrelevance.
FIRINGS: dict[type, tuple[str, str, str, str, str, tuple[str, ...]]] = {
    # class: (toggle, endpoint, endpoint, payload, kind, proof fields)
    Cast: ("cast_rule", "src", "dst", "val", "CastFire", ("proof", "val")),
    EqRec: ("eqrec_rule", "lhs", "rhs", "base", "EqRecFire", ("proof",)),
    J: ("j_rule", "src", "dst", "val", "JFire", ("val",)),
}


# Where a spine subterm sits in the whole term: (parent node, field the
# subterm replaces, the parent's own frame); None at the root.
Frame = tuple[Term, str, "Frame"] | None


def _with_child(node: Term, attr: str, child: Term) -> Term:
    """``node`` with ``child`` in its field ``attr``, built by one
    constructor call."""
    return rebuild(node, [child if a == attr else getattr(node, a)
                          for a, _ in CHILDREN[type(node)]])


Stack = tuple[Term, "Stack", int] | None


def _unwind(t: Term, args: Stack) -> tuple[Term, Stack]:
    """The head of the spine ``t`` and ``t``'s arguments pushed on ``args``."""
    while type(t) is App:
        args = (t.arg, args, args[2] + 1 if args else 1)
        t = t.fn
    return t, args


def _apply(t: Term, args: Stack) -> Term:
    """``t`` applied to ``args``, by one new ``App`` per argument."""
    while args is not None:
        t, args = App(t, args[0]), args[1]
    return t


@dataclass(eq=False)
class TraceStep:
    """One step: its kind, what ``head_step`` returned (a term ``head`` over
    the stack ``args``, empty by default) and the spine's frame; not frozen,
    which would triple its cost.  The spine ``sub``, the snapshot ``term``,
    its key and its printed form are each built once, on first access."""
    kind: str
    head: Term
    frame: Frame
    args: Stack = None

    @cached_property
    def sub(self) -> Term:
        return _apply(self.head, self.args)

    @cached_property
    def term(self) -> Term:
        sub, frame = self.sub, self.frame
        while frame is not None:
            node, attr, frame = frame
            sub = _with_child(node, attr, sub)
        return sub

    @cached_property
    def key(self) -> str:
        return canonical_key(self.term)

    @cached_property
    def text(self) -> str:
        return pretty(self.term)


@dataclass(frozen=True)
class CycleReport:
    """A detected cycle: where it starts in the trace, and its length."""
    first_index: int  # the witness is ``trace.snapshots()[first_index]``
    period: int


@dataclass
class Trace:
    """A reduction run: its initial term, its steps, and how it ended."""
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
        if self.cycle is not None:
            return (f"STATUS CycleDetected first={self.cycle.first_index} "
                    f"period={self.cycle.period}")
        return f"STATUS {self.status}"


class CycleDetector:
    """Term-index map over one reduction spine: the certifier that
    ``_certify`` runs over the spine's recorded states.

    A term is filed under its hash, which comes from its digest, and a
    match is confirmed by ``alpha_eq``, so terms with equal hashes that are
    not alpha-equal are both recorded and never reported, and no state is
    too deep to confirm.  A report gives the index of the first occurrence.
    """

    def __init__(self) -> None:
        self._seen: dict[int, list[tuple[Term, int]]] = {}

    def observe(self, index: int, term: Term) -> CycleReport | None:
        bucket = self._seen.setdefault(hash(term), [])
        for seen, first in bucket:
            if alpha_eq(seen, term):
                return CycleReport(first, index - first)
        bucket.append((term, index))
        return None


class _CycleFound(Exception):
    def __init__(self, report: CycleReport) -> None:
        self.report = report


def head_step(env: GlobalEnv, ctx: Context, head: Term, args: Stack,
              budget: Fuel) -> tuple[tuple[Term, Stack], str] | None:
    """One step of ``head`` (no ``App``) applied to ``args``: a term and the
    stack it is applied to, and the step's kind; or None if head-stable.
    Beta pops an argument; a firing and Delta keep the whole stack."""
    match head:
        case Lam(_, body) if args:
            budget.spend()
            arg, rest, _ = args
            key = (id(body), id(arg))
            if (hit := budget.instances.get(key)) is None:
                hit = budget.instances[key] = (body, arg, subst(body, 0, arg))
            return (hit[2], rest), BETA
        case Cast() | EqRec() | J():
            toggle, lhs, rhs, payload, kind, _ = FIRINGS[type(head)]
            if getattr(budget.rules, toggle) and _convert.convert(
                    env, ctx, getattr(head, lhs), getattr(head, rhs), budget):
                budget.spend()
                return (getattr(head, payload), args), kind
        case Global(name):
            if (unfolded := unfold(env, head, args, budget)) is not None:
                return unfolded, f"Delta({name})"
    return None


def unfold(env: GlobalEnv, head: Global, args: list[Term] | Stack,
           budget: Fuel) -> tuple[Term, list[Term] | Stack] | None:
    """Delta: the body of the global ``head`` paired with its arguments (a
    list or a stack), or None when the head is an axiom or an assumption."""
    entry = env.lookup(head.name)
    if entry is not None and entry.body is not None:
        budget.spend()
        return entry.body, args
    return None


# Heads on which no rule fires, whatever the arguments and the rule set.
_STABLE = frozenset({SortT, Pi, Eq, Refl, Var})
_HELD = _STABLE | {Global}  # and a Global, when Delta is held back


def _same_state(head: Term, args: Stack, head2: Term, args2: Stack) -> bool:
    """Alpha-equal spines?  Counts, then heads, then arguments to a shared tail."""
    if ((args[2] if args else 0) != (args2[2] if args2 else 0)
            or not alpha_eq(head, head2)):
        return False
    while args is not args2:
        if not alpha_eq(args[0], args2[0]):
            return False
        args, args2 = args[1], args2[1]
    return True


def whnf_term(env: GlobalEnv, ctx: Context, t: Term, budget: Fuel,
              unfold_heads: bool = True,
              steps: list[TraceStep] | None = None, frame: Frame = None) -> Term:
    """Weak-head form: the only loop that calls ``head_step``.

    ``unfold_heads=False`` suppresses Delta at the head, so that conversion
    can unfold incrementally on its own terms.  A spine headed by a
    ``SortT``, ``Pi``, ``Eq``, ``Refl`` or ``Var``, or by a ``Global`` when
    ``unfold_heads`` is False, is returned as it stands, with no call to
    ``head_step`` and no fuel spent: no rule would step it.  A step builds
    no ``App``; it runs Brent's check, and is appended to ``steps`` (if
    given) as a ``TraceStep`` at ``frame``.  The result is built at the end;
    a term the last step returned over an empty stack is returned as is."""
    stable = _STABLE if unfold_heads else _HELD
    head = t
    while type(head) is App:
        head = head.fn
    if type(head) in stable:
        return t
    head, args = _unwind(t, None)
    saved, power, since, last = (head, args), 1, 0, None
    while type(head) not in stable and (
            r := head_step(env, ctx, head, args, budget)) is not None:
        last, kind = r
        if steps is not None:
            steps.append(TraceStep(kind, last[0], frame, last[1]))
        head, args = _unwind(*last)
        since += 1
        if _same_state(head, args, *saved):
            raise ConversionCycle(since, "reduction")
        if since == power:
            saved, power, since = (head, args), 2 * power, 0
    return (t if last is None else steps[-1].sub if steps is not None
            else _apply(*last))


def _spine(env: GlobalEnv, ctx: Context, sub: Term, frame: Frame, budget: Fuel,
           steps: list[TraceStep]) -> Term:
    """Head-reduce the spine ``sub`` at ``frame`` by ``whnf_term``, recording
    each step; on a repeat (``ConversionCycle``), an exhausted budget or
    excessive depth, ``_certify`` finds the exact first repeat or proves
    there is none."""
    start = len(steps)
    try:
        return whnf_term(env, ctx, sub, budget, True, steps, frame)
    except (FuelExhausted, RecursionError):
        _certify(sub, steps, start)  # it may have repeated first
        raise


def _certify(initial: Term, steps: list[TraceStep], start: int) -> None:
    """Raise ``_CycleFound`` at the first repeat among the spine's states
    (``initial``, then the ``sub`` of ``steps[start:]``), after deleting the
    steps that follow it; return if no state repeats.

    The detector is keyed on the spine subterm: the frame is fixed while the
    spine runs, so plugging is injective in ``sub`` and a repeat of the whole
    term is exactly a repeat of the subterm.
    """
    detector = CycleDetector()
    detector.observe(start, initial)
    for index in range(start + 1, len(steps) + 1):
        report = detector.observe(index, steps[index - 1].sub)
        if report is not None:
            del steps[index:]
            raise _CycleFound(report)


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
    return _traced(trace, lambda: _spine(env, ctx, t, None, rules.new_budget(),
                                         trace.steps))


def normalize(env: GlobalEnv, ctx: Context, t: Term, rules: RuleSet) -> Trace:
    """Strong normalization: head-reduce, then recurse under binders and into
    arguments.  Every snapshot is the whole term, so consecutive snapshots
    are related by exactly one step.

    Cycle detection restarts per reduction spine: a repeat on one spine is
    already a divergence proof, while repeats across spines are not cycles.
    """
    budget = rules.new_budget()
    trace = Trace(t, [], "nf")

    def rec(sub: Term, frame: Frame, sctx: Context) -> Term:
        # a stable node is its own head, so already head-normal
        cur = (sub if type(sub) in _STABLE
               else _spine(env, sctx, sub, frame, budget, trace.steps))
        for attr, under_binder in CHILDREN[type(cur)]:
            child_ctx = ctx_extend(sctx, cur.domain) if under_binder else sctx  # type: ignore[attr-defined]
            child = getattr(cur, attr)
            new_child = rec(child, (cur, attr, frame), child_ctx)
            if new_child is not child:
                # rebuilt at each changed child: the frames of the later
                # children show this child's normal form
                cur = _with_child(cur, attr, new_child)
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
    """One step per line: ``<index> <kind> <pretty term>``, then STATUS."""
    lines = [f"{i} {s.kind} {s.text}"
             for i, s in enumerate(trace.steps, start=1)]
    lines.append(trace.status_line())
    return "\n".join(lines)


def trace_to_json_lines(trace: Trace) -> list[str]:
    import json  # here, not at the top: only JSON traces need it
    lines = [json.dumps({"index": i, "kind": s.kind,
                         "term": s.text, "key": s.key})
             for i, s in enumerate(trace.steps, start=1)]
    lines.append(trace.status_line())
    return lines


def replay_trace(env: GlobalEnv, ctx: Context, trace: Trace,
                 rules: RuleSet) -> bool:
    """Re-run the recorded strategy and confirm it reproduces the status line
    and every step's kind (its printed text) and key.

    Keys are equal for alpha-equal snapshots, and compared without recursion.
    The status line carries ``first=`` and ``period=``, and the cycle's
    witness is the snapshot at ``first``, so equal keys confirm it too.
    """
    fresh = reduce_with(env, ctx, trace.initial, rules, trace.strategy)
    return (fresh.status_line() == trace.status_line()
            and [(s.kind, s.key) for s in fresh.steps]
            == [(s.kind, s.key) for s in trace.steps])
