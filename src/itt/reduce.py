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
weak-head form is demanded (it heads the spine being reduced), during
strong normalization, or when conversion unfolds it (``delta_whnf``, on the
same stack), so traces keep named forms as long as possible.

Divergence is not observed as a timeout but *detected*.  Every head
reduction, traced or not, runs Brent's check in ``whnf_term``: each state is
compared with one state re-saved at each power of two steps, by head class
and argument count, then ``alpha_eq`` at any depth; a repeat raises
``ConversionCycle``.
A traced spine then certifies, as when the budget or the stack runs out:
``CycleDetector`` replays its states by ``_same_state`` too, building no spine,
reports the first repeat and its period, and drops the later steps.  So the
first repeat is exact, and only ``alpha_eq`` confirms a reported cycle.

A trace renders each step's snapshot as ``pretty`` prints it, but a run of
steps at one deep frame prints that frame once, around a hole at the
spine, and then only each step's spine (``itt.render``), so a line costs
what its step changed.  Such a step's JSON key is folded up its frame from
its spine's digest, one SHA-256 per level, and its snapshot is not built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

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
    if type(node) is App:
        return App(child, node.arg) if attr == "fn" else App(node.fn, child)
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


class _once:
    """A field that ``fn`` computes on its first read into the instance
    ``__dict__``; unlike Python 3.11's ``cached_property``, it takes no lock."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj: Any, cls: type | None = None) -> Any:
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(eq=False)
class TraceStep:
    """One step: its kind, what ``head_step`` returned (a term ``head`` over
    the stack ``args``, empty by default) and the spine's frame; not frozen,
    which would triple its cost.  The spine ``sub``, the snapshot ``term``,
    its key and its printed form are each built once, on first read."""
    kind: str
    head: Term
    frame: Frame
    args: Stack = None

    @_once
    def sub(self) -> Term:
        return _apply(self.head, self.args)

    @_once
    def term(self) -> Term:
        sub, frame = self.sub, self.frame
        while frame is not None:
            node, attr, frame = frame
            sub = _with_child(node, attr, sub)
        return sub

    @_once
    def key(self) -> str:
        return canonical_key(self.term)

    @_once
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
    """State-index map over one reduction spine: the certifier that
    ``_certify`` runs over the spine's recorded states.

    A state (a head over a stack, or a term unwound to one) is filed under
    its head's hash and argument count and confirmed by ``_same_state``, so
    unequal states on one key are never reported, and no state is too deep
    to confirm.  A report gives the index of the first occurrence.
    """

    def __init__(self) -> None:
        self._seen: dict[tuple[int, int], list[tuple[Term, Stack, int]]] = {}

    def observe(self, index: int, head: Term,
                args: Stack = None) -> CycleReport | None:
        head, args = _unwind(head, args)
        bucket = self._seen.setdefault((hash(head), args[2] if args else 0), [])
        for seen, seen_args, first in bucket:
            if _same_state(seen, seen_args, head, args):
                return CycleReport(first, index - first)
        bucket.append((head, args, index))
        return None


class _CycleFound(Exception):
    def __init__(self, report: CycleReport) -> None:
        self.report = report


def head_step(env: GlobalEnv, ctx: Context, head: Term, args: Stack,
              budget: Fuel) -> tuple[tuple[Term, Stack], str] | None:
    """One step of ``head`` (no ``App``) applied to ``args``: a term and the
    stack it is applied to, and the step's kind; or None if head-stable.
    Beta pops an argument; a firing and Delta keep the whole stack.  The
    rule is picked by ``type(head) is`` tests and a ``FIRINGS`` lookup, as
    a ``match`` of class patterns costs several times as much per step."""
    cls = type(head)
    if cls is Lam and args:
        budget.spend()
        arg, rest, _ = args
        body = head.body
        key = (id(body), id(arg))
        if (hit := budget.instances.get(key)) is None:
            hit = budget.instances[key] = (body, arg, subst(body, 0, arg))
        return (hit[2], rest), BETA
    elif cls is Global:
        if (unfolded := unfold(env, head, args, budget)) is not None:
            return unfolded, f"Delta({head.name})"
    elif (firing := FIRINGS.get(cls)) is not None:
        toggle, lhs, rhs, payload, kind, _ = firing
        if getattr(budget.rules, toggle) and _convert.convert(
                env, ctx, getattr(head, lhs), getattr(head, rhs), budget):
            budget.spend()
            return (getattr(head, payload), args), kind
    return None


def unfold(env: GlobalEnv, head: Global, args: Stack,
           budget: Fuel) -> tuple[Term, Stack] | None:
    """Delta: the body of the global ``head`` over its argument stack, or
    None when the head is an axiom or an assumption."""
    entry = env.lookup(head.name)
    if entry is not None and entry.body is not None:
        budget.spend()
        return entry.body, args
    return None


def delta_whnf(env: GlobalEnv, ctx: Context, w: Term, budget: Fuel) -> Term:
    """Conversion's unfolding step: Delta at the head of the weak-head form
    ``w``, a spine headed by a defined global, then the weak-head form of
    the result with Delta held back at its head."""
    unfolded = unfold(env, *_unwind(w, None), budget)
    return whnf_term(env, ctx, _apply(*unfolded), budget, unfold_heads=False)


# Heads on which no rule fires, whatever the arguments and the rule set.
_STABLE = frozenset({SortT, Pi, Eq, Refl, Var})
_HELD = _STABLE | {Global}  # and a Global, when Delta is held back
_LEAVES = frozenset({SortT, Var})  # stable nodes without children


def _same_state(head: Term, args: Stack, head2: Term, args2: Stack) -> bool:
    """Alpha-equal spines of one argument count?  The heads, then the
    arguments to a shared tail, by ``alpha_eq``.  Callers compare the class
    and the argument count first: ``whnf_term`` both, ``CycleDetector`` the
    count by its key."""
    if not alpha_eq(head, head2):
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
    saved_cls, saved_n = type(head), args[2] if args else 0
    while type(head) not in stable and (
            r := head_step(env, ctx, head, args, budget)) is not None:
        last, kind = r
        if steps is not None:
            steps.append(TraceStep(kind, last[0], frame, last[1]))
        head, args = last
        if type(head) is App:
            head, args = _unwind(head, args)
        since += 1
        # class and count: both necessary for a repeat, checked with no call
        cls, n = type(head), args[2] if args else 0
        if cls is saved_cls and n == saved_n and _same_state(head, args,
                                                             *saved):
            raise ConversionCycle(since, "reduction")
        if since == power:
            saved, power, since = (head, args), 2 * power, 0
            saved_cls, saved_n = cls, n
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
    (``initial``, then the ``head`` over ``args`` of ``steps[start:]``),
    after deleting the steps that follow it; return if no state repeats.

    The detector is keyed on the spine's state, and no ``sub`` is built: the
    frame is fixed while the spine runs, so plugging is injective in the
    spine and a repeat of the whole term is exactly a repeat of the state.
    """
    detector = CycleDetector()
    detector.observe(start, initial)
    for index, step in enumerate(steps[start:], start + 1):
        report = detector.observe(index, step.head, step.args)
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
    are related by exactly one step.  A leaf (``Var``, ``SortT``) is not
    visited, and a spine whose head is stable is not head-reduced: no rule
    can step either.

    Cycle detection restarts per reduction spine: a repeat on one spine is
    already a divergence proof, while repeats across spines are not cycles.
    """
    budget = rules.new_budget()
    trace = Trace(t, [], "nf")

    def rec(sub: Term, frame: Frame, sctx: Context) -> Term:
        # a spine with a stable head is head-normal: whnf_term would return it
        head = sub
        while type(head) is App:
            head = head.fn
        cur = (sub if type(head) in _STABLE
               else _spine(env, sctx, sub, frame, budget, trace.steps))
        for attr, under_binder in CHILDREN[type(cur)]:
            child = getattr(cur, attr)
            if type(child) in _LEAVES:  # normal, and no rule steps inside
                continue
            child_ctx = ctx_extend(sctx, cur.domain) if under_binder else sctx  # type: ignore[attr-defined]
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
    from .render import texts  # here: only a printed trace needs it
    lines = [f"{i} {s.kind} {text}"
             for i, (s, text) in enumerate(zip(trace.steps, texts(trace.steps)), 1)]
    lines.append(trace.status_line())
    return "\n".join(lines)


def trace_to_json_lines(trace: Trace) -> list[str]:
    """One JSON object per step, with the ``index``, ``kind``, ``term`` and
    ``key`` fields as ``json.dumps`` writes them, then STATUS."""
    from json.encoder import encode_basestring_ascii as quote
    from .render import key, texts
    lines = [f'{{"index": {i}, "kind": {quote(s.kind)}, "term": {quote(text)}, '
             f'"key": "{key(s)}"}}'
             for i, (s, text) in enumerate(zip(trace.steps, texts(trace.steps)), 1)]
    lines.append(trace.status_line())
    return lines


def replay_trace(env: GlobalEnv, ctx: Context, trace: Trace,
                 rules: RuleSet) -> bool:
    """Re-run the recorded strategy and confirm it reproduces the status line,
    the step count, and each step's kind (its printed text) and snapshot.

    Snapshots are compared by ``alpha_eq``, which answers at any depth, up to
    the first mismatch; none is digested.  The status line carries ``first=``
    and ``period=``, and the cycle's witness is the snapshot at ``first``, so
    equal snapshots confirm it too.
    """
    fresh = reduce_with(env, ctx, trace.initial, rules, trace.strategy)
    return (fresh.status_line() == trace.status_line()
            and len(fresh.steps) == len(trace.steps)
            and all(s.kind == r.kind and alpha_eq(s.term, r.term)
                    for s, r in zip(fresh.steps, trace.steps)))
