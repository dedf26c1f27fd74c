"""Spans and counts for a traced run, recorded from outside the kernel.

Each kernel function is wrapped at the binding its callers resolve: the
attribute of the module that calls it (``itt.reduce.subst``, not
``itt.syntax.subst``), so that recursion inside ``syntax`` stays unwrapped and
only entry calls are timed.  Spans are kept in flat arrays in memory and
written out once the run ends.
"""

from __future__ import annotations

import gzip
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


def _is_true(args: tuple, result: Any) -> int:
    return result is True


def _fired(args: tuple, result: Any) -> int:
    return result is not None


def _source_bytes(args: tuple, result: Any) -> int:
    return len(args[0].encode())


def wrap_points(k: Any) -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, outcome counter) for every wrapped call.

    ``itt.convert`` is taken from the module namespace because the package's
    own ``convert`` attribute is the function, not the module.
    """
    return [
        (k.parser, "parse_program", "parser.parse_program", _source_bytes),
        (k.corpus, "parse_term", "parser.parse_term", None),
        (k.typecheck, "elaborate", "typecheck.elaborate", None),
        (k.corpus, "elaborate", "typecheck.elaborate", None),
        (k.typecheck, "infer", "typecheck.infer", None),
        (k.typecheck, "check", "typecheck.check", None),
        (k.convert, "convert", "convert.convert", _is_true),
        (k.corpus, "convert", "convert.convert", _is_true),
        (k.convert, "is_proposition", "convert.is_proposition", _is_true),
        (k.reduce, "head_step", "reduce.head_step", _fired),
        (k.reduce, "whnf_term", "reduce.whnf_term", None),
        (k.reduce, "whnf", "reduce.whnf", None),
        (k.reduce, "normalize", "reduce.normalize", None),
        (k.reduce.CycleDetector, "observe", "reduce.CycleDetector.observe", None),
        (k.reduce, "trace_to_text", "reduce.trace_to_text", None),
        (k.reduce, "trace_to_json_lines", "reduce.trace_to_json_lines", None),
        (k.reduce, "replay_trace", "reduce.replay_trace", None),
        (k.reduce, "canonical_key", "syntax.canonical_key", None),
        (k.reduce, "subst", "syntax.subst", None),
        (k.typecheck, "subst", "syntax.subst", None),
        (k.env, "shift", "syntax.shift", None),
        (k.parser, "shift", "syntax.shift", None),
        (k.reduce, "pretty", "syntax.pretty", None),
        (k.typecheck, "pretty", "syntax.pretty", None),
        (k.corpus, "run_case", "corpus.run_case", None),
    ]


class Tracer:
    """Records a span per wrapped call while ``program`` is not negative."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.hits: list[int] = []  # outcome counter per span name
        self.prog = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.budgets: list[tuple[Any, int]] = []  # (Fuel, initial fuel)
        self.program = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _name_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
            self.hits.append(0)
        return self.names.index(span)

    def wrap(self, owner: Any, attr: str, span: str,
             outcome: Callable | None = None) -> None:
        original = getattr(owner, attr)
        sid = self._name_id(span)
        stack, hits = self._stack, self.hits
        prog, name, parent = self.prog, self.name, self.parent
        start, end = self.start, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            if self.program < 0:
                return original(*args, **kwargs)
            idx = len(start)
            prog.append(self.program)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if outcome is not None:
                hits[sid] += outcome(args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def capture_budgets(self, ruleset_cls: Any) -> None:
        """Keep every Fuel that ``RuleSet.new_budget`` hands out."""
        original = ruleset_cls.new_budget

        def new_budget(rules: Any) -> Any:
            fuel = original(rules)
            if self.program >= 0:
                self.budgets.append((fuel, fuel.remaining))
            return fuel

        ruleset_cls.new_budget = new_budget
        self._restore.append((ruleset_cls, "new_budget", original))

    def install(self, k: Any) -> None:
        for point in wrap_points(k):
            self.wrap(*point)
        self.capture_budgets(k.rules.RuleSet)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and outcome hits.

        Self time is a span's duration minus the durations of its children.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        totals = {n: {"calls": 0, "self_s": 0.0, "hits": h}
                  for n, h in zip(self.names, self.hits)}
        names = self.names
        for i, sid in enumerate(self.name):
            t = totals[names[sid]]
            t["calls"] += 1
            t["self_s"] += dur[i] - child[i]
        return totals

    def fuel_spent(self) -> int:
        return sum(initial - fuel.remaining for fuel, initial in self.budgets)

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: program, name, parent, start, end
        (seconds from the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("program\tname\tparent\tstart_s\tend_s\n")
            for p, n, par, s, e in zip(self.prog, self.name, self.parent,
                                       self.start, self.end):
                out.write(f"{p}\t{names[n]}\t{par}\t{s - t0:.9f}\t{e - t0:.9f}\n")
