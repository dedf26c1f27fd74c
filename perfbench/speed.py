"""How fast the machine runs Python right now.

On a shared host, the speed of the CPU drifts by 20-30% over seconds, and at
times by 2x, as other load comes and goes; CPU time drifts with it.  Three
fixed tasks that do not touch the kernel are timed between programs:
dictionary updates, substitution in a de Bruijn term, and tokenizing.
Kinds of contention slow them by different amounts, and the kernel does all
three kinds of work, so their mean slowdown tracks the kernel's better than
any one of them.  A program's time divided by the median slowdown around it
is its time at nominal speed: a slower kernel still reads slower, while a
slower machine mostly does not.  The correction is approximate.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from dataclasses import dataclass
from time import perf_counter


def _dict_task() -> int:
    d: dict[int, int] = {}
    get = d.get
    for i in range(8000):
        key = i % 61
        d[key] = get(key, 0) + (i ^ key)
    return len(d)


@dataclass(frozen=True)
class _Var:
    i: int


@dataclass(frozen=True)
class _Lam:
    body: object


@dataclass(frozen=True)
class _App:
    fn: object
    arg: object


def _subst(t: object, k: int, v: object) -> object:
    match t:
        case _Var(i):
            return v if i == k else (_Var(i - 1) if i > k else t)
        case _Lam(b):
            return _Lam(_subst(b, k + 1, v))
        case _App(f, a):
            return _App(_subst(f, k, v), _subst(a, k, v))
    raise TypeError(t)


def _term(depth: int) -> object:
    t: object = _Var(0)
    for d in range(depth):
        t = _Lam(_App(t, _Var(d % 3))) if d % 2 else _App(t, _Lam(_Var(1)))
    return t


_TERM = _term(60)


def _term_task() -> int:
    return sum(hash(_subst(_TERM, 0, _Var(5))) & 1 for _ in range(6))


_TEXT = "def T12_ab : Prop := forall (A : Prop), (A -> A) -> A -> A.\n" * 50


def _token_task() -> int:
    toks: list[tuple[str, str]] = []
    seen: dict[str, int] = {}
    i, n = 0, len(_TEXT)
    while i < n:
        c = _TEXT[i]
        if c.isalpha() or c == "_":
            j = i
            while j < n and (_TEXT[j].isalnum() or _TEXT[j] == "_"):
                j += 1
            word = _TEXT[i:j]
            toks.append(("name", word))
            seen[word] = seen.get(word, 0) + 1
            i = j
        elif c in " \n":
            i += 1
        else:
            toks.append(("sym", c))
            i += 1
    return len(toks)


# (task, its duration in seconds at full speed on a 2.1 GHz Xeon)
_TASKS = ((_dict_task, 0.00084), (_term_task, 0.0011), (_token_task, 0.00072))


class SpeedProbe:
    INTERVAL_S = 0.2  # least time between probes
    WINDOW_S = 1.0  # probes this close to a program set its speed

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ratios: list[float] = []

    def probe(self, force: bool = True) -> None:
        if not force and self.times and perf_counter() - self.times[-1] < self.INTERVAL_S:
            return
        gc.disable()  # the tasks must not pay for collecting the kernel's heap
        try:
            ratios = []
            for task, nominal in _TASKS:
                best = float("inf")
                for _ in range(3):
                    t0 = perf_counter()
                    task()
                    best = min(best, perf_counter() - t0)
                ratios.append(best / nominal)
        finally:
            gc.enable()
        self.times.append(perf_counter())
        self.ratios.append(statistics.fmean(ratios))

    def slowdown(self, start: float, end: float) -> float:
        """Median probe ratio around the interval [start, end]; the probes
        just before and just after it always count."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = bisect.bisect_left(self.times, end)
        lo_w = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi_w = bisect.bisect_right(self.times, end + self.WINDOW_S) - 1
        return statistics.median(self.ratios[min(lo, lo_w):max(hi, hi_w) + 1])
