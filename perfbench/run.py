#!/usr/bin/env python3
"""The itt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the kernel is imported from ``src/itt`` of
that checkout and nowhere else.  The load is a closed loop: one client in one
thread elaborates each program only after the previous one has finished.

``--trace 0`` repeats passes over the workload's seeded program set for
``--seconds`` seconds and reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs one untraced and one traced pass and reports the per-layer
metrics; it writes its spans under ``.bench_out/``.  Every program's verdict
is checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

from speed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS, Suffixes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KERNEL_MODULES = ("syntax", "parser", "rules", "env", "convert", "reduce",
                  "typecheck", "corpus")
SETUPS = 5  # set-ups per run; setup_s is their median


def import_kernel() -> SimpleNamespace:
    """Import ``itt`` afresh from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "itt" or n.startswith("itt.")]:
        del sys.modules[name]
    importlib.import_module("itt")
    k = SimpleNamespace(**{m: sys.modules[f"itt.{m}"] for m in KERNEL_MODULES})
    if not Path(k.syntax.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"itt was imported from {k.syntax.__file__}, not {SRC}")
    return k


def set_up(workload: str, seed: int, **sizes: Any) -> tuple[Any, list[Sample]]:
    """Import, input generation, corpus load and one warm-up program, SETUPS
    times; returns the last workload and a sample per set-up."""
    probe, times = SpeedProbe(), []
    for i in range(SETUPS):
        probe.probe()
        t0 = perf_counter()
        wl = WORKLOADS[workload](import_kernel(), seed, **sizes)
        wl.warm_up()
        times.append(Sample(i, t0, perf_counter() - t0, 0))
    correct_speed(probe, times)
    return wl, times


def correct_speed(probe: SpeedProbe, samples: list[Sample]) -> None:
    """Probe once more, then give each sample the slowdown around it."""
    probe.probe()
    for s in samples:
        s.slowdown = probe.slowdown(s.start, s.start + s.seconds)


@dataclass
class Sample:
    spec_index: int  # position of the program in the workload's set
    start: float
    seconds: float
    decls: int
    steps: int = 0
    error: str | None = None
    nodes_max: int = 0
    rendered_bytes: int = 0
    slowdown: float = 1.0

    @property
    def norm_seconds(self) -> float:
        """Verdict time at the machine's nominal speed."""
        return self.seconds / self.slowdown


def term_size(root: Any, memo: dict[int, int], children: Any) -> int:
    """Node count of ``root`` as a tree; ``memo`` is keyed by object id and is
    valid only while every term it has seen stays alive."""
    stack = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if id(t) in memo:
            continue
        kids = list(children(t))
        if expanded:
            memo[id(t)] = 1 + sum(memo[id(c)] for c in kids)
        else:
            stack.append((t, True))
            stack.extend((c, False) for c in kids)
    return memo[id(root)]


def run_program(wl: Any, prog: Any, spec_index: int, program_id: int,
                tracer: Tracer | None = None) -> Sample:
    """Time one program from source text to verdict, then check the verdict."""
    if tracer is not None:
        tracer.program = program_id
    t0 = perf_counter()
    try:
        verdict = wl.run(prog)
    except Exception as exc:  # a raw exception fails the program, not the run
        return Sample(spec_index, t0, perf_counter() - t0, prog.decls,
                      error=f"raw {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.program = -1
    sample = Sample(spec_index, t0, perf_counter() - t0, prog.decls,
                    steps=sum(len(t.steps) for t in verdict.traces))
    try:
        sample.error = wl.check(prog, verdict)
    except Exception as exc:
        sample.error = f"raw {type(exc).__name__} in check: {exc}"
    if tracer is not None:
        sample.rendered_bytes = sum(len(s.encode()) for s in verdict.rendered)
        for trace in verdict.traces:
            memo: dict[int, int] = {}
            sample.nodes_max = max([sample.nodes_max, *(
                term_size(t, memo, wl.k.syntax.subterms)
                for t in trace.snapshots())])
    return sample


def run_pass(wl: Any, suffix: Suffixes, samples: list[Sample],
             tracer: Tracer | None = None, probe: SpeedProbe | None = None,
             deadline: float = float("inf")) -> None:
    """The workload's program set once, or up to ``deadline``."""
    for i, spec in enumerate(wl.specs()):
        if perf_counter() >= deadline:
            return
        prog = wl.make(spec, suffix())
        gc.collect()  # the previous program's garbage is not this one's cost
        if probe is not None:
            probe.probe(force=False)
        samples.append(run_program(wl, prog, i, len(samples), tracer))


def measure(wl: Any, seed: int, seconds: float) -> list[Sample]:
    """Passes over the program set until ``seconds`` have gone by; the first
    pass always completes, so every program is measured at least once."""
    suffix, samples, probe = Suffixes(seed), [], SpeedProbe()
    deadline = perf_counter() + seconds
    run_pass(wl, suffix, samples, probe=probe)
    while perf_counter() < deadline:
        run_pass(wl, suffix, samples, probe=probe, deadline=deadline)
    correct_speed(probe, samples)
    return samples


def traced(wl: Any, seed: int) -> tuple[Tracer, list[Sample], list[Sample]]:
    """One untraced pass, then one traced pass over the same program set."""
    suffix, base, samples, probe = Suffixes(seed), [], [], SpeedProbe()
    run_pass(wl, suffix, base, probe=probe)
    tracer = Tracer()
    tracer.install(wl.k)
    try:
        run_pass(wl, suffix, samples, tracer, probe)
    finally:
        tracer.uninstall()
    correct_speed(probe, base + samples)
    return tracer, base, samples


def end_to_end(samples: list[Sample], setups: list[Sample]) -> dict[str, float]:
    """Timings are at nominal machine speed (see speed.py); the raw.*
    figures are the same timings as the clock read them.

    A program's time is its median over the passes of the run; the program
    set's time is the sum of those medians, and p50 is their median.  The
    last pass may stop part-way, so pooling all samples would weigh some
    programs more than others.
    """
    by_spec: dict[int, list[Sample]] = {}
    for s in samples:
        by_spec.setdefault(s.spec_index, []).append(s)

    def per_program(seconds: Callable[[Sample], float]) -> list[float]:
        return [statistics.median(map(seconds, g)) for g in by_spec.values()]

    times = per_program(lambda s: s.norm_seconds)
    wall = sum(times)
    out = {
        "setup_s": statistics.median(s.norm_seconds for s in setups),
        "wall_s": wall,
        "verdict_ms.p50": 1000 * statistics.median(times),
        "decls_per_s": sum(g[0].decls for g in by_spec.values()) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": sum(s.error is not None for s in samples) / len(samples),
        "programs": len(samples),
        "raw.setup_s": statistics.median(s.seconds for s in setups),
        "raw.wall_s": sum(per_program(lambda s: s.seconds)),
        "raw.verdict_ms.p50": 1000 * statistics.median(per_program(lambda s: s.seconds)),
        "slowdown.p50": statistics.median(s.slowdown for s in samples),
    }
    # Reported where they mean something, but not gated in BENCHMARK.json:
    # a p90 needs at least ten samples beyond it, and only nf and whnf
    # traces have steps.
    if len(samples) >= 100:
        out["verdict_ms.p90"] = 1000 * statistics.quantiles(
            (s.norm_seconds for s in samples), n=10)[-1]
    steps = sum(g[0].steps for g in by_spec.values())
    if steps:
        out["steps_per_s"] = steps / wall
    return out


def per_layer(tracer: Tracer, samples: list[Sample],
              base: list[Sample]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, t in tracer.layer_totals().items():
        out[f"{name}.calls"] = t["calls"]
        out[f"{name}.self_s"] = t["self_s"]
        ratio = t["hits"] / t["calls"] if t["calls"] else 0.0
        if name in ("convert.convert", "convert.is_proposition"):
            out[f"{name}.true_ratio"] = ratio
        elif name == "reduce.head_step":
            out[f"{name}.fired_ratio"] = ratio
        elif name == "parser.parse_program":
            out["parser.bytes_per_s"] = t["hits"] / t["self_s"] if t["calls"] else 0.0
    out["reduce.trace_steps"] = sum(s.steps for s in samples)
    out["reduce.snapshot_nodes.max"] = max(s.nodes_max for s in samples)
    out["render.bytes"] = sum(s.rendered_bytes for s in samples)
    out["rules.fuel_spent"] = tracer.fuel_spent()
    out["rules.budgets"] = len(tracer.budgets)
    out["trace.overhead_ratio"] = (sum(s.norm_seconds for s in samples)
                                   / sum(s.norm_seconds for s in base))
    return out


# Units of the figures the report prints beside the gated ones.
REPORT_UNITS = {"verdict_ms.p90": "ms", "steps_per_s": "1/s", "fail_ratio": "ratio",
                "programs": "count", "raw.setup_s": "s", "raw.wall_s": "s",
                "raw.verdict_ms.p50": "ms", "slowdown.p50": "ratio"}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "itt" / "__init__.py").is_file():
        print(f"error: no kernel source at {SRC / 'itt'}", file=sys.stderr)
        return 2

    wl, setups = set_up(args.workload, args.seed)
    if args.trace:
        tracer, base, samples = traced(wl, args.seed)
        metrics = per_layer(tracer, samples, base)
        listed = spec["per_layer"]
        tracer.write(ROOT / ".bench_out" /
                     f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        samples = base + samples
    else:
        samples = measure(wl, args.seed, args.seconds)
        metrics = end_to_end(samples, setups)
        listed = spec["end_to_end"]

    failed = [s for s in samples if s.error is not None]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(samples)} programs, {len(failed)} failed")
    for s in failed[:10]:
        print(f"# FAILED: {s.error}")
    units = {m["name"]: m["unit"] for m in listed}
    for name in sorted(metrics):
        unit = units.get(name) or REPORT_UNITS[name]
        gate = "" if name in units else "  (not gated)"
        print(f"# {name:36} {metrics[name]:14.6g} {unit}{gate}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
