"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import run  # noqa: E402
from workloads import WORKLOADS, Suffixes  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Small program sets with the same structure as the benchmark's own.
SMOKE = {
    "church-nf": {"pairs": ((2, 2), (3, 3), (2, 4))},
    "paper-loops": {},
    "conv-diverge": {"per_pass": 1},
    "check-chain": {"decls": 60, "per_pass": 2},
}

COUNT_SUFFIXES = (".calls", "_ratio", "trace_steps", "snapshot_nodes.max",
                  "render.bytes", "fuel_spent", "budgets")


def counts(metrics: dict[str, float]) -> dict[str, float]:
    return {n: v for n, v in metrics.items()
            if n.endswith(COUNT_SUFFIXES) and n != "trace.overhead_ratio"}


def test_smoke_run_of_every_workload_within_budget():
    budget_s = 60.0
    t0 = time.perf_counter()
    for name, sizes in SMOKE.items():
        wl, setups = run.set_up(name, 7, **sizes)
        samples = run.measure(wl, 7, 0.0)
        metrics = run.end_to_end(samples, setups)
        assert metrics["fail_ratio"] == 0, [s.error for s in samples if s.error]
        assert {m["name"] for m in SPEC["end_to_end"]} <= set(metrics)
        assert all(metrics[m["name"]] > 0 for m in SPEC["end_to_end"])
    assert time.perf_counter() - t0 < budget_s


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_same_seed_traced_runs_give_identical_counts(name):
    runs = []
    for _ in range(2):
        wl, _ = run.set_up(name, 11, **SMOKE[name])
        tracer, base, samples = run.traced(wl, 11)
        assert all(s.error is None for s in base + samples)
        metrics = run.per_layer(tracer, samples, base)
        assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
        runs.append(counts(metrics))
    assert runs[0] == runs[1]
    if name in ("conv-diverge", "check-chain"):
        assert runs[0]["syntax.canonical_key.calls"] == 0


def test_counts_repeat_across_processes():
    def traced_counts() -> dict[str, float]:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper-loops",
             "--seed", "5", "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=120)
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"]
        return counts({n: m["value"] for n, m in result["metrics"].items()})

    assert traced_counts() == traced_counts()


def test_corrupted_expectation_counts_as_failure():
    wl, _ = run.set_up("paper-loops", 3)
    key = next(k for k, line in wl.expected.items() if "period=" in line)
    wl.expected[key] = wl.expected[key].replace("period=6", "period=7")
    samples: list[run.Sample] = []
    run.run_pass(wl, Suffixes(3), samples)
    failed = [s for s in samples if s.error is not None]
    assert len(samples) == len(wl.specs())
    assert len(failed) == 1
    assert run.end_to_end(samples, samples)["fail_ratio"] == 1 / len(samples)


def test_raw_exception_counts_as_failure():
    wl, _ = run.set_up("check-chain", 3, **SMOKE["check-chain"])
    elaborate, calls = wl.k.typecheck.elaborate, []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RecursionError("maximum recursion depth exceeded")
        return elaborate(*args, **kwargs)

    wl.k.typecheck.elaborate = flaky
    samples: list[run.Sample] = []
    run.run_pass(wl, Suffixes(3), samples)
    assert [s.error is not None for s in samples] == [True, False]
    assert samples[0].error.startswith("raw RecursionError")


def test_fails_without_kernel_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "church-nf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_every_workload_is_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
