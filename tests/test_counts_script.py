"""The report of ``scripts/counts.py``."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "counts.py"


def _load_counts(monkeypatch):
    # the script imports ``bench`` from its own directory
    monkeypatch.syspath_prepend(str(_PATH.parent))
    spec = importlib.util.spec_from_file_location("counts_script", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counted_metrics_are_the_exact_per_layer_ones(monkeypatch):
    counts = _load_counts(monkeypatch)
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    names = counts.counted(spec)
    assert "syntax.canonical_key.calls" in names
    assert "convert.convert.true_ratio" in names
    assert "trace.overhead_ratio" not in names
    assert not [n for n in names if n.endswith(("self_s", "bytes_per_s"))]


def test_only_metrics_that_differ_between_trees_are_listed(monkeypatch):
    counts = _load_counts(monkeypatch)
    values = {"parent": {"a.calls": 754, "b.calls": 3, "c.ratio": 0.5},
              "change": {"a.calls": 377, "b.calls": 3, "c.ratio": 0.25}}
    lines = counts.differing(["c.ratio", "a.calls", "b.calls"], values)
    assert [line.split() for line in lines] == [
        ["c.ratio", "parent", "0.5", "change", "0.25"],
        ["a.calls", "parent", "754", "change", "377"]]
    assert counts.differing(["a.calls"], {"change": values["change"]}) == []


def test_counts_runs_one_tree_on_one_workload(monkeypatch):
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    compared = len(_load_counts(monkeypatch).counted(spec))
    proc = subprocess.run(
        [sys.executable, str(_PATH), "--workload", "conv-diverge", "--seed", "1",
         "--tree", f"change={_PATH.parents[1]}"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"conv-diverge  0 of {compared} counts differ"]
