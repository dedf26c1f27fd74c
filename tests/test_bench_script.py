"""The comparison lines of ``scripts/bench.py``."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench_script", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_compare_gives_ratio_and_pairs_won_by_direction():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "wall_s", "better": "lower"},
                           {"name": "decls_per_s", "better": "higher"}]}
    runs = {"parent": {"w": {"wall_s": [2.0, 2.0, 2.0],
                             "decls_per_s": [100.0, 20000.0, 100.0]}},
            "change": {"w": {"wall_s": [1.0, 3.0, 2.0],
                             "decls_per_s": [150.0, 10000.0, 100.0]}}}
    medians = {label: {"w": {m: sorted(v)[1] for m, v in per["w"].items()}}
               for label, per in runs.items()}
    # ties count for neither side; a higher-is-better metric wins upward; the
    # parent's spread is the distance between its quartiles
    assert bench.compare(spec, runs, medians) == [
        "w            wall_s         parent 2 iqr 0  change 2 (1.000, won 1 of 3)",
        "w            decls_per_s    parent 100 iqr 9950  change 150 (1.500, won 1 of 3)",
    ]


def test_iqr_is_the_distance_between_the_quartiles():
    assert bench.iqr([0.5]) == 0.0
    assert bench.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    assert bench.iqr([4.0, 1.0, 3.0, 2.0]) == 1.5


def _stub_runs(monkeypatch) -> list[tuple[str, str, int]]:
    """Stub ``run_once`` with a correct run of fixed metrics, and return the
    live list of the ``(tree, workload, seed)`` it was called with."""
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed))
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m["name"]: {"value": 1.0}
                            for m in spec["end_to_end"]}}

    monkeypatch.setattr(bench, "run_once", run_once)
    return calls


def test_every_workload_runs_by_default(monkeypatch, capsys):
    calls = _stub_runs(monkeypatch)
    assert bench.main(["--seconds", "1"]) == 0
    assert [w for _, w, _ in calls] == [
        "church-nf", "paper-loops", "conv-diverge", "check-chain"]


def test_workload_option_picks_workloads_in_benchmark_order(
        monkeypatch, capsys, tmp_path):
    calls = _stub_runs(monkeypatch)
    out = tmp_path / "bench.json"
    for tree in "pc":
        (tmp_path / tree).mkdir()
    assert bench.main(["--seconds", "1", "--seeds", "3", "4",
                       "--workload", "check-chain", "--workload", "church-nf",
                       "--tree", f"a={tmp_path / 'p'}",
                       "--tree", f"b={tmp_path / 'c'}",
                       "--out", str(out)]) == 0
    # per seed and workload, one run per tree (from its copy, named by the
    # tree's place), the first tree rotating
    assert calls == [("0", "church-nf", 3), ("1", "church-nf", 3),
                     ("0", "check-chain", 3), ("1", "check-chain", 3),
                     ("1", "church-nf", 4), ("0", "church-nf", 4),
                     ("1", "check-chain", 4), ("0", "check-chain", 4)]
    record = json.loads(out.read_text())
    assert [list(record["median"][t]) for t in "ab"] == [
        ["church-nf", "check-chain"]] * 2
    compared = capsys.readouterr().out.splitlines()
    assert {line.split()[0] for line in compared if "iqr" in line} == {
        "church-nf", "check-chain"}


def test_an_unknown_workload_is_rejected(monkeypatch, capsys):
    calls = _stub_runs(monkeypatch)
    with pytest.raises(SystemExit) as exit_:
        bench.main(["--seconds", "1", "--workload", "no-such"])
    assert exit_.value.code == 2
    assert "invalid choice: 'no-such'" in capsys.readouterr().err
    assert calls == []


def _git(cwd: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         *args], cwd=cwd, capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_each_tree_is_labelled_by_its_own_commit_or_its_path(
        monkeypatch, capsys, tmp_path):
    # a checkout is labelled by its commit; a directory inside it that git
    # does not track, and a plain copy outside any checkout, by their paths
    _stub_runs(monkeypatch)
    checkout, copy = tmp_path / "checkout", tmp_path / "copy"
    inner = checkout / "parent"
    for tree in (checkout, inner, copy):
        tree.mkdir()
        (tree / "file").write_text("x\n")
    _git(checkout, "init", "-q")
    _git(checkout, "add", "file")
    _git(checkout, "commit", "-q", "-m", "one file")
    out = tmp_path / "bench.json"
    assert bench.main(["--seconds", "1", "--workload", "church-nf",
                       "--tree", f"change={checkout}",
                       "--tree", f"inner={inner}", "--tree", f"copy={copy}",
                       "--out", str(out)]) == 0
    assert json.loads(out.read_text())["trees"] == {
        "change": _git(checkout, "rev-parse", "--short=12", "HEAD"),
        "inner": str(inner.resolve()),
        "copy": str(copy.resolve()),
    }


def test_every_tree_runs_from_a_copy_at_a_path_of_one_length(
        monkeypatch, tmp_path):
    # peak_rss_mb moves with the length of the path a tree runs from, so
    # trees whose paths differ in length run from copies whose paths do
    # not; a copy has the tree's files but not its history or caches
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    seen = {}

    def run_once(tree, workload, seed, seconds):
        seen[tree] = sorted(p.name for p in tree.iterdir())
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m["name"]: {"value": 1.0}
                            for m in spec["end_to_end"]}}

    monkeypatch.setattr(bench, "run_once", run_once)
    trees = [tmp_path / "p", tmp_path / "a-much-longer-name"]
    for tree in trees:
        for sub in (".git", "__pycache__", "src"):
            (tree / sub).mkdir(parents=True)
        (tree / "file").write_text("x\n")
    out = tmp_path / "bench.json"
    labels = [f"--tree={label}={tree}" for label, tree in zip("ab", trees)]
    assert bench.main(["--seconds", "1", "--workload", "church-nf", *labels,
                       "--out", str(out)]) == 0
    assert len(seen) == 2 and not set(seen) & set(trees)
    assert len({len(str(copy)) for copy in seen}) == 1
    assert list(seen.values()) == [["file", "src"]] * 2
    assert not any(copy.exists() for copy in seen)
    record = json.loads(out.read_text())
    assert record["trees"] == {"a": str(trees[0]), "b": str(trees[1])}
    assert sorted(record["copies"].values()) == sorted(map(str, seen))


def test_a_failed_run_names_its_tree_not_its_copy(monkeypatch, tmp_path):
    def run_once(tree, workload, seed, seconds):
        raise SystemExit(f"{workload} seed {seed} in {tree.name}: exit 1")

    monkeypatch.setattr(bench, "run_once", run_once)
    (tmp_path / "p").mkdir()
    with pytest.raises(SystemExit) as exit_:
        bench.main(["--seconds", "1", "--workload", "church-nf",
                    "--tree", f"parent={tmp_path / 'p'}"])
    assert str(exit_.value) == "tree parent: church-nf seed 1 in 0: exit 1"
