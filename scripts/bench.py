#!/usr/bin/env python3
"""Run the benchmark's workloads and record the end-to-end medians.

Each workload of BENCHMARK.json, or each one named by ``--workload``, runs
once per seed through ``perfbench/run.py --trace 0`` in a fresh process.
The script exits 1 if any run's verdicts are not all correct.  With
``--out`` it writes, per tree and workload, every run's end-to-end metrics
and their median:

    python3 scripts/bench.py --seconds 1                       # verdicts only
    python3 scripts/bench.py --seconds 8 --seeds 1 2 3 \\
        --tree parent=../itt-parent --tree change=. --out bench.json
    python3 scripts/bench.py --seconds 2 --seeds 11 12 13 \\
        --workload check-chain --tree parent=../itt-parent --tree change=.

A tree is a checkout to run, named ``label=path``; the default is this one,
named ``change``.  Each tree runs from a copy without ``.git`` or caches,
at a temporary path as long as every other tree's, since ``peak_rss_mb``
moves with the length of the path a tree runs from; the record labels each
tree by its own path, and names the copies.  Runs of several trees
alternate, one per tree for each workload and seed, and the tree that runs
first rotates from seed to seed, so that a drift in machine speed hits
every tree alike.  With two or more trees the script ends by comparing
each with the first: one line per workload and end-to-end metric.  Only
the standard library is used.

Run length decides what a comparison can show.  At ``--seconds 1`` the
parent's own interquartile range of ``wall_s`` reaches 8-9% of its median
on ``paper-loops``, so a gain under 10% needs pairs of ``--seconds 10`` or
more to clear it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# what a tree's copy leaves out: its history and what runs leave behind
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                     ".hypothesis", ".bench_out")


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """The last stdout line of one ``perfbench/run.py --trace`` run, as JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {tree.name}: exit "
                         f"{proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def describe(tree: Path) -> str:
    """The tree's commit, with ``-dirty`` if it has uncommitted changes, when
    the tree is the top of a git checkout; otherwise its resolved path.  A
    copy made by ``git archive`` has no commit, and a directory inside
    another checkout must not take that checkout's."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=tree, capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() == tree.resolve():
            return git("describe", "--always", "--dirty", "--abbrev=12")
    except (OSError, subprocess.CalledProcessError):
        pass
    return str(tree.resolve())


def _num(x: float) -> str:
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"


def iqr(values: list[float]) -> float:
    """The distance between the quartiles of ``values``."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def parse_trees(ap: argparse.ArgumentParser, items: list[str] | None) -> dict[str, Path]:
    """The checkouts that ``--tree LABEL=PATH`` options name, each path
    resolved; by default this one, named ``change``."""
    trees: dict[str, Path] = {}
    for item in items or [f"change={ROOT}"]:
        label, sep, path = item.partition("=")
        if not sep or not label:
            ap.error(f"--tree wants LABEL=PATH, got {item!r}")
        trees[label] = Path(path).resolve()
    return trees


def copied(trees: dict[str, Path], into: Path) -> dict[str, Path]:
    """A copy of each tree at ``into/<i>``, ``i`` its place among the trees,
    all written at one width, so that every copy's path has the same
    length; without ``.git`` and caches."""
    width = len(str(len(trees) - 1))
    copies = {}
    for i, (label, tree) in enumerate(trees.items()):
        copies[label] = into / f"{i:0{width}}"
        shutil.copytree(tree, copies[label], ignore=_NOT_COPIED)
    return copies


def rotated(order: list, i: int) -> list:
    """``order`` started at its item ``i`` (modulo its length), so that the
    tree that runs first changes from one round of runs to the next."""
    k = i % len(order)
    return order[k:] + order[:k]


def compare(spec: dict, runs: dict, medians: dict) -> list[str]:
    """Per workload run and end-to-end metric: the first tree's median and
    the distance between its quartiles (``iqr``); then each other tree's
    median, its ratio to the first tree's median, and the pairs of runs (one
    seed each) it won against the first tree by the metric's ``better``
    direction, ties counting for neither:

        check-chain  wall_s  parent 0.1728 iqr 0.003  change 0.157 (0.909, won 5 of 5)

    A gain holds when the change wins nine tenths of the pairs and its
    median differs from the first tree's by more than that ``iqr``.
    """
    first, *others = runs
    lines = []
    for w in runs[first]:
        for metric in spec["end_to_end"]:
            m, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            base, ref = medians[first][w][m], runs[first][w][m]
            cells = [f"{first} {_num(base)} iqr {_num(iqr(ref))}"]
            for label in others:
                median, mine = medians[label][w][m], runs[label][w][m]
                won = sum(sign * (a - b) > 0 for a, b in zip(mine, ref))
                ratio = f"{median / base:.3f}" if base else "n/a"
                cells.append(f"{label} {_num(median)} ({ratio}, won {won} of {len(ref)})")
            lines.append(f"{w:12} {m:14} " + "  ".join(cells))
    return lines


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, required=True,
                    help="seconds per run")
    ap.add_argument("--workload", action="append", choices=names,
                    help="a workload to run (repeatable; default all)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--tree", action="append", metavar="LABEL=PATH",
                    help="a checkout to run (repeatable; default change=.)")
    ap.add_argument("--out", type=Path, help="write the results as JSON")
    args = ap.parse_args(argv)

    trees = parse_trees(ap, args.tree)
    metrics = [m["name"] for m in spec["end_to_end"]]
    if args.workload:
        names = [w for w in names if w in args.workload]

    runs = {label: {w: {m: [] for m in metrics} for w in names}
            for label in trees}
    wrong = []
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        copies = copied(trees, Path(tmp))
        order = list(copies.items())
        for i, seed in enumerate(args.seeds):
            for workload in names:
                for label, tree in rotated(order, i):
                    try:
                        result = run_once(tree, workload, seed, args.seconds)
                    except SystemExit as exc:  # it names only the copy
                        raise SystemExit(f"tree {label}: {exc}") from None
                    if result["correct"] is not True:
                        wrong.append(f"{label} {workload} seed {seed}: "
                                     f"{result['failed']} of "
                                     f"{result['attempted']} failed")
                    for m in metrics:
                        runs[label][workload][m].append(
                            result["metrics"][m]["value"])
                    print(f"{label:8} {workload:12} seed {seed}: wall_s "
                          f"{result['metrics']['wall_s']['value']:.4f}",
                          flush=True)

    medians = {label: {w: {m: statistics.median(v) for m, v in per.items()}
                       for w, per in by_w.items()}
               for label, by_w in runs.items()}
    if args.out is not None:
        args.out.write_text(json.dumps({
            "command": f"perfbench/run.py --trace 0 --seconds {args.seconds:g}",
            "seeds": args.seeds,
            "machine": {"python": platform.python_version(),
                        "cpus": os.cpu_count(), "system": platform.system()},
            "trees": {label: describe(tree) for label, tree in trees.items()},
            "copies": {label: str(copy) for label, copy in copies.items()},
            "median": medians,
            "runs": runs,
        }, indent=2) + "\n")
    if len(trees) > 1:
        print("\n".join(compare(spec, runs, medians)))
    for line in wrong:
        print(f"benchmark verdict failed: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
