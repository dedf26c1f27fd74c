#!/usr/bin/env python3
"""Time the front door: what a fresh process pays to start and run ``itt``.

Three commands run, each in a fresh process, ``--runs`` times (default 11):

    python -c pass                       the interpreter alone
    python -c "import itt"               and the import of the package
    python -m itt check counterexample2  and a check of a corpus program

The script prints the children's ``sys.dont_write_bytecode``, then one line
per tree and command with the median of its wall times and the distance
between their quartiles (``iqr``).  Children inherit the caller's
environment: under ``PYTHONDONTWRITEBYTECODE=1`` no bytecode is cached, so
every import compiles every module again, and that is part of the time.

    python3 scripts/startup.py
    python3 scripts/startup.py --runs 21 \\
        --tree parent=../itt-parent --tree change=.

A tree is a checkout to run, named ``label=path``; the default is this one,
named ``change``.  Each command runs in the tree with only its ``src`` on
``PYTHONPATH``.  Runs alternate between commands and trees, and the tree
that runs first rotates from run to run, so that a drift in machine speed
hits every tree alike.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import iqr  # scripts/bench.py, beside this file

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = {
    "pass": ["-c", "pass"],
    "import itt": ["-c", "import itt"],
    "itt check": ["-m", "itt", "check", "src/itt/corpus/examples/counterexample2.itt"],
}


def run_once(tree: Path, args: list[str]) -> float:
    """The wall time, in seconds, of one fresh ``python`` with ``args``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} in {tree}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return elapsed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=11, help="runs per command and tree")
    ap.add_argument("--tree", action="append", metavar="LABEL=PATH",
                    help="a checkout to run (repeatable; default change=.)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    trees: dict[str, Path] = {}
    for item in args.tree or [f"change={ROOT}"]:
        label, sep, path = item.partition("=")
        if not sep or not label:
            ap.error(f"--tree wants LABEL=PATH, got {item!r}")
        trees[label] = Path(path).resolve()

    flag = subprocess.run([sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"],
                          capture_output=True, text=True, check=True).stdout.strip()
    print(f"children's sys.dont_write_bytecode: {flag}")
    times = {label: {name: [] for name in COMMANDS} for label in trees}
    order = list(trees.items())
    for i in range(args.runs):
        for name, command in COMMANDS.items():
            for label, tree in order[i % len(order):] + order[:i % len(order)]:
                times[label][name].append(run_once(tree, command))
    for label, per in times.items():
        for name, values in per.items():
            print(f"{label:8} {name:11} median {statistics.median(values):.4f} s"
                  f"  iqr {iqr(values):.4f} s  ({len(values)} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
