#!/usr/bin/env python3
"""Time the front door: what a fresh process pays to start and run ``itt``.

Six commands run, each in a fresh process, ``--runs`` times (default 11):

    python -c pass                       the interpreter alone
    python -c "import itt"               and the import of the package
    python -m itt check counterexample2  and a check of a corpus program
    python -m itt reduce church-2-8.itt --strategy nf --trace off|text|json
                                         and the normalization of Church
                                         2^8 (1,025 steps), with no trace,
                                         a text trace or a JSON trace

The Church program is written to a temporary file that the script removes
when it ends.

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
import tempfile
import time
from pathlib import Path

from bench import iqr, parse_trees, rotated  # scripts/bench.py, beside this file

CHURCH = "church-2-8.itt"  # in the temporary directory
COMMANDS = {
    "pass": ["-c", "pass"],
    "import itt": ["-c", "import itt"],
    "itt check": ["-m", "itt", "check", "src/itt/corpus/examples/counterexample2.itt"],
    **{f"reduce {trace}": ["-m", "itt", "reduce", CHURCH, "--strategy", "nf",
                           "--trace", trace] for trace in ("off", "text", "json")},
}


def numeral(k: int) -> str:
    """The Church numeral ``k``."""
    return "fun (A : Prop), fun (s : A -> A), fun (z : A), " + "s (" * k + "z" + ")" * k


def church_program(m: int, n: int) -> str:
    """A program that normalizes the Church numeral ``m ** n``."""
    return ("def Nat : Prop := forall (A : Prop), (A -> A) -> A -> A.\n"
            f"def m : Nat := {numeral(m)}.\n"
            f"def n : Nat := {numeral(n)}.\n"
            "def exp : Nat -> Nat -> Nat :=\n"
            "  fun (m : Nat), fun (n : Nat), fun (A : Prop), n (A -> A) (m A).\n"
            "#reduce exp m n.\n")


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
    trees = parse_trees(ap, args.tree)

    flag = subprocess.run([sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"],
                          capture_output=True, text=True, check=True).stdout.strip()
    print(f"children's sys.dont_write_bytecode: {flag}")
    times = {label: {name: [] for name in COMMANDS} for label in trees}
    order = list(trees.items())
    with tempfile.TemporaryDirectory() as tmp:
        church = Path(tmp) / CHURCH
        church.write_text(church_program(2, 8))
        commands = {name: [str(church) if a == CHURCH else a for a in command]
                    for name, command in COMMANDS.items()}
        for i in range(args.runs):
            for name, command in commands.items():
                for label, tree in rotated(order, i):
                    times[label][name].append(run_once(tree, command))
    for label, per in times.items():
        for name, values in per.items():
            print(f"{label:8} {name:11} median {statistics.median(values):.4f} s"
                  f"  iqr {iqr(values):.4f} s  ({len(values)} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
