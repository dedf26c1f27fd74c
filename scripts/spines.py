#!/usr/bin/env python3
"""Time head reduction on long application spines, untraced and traced.

Two inputs, each at three sizes, reduce in a fresh process per run:

    identity N   ``(fun (x : Prop), x)`` applied to N copies of itself and
                 then to an axiom ``a``; N + 1 Beta steps reach ``a``
    grow F       ``Omega`` of the contract dump's ``grow-diverge`` program,
                 with irrelevance off, under a budget of F: its spine gains
                 about one argument per 6 units of fuel and never repeats

Each runs as ``whnf_term`` (untraced, the kernel's loop) and as ``whnf``
(traced).  The script prints one line per tree, input and mode: the median
of its wall times, the distance between their quartiles (``iqr``), the
work done (``fuel`` spent by ``whnf_term``, ``steps`` in the trace of
``whnf``) and the status it ended in.  A tree whose certifier rebuilds and
digests the spine of each traced state takes about 20 s for each traced
``grow 8000`` run (Python 3.11.7, 2 CPUs); this one takes well under 1 s.

    python3 scripts/spines.py
    python3 scripts/spines.py --runs 5 \\
        --tree parent=../itt-parent --tree change=.

A tree is a checkout to run, named ``label=path``; the default is this one,
named ``change``.  Each run has only the tree's ``src`` on ``PYTHONPATH``.
Runs alternate between trees, and the tree that runs first rotates from run
to run, so that a drift in machine speed hits every tree alike.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench import iqr, parse_trees, rotated  # scripts/bench.py, beside this file
from contract_dump import _GROW_DEFS  # scripts/contract_dump.py, beside this file

INPUTS = [("identity", n) for n in (1000, 2000, 4000)] + [
    ("grow", fuel) for fuel in (2000, 4000, 8000)]
MODES = ("whnf_term", "whnf")

# One run: the input is built before the clock starts; the grow program is
# read from standard input.
CHILD = r"""
import json, sys, time
from itt import (
    PROP, App, EnvEntry, FuelExhausted, Global, GlobalEnv, Lam, RuleSet, Var,
    elaborate, parse_program, whnf, whnf_term,
)
kind, size, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
if kind == "identity":
    env, rules = GlobalEnv(), RuleSet()
    env.add(EnvEntry("a", PROP, None, "axiom"))
    ident = Lam(PROP, Var(0), name="x")
    term = ident
    for arg in [ident] * size + [Global("a")]:
        term = App(term, arg)
else:
    rules = RuleSet(fuel=size, proof_irrelevance=False)
    env, _ = elaborate(parse_program(sys.stdin.read()), rules)
    term = Global("Omega")
start = time.perf_counter()
if mode == "whnf":
    trace = whnf(env, (), term, rules)
    work, status = f"steps {len(trace.steps)}", trace.status
else:
    budget, status = rules.new_budget(), "NormalForm"
    try:
        whnf_term(env, (), term, budget)
    except FuelExhausted as exc:
        status = type(exc).__name__
    work = f"fuel {rules.fuel - max(budget.remaining, 0)}"
print(json.dumps([time.perf_counter() - start, work, status]))
"""


def run_once(tree: Path, kind: str, size: int, mode: str) -> tuple[float, str, str]:
    """Seconds, work and status of one fresh run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, kind, str(size), mode],
                          cwd=tree, env=env, input=_GROW_DEFS.decode(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{kind} {size} {mode} in {tree}: exit "
                         f"{proc.returncode}\n{proc.stderr}")
    seconds, work, status = json.loads(proc.stdout)
    return seconds, work, status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per input, mode and tree")
    ap.add_argument("--tree", action="append", metavar="LABEL=PATH",
                    help="a checkout to run (repeatable; default change=.)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    trees = parse_trees(ap, args.tree)

    results = {(label, inp, mode): [] for label in trees
               for inp in INPUTS for mode in MODES}
    order = list(trees.items())
    for i in range(args.runs):
        for inp in INPUTS:
            for mode in MODES:
                for label, tree in rotated(order, i):
                    results[label, inp, mode].append(run_once(tree, *inp, mode))
    for (label, (kind, size), mode), runs in results.items():
        times = [seconds for seconds, _, _ in runs]
        (work, status), *others = {run[1:] for run in runs}
        if others:
            raise SystemExit(f"{label} {kind} {size} {mode}: runs disagree")
        print(f"{label:8} {f'{kind} {size}':13} {mode:9} "
              f"median {statistics.median(times):.4f} s  iqr {iqr(times):.4f} s"
              f"  {work}  {status}  ({len(runs)} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
