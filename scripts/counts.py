#!/usr/bin/env python3
"""Compare the benchmark's traced counts between checkouts.

Each tree runs each workload of BENCHMARK.json, or each one named by
``--workload``, once through ``perfbench/run.py --trace 1`` at ``--seed``.
The script prints every per-layer metric whose unit is ``count`` or
``ratio`` and whose value differs between the trees, one line per workload
and metric, then one summary line per workload.  ``trace.overhead_ratio`` is
left out: it is a ratio of timings, so it differs from run to run.

    python3 scripts/counts.py --tree parent=../itt-parent --tree change=.
    paper-loops   syntax.canonical_key.calls          parent 754  change 377
    paper-loops   1 of 27 counts differ

A tree is a checkout to run, named ``label=path``; the default is this one,
named ``change``.  The script exits 1 if any run's verdicts are not all
correct.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench import ROOT, parse_trees, run_once  # scripts/bench.py, beside this file

TIMED = "trace.overhead_ratio"


def counted(spec: dict) -> list[str]:
    """The per-layer metrics of ``spec`` that repeat exactly from run to run."""
    return [m["name"] for m in spec["per_layer"]
            if m["unit"] in ("count", "ratio") and m["name"] != TIMED]


def differing(names: list[str], values: dict[str, dict[str, float]]) -> list[str]:
    """One line per metric of ``names`` whose value is not the same in every
    tree of ``values`` (tree label to metric to value), in ``names`` order."""
    return ["  ".join([f"{name:34}", *(f"{label} {per[name]}"
                                       for label, per in values.items())])
            for name in names
            if len({per[name] for per in values.values()}) > 1]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=workloads,
                    help="a workload to run (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tree", action="append", metavar="LABEL=PATH",
                    help="a checkout to run (repeatable; default change=.)")
    args = ap.parse_args(argv)

    trees = parse_trees(ap, args.tree)
    names = counted(spec)
    wrong = []
    for workload in [w for w in workloads if w in (args.workload or workloads)]:
        values = {}
        for label, tree in trees.items():
            result = run_once(tree, workload, args.seed, 1, trace=1)
            if result["correct"] is not True:
                wrong.append(f"{label} {workload}: "
                             f"{result['failed']} of {result['attempted']} failed")
            values[label] = {n: result["metrics"][n]["value"] for n in names}
        lines = differing(names, values)
        for line in lines:
            print(f"{workload:13} {line}")
        print(f"{workload:13} {len(lines)} of {len(names)} counts differ", flush=True)
    for line in wrong:
        print(f"benchmark verdict failed: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
