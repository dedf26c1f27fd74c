#!/usr/bin/env python3
"""Screen two checkouts against each other in one process.

Both trees' ``src/itt`` are imported into this process, one after the other,
with ``itt`` and its submodules cleared from ``sys.modules`` between the two
loads, so each tree keeps its own modules.  The kernel imports some modules
on first use, through ``sys.modules`` (the trace printers import
``itt.render``), so each tree's ``itt`` modules are put back into
``sys.modules`` before each of its programs runs.  Each tree gets its own
instance of each workload of ``perfbench/workloads.py`` that ``--workload``
names (by default all of them), built from the same seed right after its
kernel is loaded.  A pass runs every program of the workload's set on both
trees, one tree right after the other, and the tree that runs first flips
from pass to pass.  Every verdict is checked, outside the timed region; the
script exits 1 if one is wrong or a warm-up raises.  For each workload in
turn it prints a block: the workload's name, each tree's median pass time,
then the second tree's median per-pass ratio to the first and the passes
it won:

    python3 scripts/ab.py --tree parent=../itt-parent --tree change=. \\
        --workload check-chain --workload church-nf --passes 6
    workload check-chain
    parent  median pass 0.06588 s
    change  median pass 0.05393 s
    change/parent  median ratio 0.819, won 6 of 6 passes
    workload church-nf
    ...

Interleaving the trees program by program in one process takes most of the
machine's drift and of the process-to-process noise out of the comparison,
so this is a quick screen for a candidate change.  It is not a record: a
gain is recorded from ``scripts/bench.py``, which runs each tree in fresh
processes as the benchmark does.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import ModuleType, SimpleNamespace
from typing import Any

from bench import ROOT, parse_trees  # scripts/bench.py, beside this file

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, Suffixes  # noqa: E402

KERNEL_MODULES = ("syntax", "parser", "rules", "env", "convert", "reduce",
                  "typecheck", "corpus")
# imported by the kernel on first use, so loaded here with the rest
LAZY_MODULES = ("render",)


def _itt_modules() -> dict[str, ModuleType]:
    """``itt`` and its submodules, as ``sys.modules`` holds them now."""
    return {n: m for n, m in sys.modules.items()
            if n == "itt" or n.startswith("itt.")}


def load_kernel(tree: Path) -> tuple[SimpleNamespace, dict[str, ModuleType]]:
    """A namespace of the kernel modules of ``tree``'s ``src/itt``, imported
    afresh, and every ``itt`` module of that tree by its ``sys.modules``
    name."""
    src = tree / "src"
    if not (src / "itt" / "__init__.py").is_file():
        raise SystemExit(f"{tree}: no src/itt to load")
    for name in _itt_modules():
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        for m in ("itt", *(f"itt.{m}" for m in LAZY_MODULES)):
            importlib.import_module(m)
    finally:
        sys.path.remove(str(src))
    modules = _itt_modules()
    for m in modules.values():
        if not Path(m.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"itt was imported from {m.__file__}, not {src}")
    k = SimpleNamespace(**{m: modules[f"itt.{m}"] for m in KERNEL_MODULES})
    return k, modules


def run_one(wl: Any, prog: Any,
            modules: dict[str, ModuleType]) -> tuple[float, str | None]:
    """The seconds from source text to verdict, and what is wrong with the
    verdict (None if it is right), with the ``itt`` modules of the
    workload's tree in ``sys.modules``."""
    sys.modules.update(modules)
    gc.collect()  # the previous program's garbage is not this one's cost
    t0 = perf_counter()
    try:
        verdict = wl.run(prog)
    except Exception as exc:
        return perf_counter() - t0, f"raw {type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    try:
        return seconds, wl.check(prog, verdict)
    except Exception as exc:
        return seconds, f"raw {type(exc).__name__} in check: {exc}"


def screen(name: str, workloads: dict[str, Any],
           modules: dict[str, dict[str, ModuleType]], passes: int, seed: int,
           wrong: list[str]) -> None:
    """Run ``passes`` passes of the workload ``name``, given per tree label
    in ``workloads`` with the tree's ``itt`` modules in ``modules``, and
    print its block; each wrong verdict is appended to ``wrong``."""
    first, second = workloads
    spent_by: dict[str, list[float]] = {first: [], second: []}
    suffix = Suffixes(seed)
    for i in range(passes):
        order = [first, second] if i % 2 == 0 else [second, first]
        spent = dict.fromkeys(order, 0.0)
        for spec in workloads[first].specs():
            sfx = suffix()
            for label in order:
                wl = workloads[label]
                prog = wl.make(spec, sfx)
                seconds, error = run_one(wl, prog, modules[label])
                spent[label] += seconds
                if error is not None:
                    wrong.append(f"{name} {label} pass {i}: {error}")
        for label in order:
            spent_by[label].append(spent[label])

    print(f"workload {name}")
    for label in (first, second):
        print(f"{label}  median pass {statistics.median(spent_by[label]):.4g} s")
    ratios = [b / a for a, b in zip(spent_by[first], spent_by[second])]
    won = sum(b < a for a, b in zip(spent_by[first], spent_by[second]))
    print(f"{second}/{first}  median ratio {statistics.median(ratios):.3f}, "
          f"won {won} of {passes} passes")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tree", action="append", metavar="LABEL=PATH",
                    required=True, help="a checkout to run (give two)")
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="a workload to screen (repeatable; default: all)")
    ap.add_argument("--passes", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    trees = parse_trees(ap, args.tree)
    if len(trees) != 2:
        ap.error("give --tree twice, with two different labels")
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    names = list(dict.fromkeys(args.workload or WORKLOADS))

    # per workload, per tree label: that tree's instance of the workload
    workloads: dict[str, dict[str, Any]] = {name: {} for name in names}
    modules: dict[str, dict[str, ModuleType]] = {}  # per tree label
    wrong: list[str] = []
    for label, tree in trees.items():
        kernel, modules[label] = load_kernel(tree)
        for name in names:
            workloads[name][label] = wl = WORKLOADS[name](kernel, args.seed)
            try:
                wl.warm_up()
            except Exception as exc:
                wrong.append(f"{name} {label} warm-up: raw "
                             f"{type(exc).__name__}: {exc}")
    for name in names:
        screen(name, workloads[name], modules, args.passes, args.seed, wrong)
    for line in wrong:
        print(f"verdict failed: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
