"""The comparison lines of ``scripts/bench.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
