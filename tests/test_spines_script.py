"""The report of ``scripts/spines.py``."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "spines.py"


def test_spines_reports_each_input_and_mode_once_per_run():
    proc = subprocess.run([sys.executable, str(_PATH), "--runs", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [re.fullmatch(r"change   (\w+ \d+) *(whnf_term|whnf) *median \d+\.\d{4} s"
                         r"  iqr 0\.0000 s  (fuel|steps) \d+  (\w+)  \(1 runs\)",
                         line).group(1, 2, 3, 4)
            for line in proc.stdout.splitlines()]
    inputs = [f"identity {n}" for n in (1000, 2000, 4000)] + [
        f"grow {f}" for f in (500, 1000, 2000)]
    assert [(i, m, w) for i, m, w, _ in rows] == [
        (i, m, w) for i in inputs
        for m, w in (("whnf_term", "fuel"), ("whnf", "steps"))]
    assert {s for i, _, _, s in rows if i.startswith("identity")} == {"NormalForm"}
    assert {s for i, _, _, s in rows if i.startswith("grow")} == {"FuelExhausted"}
