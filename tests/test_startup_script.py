"""The report of ``scripts/startup.py``."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "startup.py"


def test_startup_reports_each_command_once_per_run():
    proc = subprocess.run([sys.executable, str(_PATH), "--runs", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    flag, *lines = proc.stdout.splitlines()
    assert flag in ("children's sys.dont_write_bytecode: True",
                    "children's sys.dont_write_bytecode: False")
    names = [re.fullmatch(r"change   (.{11}) median \d+\.\d{4} s  iqr 0\.0000 s  \(1 runs\)",
                          line).group(1).rstrip() for line in lines]
    assert names == ["pass", "import itt", "itt check",
                     "reduce off", "reduce text", "reduce json"]
