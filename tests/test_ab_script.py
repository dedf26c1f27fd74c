"""The in-process screen ``scripts/ab.py``."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "scripts" / "ab.py"


def _ab(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(_PATH), *args],
                          capture_output=True, text=True, timeout=300)


def _block(lines, workload, passes):
    assert lines[0] == f"workload {workload}"
    assert re.fullmatch(r"a  median pass \S+ s", lines[1])
    assert re.fullmatch(r"b  median pass \S+ s", lines[2])
    assert re.fullmatch(
        rf"b/a  median ratio \d+\.\d{{3}}, won [0-{passes}] of {passes} passes",
        lines[3])


def test_one_tree_against_itself():
    proc = _ab("--tree", f"a={_ROOT}", "--tree", f"b={_ROOT}",
               "--workload", "conv-diverge", "--passes", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc.stdout
    _block(lines, "conv-diverge", 2)


def test_one_block_per_workload_in_the_order_given():
    proc = _ab("--tree", f"a={_ROOT}", "--tree", f"b={_ROOT}",
               "--workload", "conv-diverge", "--workload", "check-chain",
               "--passes", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8, proc.stdout
    _block(lines[:4], "conv-diverge", 1)
    _block(lines[4:], "check-chain", 1)


def test_a_path_without_a_kernel_is_refused(tmp_path):
    proc = _ab("--tree", f"a={_ROOT}", "--tree", f"b={tmp_path}",
               "--workload", "conv-diverge", "--passes", "2")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert f"{tmp_path}: no src/itt to load" in proc.stderr


def test_each_tree_runs_its_own_lazily_imported_printer(tmp_path):
    # the trace printers import itt.render on first use, through
    # sys.modules: a tree whose printer is broken fails its own verdicts
    # and no other tree's
    shutil.copytree(_ROOT / "src" / "itt", tmp_path / "src" / "itt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "itt" / "render.py", "a",
              encoding="utf-8") as render:
        render.write("\n\ndef texts(steps):\n"
                     "    raise RuntimeError('broken printer')\n")
    proc = _ab("--tree", f"a={_ROOT}", "--tree", f"b={tmp_path}",
               "--workload", "paper-loops", "--passes", "2")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc.stdout
    _block(lines, "paper-loops", 2)
    failed = proc.stderr.splitlines()
    assert failed, proc.stderr
    assert all(line.startswith("verdict failed: paper-loops b ")
               and "RuntimeError: broken printer" in line
               for line in failed), proc.stderr
