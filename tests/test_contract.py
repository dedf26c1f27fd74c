"""The behaviour contract and the corpus expectation tables reproduce.

``scripts/contract_dump.py`` prints every output and exit code of ``itt``;
its SHA-256 is committed in ``scripts/contract_dump.sha256`` and must not
depend on the string hash seed.  ``scripts/record_expected.py`` regenerates
the packaged ``expected/`` tables, which must already hold what it writes.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from itt import CASE_NAMES
from helpers import record_expected

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _dumps(*hash_seeds: str) -> list[bytes]:
    """The dump under each hash seed, its runs started before any is read."""
    procs = [subprocess.Popen([sys.executable, str(SCRIPTS / "contract_dump.py")],
                              env={**os.environ, "PYTHONHASHSEED": seed},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for seed in hash_seeds]
    outs = [proc.communicate() for proc in procs]
    for proc, (out, err) in zip(procs, outs):
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, proc.args,
                                                out, err)
    return [out for out, _ in outs]


def test_contract_dump_matches_its_digest_under_two_hash_seeds():
    first, second = _dumps("1", "2")
    assert first == second
    pinned = (SCRIPTS / "contract_dump.sha256").read_text().strip()
    assert hashlib.sha256(first).hexdigest() == pinned


@pytest.mark.parametrize("name", CASE_NAMES)
def test_expectation_table_reproduces(name):
    packaged = resources.files("itt.corpus") / "expected" / f"{name}.txt"
    assert record_expected.record_case(name) == packaged.read_text(
        encoding="utf-8")
