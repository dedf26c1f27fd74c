"""The kernel names that the benchmark's traced runs wrap exist.

``perfbench/tracing.py`` wraps kernel functions by attribute, and its
``Tracer`` replaces ``RuleSet.new_budget``.  A kernel change that deletes or
renames one of them would otherwise fail only the benchmark's own tests.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

from helpers import kernel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                               PERFBENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _kernel_modules() -> tuple[str, ...]:
    """``KERNEL_MODULES`` of ``perfbench/run.py``, read without running it
    (it imports its sibling modules by their bare names)."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["KERNEL_MODULES"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no KERNEL_MODULES")


def test_every_wrapped_kernel_name_exists():
    k = kernel(*_kernel_modules())
    missing = [span for owner, attr, span, _ in tracing.wrap_points(k)
               if not hasattr(owner, attr)]
    assert missing == []
    assert callable(k.rules.RuleSet.new_budget)
