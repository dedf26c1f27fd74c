"""The kernel names that the benchmark wraps and reads exist.

``perfbench/tracing.py`` wraps kernel functions by attribute, and its
``Tracer`` replaces ``RuleSet.new_budget``; ``perfbench/workloads.py`` and
``perfbench/run.py`` reach the kernel as ``k.<module>.<name>``.  A kernel
change that deletes or renames one of them would otherwise fail only the
benchmark's own tests.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

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


def _kernel_reads(path: Path) -> set[tuple[str, str]]:
    """Every ``(module, name)`` that ``path`` reads as ``k.<module>.<name>``,
    where ``k`` is the kernel namespace, bare or an attribute (``self.k``)."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Attribute)):
            root = node.value.value
            if "k" in (getattr(root, "id", None), getattr(root, "attr", None)):
                reads.add((node.value.attr, node.attr))
    return reads


@pytest.mark.parametrize("name", ["workloads.py", "run.py"])
def test_every_kernel_name_the_benchmark_reads_exists(name):
    modules = _kernel_modules()
    reads = _kernel_reads(PERFBENCH / name)
    assert reads  # the scan finds them
    k = kernel(*modules)
    missing = sorted(f"{m}.{a}" for m, a in reads
                     if m not in modules or not hasattr(getattr(k, m), a))
    assert missing == []
