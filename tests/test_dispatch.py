"""The kernel picks its rules by ``type(x) is`` tests, not by class patterns."""

from __future__ import annotations

import dis
from pathlib import Path
from types import CodeType
from typing import Iterator

import itt


def _code_objects(code: CodeType) -> Iterator[CodeType]:
    """``code`` and every code object nested in it, at any depth."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def test_no_itt_code_matches_a_class_pattern():
    # A class pattern (``case Global(name):``) costs a MATCH_CLASS, an
    # isinstance test and a read per captured field.  On CPython 3.11 a
    # matching ``case Global(name):`` took 366 ns where a plain attribute
    # read took 53 ns, and a three-case ``match`` that hit its third case
    # took 457 ns where ``type(t) is`` tests took 91 ns (602/169 ns on 3.10,
    # 626/94 on 3.12, 415/109 on 3.13; ``timeit``, best of 5).  ``infer``,
    # ``head_step`` and ``elaborate`` run once per node or declaration, so
    # the kernel dispatches on ``type(x)`` instead.
    paths = sorted(Path(itt.__file__).parent.rglob("*.py"))
    assert {"typecheck.py", "reduce.py", "syntax.py"} <= {p.name for p in paths}
    sites = []
    for path in paths:
        top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for code in _code_objects(top):
            if any(ins.opname == "MATCH_CLASS"
                   for ins in dis.get_instructions(code)):
                sites.append(f"{path.name}: {code.co_name}")
    assert sites == []
