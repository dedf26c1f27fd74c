"""Random input through the ``itt`` front door never escapes as a traceback.

Every run of ``itt check`` and ``itt reduce`` must end in a documented exit
code (0-5, see the README), whatever the input: grammar-shaped programs that
use every binder, primitive and declaration form, raw token soup, a file of
arbitrary bytes, or input nested past the recursion limit, whose exit 5
must say where it stopped.
"""

from __future__ import annotations

import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from itt.cli import main
from itt.syntax import CHILDREN, PRIMITIVES

from helpers import TOKEN_TEXTS

DOCUMENTED_EXITS = range(6)
COMMANDS = (
    ["check", "-"],
    ["reduce", "-", "--max-steps", "300", "--trace", "text"],
    ["reduce", "-", "--max-steps", "300", "--trace", "json"],
)
PRELUDE = ("def Bot : Prop := forall (A : Prop), A.\n"
           "def Top : Prop := Bot -> Bot.\n")
BINDERS = ("x", "y", "A")
GLOBALS = ("Top", "Bot", "d0", "d1")
ARITY = {kw: len(CHILDREN[cls]) for kw, cls in PRIMITIVES.items()}


def _compound(sub: st.SearchStrategy) -> st.SearchStrategy:
    binder = st.builds("{} ({} : {}), {}".format,
                       st.sampled_from(("forall", "fun", "∀", "λ")),
                       st.sampled_from(BINDERS), sub, sub)
    arrow = st.builds("{} -> {}".format, sub, sub)
    app = st.builds("{} {}".format, sub, sub)
    prim = st.sampled_from(sorted(ARITY)).flatmap(
        lambda kw: st.lists(sub, min_size=ARITY[kw], max_size=ARITY[kw])
        .map(lambda args: " ".join([kw, *args])))
    return st.one_of(binder, arrow, app, prim).map("({})".format)


TERMS = st.recursive(st.sampled_from(("Prop", "Type", *BINDERS, *GLOBALS)),
                     _compound, max_leaves=10)
NAMES = st.sampled_from(GLOBALS[2:])
DECLARATIONS = st.one_of(
    st.builds("def {} : {} := {}.".format, NAMES, TERMS, TERMS),
    st.builds("def {} := {}.".format, NAMES, TERMS),
    st.builds("axiom {} : {}.".format, NAMES, TERMS),
    st.builds("assume {} : {}.".format, NAMES, TERMS),
    st.builds("#check {}.".format, TERMS),
    st.builds("#reduce {}.".format, TERMS),
)
PROGRAMS = st.builds(
    lambda prelude, decls: (PRELUDE if prelude else "") + "\n".join(decls),
    st.booleans(), st.lists(DECLARATIONS, max_size=5))
TOKENS = st.lists(st.sampled_from(TOKEN_TEXTS), max_size=30).map(" ".join)

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _runs(source: str) -> list[tuple[int, str]]:
    """(exit code, stderr) of each command of COMMANDS on ``source``."""
    runs = []
    for argv in COMMANDS:
        stdin = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(source.encode()),
                                     encoding="utf-8")
        stderr = io.StringIO()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                runs.append((main(argv), stderr.getvalue()))
        finally:
            sys.stdin = stdin
    return runs


def _exit_codes(source: str) -> list[int]:
    return [code for code, _ in _runs(source)]


@FUZZ
@given(PROGRAMS)
def test_grammar_shaped_programs_end_in_documented_exits(source):
    codes = _exit_codes(source)
    assert all(code in DOCUMENTED_EXITS for code in codes), codes


@FUZZ
@given(TOKENS)
def test_token_streams_end_in_documented_exits(source):
    codes = _exit_codes(source)
    assert all(code in DOCUMENTED_EXITS for code in codes), codes


@FUZZ
@given(st.binary())
def test_arbitrary_bytes_end_in_documented_exits(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.itt"
    path.write_bytes(data)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["check", str(path)])
    assert code in DOCUMENTED_EXITS, code


# Inputs past the recursion limit of the parser, the checker or the printer.
DEEP = {
    "parentheses": "#check " + "(" * 5000 + "Prop" + ")" * 5000 + ".\n",
    "arrows": "#check " + "Prop -> " * 2000 + "Prop.\n",
    # parses, with each codomain under an unnamed binder; checking overflows
    "arrow-chain": "#check forall (A : Prop), " + "A -> " * 800 + "A.\n",
    "binders": "#check " + "".join(
        f"forall (a{i} : Prop), " for i in range(1000)) + "a0.\n",
    "arguments": PRELUDE + "#check Top" + " Bot" * 3000 + ".\n",
    "printed": "#check " + "".join(
        f"fun (a{i} : Prop), " for i in range(900)) + "a0.\n",
}
# an exit 5 says where: the parser's line:col, or the declaration
NESTED_TOO_DEEPLY = re.compile(
    r"input nested too deeply: (\d+:\d+|declaration \d+ \(\w+\)): ")


@pytest.mark.parametrize("source", DEEP.values(), ids=DEEP)
def test_deep_nesting_ends_in_documented_exits(source):
    runs = _runs(source)
    assert all(code in DOCUMENTED_EXITS for code, _ in runs), runs
    for code, stderr in runs:
        if code == 5:
            assert NESTED_TOO_DEEPLY.match(stderr), stderr
