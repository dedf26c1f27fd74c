"""Random input through the ``itt`` front door never escapes as a traceback.

Every run of ``itt check`` and ``itt reduce`` must end in a documented exit
code (0-5, see the README), whatever the input: grammar-shaped programs that
use every binder, primitive and declaration form, raw token soup, or a file
of arbitrary bytes.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from itt.cli import main
from itt.syntax import CHILDREN, PRIMITIVES

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
TOKENS = st.lists(st.sampled_from((
    "def", "axiom", "assume", "forall", "fun", "∀", "λ", "Prop", "Type",
    *PRIMITIVES, *BINDERS, *GLOBALS, "(", ")", ":", ":=", ",", ".", "->", "→",
    "#check", "#reduce", "#oops", "-- note\n", "\n", "@", "0", "_",
)), max_size=30).map(" ".join)

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _exit_codes(source: str) -> list[int]:
    codes = []
    for argv in COMMANDS:
        stdin = sys.stdin
        sys.stdin = io.StringIO(source)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                codes.append(main(argv))
        finally:
            sys.stdin = stdin
    return codes


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
