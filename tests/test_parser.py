from __future__ import annotations

import ast
import hashlib
import random
import re
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given

from itt import (
    CASE_NAMES, PROP,
    App, EnvEntry, Global, Lam, ParseError, Pi, PragmaCheck,
    PragmaReduce, Var, alpha_eq, canonical_key, load_example, parse_program,
    parse_term, pretty, syntax,
)
from itt.parser import _position, token_texts
from itt.syntax import CHILDREN, PRIMITIVES
from helpers import TOKEN_TEXTS
from term_strategies import GLOBAL_POOL, closed_terms

# The fuzzed token texts, and texts at the edge of the lexer: blanks it does
# not skip, a non-ASCII letter, a stray character, a bare comment start, a
# space, and a name that the scope of ``parse_term`` below resolves.
EDGE_TEXTS = (*TOKEN_TEXTS, "\f", "\r", "é", "$", "--", " ", "a")


def test_forall_parses_to_pi():
    assert parse_term("forall (A : Prop), A") == Pi(PROP, Var(0))


def test_delta_body():
    scope = ("Bot", "Top")
    got = parse_term("fun (z : Bot), z Top z", scope)
    want = Lam(Global("Bot"), App(App(Var(0), Global("Top")), Var(0)))
    assert alpha_eq(got, want)


def test_arrow_right_associative():
    a = parse_term("Prop -> Prop -> Prop")
    b = parse_term("Prop -> (Prop -> Prop)")
    assert alpha_eq(a, b)
    assert not alpha_eq(a, parse_term("(Prop -> Prop) -> Prop"))


ARROW_CHAIN = "forall (A : Prop), " + "A -> " * 800 + "A"


def test_parsing_rebuilds_nothing(monkeypatch):
    sources = [load_example(name).source for name in CASE_NAMES]
    calls = []
    map_vars = syntax._map_vars

    def counting(*args):
        calls.append(args)
        return map_vars(*args)

    monkeypatch.setattr(syntax, "_map_vars", counting)
    for src in [*sources, f"#check {ARROW_CHAIN}."]:
        parse_program(src)
    assert calls == []
    syntax.shift(Var(0))  # the counter sees a shift
    assert len(calls) == 1


def test_long_arrow_chain_parses_and_prints():
    assert sys.getrecursionlimit() == 1000
    t = parse_term(ARROW_CHAIN)
    assert pretty(t) == ARROW_CHAIN
    named = parse_term("forall (A : Prop), " + "".join(
        f"forall (x{i} : A), " for i in range(1, 801)) + "A")
    # alpha-equal terms share their key, and ``alpha_eq`` compares them
    # without recursion (``==`` overflows this deep)
    assert canonical_key(t) == canonical_key(named)
    assert alpha_eq(t, named)


def test_a_shadowing_binder_restores_the_outer_name_when_it_closes():
    # the inner A hides the outer one only in its body; the arrows after it
    # bind no name, so each later A is one index further out
    t = parse_term("forall (A : Prop), (forall (A : Prop), A -> A) -> A -> A")
    assert alpha_eq(t, Pi(PROP, Pi(Pi(PROP, Pi(Var(0), Var(1))),
                                   Pi(Var(1), Var(2)))))
    # a binder's own domain still sees the outer name
    assert alpha_eq(parse_term("fun (A : Prop), fun (A : A), A -> A"),
                    Lam(PROP, Lam(Var(0), Pi(Var(0), Var(1)))))
    with pytest.raises(ParseError, match="unbound identifier 'B'"):
        parse_term("forall (A : Prop), (forall (B : Prop), B) -> B")


def test_application_left_associative():
    scope = ("f", "x", "y")
    assert parse_term("f x y", scope) == App(App(Global("f"), Global("x")),
                                             Global("y"))


def _globals_named(t, name):
    """Every ``Global`` called ``name`` in ``t``, one entry per occurrence."""
    found, todo = [], [t]
    while todo:
        cur = todo.pop()
        if type(cur) is Global and cur.name == name:
            found.append(cur)
        todo.extend(getattr(cur, attr) for attr, _ in CHILDREN[type(cur)])
    return found


def test_one_global_per_name_per_parse():
    # every occurrence of a name in one parse is one object: within a
    # declaration, across declarations, and in a pragma
    decls = parse_program(
        "axiom T : Prop.\n"
        "def f : T -> T := fun (x : T), x.\n"
        "def g : T -> T -> T := fun (x : T), fun (y : T), f y.\n"
        "#check g (f T).\n").declarations
    terms = [t for d in decls[1:] for t in
             ((d.type_, d.body) if type(d) is EnvEntry else (d.term,))]
    for name, count in [("T", 9), ("f", 2), ("g", 1)]:
        uses = [g for t in terms for g in _globals_named(t, name)]
        assert len(uses) == count and all(g is uses[0] for g in uses)
    # a scope given to parse_term shares the same way
    t = parse_term("T -> f (f T)", scope=("T", "f", "unused"))
    for name in "Tf":
        uses = _globals_named(t, name)
        assert len(uses) == 2 and uses[0] is uses[1]
    # a Global from another parse, or built by hand, is equal but not the same
    shared = [_globals_named(terms[0], "T")[0], _globals_named(t, "T")[0]]
    for built in (parse_term("T", scope=("T",)), Global("T")):
        assert all(built == g and built is not g for g in shared)


def test_a_binder_hides_the_shared_global():
    # a binder named like a global resolves to a Var, and the global's one
    # node still serves its uses outside the binder
    t = parse_term("T -> (fun (T : Prop), T) T", scope=("T",))
    assert alpha_eq(t, Pi(Global("T"), App(Lam(PROP, Var(0)), Global("T"))))
    assert t.codomain.fn.body == Var(0)
    assert t.domain is t.codomain.arg


def test_unicode_aliases():
    assert alpha_eq(parse_term("∀ (A : Prop), A → A"),
                    parse_term("forall (A : Prop), A -> A"))
    assert alpha_eq(parse_term("λ (A : Prop), A"),
                    parse_term("fun (A : Prop), A"))


def test_cast_underapplication_is_arity_error():
    with pytest.raises(ParseError, match="cast expects 4 arguments"):
        parse_term("cast Top", scope=("Top",))


def test_primitive_forms_saturate_then_apply():
    scope = ("a", "b", "c", "x")
    t = parse_term("Eq a b c x", scope)
    from itt import Eq
    assert t == App(Eq(Global("a"), Global("b"), Global("c")), Global("x"))


def test_unbound_identifier_reports_position():
    with pytest.raises(ParseError) as err:
        parse_term("forall (A : Prop), B")
    assert (err.value.line, err.value.col) == (1, 20)
    assert "B" in str(err.value)


def test_lexical_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_term("forall @ (A : Prop)")
    assert (err.value.line, err.value.col) == (1, 8)


def _stream(src):
    """Each token's text and ``(line, col)``."""
    return [(text, *_position(src, i))
            for i, text in enumerate(token_texts(src))]


def test_token_stream_is_pinned():
    src = ("-- Church numerals\r\n"
           "def id:∀ (A : Prop), A → A:=\r\n"
           "\tλ (A : Prop), fun (a : A), a.\n"
           "#check id -- trailing\n"
           " axiom x_1 : Prop->Prop.\n")
    assert _stream(src) == [
        ("def", 2, 1), ("id", 2, 5), (":", 2, 7), ("forall", 2, 8),
        ("(", 2, 10), ("A", 2, 11), (":", 2, 13), ("Prop", 2, 15),
        (")", 2, 19), (",", 2, 20), ("A", 2, 22), ("->", 2, 24),
        ("A", 2, 26), (":=", 2, 27),
        ("fun", 3, 2), ("(", 3, 4), ("A", 3, 5), (":", 3, 7),
        ("Prop", 3, 9), (")", 3, 13), (",", 3, 14), ("fun", 3, 16),
        ("(", 3, 20), ("a", 3, 21), (":", 3, 23), ("A", 3, 25),
        (")", 3, 26), (",", 3, 27), ("a", 3, 29), (".", 3, 30),
        ("#check", 4, 1), ("id", 4, 8),
        ("axiom", 5, 2), ("x_1", 5, 8), (":", 5, 12), ("Prop", 5, 14),
        ("->", 5, 18), ("Prop", 5, 20), (".", 5, 24),
        ("", 6, 1),
    ]
    assert _stream("a\r\nb") == [("a", 1, 1), ("b", 2, 1), ("", 2, 2)]
    assert _stream("x-->y") == [("x", 1, 1), ("", 1, 6)]


@pytest.mark.parametrize("src, message, line, col", [
    ("$", "unexpected character '$'", 1, 1),
    ("#foo", "unknown pragma '#foo'", 1, 1),
    ("#check2 Prop.", "unknown pragma '#check2'", 1, 1),
    ("#", "unknown pragma '#'", 1, 1),
    ("é", "unexpected character 'é'", 1, 1),
    ("def aé", "unexpected character 'é'", 1, 6),
    ("def x := Prop -\n", "unexpected character '-'", 1, 15),
    ("-- note\n  def é", "unexpected character 'é'", 2, 7),
    ("#check\n  -- c\n x $", "unexpected character '$'", 3, 4),
])
def test_lexical_errors_are_pinned(src, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_program(src)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


@pytest.mark.parametrize("src, message, line, col", [
    ("def x := ) $", "unexpected character '$'", 1, 12),
    ("def x : Prop := Prop.\n#chek x.", "unknown pragma '#chek'", 2, 1),
])
def test_lexical_errors_win_over_earlier_syntax_errors(src, message, line, col):
    # the whole source is lexed before parsing starts
    with pytest.raises(ParseError) as err:
        parse_program(src)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


_UNICODE = {"forall": "∀", "fun": "λ", "->": "→"}
# what may lie between two tokens: blanks and comments
_SKIP = re.compile(r"(?:[ \t\r\n]+|--[^\n]*)*")


def _offset(src, line, col):
    return sum(len(s) + 1 for s in src.split("\n")[:line - 1]) + col - 1


@given(st.lists(st.sampled_from(EDGE_TEXTS), max_size=30).map("".join))
def test_parser_token_texts_are_the_token_values(src):
    try:
        texts = token_texts(src)
    except ParseError as err:
        # at the first text that is no token: the source starts with the
        # reported text there, that text alone is no token, and every text
        # before it is one
        at = _offset(src, err.line, err.col)
        bad = ast.literal_eval(err.message.split(" ", 2)[2])
        assert src.startswith(bad, at)
        with pytest.raises(ParseError, match=re.escape(err.message)):
            token_texts(bad)
        assert token_texts(src[:at])[-1] == ""
        return
    assert texts[-1] == ""
    prev_end = 0
    for text, line, col in _stream(src):
        at = _offset(src, line, col)
        # the token's text, or its Unicode alias, starts there
        shown = text if src.startswith(text, at) else _UNICODE.get(text, text)
        assert src.startswith(shown, at)
        # after the previous token, so positions strictly increase, with
        # only blanks and comments between the two
        assert at >= prev_end and _SKIP.fullmatch(src, prev_end, at)
        prev_end = at + len(shown)
    assert at == len(src)  # EOF


def _outcome(parse, src):
    try:
        return repr(parse(src))
    except ParseError as err:
        return repr((err.message, err.line, err.col))


def test_front_end_outcomes_are_pinned():
    # The digest was computed before errors were positioned by scanning
    # again to their token, so this and any later change to lexing or
    # parsing is checked against it.
    rng = random.Random(15)
    digest = hashlib.sha256()
    for _ in range(20_000):
        src = "".join(rng.choices(EDGE_TEXTS, k=rng.randrange(16)))
        for parse in (parse_program, lambda s: parse_term(s, ("a", "b")),
                      token_texts):
            digest.update(_outcome(parse, src).encode() + b"\0")
    assert digest.hexdigest() == (
        "12c10d93fe7041834ac12596daac8b9cd249e7c5f129e6a4923578cb50cbe3c1")


def _grammar_term(rng, scope, depth):
    """A well-scoped term in the surface syntax: binders, arrows,
    applications, fully applied primitives, and names from ``scope``."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(("Prop", "Type", *scope))
    def sub(n):
        return [_grammar_term(rng, scope, depth - 1) for _ in range(n)]
    form = rng.randrange(4)
    if form == 0:
        name = rng.choice(("x", "y", "A", "B"))
        body = _grammar_term(rng, [*scope, name], depth - 1)
        binder = rng.choice(("forall", "fun", "∀", "λ"))
        text = f"{binder} ({name} : {sub(1)[0]}), {body}"
    elif form == 1:
        text = f" {rng.choice(('->', '→'))} ".join(sub(2))
    elif form == 2:
        text = " ".join(sub(rng.randrange(2, 4)))
    else:
        kw = rng.choice(("cast", "Eq", "refl", "Eq_rec", "J"))
        text = " ".join([kw, *sub(len(CHILDREN[PRIMITIVES[kw]]))])
    return f"({text})"


def _grammar_program(rng):
    names: list[str] = []
    decls = []
    for _ in range(rng.randrange(1, 5)):
        form = rng.randrange(6)
        a, b = (_grammar_term(rng, names, 3) for _ in range(2))
        name = f"d{len(names)}"
        decls.append((f"def {name} : {a} := {b}.", f"def {name} := {a}.",
                      f"axiom {name} : {a}.", f"assume {name} : {a}.",
                      f"#check {a}.", f"#reduce {a}.")[form])
        if form < 4:
            names.append(name)
    return "\n".join(decls)


def test_successful_parses_are_pinned():
    # The digest is the one of the parser that shifted each arrow's codomain
    # and had a class each for ``def``, ``axiom`` and ``assume``, with those
    # classes' reprs mapped to their ``EnvEntry``'s, so a change to how a
    # successful parse builds terms is checked against it.
    rng = random.Random(16)
    digest = hashlib.sha256()
    for _ in range(2_000):
        outcome = _outcome(parse_program, _grammar_program(rng))
        assert outcome.startswith("Program(")
        digest.update(outcome.encode() + b"\0")
    assert digest.hexdigest() == (
        "c1c6a1637dc19dbea4a721124d2b0e7824fb78f597abac473a073452235e9c78")


DEEP = "(" * 400 + "Prop" + ")" * 400


@pytest.mark.parametrize("parse, src", [(parse_term, DEEP),
                                        (parse_program, f"#check {DEEP}.")])
def test_nesting_too_deep_names_where_the_parser_stopped(parse, src):
    with pytest.raises(RecursionError) as err:
        parse(src)
    assert str(err.value).startswith("1:")
    assert str(err.value).endswith("maximum recursion depth exceeded")


@pytest.mark.parametrize("src", [
    "def X : Prop :=",
    "forall (A : Prop),\n(B",
    "fun (x : ) , x",
    "cast Top\n\n",
    "#reduce\n#reduce Prop.",
    "def dup := Prop.\ndef dup := Prop.",
])
def test_error_positions_inside_source_bounds(src):
    with pytest.raises(ParseError) as err:
        parse_program(src) if "def" in src or "#" in src else parse_term(src)
    lines = src.splitlines() or [""]
    assert 1 <= err.value.line <= len(lines) + 1
    assert err.value.col >= 1
    if err.value.line <= len(lines):
        assert err.value.col <= len(lines[err.value.line - 1]) + 2


def test_empty_program():
    assert parse_program("").declarations == ()
    assert parse_program("-- just a comment\n").declarations == ()


def test_duplicate_name_rejected():
    src = "def Top : Prop := forall (A : Prop), A.\ndef Top : Prop := Prop.\n"
    with pytest.raises(ParseError, match="duplicate name 'Top'"):
        parse_program(src)


def test_forward_reference_rejected():
    with pytest.raises(ParseError, match="unbound identifier 'Later'"):
        parse_program("def First : Prop := Later.\ndef Later : Prop := First.")


def test_missing_dot():
    with pytest.raises(ParseError, match="'\\.'"):
        parse_program("def Bot : Prop := forall (A : Prop), A")


def test_counterexample1_declaration_shape():
    program = load_example("counterexample1").program
    # Bot, Neg, Top, delta, omega, Omega, #check, assume h, #reduce
    assert len(program.declarations) == 9
    kinds = [getattr(d, "kind", type(d).__name__) for d in program.declarations]
    assert kinds == ["def"] * 6 + ["PragmaCheck", "assume", "PragmaReduce"]
    assert program.declarations[7] == EnvEntry(
        "h", parse_term("forall (A : Prop), forall (B : Prop), Eq Prop A B"),
        None, "assume")


def test_def_without_stated_type():
    program = parse_program("def P := forall (A : Prop), A.")
    decl = program.declarations[0]
    assert decl == EnvEntry("P", None, parse_term("forall (A : Prop), A"),
                            "def")


def test_axiom_requires_type():
    with pytest.raises(ParseError):
        parse_program("axiom oops := Prop.")


def test_pragmas_parse():
    program = parse_program("#check Prop.\n#reduce forall (A : Prop), A.")
    assert isinstance(program.declarations[0], PragmaCheck)
    assert isinstance(program.declarations[1], PragmaReduce)


@given(closed_terms)
def test_reprint_reparse_fixed_point(t):
    printed = pretty(t)
    reparsed = parse_term(printed, scope=GLOBAL_POOL)
    assert pretty(reparsed) == printed


def test_all_corpus_sources_reparse():
    from itt import CASE_NAMES
    for name in CASE_NAMES:
        case = load_example(name)
        assert len(case.program.declarations) > 0
        assert parse_program(case.source) == case.program
