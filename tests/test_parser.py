from __future__ import annotations

import hashlib
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from itt import (
    PROP,
    App, Assume, Def, Global, Lam, ParseError, Pi, PragmaCheck, PragmaReduce,
    Var, alpha_eq, load_example, parse_program, parse_term, pretty,
)
from itt.parser import token_texts, tokenize
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


def test_application_left_associative():
    scope = ("f", "x", "y")
    assert parse_term("f x y", scope) == App(App(Global("f"), Global("x")),
                                             Global("y"))


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


def test_token_stream_is_pinned():
    src = ("-- Church numerals\r\n"
           "def id:∀ (A : Prop), A → A:=\r\n"
           "\tλ (A : Prop), fun (a : A), a.\n"
           "#check id -- trailing\n"
           " axiom x_1 : Prop->Prop.\n")
    got = [(t.kind, t.value, t.line, t.col) for t in tokenize(src)]
    assert got == [
        ("KEYWORD", "def", 2, 1), ("NAME", "id", 2, 5), ("COLON", ":", 2, 7),
        ("KEYWORD", "forall", 2, 8), ("LPAREN", "(", 2, 10),
        ("NAME", "A", 2, 11), ("COLON", ":", 2, 13),
        ("KEYWORD", "Prop", 2, 15), ("RPAREN", ")", 2, 19),
        ("COMMA", ",", 2, 20), ("NAME", "A", 2, 22), ("ARROW", "->", 2, 24),
        ("NAME", "A", 2, 26), ("COLONEQ", ":=", 2, 27),
        ("KEYWORD", "fun", 3, 2), ("LPAREN", "(", 3, 4), ("NAME", "A", 3, 5),
        ("COLON", ":", 3, 7), ("KEYWORD", "Prop", 3, 9),
        ("RPAREN", ")", 3, 13), ("COMMA", ",", 3, 14),
        ("KEYWORD", "fun", 3, 16), ("LPAREN", "(", 3, 20),
        ("NAME", "a", 3, 21), ("COLON", ":", 3, 23), ("NAME", "A", 3, 25),
        ("RPAREN", ")", 3, 26), ("COMMA", ",", 3, 27), ("NAME", "a", 3, 29),
        ("DOT", ".", 3, 30),
        ("PRAGMA", "#check", 4, 1), ("NAME", "id", 4, 8),
        ("KEYWORD", "axiom", 5, 2), ("NAME", "x_1", 5, 8),
        ("COLON", ":", 5, 12), ("KEYWORD", "Prop", 5, 14),
        ("ARROW", "->", 5, 18), ("KEYWORD", "Prop", 5, 20),
        ("DOT", ".", 5, 24),
        ("EOF", "", 6, 1),
    ]
    assert [(t.kind, t.line, t.col) for t in tokenize("a\r\nb")] == [
        ("NAME", 1, 1), ("NAME", 2, 1), ("EOF", 2, 2)]
    assert [(t.kind, t.value) for t in tokenize("x-->y")] == [
        ("NAME", "x"), ("EOF", "")]


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


@given(st.lists(st.sampled_from(EDGE_TEXTS), max_size=30).map("".join))
def test_parser_token_texts_are_the_token_values(src):
    try:
        tokens = tokenize(src)
    except ParseError as err:
        with pytest.raises(ParseError) as again:
            token_texts(src)
        assert ((again.value.message, again.value.line, again.value.col)
                == (err.message, err.line, err.col))
    else:
        assert token_texts(src) == [t.value for t in tokens]
        assert tokens[-1].value == ""


def _outcome(parse, src):
    try:
        return repr(parse(src))
    except ParseError as err:
        return repr((err.message, err.line, err.col))


def test_front_end_outcomes_are_pinned():
    # The digest was computed before the lexer became one findall, so this
    # and any later change to lexing or parsing is checked against it.
    rng = random.Random(15)
    digest = hashlib.sha256()
    for _ in range(20_000):
        src = "".join(rng.choices(EDGE_TEXTS, k=rng.randrange(16)))
        for parse in (parse_program, lambda s: parse_term(s, ("a", "b")),
                      tokenize):
            digest.update(_outcome(parse, src).encode() + b"\0")
    assert digest.hexdigest() == (
        "dfc06949c9c92bbe2fd8c9407152b2c5babd223c418f648d51fccaf4e6c8b4e5")


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
    # The digest was computed before ``parse_term`` and ``parse_program``
    # shared their RecursionError handler, so a change to how a successful
    # parse builds terms is checked against it.
    rng = random.Random(16)
    digest = hashlib.sha256()
    for _ in range(2_000):
        outcome = _outcome(parse_program, _grammar_program(rng))
        assert outcome.startswith("Program(")
        digest.update(outcome.encode() + b"\0")
    assert digest.hexdigest() == (
        "85f8e6454f4b7b6898be71b3c82b26e151af2da1016dcaf482ab95ee52485d42")


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
    kinds = [type(d).__name__ for d in program.declarations]
    assert kinds == ["Def"] * 6 + ["PragmaCheck", "Assume", "PragmaReduce"]
    assert program.declarations[7] == Assume(
        "h", parse_term("forall (A : Prop), forall (B : Prop), Eq Prop A B"))


def test_def_without_stated_type():
    program = parse_program("def P := forall (A : Prop), A.")
    decl = program.declarations[0]
    assert isinstance(decl, Def) and decl.stated_type is None


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
