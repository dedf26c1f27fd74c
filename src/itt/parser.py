"""Surface-language parser.

Grammar (ASCII keywords; the Unicode aliases forall/∀, ->/→ and fun/λ are
accepted on input, ASCII is emitted on output):

    program  := { decl }
    decl     := "def" NAME [ ":" term ] ":=" term "."
              | "axiom" NAME ":" term "."
              | "assume" NAME ":" term "."
              | "#check" term "."
              | "#reduce" term "."
    term     := "forall" binder "," term | "fun" binder "," term
              | term "->" term            (right associative)
              | app
    app      := atom { atom }             (left associative)
    atom     := NAME | "Prop" | "Type" | "(" term ")"
              | "Eq" atom atom atom | "refl" atom atom
              | "Eq_rec" atom atom atom atom atom atom
              | "cast" atom atom atom atom | "J" atom atom atom
    binder   := "(" NAME ":" term ")"
    comment  := "--" to end of line

The primitive forms must be fully applied; under-application is an arity
error, since the reduction rules only ever match saturated nodes.  Scope is
resolved during parsing: binders become de Bruijn indices, known globals
become Global references, anything else is an unbound-identifier error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .syntax import (
    KIND, PROP, TYPE,
    CHILDREN, PRIMITIVES, App, Global, Lam, Pi, Term, Var, shift,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Def:
    name: str
    stated_type: Term | None
    body: Term


@dataclass(frozen=True)
class Axiom:
    name: str
    type_: Term


@dataclass(frozen=True)
class Assume:
    name: str
    type_: Term


@dataclass(frozen=True)
class PragmaCheck:
    term: Term


@dataclass(frozen=True)
class PragmaReduce:
    term: Term


Declaration = Def | Axiom | Assume | PragmaCheck | PragmaReduce


@dataclass(frozen=True)
class Program:
    declarations: tuple[Declaration, ...]


_SORTS = {s.sort: s for s in (PROP, TYPE, KIND)}
_ATOM_KEYWORDS = {*_SORTS, *PRIMITIVES}
KEYWORDS = {"def", "axiom", "assume", "forall", "fun", *_ATOM_KEYWORDS}

_ALIASES = {"∀": "forall", "λ": "fun"}


class Token(NamedTuple):
    kind: str  # NAME KEYWORD PRAGMA LPAREN RPAREN COLON COLONEQ COMMA DOT ARROW EOF
    value: str
    line: int
    col: int


# One alternative per token kind, tried in order at each offset: longer
# tokens first ("--" before "->", ":=" before ":"); ERROR takes any other
# character.  Only SKIP can contain a newline.  Identifiers are ASCII-only.
_TOKEN_RE = re.compile(r"""
    (?P<SKIP>    [ \t\r\n]+ | --[^\n]* )
  | (?P<PRAGMA>  \#[A-Za-z0-9_]* )
  | (?P<ARROW>   -> | → )
  | (?P<ALIAS>   [∀λ] )
  | (?P<COLONEQ> := )
  | (?P<LPAREN>  \( )
  | (?P<RPAREN>  \) )
  | (?P<COLON>   : )
  | (?P<COMMA>   , )
  | (?P<DOT>     \. )
  | (?P<NAME>    [A-Za-z_][A-Za-z0-9_]* )
  | (?P<ERROR>   . )
""", re.VERBOSE)


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0  # line_start: offset of the current line's first char
    for m in _TOKEN_RE.finditer(src):
        kind, value = m.lastgroup, m.group()
        if kind == "SKIP":
            newline = value.rfind("\n")
            if newline >= 0:
                line += value.count("\n")
                line_start = m.start() + newline + 1
            continue
        col = m.start() - line_start + 1
        if kind == "NAME":
            if value in KEYWORDS:
                kind = "KEYWORD"
        elif kind == "ALIAS":
            kind, value = "KEYWORD", _ALIASES[value]
        elif kind == "ARROW":
            value = "->"
        elif kind == "PRAGMA":
            if value not in ("#check", "#reduce"):
                raise ParseError(f"unknown pragma {value!r}", line, col)
        elif kind == "ERROR":
            raise ParseError(f"unexpected character {value!r}", line, col)
        toks.append(Token(kind, value, line, col))
    toks.append(Token("EOF", "", line, len(src) - line_start + 1))
    return toks


_ATOM_START = {"NAME", "LPAREN"}


class _Parser:
    def __init__(self, toks: list[Token], globals_in_scope: Iterable[str]) -> None:
        self.toks = toks
        self.pos = 0
        self.globals = set(globals_in_scope)
        self.locals: list[str] = []  # innermost last

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def bump(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"expected {what}, found {self.cur.value or 'end of input'!r}",
                self.cur.line, self.cur.col)
        return self.bump()

    def at_atom_start(self) -> bool:
        tok = self.cur
        if tok.kind in _ATOM_START:
            return True
        return tok.kind == "KEYWORD" and tok.value in _ATOM_KEYWORDS

    # term := forall/fun binder "," term | term "->" term | app
    def parse_term(self) -> Term:
        tok = self.cur
        if tok.kind == "KEYWORD" and tok.value in ("forall", "fun"):
            self.bump()
            name, dom = self.parse_binder()
            self.expect("COMMA", "','")
            self.locals.append(name)
            try:
                body = self.parse_term()
            finally:
                self.locals.pop()
            node = Pi if tok.value == "forall" else Lam
            return node(dom, body, name=name)
        lhs = self.parse_app()
        if self.cur.kind == "ARROW":
            self.bump()
            rhs = self.parse_term()
            # non-dependent function space: the binder is unused, so indices
            # in the codomain step over it
            return Pi(lhs, shift(rhs, 0, 1), name="_")
        return lhs

    def parse_binder(self) -> tuple[str, Term]:
        self.expect("LPAREN", "'('")
        name = self.expect("NAME", "binder name").value
        self.expect("COLON", "':'")
        ty = self.parse_term()
        self.expect("RPAREN", "')'")
        return name, ty

    def parse_app(self) -> Term:
        t = self.parse_atom()
        while self.at_atom_start():
            t = App(t, self.parse_atom())
        return t

    def parse_atom(self) -> Term:
        tok = self.cur
        if tok.kind == "LPAREN":
            self.bump()
            t = self.parse_term()
            self.expect("RPAREN", "')'")
            return t
        if tok.kind == "NAME":
            self.bump()
            return self.resolve(tok)
        if tok.kind == "KEYWORD":
            if tok.value in _SORTS:
                self.bump()
                return _SORTS[tok.value]
            if tok.value in PRIMITIVES:
                self.bump()
                return PRIMITIVES[tok.value](*self.parse_prim_args(tok))
        raise ParseError(
            f"expected a term, found {tok.value or 'end of input'!r}",
            tok.line, tok.col)

    def parse_prim_args(self, kw: Token) -> list[Term]:
        want = len(CHILDREN[PRIMITIVES[kw.value]])
        args: list[Term] = []
        for _ in range(want):
            if not self.at_atom_start():
                raise ParseError(
                    f"{kw.value} expects {want} arguments, got {len(args)}",
                    kw.line, kw.col)
            args.append(self.parse_atom())
        return args

    def resolve(self, tok: Token) -> Term:
        for depth, name in enumerate(reversed(self.locals)):
            if name == tok.value:
                return Var(depth)
        if tok.value in self.globals:
            return Global(tok.value)
        raise ParseError(f"unbound identifier {tok.value!r}", tok.line, tok.col)


def parse_term(src: str, scope: Iterable[str] = ()) -> Term:
    """Parse a single term; ``scope`` lists the global names in scope."""
    p = _Parser(tokenize(src), scope)
    t = p.parse_term()
    p.expect("EOF", "end of input")
    return t


def parse_program(src: str) -> Program:
    """Parse a whole program.  A RecursionError from input nested too deeply
    is re-raised with the ``line:col`` of the token the parser had reached."""
    p = _Parser(tokenize(src), ())
    try:
        return _parse_declarations(p)
    except RecursionError as exc:
        exc.args = (f"{p.cur.line}:{p.cur.col}: {exc}",)
        raise


def _parse_declarations(p: _Parser) -> Program:
    decls: list[Declaration] = []
    names: set[str] = set()
    p.globals = names  # live alias: each declaration extends the scope
    while p.cur.kind != "EOF":
        tok = p.cur
        if tok.kind == "KEYWORD" and tok.value in ("def", "axiom", "assume"):
            p.bump()
            name_tok = p.expect("NAME", "declaration name")
            if name_tok.value in names:
                raise ParseError(f"duplicate name {name_tok.value!r}",
                                 name_tok.line, name_tok.col)
            if tok.value == "def":
                stated: Term | None = None
                if p.cur.kind == "COLON":
                    p.bump()
                    stated = p.parse_term()
                p.expect("COLONEQ", "':='")
                body = p.parse_term()
                decls.append(Def(name_tok.value, stated, body))
            else:
                p.expect("COLON", "':'")
                ty = p.parse_term()
                cls = Axiom if tok.value == "axiom" else Assume
                decls.append(cls(name_tok.value, ty))
            names.add(name_tok.value)
        elif tok.kind == "PRAGMA":
            p.bump()
            term = p.parse_term()
            decls.append(PragmaCheck(term) if tok.value == "#check"
                         else PragmaReduce(term))
        else:
            raise ParseError(
                f"expected a declaration, found {tok.value or 'end of input'!r}",
                tok.line, tok.col)
        p.expect("DOT", "'.'")
    return Program(tuple(decls))
