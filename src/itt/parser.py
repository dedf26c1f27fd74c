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
resolved during parsing: binders become de Bruijn indices (the shared
``var``), a known global becomes the parse's one ``Global`` of its name,
built on its first use, and anything else is an unbound-identifier error.
So every occurrence of a name in one parse is the same object, and
conversion answers two of them by identity.  An arrow ``A -> B`` is
``forall (_ : A), B``: its codomain is parsed under an unnamed binder that
no name resolves to, so the parser's terms are final and nothing rebuilds
them.  A global declaration parses to the ``EnvEntry`` that checking adds
to the environment, its keyword as the entry's kind; a ``def`` without a
stated type has ``type_`` None, and checking adds a new entry in its place.

Lexing: a token is its text.  One ``findall`` of ``_TOKEN_RE`` matches
every token's text and every comment; comments are dropped, EOF's ``""`` is
appended, and the parser walks the list of texts by index; ``_RESERVED``
holds the texts that are not names.  Positions are computed only for an
error: ``_position`` scans again up to a token's index and gives its
``line:col``, for a text that is no token, for a parse error, and for the
token the parser had reached when the input nested too deeply.
"""

from __future__ import annotations

import re
import string
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .env import EnvEntry
# shift: unused, but perfbench/tracing.py wraps it here (ROADMAP item 17)
from .syntax import (
    KIND, PROP, TYPE,
    CHILDREN, PRIMITIVES, App, Global, Lam, Pi, Term, shift, var,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class PragmaCheck:
    """A ``#check`` pragma: infer the type of ``term``."""
    term: Term


@dataclass
class PragmaReduce:
    """A ``#reduce`` pragma: reduce ``term`` under the run's strategy."""
    term: Term


Declaration = EnvEntry | PragmaCheck | PragmaReduce


@dataclass(frozen=True)
class Program:
    """A parsed source file: its declarations in source order."""
    declarations: tuple[Declaration, ...]


_SORTS = {s.sort: s for s in (PROP, TYPE, KIND)}
_ATOM_KEYWORDS = {*_SORTS, *PRIMITIVES}


# The token texts that are not names; EOF's text is "".
_RESERVED = {*_ATOM_KEYWORDS, "def", "axiom", "assume", "forall", "fun", "∀",
             "λ", "#check", "#reduce", "(", ")", ":", ":=", ",", ".", "->",
             "→", ""}
_ASCII = {"∀": "forall", "λ": "fun", "→": "->"}
_NAME_START = frozenset(string.ascii_letters + "_")
# the texts that cannot start an atom, so end an application
_NO_ATOM = _RESERVED - {"(", *_ATOM_KEYWORDS}

# One token's text or one comment, longest first: an arrow or ":=", a name
# or pragma (identifiers are ASCII-only), "--" to the end of the line ("-->"
# too), or any other character but a blank.  No token starts with "--".
_TOKEN_RE = re.compile(r"->|→|:=|[#A-Za-z_][A-Za-z0-9_]*|--[^\n]*|[^ \t\r\n]")


def _lex_error(text: str) -> str | None:
    """Why a captured text is no token, or None if it is one."""
    if text in _RESERVED or text[0] in _NAME_START:
        return None
    return (f"unknown pragma {text!r}" if text[0] == "#"
            else f"unexpected character {text!r}")


def _position(src: str, i: int) -> tuple[int, int]:
    """The ``(line, col)`` of the ``i``-th token of ``src``; EOF's is at
    ``len(src)``."""
    starts = (m.start() for m in _TOKEN_RE.finditer(src) if m[0][:2] != "--")
    start = next(islice(starts, i, None), len(src))
    line_start = src.rfind("\n", 0, start) + 1
    return src.count("\n", 0, start) + 1, start - line_start + 1


def token_texts(src: str) -> list[str]:
    """The text of each token of ``src``: the matches of ``_TOKEN_RE``
    that are no comment, then EOF's "", with the Unicode aliases in ASCII.
    Raises ParseError at the first text that is no token."""
    texts = _TOKEN_RE.findall(src)
    if "--" in src:
        texts = [t for t in texts if t[:2] != "--"]
    texts.append("")
    distinct = set(texts)
    if any(map(_lex_error, distinct - _RESERVED)):
        i, error = next((i, e) for i, e in enumerate(map(_lex_error, texts))
                        if e)
        raise ParseError(error, *_position(src, i))
    if not distinct.isdisjoint(_ASCII):
        texts = [_ASCII.get(t, t) for t in texts]
    return texts


class _Failure(Exception):
    """A parse error at a token index; its ``line:col`` is computed by
    ``_positioned`` once the parser's frames are gone."""


class _Parser:
    def __init__(self, toks: list[str], globals_in_scope: Iterable[str]) -> None:
        self.toks = toks
        self.pos = 0
        # each global name in scope, and its one Global once a use built it
        self.globals: dict[str, Global | None] = dict.fromkeys(globals_in_scope)
        self.depth = 0  # the number of enclosing binders, arrows included
        self.scope: dict[str, int | None] = {}  # name -> depth of its binder

    def found(self, what: str) -> _Failure:
        tok = self.toks[self.pos]
        return _Failure(f"expected {what}, found {tok or 'end of input'!r}",
                        self.pos)

    def expect(self, text: str, what: str) -> None:
        if self.toks[self.pos] != text:
            raise self.found(what)
        self.pos += 1

    def name(self, what: str) -> str:
        tok = self.toks[self.pos]
        if tok in _RESERVED:
            raise self.found(what)
        self.pos += 1
        return tok

    # term := forall/fun binder "," term | term "->" term | app
    def parse_term(self) -> Term:
        tok = self.toks[self.pos]
        if tok == "forall" or tok == "fun":
            self.pos += 1
            name, dom = self.parse_binder()
            self.expect(",", "','")
            self.depth += 1
            outer, self.scope[name] = self.scope.get(name), self.depth
            body = self.parse_term()
            self.depth -= 1
            self.scope[name] = outer
            node = Pi if tok == "forall" else Lam
            return node(dom, body, name=name)
        lhs = self.parse_app()
        if self.toks[self.pos] == "->":
            self.pos += 1
            self.depth += 1  # the arrow's binder, which no name uses
            rhs = self.parse_term()
            self.depth -= 1
            return Pi(lhs, rhs, name="_")
        return lhs

    def parse_binder(self) -> tuple[str, Term]:
        self.expect("(", "'('")
        name = self.name("binder name")
        self.expect(":", "':'")
        ty = self.parse_term()
        self.expect(")", "')'")
        return name, ty

    def parse_app(self) -> Term:
        t = self.parse_atom()
        while self.toks[self.pos] not in _NO_ATOM:
            t = App(t, self.parse_atom())
        return t

    def parse_atom(self) -> Term:
        tok = self.toks[self.pos]
        if tok == "(":
            self.pos += 1
            t = self.parse_term()
            self.expect(")", "')'")
            return t
        if tok not in _RESERVED:
            self.pos += 1
            return self.resolve(tok)
        if tok in _SORTS:
            self.pos += 1
            return _SORTS[tok]
        if tok in PRIMITIVES:
            self.pos += 1
            return PRIMITIVES[tok](*self.parse_prim_args(tok))
        raise self.found("a term")

    def parse_prim_args(self, kw: str) -> list[Term]:
        at = self.pos - 1
        want = len(CHILDREN[PRIMITIVES[kw]])
        args: list[Term] = []
        for _ in range(want):
            if self.toks[self.pos] in _NO_ATOM:
                raise _Failure(f"{kw} expects {want} arguments, got {len(args)}",
                               at)
            args.append(self.parse_atom())
        return args

    def resolve(self, name: str) -> Term:
        if (bound := self.scope.get(name)) is not None:
            return var(self.depth - bound)
        if (leaf := self.globals.get(name)) is None:
            if name not in self.globals:
                raise _Failure(f"unbound identifier {name!r}", self.pos - 1)
            leaf = self.globals[name] = Global(name)
        return leaf


@contextmanager
def _positioned(src: str, p: _Parser) -> Iterator[None]:
    """Give the parse run inside the block its positions: a ``_Failure``
    becomes a ``ParseError`` at its token, and a RecursionError from input
    nested too deeply is re-raised with the ``line:col`` of the token the
    parser had reached."""
    try:
        yield
    except _Failure as failure:
        message, at = failure.args
        raise ParseError(message, *_position(src, at)) from None
    except RecursionError as exc:
        line, col = _position(src, p.pos)
        exc.args = (f"{line}:{col}: {exc}",)
        raise


def parse_term(src: str, scope: Iterable[str] = ()) -> Term:
    """Parse a single term; ``scope`` lists the global names in scope.
    Errors are positioned as in ``parse_program``."""
    p = _Parser(token_texts(src), scope)
    with _positioned(src, p):
        t = p.parse_term()
        p.expect("", "end of input")
    return t


def parse_program(src: str) -> Program:
    """Parse a whole program.  A RecursionError from input nested too deeply
    is re-raised with the ``line:col`` of the token the parser had reached."""
    p = _Parser(token_texts(src), ())
    with _positioned(src, p):
        return _parse_declarations(p)


def _parse_declarations(p: _Parser) -> Program:
    decls: list[Declaration] = []
    toks = p.toks
    while (tok := toks[p.pos]) != "":
        if tok in ("def", "axiom", "assume"):
            p.pos += 1
            name = p.name("declaration name")
            if name in p.globals:
                raise _Failure(f"duplicate name {name!r}", p.pos - 1)
            ty = body = None
            if tok != "def" or toks[p.pos] == ":":
                p.expect(":", "':'")
                ty = p.parse_term()
            if tok == "def":
                p.expect(":=", "':='")
                body = p.parse_term()
            decls.append(EnvEntry(name, ty, body, tok))
            p.globals[name] = None  # in scope from the next declaration
        elif tok == "#check" or tok == "#reduce":
            p.pos += 1
            term = p.parse_term()
            decls.append(PragmaCheck(term) if tok == "#check"
                         else PragmaReduce(term))
        else:
            raise p.found("a declaration")
        p.expect(".", "'.'")
    return Program(tuple(decls))
