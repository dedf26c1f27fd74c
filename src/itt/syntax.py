"""Core term syntax.

Terms use de Bruijn indices, so structural equality of well-scoped terms is
alpha-equivalence.  Binder names are kept on ``Pi``/``Lam`` nodes for display
only and are excluded from comparison and hashing.  A term has one
structural fingerprint: a SHA-256 Merkle digest, memoized on each node and
computed without recursion.  It gives both ``canonical_key`` and the hash
(``Term.__hash__``), so terms are cheap dictionary keys.

The equality primitives (``Eq``, ``Refl``, ``EqRec``), the coercion ``Cast``
and the type-equality decider ``J`` are dedicated node forms rather than
applied constants: their reduction rules match saturated forms, so dedicated
nodes make rule firing unambiguous.

A node's class statement is the one declaration of its shape.  Its fields
declared ``Term`` are its children, and the one under its binder is marked
``binds``.  Its class keywords give its digest tag and, for a primitive form,
its surface keyword.  ``CHILDREN``, ``PRIMITIVES`` and the digest's tables
are derived from these, and so are a node's methods: ``Term`` gives every
node its ``repr``, its hash and its frozenness, and ``_compile_nodes`` gives
each node class its own ``__init__`` and ``__eq__``.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from typing import Callable, Iterator, Sequence


class ScopeError(Exception):
    """Internal invariant violation: an index adjustment went negative."""


# Filled by each node's class statement: its digest tag, and for a saturated
# primitive form its surface keyword (its arity is its number of children).
_TAGS: dict[type, bytes] = {}
PRIMITIVES: dict[str, type] = {}


class Term:
    """The base of every node class.  A node behaves as an instance of a
    frozen dataclass, but its class costs less to make: a ``dataclass`` call
    that generates no method registers it, so ``dataclasses.fields`` and
    ``replace`` and ``__match_args__`` work on it; its ``repr``, frozenness
    and hash are ``Term``'s; and ``_compile_nodes`` gives it an ``__init__``
    and an ``__eq__`` of its own."""

    def __str__(self) -> str:
        return pretty(self)

    def __repr__(self) -> str:
        args = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return f"{type(self).__qualname__}({args})"

    def __hash__(self) -> int:
        """The hash of the node's digest (``canonical_key``), so equal for
        alpha-equal terms (binder names are excluded, as ``==`` excludes
        them), and as cheap and as safe on deep terms as the digest."""
        return hash(self.__dict__.get(_DIGEST) or _digest(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __init_subclass__(cls, tag: bytes, keyword: str | None = None) -> None:
        # A node class has a docstring, which spares it the one that this
        # call would build from ``inspect.signature``.
        dataclass(init=False, repr=False, eq=False)(cls)
        _TAGS[cls] = tag
        if keyword is not None:
            PRIMITIVES[keyword] = cls


class Var(Term, tag=b"V"):
    """A bound variable: ``index`` counts the binders between it and its own."""
    index: int


class _Vars(dict):
    """The shared ``Var`` of each index, built on first use."""

    def __missing__(self, index: int) -> Var:
        v = self[index] = Var(index)
        return v


# ``var(i)`` is the one shared ``Var(i)``, so a variable's digest is computed
# once per index.  A ``Var`` built elsewhere is equal to the shared one but
# need not be it, so compare variables with ``==``, as sorts.  A dict's own
# lookup is used because it is cheaper per hit than ``functools.cache``.
var: Callable[[int], Var] = _Vars().__getitem__


class SortT(Term, tag=b"S"):
    """A sort: ``Prop``, ``Type`` or ``Kind``."""
    sort: str  # "Prop" | "Type" | "Kind"


class Pi(Term, tag=b"P"):
    """The dependent function type ``forall (name : domain), codomain``."""
    domain: Term
    codomain: Term = field(metadata={"binds": True})
    name: str = field(default="_", compare=False)


class Lam(Term, tag=b"L"):
    """The function ``fun (name : domain), body``."""
    domain: Term
    body: Term = field(metadata={"binds": True})
    name: str = field(default="_", compare=False)


class App(Term, tag=b"A"):
    """The application of ``fn`` to ``arg``."""
    fn: Term
    arg: Term


class Global(Term, tag=b"G"):
    """A declared name: an axiom, an assumption or a definition."""
    name: str


class Eq(Term, tag=b"E", keyword="Eq"):
    """The proposition ``Eq ty lhs rhs`` that two elements of ``ty`` are equal."""
    ty: Term
    lhs: Term
    rhs: Term


class Refl(Term, tag=b"R", keyword="refl"):
    """The proof ``refl ty val`` that ``val`` equals itself."""
    ty: Term
    val: Term


class EqRec(Term, tag=b"Q", keyword="Eq_rec"):
    """``Eq_rec``: ``base : motive lhs`` carried along ``proof`` to ``motive rhs``."""
    ty: Term
    motive: Term
    lhs: Term
    rhs: Term
    base: Term
    proof: Term


class Cast(Term, tag=b"C", keyword="cast"):
    """The coercion of ``val : src`` to ``dst`` along ``proof : Eq Prop src dst``."""
    src: Term
    dst: Term
    proof: Term
    val: Term


class J(Term, tag=b"J", keyword="J"):
    """The coercion of ``val : src`` to ``dst``, without evidence."""
    src: Term
    dst: Term
    val: Term


def _compile_nodes() -> None:
    """Give each node class the ``__init__`` and ``__eq__`` that
    ``@dataclass(frozen=True)`` would write, compiled for all classes in one
    ``exec`` rather than five per class.  Each class keeps code of its own:
    functions shared by the classes of one arity were slower to call."""
    src = []
    for cls in _TAGS:
        fs = fields(cls)
        params = [f.name if f.default is MISSING else f"{f.name}={f.default!r}" for f in fs]
        mine, theirs = ("".join(f"{who}.{f.name}, " for f in fs if f.compare)
                        for who in ("self", "other"))
        src += [f"class {cls.__name__}:",  # a stand-in, for the qualified names
                f"  def __init__(self, {', '.join(params)}):",
                *(f"    _set(self, {f.name!r}, {f.name})" for f in fs),
                "  def __eq__(self, other):",
                "    if other.__class__ is self.__class__:",
                f"      return ({mine}) == ({theirs})",
                "    return NotImplemented"]
    made: dict = {"_set": object.__setattr__}
    exec("\n".join(src), made)
    for cls in _TAGS:
        cls.__init__, cls.__eq__ = made[cls.__name__].__init__, made[cls.__name__].__eq__


_compile_nodes()

# The three sorts.  A sort built elsewhere is equal to one of these but need
# not be the same object, so compare sorts with ``==``.
PROP = SortT("Prop")
TYPE = SortT("Type")
KIND = SortT("Kind")

# The fields declared ``Term`` of each node, in declaration order (which is
# surface order), each flagged when it sits under the node's binder.
CHILDREN: dict[type, tuple[tuple[str, bool], ...]] = {
    cls: tuple((f.name, f.metadata.get("binds", False)) for f in fields(cls)
               if f.type == "Term")
    for cls in _TAGS
}
# The one field of each leaf, its compared payload.
_PAYLOAD = {cls: fields(cls)[0].name for cls, kids in CHILDREN.items() if not kids}
_KEYWORD = {cls: kw for kw, cls in PRIMITIVES.items()}


def unwind_apps(t: Term) -> tuple[Term, list[Term]]:
    """Split an application spine into (head, arguments outermost-last)."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def build_apps(head: Term, args: Sequence[Term]) -> Term:
    for a in args:
        head = App(head, a)
    return head


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Alpha-equivalence: structural equality under de Bruijn indices, binder
    names excluded.  It is ``==``, whose ``__eq__`` (``_compile_nodes``)
    compares the fields recursively, unless that overflows the stack; then
    the same comparison runs from an explicit stack of node pairs, so it
    answers at any depth.  Per pair: the same object, else the class, a
    leaf's payload, then children in ``CHILDREN`` order."""
    try:
        return t1 == t2
    except RecursionError:
        pass
    todo = [(t1, t2)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        cls = type(a)
        if cls is not type(b):
            return False
        if not (kids := CHILDREN[cls]):
            if getattr(a, _PAYLOAD[cls]) != getattr(b, _PAYLOAD[cls]):
                return False
        todo.extend((getattr(a, k), getattr(b, k)) for k, _ in reversed(kids))
    return True


def subterms(t: Term) -> Iterator[Term]:
    """All subterm children of ``t`` (not recursive)."""
    return (getattr(t, attr) for attr, _ in CHILDREN[type(t)])


def rebuild(t: Term, kids: Sequence[Term]) -> Term:
    """A node of ``t``'s class with children ``kids``, in ``CHILDREN`` order,
    and ``t``'s binder name if it has one.  One constructor call, and the
    new node starts without a digest."""
    cls = type(t)
    if cls is Pi or cls is Lam:
        return cls(*kids, name=t.name)
    return cls(*kids)


def _map_vars(t: Term, depth: int, on_var: Callable[[Var, int], Term]) -> Term:
    """``t`` with each ``Var`` whose index is at least ``depth`` replaced by
    ``on_var(var, depth)``, where ``depth`` starts at the given value and
    grows by one under each binder.  A node none of whose children changed
    is returned itself, not a copy."""
    cls = type(t)
    if cls is Var:
        return on_var(t, depth) if t.index >= depth else t
    if cls is App:  # the commonest node: two children and no binder
        fn = _map_vars(t.fn, depth, on_var)
        arg = _map_vars(t.arg, depth, on_var)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    attrs = CHILDREN[cls]
    if not attrs:
        return t
    kids = []
    changed = False
    for attr, under in attrs:
        old = getattr(t, attr)
        new = _map_vars(old, depth + under, on_var)
        changed = changed or new is not old
        kids.append(new)
    return rebuild(t, kids) if changed else t


def shift(t: Term, cutoff: int = 0, amount: int = 1) -> Term:
    """Adjust free indices >= cutoff by ``amount``; bound structure unchanged."""
    def moved(v: Var, depth: int) -> Term:
        if v.index + amount < 0:
            raise ScopeError(f"shift would send index {v.index} below zero")
        return var(v.index + amount)

    return _map_vars(t, cutoff, moved)


def subst(t: Term, target: int, value: Term) -> Term:
    """Replace ``Var(target)`` by ``value``; indices above ``target`` drop by one.

    ``value`` is shifted across the binders above each occurrence, once per
    binder depth that has one."""
    shifted: dict[int, Term] = {target: value}

    def replaced(v: Var, depth: int) -> Term:
        if v.index > depth:
            return var(v.index - 1)
        if depth not in shifted:
            shifted[depth] = shift(value, 0, depth - target)
        return shifted[depth]

    return _map_vars(t, target, replaced)


# The digest's memo slot in a node's __dict__, outside its fields: equality
# is unchanged, and a node built anew, by ``rebuild`` too, starts without it.
_DIGEST = "_digest"


def _digest(t: Term) -> bytes:
    """SHA-256 of ``t``'s tag followed by its leaf payload or by its
    children's digests.  Children are digested first, without recursion, and
    each digest is memoized in its node's ``_DIGEST`` slot, so a digest costs
    only the nodes not digested before."""
    todo = [t]
    while todo:
        cur = todo[-1]
        memo = cur.__dict__
        if _DIGEST in memo:  # a shared child, reached twice
            todo.pop()
            continue
        cls = type(cur)
        attrs = CHILDREN[cls]
        if attrs:
            kids = [memo[a].__dict__.get(_DIGEST) for a, _ in attrs]
            if None in kids:  # digest the children first
                todo.extend([memo[a] for (a, _), d in zip(attrs, kids) if d is None])
                continue
            body = b"".join(kids)
        else:
            body = str(memo[_PAYLOAD[cls]]).encode()
        memo[_DIGEST] = hashlib.sha256(_TAGS[cls] + body).digest()
        todo.pop()
    return t.__dict__[_DIGEST]


def canonical_key(t: Term) -> str:
    """Fixed-width digest equal for alpha-equal terms, and stable across
    processes, unlike ``hash``.

    The hex form of a SHA-256 Merkle digest of each node's tag, payload and
    child digests, memoized on the node, so a key costs only the nodes not
    keyed before.  It is the ``key`` of a JSON trace step and what replay
    compares; a term's hash is the hash of the same digest.
    """
    return _digest(t).hex()


# --- pretty printing -------------------------------------------------------
#
# Precedence positions, loosest to tightest.  A construct parenthesizes
# itself when printed at a position tighter than its own level.
_TERM, _ARROW, _APP, _ATOM = 0, 1, 2, 3


def _print_scan(t: Term) -> tuple[set[str], set[int]]:
    """The global names in ``t``, and the ids of its ``Pi`` nodes whose
    binder no variable refers to, which print as arrows.

    One depth-first walk by an explicit stack.  ``binders[k]`` is set to the
    binder at binder depth ``k`` when the walk enters that binder's bound
    child; depth-first order keeps every slot below the current depth on the
    current path, so ``Var(i)`` at depth ``d`` refers to ``binders[d-1-i]``.
    """
    names: set[str] = set()
    pis: list[Term] = []
    used: set[int] = set()
    binders: list[Term] = []
    todo: list[tuple[Term, int, Term | None]] = [(t, 0, None)]
    while todo:
        cur, depth, binder = todo.pop()
        if binder is not None:  # cur is binder's bound child
            if depth > len(binders):
                binders.append(binder)
            else:
                binders[depth - 1] = binder
        cls = type(cur)
        if cls is Var:
            if cur.index < depth:
                used.add(id(binders[depth - 1 - cur.index]))
        elif cls is Global:
            names.add(cur.name)
        else:
            if cls is Pi:
                pis.append(cur)
            for attr, under in CHILDREN[cls]:
                if under:
                    todo.append((getattr(cur, attr), depth + 1, cur))
                else:
                    todo.append((getattr(cur, attr), depth, None))
    return names, {id(p) for p in pis if id(p) not in used}


def pretty(t: Term) -> str:
    """Render ``t`` in the surface syntax; ``parse_term(pretty(t))`` is
    alpha-equal to ``t``.

    Binder names that would shadow an enclosing name or a referenced global
    are freshened with a numeric suffix.  A free variable has no name to
    print; it shows as ``_x<k>``, where ``k`` is its index at the top level.
    One pre-pass finds the globals and the arrows, so each node is visited
    twice, not once more for each ``Pi`` above it.
    """
    taken, arrows = _print_scan(t)
    stack: list[str] = []
    # base name -> the suffix a binder tries first (0: none); every lower one
    # is taken, by a global or an enclosing binder
    first: dict[str, int] = {}

    def go(t: Term, pos: int) -> str:
        cls = type(t)
        if cls is App:
            s = f"{go(t.fn, _APP)} {go(t.arg, _ATOM)}"
            return f"({s})" if pos > _APP else s
        if cls is Var:
            i = t.index
            return stack[-(i + 1)] if i < len(stack) else f"_x{i - len(stack)}"
        if cls is Global:
            return t.name
        if cls is SortT:
            return t.sort
        if cls is Pi:
            if id(t) in arrows:
                dom = go(t.domain, _APP)
                stack.append("_")  # codomain sits under the unused binder
                try:
                    cod = go(t.codomain, _ARROW)
                finally:
                    stack.pop()
                s = f"{dom} -> {cod}"
                return f"({s})" if pos > _ARROW else s
            return binder("forall", t.name, t.domain, t.codomain, pos)
        if cls is Lam:
            return binder("fun", t.name, t.domain, t.body, pos)
        kw = _KEYWORD.get(cls)
        if kw is None:
            raise ScopeError(f"pretty: unknown node {t!r}")
        s = " ".join([kw, *(go(a, _ATOM) for a in subterms(t))])
        return f"({s})" if pos > _APP else s

    def binder(kw: str, name: str, d: Term, body: Term, pos: int) -> str:
        base = name or "_"
        outer = k = first.get(base, 0)
        shown = f"{base}{k or ''}"
        while shown in taken:  # freshen: the smallest suffix not taken
            k += 1
            shown = f"{base}{k}"
        dom = go(d, _TERM)
        taken.add(shown)
        first[base] = k + 1
        stack.append(shown)
        try:
            s = f"{kw} ({shown} : {dom}), {go(body, _TERM)}"
        finally:
            stack.pop()
            taken.discard(shown)
            first[base] = outer
        return f"({s})" if pos > _TERM else s

    return go(t, _TERM)
