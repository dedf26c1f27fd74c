"""Core term syntax.

Terms use de Bruijn indices, so structural equality of well-scoped terms is
alpha-equivalence.  Binder names are kept on ``Pi``/``Lam`` nodes for display
only and are excluded from comparison and hashing.  A node's hash is
structural and memoized on the node (``Term.__hash__``), so terms are cheap
dictionary keys.

The equality primitives (``Eq``, ``Refl``, ``EqRec``), the coercion ``Cast``
and the type-equality decider ``J`` are dedicated node forms rather than
applied constants: their reduction rules match saturated forms, so dedicated
nodes make rule firing unambiguous.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence


class ScopeError(Exception):
    """Internal invariant violation: an index adjustment went negative."""


@dataclass(frozen=True)
class Term:
    def __str__(self) -> str:
        return pretty(self)

    def __hash__(self) -> int:
        """Structural hash, equal for alpha-equal terms (binder names are
        excluded, as ``==`` excludes them).  Memoized by the walk that
        ``canonical_key`` uses: a hash costs only the nodes not hashed
        before, and it is computed without recursion, so deep terms are
        fine."""
        memo = self.__dict__.get(_HASH)
        return _memo_fold(self, _HASH, hash) if memo is None else memo

    def __init_subclass__(cls) -> None:
        # Set before @dataclass runs, which then keeps it rather than
        # generating a recursive field-by-field hash.
        cls.__hash__ = Term.__hash__


@dataclass(frozen=True)
class Var(Term):
    index: int


@dataclass(frozen=True)
class SortT(Term):
    sort: str  # "Prop" | "Type" | "Kind"


# The three sorts.  A sort built elsewhere is equal to one of these but need
# not be the same object, so compare sorts with ``==``.
PROP = SortT("Prop")
TYPE = SortT("Type")
KIND = SortT("Kind")


@dataclass(frozen=True)
class Pi(Term):
    domain: Term
    codomain: Term  # binds one variable
    name: str = field(default="_", compare=False)


@dataclass(frozen=True)
class Lam(Term):
    domain: Term
    body: Term  # binds one variable
    name: str = field(default="_", compare=False)


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Global(Term):
    name: str


@dataclass(frozen=True)
class Eq(Term):
    ty: Term
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Refl(Term):
    ty: Term
    val: Term


@dataclass(frozen=True)
class EqRec(Term):
    ty: Term
    motive: Term
    lhs: Term
    rhs: Term
    base: Term
    proof: Term


@dataclass(frozen=True)
class Cast(Term):
    src: Term
    dst: Term
    proof: Term
    val: Term


@dataclass(frozen=True)
class J(Term):
    src: Term
    dst: Term
    val: Term


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
    """Alpha-equivalence.  Literal structural equality under de Bruijn
    representation; display names are excluded from dataclass comparison."""
    return t1 == t2


# Subterm fields of each node in declaration order, which is also surface
# order, each flagged when the child sits under the node's binder.  Rebuilding
# passes children positionally, so the order must match the dataclass.
CHILDREN: dict[type, tuple[tuple[str, bool], ...]] = {
    Var: (), SortT: (), Global: (),
    Pi: (("domain", False), ("codomain", True)),
    Lam: (("domain", False), ("body", True)),
    App: (("fn", False), ("arg", False)),
    Eq: (("ty", False), ("lhs", False), ("rhs", False)),
    Refl: (("ty", False), ("val", False)),
    EqRec: (("ty", False), ("motive", False), ("lhs", False), ("rhs", False),
            ("base", False), ("proof", False)),
    Cast: (("src", False), ("dst", False), ("proof", False), ("val", False)),
    J: (("src", False), ("dst", False), ("val", False)),
}

# Surface keyword of each saturated primitive form; its arity is the number
# of the node's children.
PRIMITIVES: dict[str, type] = {
    "Eq": Eq, "refl": Refl, "Eq_rec": EqRec, "cast": Cast, "J": J,
}
_KEYWORD = {cls: kw for kw, cls in PRIMITIVES.items()}


def subterms(t: Term) -> Iterator[Term]:
    """All subterm children of ``t`` (not recursive)."""
    return (getattr(t, attr) for attr, _ in CHILDREN[type(t)])


def _map_vars(t: Term, depth: int, on_var: Callable[[Var, int], Term]) -> Term:
    """``t`` with each ``Var`` whose index is at least ``depth`` replaced by
    ``on_var(var, depth)``, where ``depth`` starts at the given value and
    grows by one under each binder.  A node none of whose children changed
    is returned itself, not a copy."""
    cls = type(t)
    if cls is Var:
        return on_var(t, depth) if t.index >= depth else t
    kids = []
    changed = False
    for attr, under in CHILDREN[cls]:
        old = getattr(t, attr)
        new = _map_vars(old, depth + under, on_var)
        changed = changed or new is not old
        kids.append(new)
    if not changed:
        return t
    if cls is Pi or cls is Lam:
        return cls(*kids, name=t.name)
    return cls(*kids)


def shift(t: Term, cutoff: int = 0, amount: int = 1) -> Term:
    """Adjust free indices >= cutoff by ``amount``; bound structure unchanged."""
    def moved(v: Var, depth: int) -> Term:
        if v.index + amount < 0:
            raise ScopeError(f"shift would send index {v.index} below zero")
        return Var(v.index + amount)

    return _map_vars(t, cutoff, moved)


def subst(t: Term, target: int, value: Term) -> Term:
    """Replace ``Var(target)`` by ``value``; indices above ``target`` drop by one.

    ``value`` is shifted across the binders above each occurrence, once per
    binder depth that has one."""
    shifted: dict[int, Term] = {target: value}

    def replaced(v: Var, depth: int) -> Term:
        if v.index > depth:
            return Var(v.index - 1)
        if depth not in shifted:
            shifted[depth] = shift(value, 0, depth - target)
        return shifted[depth]

    return _map_vars(t, target, replaced)


def has_free_var(t: Term, lo: int = 0, hi: int | None = None) -> bool:
    """Does a free index in ``[lo, hi)`` occur in ``t``?  No ``hi``: no bound."""
    todo = [(t, 0)]
    while todo:
        cur, depth = todo.pop()
        if type(cur) is Var:
            if lo <= cur.index - depth and (hi is None or cur.index - depth < hi):
                return True
        else:
            todo.extend((getattr(cur, a), depth + u) for a, u in CHILDREN[type(cur)])
    return False


def collect_globals(t: Term) -> set[str]:
    out: set[str] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Global):
            out.add(cur.name)
        stack.extend(subterms(cur))
    return out


# Memo slots in a node's __dict__, outside its fields: equality is
# unchanged, and a node built by ``dataclasses.replace`` starts without them.
_HASH = "_hash"
_DIGEST = "_digest"

# The compared field of each leaf; other nodes compare only their children.
_PAYLOAD = {Var: "index", SortT: "sort", Global: "name"}


def _memo_fold(t: Term, slot: str, combine: Callable[[tuple], object]) -> object:
    """``combine`` of ``t``'s signature: its class followed by its leaf
    payload or by its children's values, each child's value being its own
    fold.  Children are folded first, without recursion, and each value is
    memoized in its node's ``slot``, so a fold costs only the nodes not
    folded before."""
    todo = [t]
    while todo:
        cur = todo[-1]
        memo = cur.__dict__
        if slot in memo:  # a shared child, reached twice
            todo.pop()
            continue
        cls = type(cur)
        attrs = CHILDREN[cls]
        if attrs:
            kids = [memo[a].__dict__.get(slot) for a, _ in attrs]
            if None in kids:  # fold the children first
                todo.extend([memo[a] for (a, _), v in zip(attrs, kids) if v is None])
                continue
            memo[slot] = combine((cls, *kids))
        else:
            memo[slot] = combine((cls, memo[_PAYLOAD[cls]]))
        todo.pop()
    return t.__dict__[slot]


_TAGS = {
    Var: b"V", SortT: b"S", Pi: b"P", Lam: b"L", App: b"A", Global: b"G",
    Eq: b"E", Refl: b"R", EqRec: b"Q", Cast: b"C", J: b"J",
}


def _digest(signature: tuple) -> bytes:
    cls, *rest = signature
    h = hashlib.sha256(_TAGS[cls])
    for part in rest:  # a leaf's payload, or the children's digests
        h.update(str(part).encode() if cls in _PAYLOAD else part)
    return h.digest()


def canonical_key(t: Term) -> str:
    """Fixed-width digest equal for alpha-equal terms, and stable across
    processes, unlike ``hash``.

    A SHA-256 Merkle digest of each node's tag, payload and child digests,
    memoized on the node like its hash, so a key costs only the nodes not
    keyed before.  It is the ``key`` of a JSON trace step and is checked by
    replay; cycle detection does not use it (see ``reduce.CycleDetector``).
    """
    return _memo_fold(t, _DIGEST, _digest).hex()


# --- pretty printing -------------------------------------------------------
#
# Precedence positions, loosest to tightest.  A construct parenthesizes
# itself when printed at a position tighter than its own level.
_TERM, _ARROW, _APP, _ATOM = 0, 1, 2, 3


def _fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    k = 1
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def pretty(t: Term) -> str:
    """Render ``t`` in the surface syntax; ``parse_term(pretty(t))`` is
    alpha-equal to ``t``.

    Binder names that would shadow an enclosing name or a referenced global
    are freshened with a numeric suffix.  A free variable has no name to
    print; it shows as ``_x<k>``, where ``k`` is its index at the top level.
    """
    taken = collect_globals(t)
    stack: list[str] = []

    def var_name(i: int) -> str:
        if i < len(stack):
            return stack[-(i + 1)]
        return f"_x{i - len(stack)}"

    def go(t: Term, pos: int) -> str:
        match t:
            case Var(i):
                return var_name(i)
            case SortT(n) | Global(n):
                return n
            case Pi(d, c, name=n):
                if not has_free_var(c, 0, 1):
                    dom = go(d, _APP)
                    stack.append("_")  # codomain sits under the unused binder
                    try:
                        cod = go(c, _ARROW)
                    finally:
                        stack.pop()
                    s = f"{dom} -> {cod}"
                    return f"({s})" if pos > _ARROW else s
                return binder("forall", n, d, c, pos)
            case Lam(d, b, name=n):
                return binder("fun", n, d, b, pos)
            case App(f, a):
                s = f"{go(f, _APP)} {go(a, _ATOM)}"
                return f"({s})" if pos > _APP else s
        kw = _KEYWORD.get(type(t))
        if kw is None:
            raise ScopeError(f"pretty: unknown node {t!r}")
        s = " ".join([kw, *(go(a, _ATOM) for a in subterms(t))])
        return f"({s})" if pos > _APP else s

    def binder(kw: str, name: str, d: Term, body: Term, pos: int) -> str:
        shown = _fresh_name(name or "_", taken)
        dom = go(d, _TERM)
        taken.add(shown)
        stack.append(shown)
        try:
            s = f"{kw} ({shown} : {dom}), {go(body, _TERM)}"
        finally:
            stack.pop()
            taken.discard(shown)
        return f"({s})" if pos > _TERM else s

    return go(t, _TERM)
