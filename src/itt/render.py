"""Printing a trace's snapshots for what each step changed.

Consecutive snapshots of a run of steps at one spine share everything but
the spine: its frame, the path from the spine to the root with the
subterms beside it.  ``texts`` prints a deep frame once, around a hole at
the spine, and then each step's spine alone, in the names and precedence
recorded at the hole; ``key`` keys such a step up its frame, without
building its snapshot.
"""

from __future__ import annotations

import sys
from hashlib import sha256
from typing import Any, Iterator

from .reduce import Frame, TraceStep, _with_child
from .syntax import (
    _DIGEST, _FREE, _NAMES, _NO_NAMES, _TAGS, _TERM, CHILDREN, App, Pi, SortT,
    _digest, _show,
)

# The spine's place in a frame printed with a hole: a sort that prints as
# NUL, a character no parsed name holds.  It is keyed once, so that a Pi
# whose codomain is the hole reads its facts.
_HOLE = SortT("\0")
_digest(_HOLE)
_BOUND = frozenset(a for kids in CHILDREN.values() for a, under in kids if under)
# A frame this many levels deep, or more, is printed once per run of steps.
# A shallower one prints again for less than a cut costs: cutting every
# frame made paper-loops, whose frames are at most 6 levels deep, about 5%
# slower.
_CUT_LEVELS = 8


def _depth(f: Any) -> int:
    """The number of frames from ``f`` to the bottom of the stack."""
    n = 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


def _cut(frame: Frame, spine_names: frozenset[str]) -> tuple:
    """``frame`` printed once around a hole at the spine, for snapshots whose
    spine has the global names ``spine_names``: the frame's names, the
    snapshot's, the mask of the enclosing binders that are arrow ``Pi``s,
    the text before and after the hole, the printing context at the hole,
    and how many more stack frames the hole sat under than a print of the
    spine by the caller would."""
    depth = _depth(sys._getframe(1)) + 2  # the caller's _show, then go
    # The path is rebuilt around the hole, and each new node gets the facts
    # the key walk would fold from its children, but no digest: no key is
    # read of a frame with a hole.
    t, free, names, arrows, binders = _HOLE, 0, _NO_NAMES, 0, 0
    while frame is not None:
        node, attr, frame = frame
        t = _with_child(node, attr, t)
        if attr in _BOUND:
            if type(t) is Pi and not free & 1:
                arrows |= 1 << binders
            free, binders = free >> 1, binders + 1
        for name, under in CHILDREN[type(t)]:
            if name != attr:
                _digest(kid := getattr(t, name))
                free |= vars(kid)[_FREE] >> under
                if (more := vars(kid)[_NAMES]) is not names and more:
                    names = more if not names or names <= more else (
                        names if more <= names else names | more)
        vars(t)[_FREE], vars(t)[_NAMES] = free, names
    names = names | spine_names
    at: list = []

    def record(pos: int, taken: set[str], stack: list[str],
               first: dict[str, int]) -> None:
        at.extend(((pos, taken.copy(), stack.copy(), first.copy()),
                   _depth(sys._getframe(1)) - depth))

    text = _show(t, _TERM, set(names), [], {}, _HOLE, record)
    before, _, after = text.partition("\0")
    if "\0" in after:  # a name holds NUL: no reuse
        before = None
    return vars(t)[_NAMES], names, arrows, before, after, *at


def texts(steps: list[TraceStep]) -> Iterator[str]:
    """Each step's ``text``.  A run of steps at a frame ``_CUT_LEVELS`` or
    more levels deep prints the frame once, around a hole at the spine
    (``_cut``); each of its steps prints only its spine, in the context
    recorded at the hole and with the recursion headroom it had there, and
    stores the line as its ``text``.  The frame prints again when the
    snapshot's global set changes.  A step whose spine uses the binder of
    an enclosing frame ``Pi`` that printed as an arrow prints whole, as
    does every step at a shallower frame: it costs less than a cut."""
    frame = cut = None
    deep = False
    for s in steps:
        if s.frame is not frame:
            frame = f = s.frame
            cut, levels = None, 0
            while f is not None:
                f, levels = f[2], levels + 1
            deep = levels >= _CUT_LEVELS
        if deep and "text" not in vars(s):
            sub = s.sub
            _digest(sub)
            free, names = vars(sub)[_FREE], vars(sub)[_NAMES]
            if cut is None or cut[0] | names != cut[1]:
                cut = _cut(frame, names)
            _, _, arrows, before, after, ctx, extra = cut
            if before is not None and not free & arrows:
                limit = sys.getrecursionlimit()
                sys.setrecursionlimit(limit - extra)
                try:
                    vars(s)["text"] = before + _show(sub, *ctx) + after
                finally:
                    sys.setrecursionlimit(limit)
        yield s.text


def key(s: TraceStep) -> str:
    """``s.key``.  A snapshot not yet built, as a text cut at a deep frame
    builds none, is keyed from its spine's digest up its frame, one SHA-256
    per level, as ``_digest`` would key the path, without building it."""
    if "key" not in vars(s) and "term" not in vars(s):
        d, frame, app = _digest(s.sub), s.frame, _TAGS[App]
        while frame is not None:
            node, attr, frame = frame
            if type(node) is App:  # most levels: one sibling
                kid = node.arg if attr == "fn" else node.fn
                kid = kid.__dict__.get(_DIGEST) or _digest(kid)
                d = sha256(app + (d + kid if attr == "fn" else kid + d)).digest()
                continue
            d = sha256(_TAGS[type(node)] + b"".join(
                [d if a == attr else _digest(getattr(node, a))
                 for a, _ in CHILDREN[type(node)]])).digest()
        vars(s)["key"] = d.hex()
    return s.key
