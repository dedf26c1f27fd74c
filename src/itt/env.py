"""Global environments and local binder telescopes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .syntax import Term, shift

# Telescope of binder types, innermost last; each entry is well-typed in its
# own prefix, so looking up Var(i) shifts the stored type across i+1 binders.
Context = tuple[Term, ...]


def ctx_extend(ctx: Context, ty: Term) -> Context:
    return ctx + (ty,)


def ctx_lookup(ctx: Context, index: int) -> Term:
    """Type of Var(index), shifted into the full context."""
    if index < 0 or index >= len(ctx):
        raise IndexError(f"variable index {index} outside context of depth {len(ctx)}")
    return shift(ctx[-(index + 1)], 0, index + 1)


@dataclass
class EnvEntry:
    """A ``def``, ``axiom`` or ``assume``: its name, its type, a ``def``'s body.
    ``type_`` is None only in the parsed record of a ``def`` without a stated
    type; checking adds a new entry with the inferred type in its place."""
    name: str
    type_: Term | None
    body: Term | None  # absent for axioms and assumptions
    kind: str  # the declaration's keyword: "def", "axiom" or "assume"


class GlobalEnv:
    """Ordered global declarations.  ``add`` never replaces an entry; the
    conversion memo (``conversions``, see ``itt.convert``) rests on that."""

    def __init__(self) -> None:
        self._entries: dict[str, EnvEntry] = {}
        self._heights: dict[str, int] = {}
        self.conversions: dict[tuple, tuple[bool, int]] = {}

    def add(self, entry: EnvEntry) -> None:
        if entry.name in self._entries:
            raise ValueError(f"duplicate global {entry.name!r}")
        self._entries[entry.name] = entry
        if entry.body is not None:
            self._heights[entry.name] = len(self._entries)

    def height(self, name: str) -> int:
        """Definitional height: the declaration position (from 1) of a
        defined global, 0 for an axiom, an assumption or an unknown name.
        A body names only earlier globals, so unfolding lowers the height."""
        return self._heights.get(name, 0)

    def lookup(self, name: str) -> EnvEntry | None:
        return self._entries.get(name)

    def __iter__(self) -> Iterator[EnvEntry]:
        return iter(self._entries.values())

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
