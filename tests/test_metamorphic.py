"""Metamorphic relations: a program changed in a way that cannot change its
meaning gets the same verdicts and spends the same fuel.  Each relation runs
on the six corpus programs under every rule variant that the ``expected/``
tables record, with the case's strategy."""

from __future__ import annotations

import re

import pytest

from itt import CASE_NAMES, PragmaReduce, load_example, parse_program
from helpers import observe, record_expected, workloads

# Where each declaration of a corpus program starts: at a line's start.
_DECL_START = re.compile(r"^(?=def |axiom |assume |#check |#reduce )", re.M)


def _verdicts(shown: list, rename=lambda text: text) -> list:
    """What ``observe`` shows, without step keys: each ``#check`` type, each
    trace's step kinds and status line, or the error; each text that can
    name a global passed through ``rename``."""
    return [rename(s) if isinstance(s, str) else
            ([rename(kind) for kind, _ in s[0]], s[1]) for s in shown]


@pytest.mark.parametrize("name", CASE_NAMES)
def test_renaming_every_global_changes_nothing(monkeypatch, name):
    # every global renamed with a fresh suffix: the same statuses, step
    # kinds (names mapped), #check types, and fuel in every budget
    case = load_example(name)
    names = set(workloads.DECL_NAME_RE.findall(case.source))
    suffix = "_r0"
    assert not {n + suffix for n in names} & set(
        workloads.NAME_RE.findall(case.source))

    def rename(text: str) -> str:
        return workloads.rename_globals(text, names, suffix)

    renamed = parse_program(rename(case.source))
    for flags in record_expected.VARIANTS:
        rules = case.rules.updated(**flags)
        shown, fuel = observe(monkeypatch, case.program, rules, case.strategy)
        shown_r, fuel_r = observe(monkeypatch, renamed, rules, case.strategy)
        assert _verdicts(shown_r) == _verdicts(shown, rename), flags
        assert fuel_r == fuel, flags


# An unused declaration, and the fuel its own budget spends: none for the
# axiom, and one unit for the def, whose body is checked against its type.
_UNUSED = (("axiom zz : Prop.", 0), ("def zz : Type := Prop.", 1))


@pytest.mark.parametrize("name", CASE_NAMES)
def test_an_unused_declaration_changes_nothing(monkeypatch, name):
    # an unused declaration inserted before any declaration, or at the end:
    # every verdict is the same, and every original budget spends the same
    # fuel, since heights keep their order
    case = load_example(name)
    assert "zz" not in workloads.NAME_RE.findall(case.source)
    decls = case.program.declarations
    starts = [m.start() for m in _DECL_START.finditer(case.source)]
    assert len(starts) == len(decls)
    for flags in record_expected.VARIANTS:
        rules = case.rules.updated(**flags)
        shown, fuel = observe(monkeypatch, case.program, rules, case.strategy)
        for i, at in enumerate([*starts, len(case.source)]):
            # the inserted budget follows those of the declarations before
            # it and of each #reduce among them
            j = i + sum(isinstance(d, PragmaReduce) for d in decls[:i])
            for text, spent in _UNUSED:
                src = f"{case.source[:at]}{text}\n{case.source[at:]}"
                shown_z, fuel_z = observe(monkeypatch, parse_program(src),
                                          rules, case.strategy)
                assert shown_z == shown, (flags, i, text)
                assert fuel_z.pop(j) == spent and fuel_z == fuel, (flags, i,
                                                                   text)
