"""Fixed costs that every declaration pays, kept out of the checking path."""

from __future__ import annotations

import dataclasses

import pytest

from itt import DEFAULT_RULES, EnvEntry, Global, elaborate, parse_program
from itt.convert import convert
from itt.parser import PragmaCheck, PragmaReduce
from itt.typecheck import PragmaResult
from helpers import counting_calls


@pytest.mark.parametrize("record", [PragmaCheck, PragmaReduce, EnvEntry,
                                    PragmaResult])
def test_per_declaration_records_are_not_frozen(record):
    # Parsing builds one of these records per declaration; checking builds
    # one more for a ``def`` without a stated type (its entry, with the
    # inferred type) and for each pragma it runs (its result).  A frozen
    # dataclass sets every field through object.__setattr__: building a
    # frozen 3-field record took 652 ns on CPython 3.11, against 244 ns for
    # a plain one (``timeit``, best of 7).  Nothing hashes these records
    # or assigns to their fields.
    assert dataclasses.is_dataclass(record)
    assert not record.__dataclass_params__.frozen


def test_two_bare_globals_are_not_reduced_before_the_memo(monkeypatch):
    # whnf_term returns a bare Global as it is when heads are held, so a
    # pair of them goes straight to the conversion memo.
    env, _ = elaborate(parse_program(
        "axiom A : Prop. def T1 : Prop := A. def T2 : Prop := A."))
    t1, t2 = Global("T1"), Global("T2")
    reduced = counting_calls(monkeypatch, "whnf_term")
    unfolded = counting_calls(monkeypatch, "unfold")

    live = DEFAULT_RULES.new_budget()
    assert convert(env, (), t1, t2, live)
    # a live query reduces only what it unfolded
    assert len(reduced) == len(unfolded) == 2

    reduced.clear()
    unfolded.clear()
    recalled = DEFAULT_RULES.new_budget()
    assert convert(env, (), t1, t2, recalled)
    assert reduced == unfolded == []
    assert recalled.remaining == live.remaining
