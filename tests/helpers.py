"""Readers that only tests need: JSON trace lines back into records, a
closure check over a global environment, and counts over corpus cases; and
the inputs that several test files share."""

from __future__ import annotations

import json
from typing import Iterable

from itt import GlobalEnv, PragmaReduce, RuleSet, Term, elaborate, load_example
from itt.corpus import CaseReport, ExampleCase
from itt.syntax import collect_globals, has_free_var


def parse_trace_json(lines: Iterable[str]) -> tuple[list[dict], str]:
    """Split serialized JSON trace lines into step records and the status line."""
    records: list[dict] = []
    status = ""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("STATUS"):
            status = line
            continue
        records.append(json.loads(line))
    return records, status


def closed_over_axioms(env: GlobalEnv, t: Term) -> bool:
    """True iff ``t`` has no free variables and never reaches an assumption:
    every global it references, transitively through types and definition
    bodies, is a definition or an axiom."""
    if has_free_var(t):
        return False
    seen: set[str] = set()
    pending = list(collect_globals(t))
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        entry = env.lookup(name)
        if entry is None or entry.kind == "assume":
            return False
        if entry.body is not None:
            pending.extend(collect_globals(entry.body))
        pending.extend(collect_globals(entry.type_))
    return True


def checked(report: CaseReport) -> int:
    """How many of the report's entries were checked rather than skipped."""
    return sum(ok is not None for _, ok in report.entries)


def reduce_pragma_count(case: ExampleCase) -> int:
    return sum(isinstance(d, PragmaReduce) for d in case.program.declarations)


def case_env(name: str, **flags: bool) -> tuple[GlobalEnv, RuleSet]:
    """The environment of a corpus case elaborated without its reductions,
    under the case's rule set with ``flags`` changed."""
    case = load_example(name)
    rules = case.rules.updated(**flags)
    env, _ = elaborate(case.program, rules, run_reduce=False)
    return env, rules


# counterexample2 without its pragmas (declarations 0-5), then a predicate on
# Top (declaration 6) whose argument must convert with Omega, and the
# identity on Prop that tests pass it.
CE2_DEFS = "\n".join(
    line for line in load_example("counterexample2").source.splitlines()
    if not line.startswith("#"))
CE2_G = """
axiom G : Top -> Prop.
"""
CE2_I = "(fun (A : Prop), fun (a : A), a)"


# The texts that fuzzed token streams are drawn from: every keyword and its
# Unicode alias, names, every punctuation token, good and bad pragmas, a
# comment, a newline, and texts that are no token.
TOKEN_TEXTS = (
    "def", "axiom", "assume", "forall", "fun", "∀", "λ", "Prop", "Type",
    "Eq", "refl", "Eq_rec", "cast", "J", "x", "y", "A", "Top", "Bot", "d0",
    "d1", "(", ")", ":", ":=", ",", ".", "->", "→",
    "#check", "#reduce", "#oops", "-- note\n", "\n", "@", "0", "_",
)
