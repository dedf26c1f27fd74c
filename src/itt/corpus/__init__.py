"""Embedded, self-checking library of example programs.

The ``.itt`` files under ``examples/`` are the single source of truth; cases
are built by parsing them, never duplicated in code.  ``expected/`` holds
recorded reduction outcomes per rule set (regenerate them with
``scripts/record_expected.py``; cycle periods are regression values counted
in this engine's own step units, where every Beta, Delta and rule firing is
one step).  The one table ``_CASES`` gives what the files do not: each case's
strategy, required rule flags and expected ``#check`` types.  Only
``load_example`` applies the flags, to ``ExampleCase.rules``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from ..convert import convert
from ..parser import Program, parse_program, parse_term
from ..rules import DEFAULT_RULES, RULES, FuelExhausted, RuleSet
from ..typecheck import TypeCheckError, elaborate

# name -> (reduction strategy, required rule flags, expected #check types).
# The strategy is the one the case is documented under: the first
# counterexample only loops once reduction goes under its binder (or with the
# hypothesis assumed), the second already has no weak-head normal form.  The
# expected types, one per #check pragma, are compared up to conversion.
_CASES: dict[str, tuple[str, dict[str, bool], tuple[str, ...]]] = {
    "counterexample1": (
        "nf", {}, ("Neg (forall (A : Prop), forall (B : Prop), Eq Prop A B)",)),
    "counterexample2": ("whnf", {}, ("Top",)),
    "counterexample2-propext": ("whnf", {}, ("Top",)),
    "girard-j": ("nf", {"j_rule": True}, ("Top", "Bot")),
    "sanity-church": ("nf", {}, ("Nat",)),
    "sanity-casts": ("nf", {}, ("Top", "Prop")),
}
CASE_NAMES = tuple(_CASES)
_DATA = resources.files(__package__)  # at import: files() reads sys.modules


def ruleset_label(rules: RuleSet) -> str:
    """``key:on`` or ``key:off`` for each of ``RULES``, comma-separated."""
    return ",".join(f.metadata["rule"][1] + (":on" if getattr(rules, f.name) else ":off")
                    for f in RULES)


@dataclass(frozen=True)
class ExampleCase:
    """A corpus program with the rules it runs under and its expected outcomes."""
    name: str
    source: str
    strategy: str
    rules: RuleSet
    program: Program
    expected_checks: tuple[str, ...]
    # (strategy, ruleset label, reduce-pragma ordinal) -> (status, period|None)
    expected_reduce: dict[tuple[str, str, int], tuple[str, int | None]]


def _read_data(subdir: str, filename: str) -> str:
    return (_DATA / subdir / filename).read_text(encoding="utf-8")


def _parse_expected(text: str) -> dict[tuple[str, str, int], tuple[str, int | None]]:
    table: dict[tuple[str, str, int], tuple[str, int | None]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        strategy, label, ordinal, status, period = line.split()
        table[(strategy, label, int(ordinal))] = (
            status, None if period == "-" else int(period))
    return table


def load_example(name: str) -> ExampleCase:
    if name not in _CASES:
        raise ValueError(f"unknown example {name!r}; known: {', '.join(CASE_NAMES)}")
    strategy, flags, checks = _CASES[name]
    source = _read_data("examples", f"{name}.itt")
    return ExampleCase(
        name=name,
        source=source,
        strategy=strategy,
        rules=DEFAULT_RULES.updated(**flags),
        program=parse_program(source),
        expected_checks=checks,
        expected_reduce=_parse_expected(_read_data("expected", f"{name}.txt")),
    )


@dataclass
class CaseReport:
    """The outcome of running one corpus case: one entry per expectation."""
    name: str
    ruleset: str
    entries: list[tuple[str, bool | None]]  # (description, ok / None=skipped)
    # the kernel outcome that ended the case early, also its last entry
    stopped_by: FuelExhausted | TypeCheckError | RecursionError | None = None

    @property
    def passed(self) -> bool:
        return all(ok is not False for _, ok in self.entries)


def run_case(case: ExampleCase,
             overrides: dict[str, object] | None = None) -> CaseReport:
    """Elaborate the case and compare every pragma against its expectation.

    ``overrides`` set ``RuleSet`` fields (flags, ``fuel``) over ``case.rules``;
    reduce expectations missing for the resulting rule set are skipped.  A
    type error, fuel exhaustion (a conversion cycle included) or excessive
    depth ends the case with a failed entry that names it.
    """
    rules = case.rules.updated(**(overrides or {}))
    label = ruleset_label(rules)
    entries: list[tuple[str, bool | None]] = []
    try:
        env, results = elaborate(case.program, rules,
                                 reduce_strategy=case.strategy)
        checks = [r for r in results if r.kind == "check"]
        reduces = [r for r in results if r.kind == "reduce"]

        for i, res in enumerate(checks):
            expected_src = case.expected_checks[i]
            expected = parse_term(expected_src, scope=env.names())
            ok = convert(env, (), res.type_, expected, rules.new_budget())
            entries.append((f"check #{i + 1}: {expected_src}", ok))

        for j, res in enumerate(reduces, start=1):
            want = case.expected_reduce.get((case.strategy, label, j))
            if want is None:
                entries.append((f"reduce #{j}: no expectation for {label}", None))
                continue
            status, period = want
            trace = res.trace
            ok = trace.status == status
            if ok and period is not None:
                ok = trace.cycle is not None and trace.cycle.period == period
            got = trace.status_line().removeprefix("STATUS ")
            entries.append((f"reduce #{j}: expected {status}"
                            f"{'' if period is None else f' period {period}'},"
                            f" got {got}", ok))
    except (FuelExhausted, TypeCheckError, RecursionError) as exc:
        entries.append((f"{type(exc).__name__}: {exc}", False))
        return CaseReport(case.name, label, entries, stopped_by=exc)
    return CaseReport(case.name, label, entries)


def run_all(overrides: dict[str, object] | None = None,
            names: tuple[str, ...] | None = None) -> list[CaseReport]:
    return [run_case(load_example(n), overrides) for n in (names or CASE_NAMES)]
