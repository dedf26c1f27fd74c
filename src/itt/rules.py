"""Rule toggles, the shared step budget, and the outcomes that end it.

Each toggle is declared once, as a ``RuleSet`` field whose metadata gives
its command-line flag, its key in corpus labels and its help text; the CLI
flags and ``corpus.ruleset_label`` iterate over ``RULES``.

Conversion and reduction are mutually recursive (the coercion side condition
asks for convertibility of the endpoints, which may unfold and reduce), so a
single decrementing budget threads through both to guarantee the checker
itself always terminates with a classified outcome: ``FuelExhausted``, or
``ConversionCycle`` when a repeated state proves the budget would run out.
A ``Fuel`` carries the rule set that made it, so kernel functions take the
budget alone and read every toggle from it: one run, one rule set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .syntax import Term

DEFAULT_FUEL = 100_000


class FuelExhausted(Exception):
    """Step budget ran out.

    A third outcome, distinct from both "not convertible" and "no step";
    callers must propagate it, never coerce it to False.
    """


class ConversionCycle(FuelExhausted):
    """A conversion query whose unfolding states repeat, or (``what`` is
    "reduction") a head reduction whose states repeat.

    Its loop would spend any budget, so it is a FuelExhausted found early;
    ``period`` is the number of steps between the two equal states.
    """

    def __init__(self, period: int, what: str = "unfolding") -> None:
        super().__init__(f"{what} repeats with period {period}")
        self.period = period


@dataclass
class Fuel:
    """The budget of one run, the rule set it runs under, and its memo of
    Beta instantiations.

    ``instances`` maps ``(id(body), id(arg))`` to ``(body, arg, subst(body,
    0, arg))``, so a Beta step on a pair this budget has substituted before
    shares the stored result.  An entry holds both key objects, so their ids
    are not reused while it lives; the memo dies with its budget."""
    remaining: int
    rules: RuleSet
    instances: dict[tuple[int, int], tuple[Term, Term, Term]] = field(
        default_factory=dict, repr=False, compare=False)

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise FuelExhausted("step budget exhausted")


@dataclass(frozen=True)
class RuleSet:
    """Which reduction and conversion rules are on, and the fuel per budget."""
    cast_rule: bool = field(default=True, metadata={"rule": (
        "--no-cast-rule", "cast", "disable the cast reduction rule")})
    eqrec_rule: bool = field(default=True, metadata={"rule": (
        "--no-eqrec-rule", "eqrec", "disable the Eq_rec reduction rule")})
    j_rule: bool = field(default=False, metadata={"rule": (
        "--enable-j", "j", "enable the J operator and its rule")})
    proof_irrelevance: bool = field(default=True, metadata={"rule": (
        "--no-proof-irrelevance", "irrel", "disable proof irrelevance in conversion")})
    fuel: int = DEFAULT_FUEL

    def __post_init__(self) -> None:
        if self.fuel <= 0:
            raise ValueError("fuel must be positive")

    def new_budget(self) -> Fuel:
        return Fuel(self.fuel, self)

    def updated(self, **changes: object) -> RuleSet:
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


DEFAULT_RULES = RuleSet()
# the rule toggles in declaration order; metadata["rule"] is (flag, label, help)
RULES = tuple(f for f in dataclasses.fields(RuleSet) if f.name != "fuel")
