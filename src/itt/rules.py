"""Rule toggles and the shared step budget.

Conversion and reduction are mutually recursive (the coercion side condition
asks for convertibility of the endpoints, which may unfold and reduce), so a
single decrementing budget threads through both to guarantee the checker
itself always terminates with a classified outcome.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

DEFAULT_FUEL = 100_000


class FuelExhausted(Exception):
    """Step budget ran out.

    A third outcome, distinct from both "not convertible" and "no step";
    callers must propagate it, never coerce it to False.
    """


@dataclass
class Fuel:
    remaining: int

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise FuelExhausted("step budget exhausted")


@dataclass(frozen=True)
class RuleSet:
    cast_rule: bool = True
    eqrec_rule: bool = True
    j_rule: bool = False
    proof_irrelevance: bool = True
    fuel: int = DEFAULT_FUEL

    def __post_init__(self) -> None:
        if self.fuel <= 0:
            raise ValueError("fuel must be positive")

    def new_budget(self) -> Fuel:
        return Fuel(self.fuel)

    def updated(self, **changes: object) -> RuleSet:
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


DEFAULT_RULES = RuleSet()
