"""A mutable counter, twice: as an integer and as the length of a list.

add clamps negative amounts to zero so both representations stay
equivalent (a list cannot have negative length).  The saturating variant
stops counting at a cap, which only sufficiently long call sequences
can expose.
"""

from __future__ import annotations

from ..interp import Implementation, Outcome, Value
from ..symexpr import wrap_i64


class IntCounter(Implementation):
    """The counter as a wrapped 64-bit integer."""

    name = "int_counter"

    def __init__(self) -> None:
        self.value = 0

    def reset(self) -> None:
        self.value = 0

    def incr(self) -> None:
        self.value = wrap_i64(self.value + 1)

    def add(self, n: int) -> None:
        self.value = wrap_i64(self.value + max(n, 0))

    def get(self) -> int:
        return self.value

    def is_zero(self) -> bool:
        return self.value == 0


class ListCounter(Implementation):
    """The counter as the length of a list of unit markers."""

    name = "list_counter"

    def __init__(self) -> None:
        self.items: list[None] = []

    def reset(self) -> None:
        self.items = []

    def incr(self) -> None:
        self.items.append(None)

    def add(self, n: int) -> None:
        self.items.extend([None] * max(n, 0))

    def get(self) -> int:
        return len(self.items)

    def is_zero(self) -> bool:
        return not self.items


class SaturatingCounter(IntCounter):
    """Bug: the count sticks at CAP; only long enough runs can tell."""

    name = "saturating"

    CAP = 10

    def apply(self, op: str, args: list[Value]) -> Outcome:
        out = super().apply(op, args)
        if self.value > self.CAP:
            self.value = self.CAP
        return out
