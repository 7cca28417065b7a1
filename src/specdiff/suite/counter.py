"""A mutable counter, twice: as an integer and as the length of a list.

add clamps negative amounts to zero so both representations stay
equivalent (a list cannot have negative length).  The saturating variant
stops counting at a cap, which only sufficiently long call sequences
can expose.
"""

from __future__ import annotations

from ..interp import Implementation, Outcome, VBool, VInt, VUnit, Value
from ..symexpr import wrap_i64


class IntCounter(Implementation):
    """The counter as a wrapped 64-bit integer."""

    name = "int_counter"

    def __init__(self) -> None:
        self.value = 0

    def reset(self) -> None:
        self.value = 0

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "incr":
            self.value = wrap_i64(self.value + 1)
            return VUnit()
        if op == "add":
            self.value = wrap_i64(self.value + max(args[0].value, 0))
            return VUnit()
        if op == "get":
            return VInt(self.value)
        if op == "is_zero":
            return VBool(self.value == 0)
        raise KeyError(op)


class ListCounter(Implementation):
    """The counter as the length of a list of unit markers."""

    name = "list_counter"

    def __init__(self) -> None:
        self.items: list[None] = []

    def reset(self) -> None:
        self.items = []

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "incr":
            self.items.append(None)
            return VUnit()
        if op == "add":
            self.items.extend([None] * max(args[0].value, 0))
            return VUnit()
        if op == "get":
            return VInt(len(self.items))
        if op == "is_zero":
            return VBool(not self.items)
        raise KeyError(op)


class SaturatingCounter(IntCounter):
    """Bug: the count sticks at CAP; only long enough runs can tell."""

    name = "saturating"

    CAP = 10

    def apply(self, op: str, args: list[Value]) -> Outcome:
        out = super().apply(op, args)
        if self.value > self.CAP:
            self.value = self.CAP
        return out
