"""Obviously-correct model implementations used as oracles in tests.

Each model leans on a built-in container whose semantics are beyond
doubt, so agreement with a model is evidence the suite references are
themselves correct before they get used as references.
"""

from __future__ import annotations

from specdiff.interp import (
    Implementation,
    Outcome,
    VAbstract,
    VBool,
    VInt,
    VList,
    VNone,
    VSome,
    VUnit,
    Value,
)
from specdiff.symexpr import wrap_i64


class ModelSet(Implementation):
    """Integer sets as frozensets."""

    name = "model_set"

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "empty":
            return VAbstract(frozenset())
        if op == "insert":
            return VAbstract(args[1].handle | {args[0].value})
        if op == "remove":
            return VAbstract(args[1].handle - {args[0].value})
        if op == "mem":
            return VBool(args[0].value in args[1].handle)
        if op == "size":
            return VInt(len(args[0].handle))
        if op == "union":
            return VAbstract(args[0].handle | args[1].handle)
        if op == "to_list":
            return VList(tuple(VInt(x) for x in sorted(args[0].handle)))
        raise KeyError(op)


class SizeReturnsHalf(ModelSet):
    """Fault: size returns a VInt whose payload is not an int."""

    name = "size_returns_half"

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "size":
            return VInt(len(args[0].handle) + 0.5)
        return super().apply(op, args)


class ModelMap(Implementation):
    """Integer maps as dicts; union is left-biased."""

    name = "model_map"

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "empty":
            return VAbstract({})
        if op == "insert":
            k, v, t = args[0].value, args[1].value, args[2].handle
            return VAbstract({**t, k: v})
        if op == "delete":
            k, t = args[0].value, args[1].handle
            return VAbstract({key: val for key, val in t.items() if key != k})
        if op == "find":
            k, t = args[0].value, args[1].handle
            return VSome(VInt(t[k])) if k in t else VNone()
        if op == "union":
            a, b = args[0].handle, args[1].handle
            return VAbstract({**b, **a})
        if op == "keys":
            return VList(tuple(VInt(k) for k in sorted(args[0].handle)))
        if op == "size":
            return VInt(len(args[0].handle))
        raise KeyError(op)


class FindDividesByZero(ModelMap):
    """Fault: find raises ZeroDivisionError instead of answering."""

    name = "find_divides_by_zero"

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "find":
            return VInt(args[0].value // 0)
        return super().apply(op, args)


class ModelCounter(Implementation):
    """The counter as a plain integer; add clamps negative amounts."""

    name = "model_counter"

    def __init__(self) -> None:
        self.value = 0

    def reset(self) -> None:
        self.value = 0

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "incr":
            self.value += 1
            return VUnit()
        if op == "add":
            self.value += max(args[0].value, 0)
            return VUnit()
        if op == "get":
            return VInt(self.value)
        if op == "is_zero":
            return VBool(self.value == 0)
        raise KeyError(op)


class GetBumpsCounter(ModelCounter):
    """Fault: get returns the count and then increments it.

    Only a get evaluated for effect, in the first arm of a seq, makes the
    count visible to a later query.
    """

    name = "get_bumps"

    def apply(self, op: str, args: list[Value]) -> Outcome:
        out = super().apply(op, args)
        if op == "get":
            self.value += 1
        return out


class ResetRaises(ModelCounter):
    """Fault: reset raises instead of clearing the count."""

    name = "reset_raises"

    def reset(self) -> None:
        raise RuntimeError("no reset")


TALLY_SIG = """\
signature tally
abstract t
op zero : t
op bump : bool -> int option -> t -> t
op read : t -> int
end
"""


class ModelTally(Implementation):
    """A tally as a plain integer; bump adds its amount (1 if none) when flagged."""

    name = "model_tally"

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "zero":
            return VAbstract(0)
        if op == "bump":
            flag, amount, t = args[0].value, args[1], args[2].handle
            if not flag:
                return VAbstract(t)
            return VAbstract(t + (amount.value.value if isinstance(amount, VSome) else 1))
        if op == "read":
            return VInt(args[0].handle)
        raise KeyError(op)


class TallyIgnoresFlag(ModelTally):
    """Fault: bump adds its amount whatever its flag says."""

    name = "tally_ignores_flag"

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "bump":
            args = [VBool(True), *args[1:]]
        return super().apply(op, args)


MAPPED_SIG = """\
signature mapped
abstract t
op empty : t
op push_all : int list -> t -> t
op map : (int -> int) -> t -> t
op total : t -> int
end
"""


class ModelMapped(Implementation):
    """A sequence of integers as a tuple; total is the wrapped sum."""

    name = "model_mapped"

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "empty":
            return VAbstract(())
        if op == "push_all":
            return VAbstract(args[1].handle + tuple(x.value for x in args[0].elems))
        if op == "map":
            return VAbstract(tuple(args[0](x) for x in args[1].handle))
        if op == "total":
            return VInt(wrap_i64(sum(args[0].handle)))
        raise KeyError(op)


class MappedSkipsFirst(ModelMapped):
    """Fault: map leaves the first element as it was."""

    name = "mapped_skips_first"

    def apply(self, op: str, args: list[Value]) -> Outcome:
        if op == "map" and args[1].handle:
            head, *rest = args[1].handle
            return VAbstract((head, *(args[0](x) for x in rest)))
        return super().apply(op, args)
