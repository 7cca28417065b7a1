"""Obviously-correct model implementations used as oracles in tests.

Each model leans on a built-in container whose semantics are beyond
doubt, so agreement with a model is evidence the suite references are
themselves correct before they get used as references.
"""

from __future__ import annotations

from specdiff.interp import Implementation, VNone, VSome
from specdiff.symexpr import wrap_i64


class ModelSet(Implementation):
    """Integer sets as frozensets."""

    name = "model_set"

    def empty(self):
        return frozenset()

    def insert(self, k, t):
        return t | {k}

    def remove(self, k, t):
        return t - {k}

    def mem(self, k, t):
        return k in t

    def size(self, t):
        return len(t)

    def union(self, a, b):
        return a | b

    def to_list(self, t):
        return tuple(sorted(t))


class SizeReturnsHalf(ModelSet):
    """Fault: size returns a float, which is not an int."""

    name = "size_returns_half"

    def size(self, t):
        return len(t) + 0.5


class ModelMap(Implementation):
    """Integer maps as dicts; union is left-biased."""

    name = "model_map"

    def empty(self):
        return {}

    def insert(self, k, v, t):
        return {**t, k: v}

    def delete(self, k, t):
        return {key: val for key, val in t.items() if key != k}

    def find(self, k, t):
        return VSome(t[k]) if k in t else VNone()

    def union(self, a, b):
        return {**b, **a}

    def keys(self, t):
        return tuple(sorted(t))

    def size(self, t):
        return len(t)


class FindDividesByZero(ModelMap):
    """Fault: find raises ZeroDivisionError instead of answering."""

    name = "find_divides_by_zero"

    def find(self, k, t):
        return k // 0


class ModelCounter(Implementation):
    """The counter as a plain integer; add clamps negative amounts."""

    name = "model_counter"

    def __init__(self) -> None:
        self.value = 0

    def reset(self) -> None:
        self.value = 0

    def incr(self):
        self.value += 1

    def add(self, n):
        self.value += max(n, 0)

    def get(self):
        return self.value

    def is_zero(self):
        return self.value == 0


class GetBumpsCounter(ModelCounter):
    """Fault: get returns the count and then increments it.

    Only a get evaluated for effect, in the first arm of a seq, makes the
    count visible to a later query.
    """

    name = "get_bumps"

    def get(self):
        out = super().get()
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

    def zero(self):
        return 0

    def bump(self, flag, amount, t):
        if not flag:
            return t
        return t + (amount.value if isinstance(amount, VSome) else 1)

    def read(self, t):
        return t


class TallyIgnoresFlag(ModelTally):
    """Fault: bump adds its amount whatever its flag says."""

    name = "tally_ignores_flag"

    def bump(self, flag, amount, t):
        return super().bump(True, amount, t)


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

    def empty(self):
        return ()

    def push_all(self, xs, t):
        return t + xs

    def map(self, f, t):
        return tuple(f(x) for x in t)

    def total(self, t):
        return wrap_i64(sum(t))


class MappedSkipsFirst(ModelMapped):
    """Fault: map leaves the first element as it was."""

    name = "mapped_skips_first"

    def map(self, f, t):
        if not t:
            return t
        head, *rest = t
        return (head, *(f(x) for x in rest))
