"""Immutable records: slotted classes whose fields are their annotations.

A class decorated with ``@record``

- stores its annotated names, in order, as its fields in ``__slots__``; a
  name the class body lists in ``__slots__`` itself (``"__dict__"``, for
  a cached_property) is kept besides them;
- takes its fields positionally or by keyword; a value the class body
  assigns to a field is that field's default;
- equals an instance of exactly its own class whose field tuple is equal,
  and hashes as its field tuple;
- shows as ``Name(field=value, ...)``;
- raises AttributeError on any assignment or deletion, and pickles and
  copies by calling the class again with its fields.

Fields are not inherited: a record's bases contribute none.  The class
is built anew with its slots, so a method calling ``super()`` without
arguments would see the class as it was before; none does.

``__init__``, ``__eq__`` and ``__hash__`` are compiled together in one
exec per class, and ``__init__`` stores through the slots' own
descriptors.  The standard library's data-class decorator execs each
method separately, imports inspect, ast, dis and tokenize, and makes a
frozen ``__init__`` go through ``object.__setattr__``; specdiff paid the
first two on every command's set-up and the third on every value built.
"""

from __future__ import annotations


def record(cls: type) -> type:
    """Make cls a record (see the module docstring)."""
    ns = dict(cls.__dict__)
    names = tuple(ns.get("__annotations__", {}))
    defaults = []
    for name in names:
        if name in ns:
            defaults.append(ns[name])
        elif defaults:
            raise TypeError(
                f"{cls.__qualname__}: field {name!r} has no default but follows one that has"
            )
    extra = ns.get("__slots__", ())
    for name in (*names, *extra, "__dict__", "__weakref__"):
        ns.pop(name, None)
    ns.update(
        __slots__=names + tuple(extra),
        __qualname__=cls.__qualname__,
        _fields=names,
        __repr__=record_repr,
        __setattr__=_no_assignment,
        __delattr__=_no_deletion,
        __reduce__=_reduce,
    )
    new = type(cls)(cls.__name__, cls.__bases__, ns)

    scope = {f"_set_{name}": new.__dict__[name].__set__ for name in names}
    mine = "".join(f"self.{name}," for name in names)
    theirs = "".join(f"other.{name}," for name in names)
    source = f"def __init__(self, {', '.join(names)}):\n"
    source += "".join(f"    _set_{name}(self, {name})\n" for name in names) or "    pass\n"
    source += (
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({mine}))\n"
    )
    exec(source, scope)
    scope["__init__"].__defaults__ = tuple(defaults) or None
    for method in ("__init__", "__eq__", "__hash__"):
        scope[method].__qualname__ = f"{new.__qualname__}.{method}"
        setattr(new, method, scope[method])
    return new


def record_repr(self) -> str:
    """``Name(field=value, ...)`` over the ``_fields`` of self's class."""
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _no_assignment(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign {name!r}: {type(self).__qualname__} is immutable")


def _no_deletion(self, name: str) -> None:
    raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is immutable")


def _reduce(self):
    return type(self), tuple(getattr(self, name) for name in self._fields)
