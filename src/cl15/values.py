"""Value classes with written-out methods.

The toolkit's records (formulas, cirquents, labmoves, rules, proof steps,
actions, reports) are plain `__slots__` classes, not dataclasses:
generating their methods at import, and importing `dataclasses` with the
modules it needs, cost a third of every command's start.  Each class
lists its fields, in constructor order, in `__match_args__` and
`__slots__`, and writes out its `__init__`; the methods below read that
list.  The formula shape bases, `Cirquent` and `Labmove`, which checking
and play compare and hash at every step or move, also write out `__eq__`
and `__hash__` on the same field tuple, since the generic ones cost a
loop; the other classes use the generic ones.
"""
from __future__ import annotations

from types import FunctionType

# Sets a field of a frozen value from its `__init__`.
set_field = object.__setattr__


class Record:
    """A mutable record.  Equal to an instance of exactly the same class
    whose field tuple is equal, unhashable, and shown as
    `Name(field=value, ...)`."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """A frozen record: hashed as its field tuple, and no field can be
    assigned or deleted once `__init__` has set it with `set_field`."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        # CPython 3.11+ specializes each field read in a code object for one
        # class, so an `__eq__` that a shape base shares between, say, `And`
        # and `Or` reads fields generically and compares formulas about 1.4x
        # slower than one method per class.  Each subclass therefore gets
        # its own copy of the written-out methods it inherits: a new code
        # object from the same bytecode, nothing compiled.
        super().__init_subclass__(**kwargs)
        for name in ("__eq__", "__hash__"):
            method = getattr(cls, name)
            if name not in cls.__dict__ and method is not getattr(Value, name):
                setattr(cls, name, FunctionType(method.__code__.replace(), method.__globals__, name))

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # `copy` and `pickle` would restore the slots by assignment.
        return type(self), self._fields()
