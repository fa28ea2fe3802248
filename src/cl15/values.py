"""Value classes with written-out methods.

The toolkit's records (formulas, cirquents, labmoves, rules, proof steps,
actions, reports) are plain `__slots__` classes, not dataclasses:
generating their methods at import, and importing `dataclasses` with the
modules it needs, cost a third of every command's start.  Each class
lists its fields, in constructor order, in `__match_args__` and
`__slots__`, and writes out its `__init__`; the methods below read that
list, in a loop that `Cirquent` and `Labmove` avoid by writing out their
`__eq__` and `__hash__`.  Formulas are built by one `Formula.__new__`,
which interns them, and compare and hash by identity.
"""
from __future__ import annotations

# Sets a field of a frozen record when it is built.
set_field = object.__setattr__


class InputError(ValueError):
    """Input the toolkit cannot use: the base of each module's error class,
    which the command line reports as a usage error."""


class Frozen:
    """A record whose fields, once set with `set_field`, cannot be assigned
    or deleted.  Compared and hashed by identity, and shown as
    `Name(field=value, ...)`."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # `copy` and `pickle` would restore the slots by assignment.
        return type(self), self._fields()


class Value(Frozen):
    """A frozen record equal to an instance of exactly the same class whose
    field tuple is equal, and hashed as its field tuple."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())


class Record:
    """A mutable record: equal and shown as a `Value` is, and unhashable."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _fields, __repr__, __eq__ = Frozen._fields, Frozen.__repr__, Value.__eq__
    __hash__ = None  # type: ignore[assignment]
