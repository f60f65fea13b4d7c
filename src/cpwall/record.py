"""Read-only records, the one base of the package's parameter and result
types.

A record names its fields in ``__slots__`` and sets them once, in a
hand-written ``__init__``, through ``object.__setattr__``; afterwards
assigning or deleting a field raises AttributeError.  Equality (between
records of one class), hashing and repr follow the fields in
``__slots__`` order, and a record pickles and copies by calling its
constructor with the fields in that order.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()
