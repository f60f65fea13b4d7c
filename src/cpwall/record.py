"""Read-only records, the one base of the package's parameter and result
types.

A record names its fields in ``__slots__``, and that order is the
contract of its one constructor, ``Record.__init__``: it binds
positional values to the fields in order and keyword values by name,
fills fields left out from the class's ``_defaults`` mapping, and raises
TypeError, naming the class and the field, for too many values, a
missing field, an unknown keyword or a field given twice.  A call with
one positional value per field, the form of records built per point,
skips that binding and sets the fields straight through their slots.
Either way it then calls ``_check()``, which a record overrides to
validate its fields (reading ``self.<field>``) and which does nothing
by default.  Afterwards assigning or deleting a field raises
AttributeError.  Equality (between records of one class), hashing and
repr follow the fields in ``__slots__`` order, and a record pickles and
copies by calling its constructor with the fields in that order.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()

    # values of fields a caller may leave out, by field name
    _defaults: dict[str, object] = {}
    # each field's slot setter, in __slots__ order
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        setters = self._setters
        # every field given by position skips _bind
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        # indexing runs faster than zip() here, and records are built per point
        for i in range(len(setters)):
            setters[i](self, args[i])
        self._check()

    def _bind(self, args: tuple, kwargs: dict[str, object]) -> list:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields, "
                f"got {len(args)} positional values"
            )
        values = list(args)
        # kwargs is this call's own dict: what is left after the pops was
        # given twice or names no field
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self._defaults:
                values.append(self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
        for name in kwargs:
            if name in names:
                raise TypeError(f"{type(self).__name__} got field {name!r} twice")
            raise TypeError(f"{type(self).__name__} has no field {name!r}")
        return values

    def _check(self) -> None:
        """Validate the fields once they are set; raise to refuse them."""

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
