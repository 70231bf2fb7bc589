"""The base of the package's immutable result records.

A record class names its fields, in order, in `__slots__`, and its own
`__init__` validates them and stores each with `set_field` (the record's
`__setattr__` refuses assignment).  The base gives every record equality
within its own class, a hash of its field values, a `Name(field=value, ...)`
repr, and pickling by construction.  The records do not use `dataclasses`
on purpose: importing it and decorating the records cost each fresh process
about 25 ms before its first result.
"""

from __future__ import annotations

set_field = object.__setattr__


class Record:
    """Immutable value with the fields named in `__slots__`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
