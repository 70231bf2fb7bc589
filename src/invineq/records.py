"""The base of the package's immutable result records.

A record class declares its fields once, in order, in `__slots__`.  The
base's `__init__` binds positional, then keyword values to them as a
hand-written signature would; a record writes its own `__init__` only to
validate or default a field, and then calls `Record.__init__`.  The base
also refuses assignment, and gives equality within one class, a hash of the
field values, a `Name(field=value, ...)` repr and pickling by construction.
The records do not use `dataclasses` on purpose: importing it and
decorating the records cost each fresh process about 25 ms.
"""

from __future__ import annotations

_set_field = object.__setattr__


class Record:
    """Immutable value with the fields named in `__slots__`."""

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            cls = type(self).__qualname__
            if len(args) > len(fields):
                raise TypeError(f"{cls}() takes {len(fields)} positional arguments "
                                f"but {len(args)} were given")
            values = dict(zip(fields, args))
            for name, value in kwargs.items():
                if name not in fields:
                    raise TypeError(f"{cls}() got an unexpected keyword argument {name!r}")
                if name in values:
                    raise TypeError(f"{cls}() got multiple values for argument {name!r}")
                values[name] = value
            missing = [name for name in fields if name not in values]
            if missing:
                raise TypeError(f"{cls}() missing required arguments: {', '.join(missing)}")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            _set_field(self, name, value)

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
