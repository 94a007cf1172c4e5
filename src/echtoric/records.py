"""Frozen value classes, written out once instead of generated.

A record's fields are its annotated class attributes, in order, after
those of the record it extends.  Its own __init__ writes each field
once into the instance dict, and Record gives it the rest of a frozen
value: equality only within one class, the hash of the field tuple,
the repr ClassName(field=value, ...) and AttributeError on assignment
or deletion.  cached_property views still work, as they write the
instance dict too.  Every record has at least two fields, so the field
getter returns a tuple.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # a class's own annotations: an empty dict where it has none
        cls._fields += tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values(self))))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
