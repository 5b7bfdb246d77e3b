"""One value protocol for the library's slotted types.

A subclass names its fields in ``__slots__`` and sets them in its own
``__init__`` with ``object.__setattr__``.  Its values are then
immutable, no field being set or deleted, equal only to values of the
same type with equal fields, hashed as the tuple of their fields (a
one-field type as ``(field,)``), and shown as ``Type(field=value, ...)``
in slot order.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = tuple(cls.__slots__)
        get = attrgetter(*names)
        cls._field_names = names
        # attrgetter of one name returns the bare value, not a tuple
        cls._field_values = staticmethod(get if len(names) > 1 else lambda v: (get(v),))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        get = self._field_values
        return type(other) is type(self) and get(self) == get(other)

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._field_names, self._field_values(self))
        return f"{type(self).__name__}({', '.join(fields)})"
