"""One value protocol for the library's slotted types.

A subclass names its fields in ``__slots__`` and sets them in its own
``__init__`` with ``object.__setattr__``.  Its values are then
immutable, no field being set or deleted, equal only to values of the
same type with equal fields, hashed as the tuple of their fields (a
one-field type as ``(field,)``), and shown as ``Type(field=value, ...)``
in slot order.  Equality and hashing are bound once per class, over its
fields' getter; a subclass that defines either of its own is refused.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if {"__eq__", "__hash__"} & vars(cls).keys():
            raise TypeError(f"{cls.__name__} defines its own equality or hash")
        names = tuple(cls.__slots__)
        get = attrgetter(*names)
        # attrgetter of one name returns the bare field, which compares as its 1-tuple does
        fields = get if len(names) > 1 else lambda v: (get(v),)
        cls.__eq__ = lambda self, other: type(other) is type(self) and get(self) == get(other)
        cls.__hash__ = lambda self: hash(fields(self))
        cls._field_names, cls._field_values = names, staticmethod(fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._field_names, self._field_values(self))
        return f"{type(self).__name__}({', '.join(fields)})"
