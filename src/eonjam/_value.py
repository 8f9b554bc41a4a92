"""The base of the simulator's immutable record types."""

from __future__ import annotations

import operator

__all__ = ["Value"]


class Value:
    """An immutable record that compares, hashes and prints its ``_fields``.

    Two records are equal when they are of one class and their fields,
    taken as a tuple in ``_fields`` order, are equal; ``hash`` is the
    hash of that tuple and ``repr`` lists the fields by name.  An
    attribute left out of ``_fields``, such as a cache, takes part in
    none of them.  Assigning or deleting an attribute raises
    ``AttributeError``, so a subclass that checks or derives fields
    stores them with :meth:`_store` in an ``__init__`` of its own; the
    others take the generic one, with ``_defaults`` for trailing fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        """Bind positional and keyword arguments to ``_fields``, in order."""
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{type(self).__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in fields:
            if name not in values and name not in self._defaults:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, values[name] if name in values else self._defaults[name])

    def _store(self, **fields) -> None:
        """Set each attribute past ``__setattr__``, in keyword order.

        Through ``object.__setattr__``, so the instances of a class share
        one key table, as with plain assignment; writing to ``vars(self)``
        would give each instance a dict of its own, twice the size.
        """
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setstate__(self, state) -> None:
        # What pickle and copy restore: the instance dict, or ``(dict,
        # slots)`` for a slotted class, either part possibly None.
        for part in state if isinstance(state, tuple) else (state,):
            if part:
                self._store(**part)

    def __init_subclass__(cls) -> None:
        # The field tuple of an instance, read in C: ``attrgetter`` gives a
        # tuple for two or more names and the bare value for one.
        getter = operator.attrgetter(*cls._fields)
        cls._values = staticmethod(getter if len(cls._fields) > 1 else lambda record: (getter(record),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
