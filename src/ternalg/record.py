"""Plain record classes: a field tuple, and repr and == read from it.

A subclass names its fields, in order, in ``_fields`` and sets them in its
own ``__init__``.  Equality compares the field tuples of two records of the
same class; a ``Record`` is unhashable, since its fields may change.  A
``FrozenRecord`` sets its fields once, through ``_set``, refuses every later
assignment or deletion with ``AttributeError``, and hashes its field tuple.
"""

from __future__ import annotations


class Record:
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None


class FrozenRecord(Record):
    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
