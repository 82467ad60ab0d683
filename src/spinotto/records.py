"""Immutable value types, built without :mod:`dataclasses`.

Each public record type subclasses :class:`Record` (or
:class:`IdentityRecord`) and a :func:`collections.namedtuple` of its fields,
so a record is the tuple of its field values in field order and reads them
by name.  ``__slots__ = ()`` on every class leaves no instance dictionary,
so assigning or deleting an attribute raises AttributeError.  A type that
checks its values does so in its own ``__new__``, which keeps the
constructor signature; :func:`replace` goes through that constructor.

Importing :mod:`dataclasses` (which loads :mod:`inspect`) and generating the
methods of the thirteen types cost about 20 ms per process (2-core x86_64,
Python 3.11), more than a short CLI run computes; these classes cost about
1 ms to build.
"""

from __future__ import annotations


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with the named fields changed.

    The copy is built through the type's constructor, so its checks run
    again (ValueError for an out-of-range value, as when constructing);
    a name that is not a constructor keyword raises TypeError.
    """
    fields = obj._asdict()
    fields.update(changes)
    return type(obj)(**fields)


class Record(tuple):
    """Base of the value types that compare by value.

    A record equals another record of the same type with equal fields, and
    hashes as the tuple of its fields; it never equals a plain tuple or a
    record of another type.  namedtuple's ``_replace`` is :func:`replace`
    here, and ``_make`` calls the constructor, so both check the values too.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # a plain tuple would otherwise answer the reflected comparison
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__
    _replace = __replace__ = replace

    @classmethod
    def _make(cls, iterable):
        """The record of the field values in ``iterable``, through the
        constructor (by keyword: AffinePropagator's first argument is m)."""
        return cls(**dict(zip(cls._fields, iterable, strict=True)))


class IdentityRecord(Record):
    """Base of the value types that, like plain objects, equal and hash only
    themselves (propagators, branches and reports)."""

    __slots__ = ()

    def __eq__(self, other):
        if other is self:
            return True
        return False if isinstance(other, tuple) else NotImplemented

    __hash__ = object.__hash__
