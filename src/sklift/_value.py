"""Value semantics for sklift's small record classes, written once.

A record is a ``__slots__`` class whose fields are its slots, in order.
:class:`Record` gives it what a dataclass would: equality of the field
tuple with instances of the same class only, the ``Name(field=value, ...)``
repr, ``__match_args__``, and copy and pickle through the constructor.
:class:`Frozen` adds immutability, a positional constructor and the hash of
the field tuple; :class:`Ordered` adds the four comparisons.
:class:`Immutable` alone refuses assignment and deletion, for classes that
set their slots themselves.

``dataclasses`` is not used: with ``inspect`` it costs every CLI process
about as much to import as all of sklift.  The fields are read with one
C-level :func:`operator.attrgetter` per class, not a loop of ``getattr``,
because the Hecke path hashes tens of thousands of double cosets per
process.
"""

from functools import total_ordering
from operator import attrgetter


class Immutable:
    """Refuses attribute assignment and deletion; a subclass sets its
    fields with ``object.__setattr__`` or the slot descriptors."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record:
    """A class whose fields are its own ``__slots__``: a tuple of at least
    two names, as ``attrgetter`` of one name returns the value, not a
    tuple.  Unhashable, as it defines ``__eq__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__dict__.get("__slots__", ())
        if names:  # the field-less bases below have none
            cls.__match_args__ = names
            cls._fields = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields  # one class, so one getter for both
            return fields(self) == fields(other)
        return NotImplemented

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({pairs})"

    def __reduce__(self):
        return (type(self), self._fields(self))


class Frozen(Record, Immutable):
    """An immutable record, built from its field values in slot order and
    hashed as its field tuple."""

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments "
                            f"({len(values)} given)")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._fields(self))


@total_ordering
class Ordered(Frozen):
    """A frozen record ordered as its field tuple, against instances of the
    same class only.  ``sorted`` calls ``__lt__`` alone, so it is written
    out; the other three comparisons are derived from it and ``__eq__``."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) < fields(other)
        return NotImplemented
