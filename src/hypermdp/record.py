"""Value classes: named fields in ``__slots__``, compared by value.

A subclass names its fields in ``_fields`` and stores them in
``__slots__``; ``_defaults`` gives the fields that may be left out.
Defining one runs no generated code, so it costs about as much as a plain
class: a ``dataclasses`` class costs about a millisecond to define.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter


class Record:
    """Fields given by position or keyword; equal when the type and every
    field are equal; mutable and unhashable, like a plain dataclass.  A
    ``dict`` or ``list`` default is copied, so no two instances share it."""

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._complete(args, kwargs)
        i = 0
        for value in args:  # indexing, since a zip costs about as much as setting two fields
            setters[i](self, value)
            i += 1

    def _complete(self, args: tuple, kwargs: dict):
        if not args and len(kwargs) == len(self._fields) > 1:
            try:  # every field by keyword
                return self._by_keyword(kwargs)
            except KeyError:
                pass  # a misspelt field, reported below
        values = list(args[:len(self._fields)])
        for field in self._fields[len(values):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                default = self._defaults[field]
                values.append(default.copy() if isinstance(default, (dict, list)) else default)
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {field!r}")
        if kwargs or len(args) > len(values):
            raise TypeError(f"{type(self).__name__}{self._fields}: {len(args)} positional arguments, "
                            f"unknown or repeated keywords {sorted(kwargs)}")
        return values

    def __init_subclass__(cls):
        # hot paths: the slots' own setters, which a frozen __setattr__ does
        # not guard, and C getters (which return a tuple for two fields or more)
        fields = cls._fields
        cls._setters = tuple(getattr(cls, field).__set__ for field in fields)
        cls._by_keyword = itemgetter(*fields) if len(fields) > 1 else None
        get = attrgetter(*fields) if fields else None
        cls._values = property(get if len(fields) > 1 else lambda self: (get(self),) if get else ())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __reduce__(self):  # copy and pickle rebuild through __init__: a frozen one refuses setattr
        return type(self), self._values

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A ``Record`` whose fields cannot be assigned after it is built, hashed
    by its field values; the hash is computed once, since caches key on
    some of these classes."""

    __slots__ = ("_hash",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._values))
            return self._hash
