"""The base class of the package's immutable value types.

A subclass of :class:`FrozenRecord` lists its fields as class annotations,
in order; a class attribute of the same name is that field's default.
The record is built from positional or keyword arguments, then its
``__post_init__`` runs.  Two records are equal when they are of the same
class and their fields are equal, and a record hashes as the tuple of its
fields.  Fields cannot be assigned or deleted.  Records pickle and copy
as a call of their class on their field values, so the copy is built and
checked as the original was.

The standard library's generated record classes would do the same, but
importing them loads :mod:`inspect`, :mod:`ast`, :mod:`dis` and
:mod:`tokenize` and builds each class by ``exec`` of generated code, which
took most of the package's import time.  The base is internal; the
package does not export it.
"""

from __future__ import annotations


class FrozenRecord:
    """Immutable record with field-wise equality, hash and repr.

    The base declares no instance storage (``__slots__ = ()``), so a
    subclass may keep its fields in slots and carry no instance dict, as
    :class:`~xctangle.gauss.XCGaussDiagram` does.  Its slot descriptors
    are then class attributes named like the fields; they are not read
    as defaults.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        own, slots = vars(cls), vars(cls).get("__slots__", ())
        cls._defaults = {f: own[f] for f in cls._fields
                         if f in own and f not in slots}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # One object.__setattr__ per field, as a generated __init__ would
        # do.  Filling self.__dict__ instead turns the instance's inline
        # attribute values into a plain dict, and every later read of a
        # field (a pattern's sides in each site search) got two to three
        # times slower on CPython 3.11.  The calls are mapped rather than
        # looped, about 0.2 us less per five-field record on CPython 3.11;
        # each returns None, so ``any`` consumes the whole map.
        any(map(object.__setattr__, (self,) * len(fields), fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """The field values of a call, in field order, with defaults
        filled in; raise TypeError on a missing, unknown or repeated
        argument."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        given = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword "
                                f"argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for "
                                f"argument {key!r}")
            given[key] = value
        for key in fields:
            if key not in given and key not in cls._defaults:
                raise TypeError(f"{name}() missing required argument {key!r}")
        return tuple(given[key] if key in given else cls._defaults[key]
                     for key in fields)

    def _values(self) -> tuple:
        """The field values, in field order."""
        return tuple([getattr(self, f) for f in self._fields])

    def __reduce__(self):
        return self.__class__, self._values()

    def __post_init__(self) -> None:
        """Check the fields; a subclass overrides this to validate."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}"
                         for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
