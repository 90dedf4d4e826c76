"""Frozen value records, without `dataclasses`.

A `Record` subclass names its fields as class annotations, in order.  A
class-level value is that field's default, and `fresh(make)` a default
built anew for each instance.  An instance takes its fields by position
or by name, runs `__post_init__` if the class has one and refuses
assignment.  It equals only an instance of the same class with equal
fields, hashes its field tuple, prints as `Name(f=..., g=...)` and
copies and pickles: the semantics of `@dataclass(frozen=True)`, with no
code generated at import.

The hot value classes (`Poly`, `LinearPoly`, `BivarPoly`,
`FieldDescriptor`) declare `__slots__` and write their own `__init__`,
`__eq__` and `__hash__`; from `Record` they take `__repr__`, copying
and the refusal of assignment.
"""

from __future__ import annotations


class fresh:
    """A field default built by `make()` for each instance."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def slot_setters(cls) -> tuple:
    """The slot setters of a slotted record, in field order, for its
    `__init__`: a frozen record refuses plain assignment."""
    return tuple(getattr(cls, name).__set__ for name in cls._fields)


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if "__slots__" not in cls.__dict__:  # a slot is not a default
            cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                             if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} "
                            f"arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or "
                                f"repeated argument {name!r}")
            values[name] = value
        state = self.__dict__
        for name in fields:
            if name in values:
                state[name] = values[name]
            elif name in cls._defaults:
                default = cls._defaults[name]
                state[name] = (default.make() if type(default) is fresh
                               else default)
            else:
                raise TypeError(f"{cls.__name__}() missing argument "
                                f"{name!r}")
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({body})"
