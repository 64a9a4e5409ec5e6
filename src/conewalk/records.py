"""Frozen records: the one base class of the package's value types.

A subclass declares its fields as class annotations, each with an
optional default, as a frozen data class of the standard library does.
Record gives it a constructor taking the fields by position or keyword,
which applies the defaults and then calls __post_init__; equality over
the class and the fields and a hash over the fields; the repr
Name(field=value, ...); and instances that refuse assignment.  Unlike
the standard library's data classes it generates no code: their module
loads inspect, and exec-ing each class's methods costs about 0.65 ms
(Python 3.11, 2-vCPU host), which together made up half of a cold
command's import time.

Fields are stored with object.__setattr__, in declaration order, so
vars() lists them in that order; writing through the instance __dict__
instead would make every later attribute read slower.
"""

from __future__ import annotations


class Record:
    """Base of a frozen record; see the module docstring."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)  # the class's own, from Python 3.10 on
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} arguments, "
                            f"{len(args)} given")
        for f, v in zip(fields, args):
            object.__setattr__(self, f, v)
        for f in fields[len(args):]:
            if f in kwargs:
                v = kwargs.pop(f)
            elif f in self._defaults:
                v = self._defaults[f]
            else:
                raise TypeError(f"{type(self).__qualname__}() missing argument {f!r}")
            object.__setattr__(self, f, v)
        if kwargs:  # a name that is no field, or one already given by position
            raise TypeError(f"{type(self).__qualname__}() got an unexpected or repeated "
                            f"argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        """Validate or normalize the fields; a subclass overrides it."""

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
