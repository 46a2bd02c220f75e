"""Immutable records: the one base of the package's value classes.

A record's fields are the parameters of its class's __init__, in order.
That __init__ checks and normalises its arguments and stores the final
values with self.__dict__.update(name=value, ...), since assignment is
refused: assigning to or deleting any attribute raises AttributeError.
Equality, hash and repr read the fields only, so a functools.cached_property,
which caches straight into the instance __dict__, takes no part in them.
"""


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
