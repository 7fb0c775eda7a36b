"""A small base for the package's immutable value records.

It stands in for ``@dataclass(frozen=True)``: the ``dataclasses`` module
pulls ``inspect``, ``ast``, ``dis`` and ``tokenize`` into every import and
executes generated code per class, which a short command-line run pays for
on every start.  A subclass lists its fields in ``__slots__`` and the
defaults of its trailing fields in ``_defaults``.
"""


class Record:
    """Immutable record with slot fields, value equality and dataclass repr.

    Fields are set positionally or by keyword, then :meth:`_check` runs; it
    may normalise a field with ``object.__setattr__`` or raise.  Records
    compare equal only to records of the same class with equal fields.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, "
                            f"got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected or repeated "
                            f"fields {sorted(kwargs)}")
        self._check()

    def _check(self):
        """Validate or normalise the fields once they are set."""

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
