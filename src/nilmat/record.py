"""Records, the package's data classes: fields in `__slots__` in constructor order, trailing
defaults in `_defaults` (a callable one, e.g. `dict`, is called per instance).  Records of one class
are equal when their `_compared` fields (default: all) are; `Frozen` ones hash them, refuse assignment."""


class Record:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._compared = cls.__dict__.get("_compared", cls._fields)
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)  # half what object.__setattr__ costs

    def __init__(self, *args, **kw):
        fields = self._fields
        if len(args) > len(fields) or kw.keys() - fields[len(args):]:
            raise TypeError(f"{type(self).__name__}() got unexpected arguments")
        kw.update(zip(fields, args))
        for f, set_field in zip(fields, self._setters):
            if f in kw:
                set_field(self, kw[f])
            elif f in self._defaults:
                d = self._defaults[f]
                set_field(self, d() if callable(d) else d)
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {f!r}")

    def _key(self):
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._compared)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._key())
