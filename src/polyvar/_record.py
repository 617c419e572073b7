"""`record`: the frozen value classes of the engine.

A record's fields are its annotated class attributes, in order; a field's
class attribute, when set, is its default.  The decorator adds `__init__`
(positional or keyword arguments), `__eq__` (only between instances of the
same class), `__hash__` (`hash((f1, ..., fn))`), `__repr__`
(`Name(f1=..., ...)`), and a `__setattr__` and `__delattr__` that raise
`AttributeError`.  These are the semantics of the standard library's frozen
data classes, built as closures over the field names: a record class costs
no `exec` and no import beyond `operator`.  `__match_args__` lists the
fields.
"""

from operator import attrgetter


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    count = len(names)
    if count == 1:
        get = attrgetter(names[0])

        def values(obj):
            return (get(obj),)

    else:
        values = attrgetter(*names)

    setattr_ = object.__setattr__
    where = f"{cls.__qualname__}.__init__()"

    def bind(args, kwargs):
        """The field values of a call that names fields or leaves defaults."""
        if len(args) > count:
            raise TypeError(f"{where} takes {count} arguments but {len(args)} were given")
        bound = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                bound.append(kwargs.pop(name))
            elif name in defaults:
                bound.append(defaults[name])
            else:
                raise TypeError(f"{where} missing required argument: {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{where} got {problem} argument {name!r}")
        return bound

    def __init__(self, *args, **kwargs):
        # the engine's calls give every field by position
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        # not through `self.__dict__`: reading it builds the instance's dict,
        # and every later attribute read takes the slower dict path
        for name, value in zip(names, args):
            setattr_(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
