"""Frozen value records, without the ``dataclasses`` module.

``@record`` makes the annotated fields of a class, in order, a frozen
record: a generic ``__init__`` (positional or keyword arguments, defaults,
fresh :func:`field` default factories, then ``__post_init__`` when the
class has one), field-tuple ``__eq__`` and ``__hash__``, and the
``__repr__`` that ``dataclasses`` prints.  A method the class body defines
itself is kept.  Assigning or deleting an attribute raises
:class:`FrozenRecordError`, so ``__post_init__`` normalises fields with
``object.__setattr__``.

The package avoids ``dataclasses`` because every command-line call would
pay for it: importing it loads ``inspect`` (and with it ``dis``, ``ast``
and ``tokenize``), and decorating a class compiles each generated method
through its own ``exec``.
"""

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


class _Factory:
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def field(default_factory):
    """A field default built afresh for each instance by ``default_factory()``."""
    return _Factory(default_factory)


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields."""
    names = tuple(cls.__annotations__)
    defaults = {}
    for name in names:
        if name in vars(cls):
            defaults[name] = vars(cls)[name]
            if isinstance(defaults[name], _Factory):
                delattr(cls, name)
        elif defaults:
            raise TypeError(f"non-default field {name!r} follows a default field")
    qualname = cls.__qualname__
    has_post_init = hasattr(cls, "__post_init__")
    # attrgetter returns a tuple for two or more names only
    if len(names) > 1:
        fields_of = attrgetter(*names)
    else:
        fields_of = lambda obj: tuple(getattr(obj, name) for name in names)  # noqa: E731

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qualname}() takes {len(names)} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{qualname}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        state = self.__dict__
        for name in names:
            if name in values:
                state[name] = values[name]
            elif name in defaults:
                value = defaults[name]
                state[name] = value.make() if isinstance(value, _Factory) else value
            else:
                raise TypeError(f"{qualname}() missing required argument {name!r}")
        if has_post_init:
            # looked up per call, so a patched __post_init__ is the one run
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields_of(self) == fields_of(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields_of(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    # a class body that defines __eq__ alone gets __hash__ = None, which is
    # replaced as dataclasses replaces it
    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if vars(cls).get(method.__name__) is None:
            method.__qualname__ = f"{qualname}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls._record_fields = names
    return cls


def replace(obj, **changes):
    """A new record like ``obj`` with some fields changed; ``__init__`` and
    ``__post_init__`` run again, as for any new record."""
    for name in obj._record_fields:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)
