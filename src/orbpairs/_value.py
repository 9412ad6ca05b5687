"""Value types without the ``dataclasses`` module.

``@dataclass(frozen=True)`` reads a class's annotated fields in order, with
their defaults and ``field(default_factory=...)``, and adds ``__init__``
(which calls ``__post_init__`` when the class has one), ``__repr__``,
``__eq__`` and, for a frozen class, ``__hash__``.  A method the class
defines itself is kept.  The four methods are straight-line code for that
class, generated as one source and compiled by one ``exec``.  A frozen
instance refuses assignment and deletion with ``FrozenInstanceError``;
``__post_init__`` normalizes a field through ``object.__setattr__``.  A
class that is not frozen is unhashable.

Start-up is most of a command's wall time, and importing ``dataclasses``
loads ``inspect``, ``ast`` and ``dis`` and runs several ``exec``s per class.
So this is only the part of it that the program uses: there is no
``order``, ``slots``, ``replace``, ``kw_only``, ``InitVar`` or ``ClassVar``.
"""

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen value."""


class Field:
    __slots__ = ("name", "default", "default_factory")

    def __init__(self, default=_MISSING, default_factory=_MISSING):
        self.name = None
        self.default = default
        self.default_factory = default_factory


def field(*, default_factory):
    return Field(default_factory=default_factory)


def fields(cls):
    """The fields of a value class, in declaration order."""
    return cls._value_fields


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def dataclass(cls=None, /, *, frozen=False):
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls, frozen):
    # __name__ gives the generated methods the class's __module__
    env = {"__name__": cls.__module__, "_set": object.__setattr__, "_MISSING": _MISSING}
    found, params, assigns = [], [], []
    for name in cls.__dict__.get("__annotations__", {}):
        f = cls.__dict__.get(name, _MISSING)
        if not isinstance(f, Field):
            f = Field(default=f)
        f.name = name
        found.append(f)
        value = name
        if f.default_factory is not _MISSING:
            env[f"_factory_{name}"] = f.default_factory
            params.append(f"{name}=_MISSING")
            value = f"_factory_{name}() if {name} is _MISSING else {name}"
            delattr(cls, name)
        elif f.default is not _MISSING:
            env[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        assigns.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        assigns.append("self.__post_init__()")
    names = [f.name for f in found]
    mine = ", ".join(f"self.{n}" for n in names) + ","
    theirs = ", ".join(f"other.{n}" for n in names) + ","
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    methods = {
        "__init__": f"def __init__(self, {', '.join(params)}):\n    "
        + "\n    ".join(assigns),
        "__repr__": f"def __repr__(self):\n"
        f"    return f'{{self.__class__.__qualname__}}({shown})'",
        "__eq__": "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented",
        "__hash__": f"def __hash__(self):\n    return hash(({mine}))",
    }
    if not frozen:
        del methods["__hash__"]
    # a method the class defines is kept; a class that defines __eq__ alone has __hash__ None
    methods = {name: text for name, text in methods.items() if cls.__dict__.get(name) is None}
    exec("\n".join(methods.values()), env)
    for name in methods:
        method = env[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    elif cls.__dict__.get("__hash__") is None:
        cls.__hash__ = None
    cls._value_fields = tuple(found)
    return cls
