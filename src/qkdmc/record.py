"""One base class for the package's immutable records."""

from __future__ import annotations


class _RecordType(type):
    """Makes each annotated field of a record class a slot, and records the
    class's fields and defaults for `_first_init`."""

    def __new__(mcls, name: str, bases: tuple, namespace: dict, **kwargs: object) -> type:
        own = tuple(namespace.get("__annotations__", ()))
        defaults = {field: namespace.pop(field) for field in own if field in namespace}
        namespace["__slots__"] = own + tuple(namespace.get("__slots__", ()))
        namespace["__init__"] = _first_init
        cls = super().__new__(mcls, name, bases, namespace, **kwargs)
        cls._fields = own + tuple(f for f in getattr(cls, "_fields", ()) if f not in own)
        cls._defaults = {**getattr(cls, "_defaults", {}), **defaults}
        return cls


def _first_init(self: Record, *args: object, **kwargs: object) -> None:
    """Compile the class's constructor and comparison key, then construct: a
    class compiles them at its first instance, not when it is imported."""
    cls = type(self)
    fields, defaults = cls._fields, cls._defaults
    params = [f"{field}=_defaults[{field!r}]" if field in defaults else field for field in fields]
    compared = "".join(f"self.{field}, " for field in fields if field not in cls._not_compared)
    # Each slot's own setter skips the __setattr__ that refuses assignment,
    # and costs less than object.__setattr__.
    source = [f"def __init__(self, {', '.join(params)}):"]
    source += [f"    _set_{field}(self, {field})" for field in fields] or ["    pass"]
    source += ["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    source += ["def _key(self):", f"    return ({compared})"]
    scope = {"_defaults": defaults, **{f"_set_{f}": getattr(cls, f).__set__ for f in fields}}
    exec("\n".join(source), scope)
    cls.__init__, cls._key = scope["__init__"], scope["_key"]
    cls.__init__(self, *args, **kwargs)


class Record(metaclass=_RecordType):
    """Base of an immutable record class.

    A subclass declares its fields once, as annotations in its class body; a
    class attribute of the same name is that field's default. A subclass's
    own fields come first, then its bases'. Each field is a slot, and so is
    each name in the class's own ``__slots__``. The constructor takes the
    fields in order, by position or by name, then calls ``__post_init__`` if
    the class has one. Instances of one class are equal, and hash alike, when
    their compared fields are; setting or deleting an attribute raises
    AttributeError. ``_not_compared`` names the fields that equality and
    hashing skip, ``_not_shown`` those that repr skips.
    """

    _not_compared = ()
    _not_shown = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = [name for name in self._fields if name not in self._not_shown]  # type: ignore[attr-defined]
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        # Copies and pickles rebuild a record through its constructor.
        return self.__class__, tuple(getattr(self, name) for name in self._fields)  # type: ignore[attr-defined]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
