"""The base of every value class: immutable, slotted, compared by its fields.

A subclass lists its fields in ``__slots__`` and annotates each in its body.
Unless the body defines ``__init__`` or ``__new__``, ``Value`` writes its
constructor: one parameter per slot, in slot order, annotated as the class
annotates that slot (a slot without an annotation fails at import), whose
body sets each field once through :func:`_set`.  The constructor is compiled
from source, with ``exec`` in a scope holding only ``_set``, so that
``inspect.signature``, keyword calls and arity errors see the real
parameters without importing ``dataclasses``.  A class that needs checks or
defaults writes its own constructor, also through :func:`_set`.  Setting or
deleting an attribute after that raises ``AttributeError``.  Equality is
true at once for the same instance, else compares the fields in slot order,
and is ``NotImplemented`` for another class; hashing hashes the same fields,
``repr`` is ``Name(field=value, ...)`` over the fields not starting with an
underscore, and copying and pickling call the constructor on the fields.
The identity path serves the shared values hot loops compare, such as the
label verdicts.  A one-field class, whose ``attrgetter`` returns the field
bare, overrides ``__reduce__`` (``NSet`` also its hash and repr); ``Obj``,
whose identity is one of its fields, overrides ``__eq__``, ``__hash__`` and
``__reduce__``.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__  # the one way a constructor writes a field


def _constructor(cls: type) -> object:
    """The ``__init__`` of ``cls`` that sets each slot from its own parameter."""
    names = cls.__slots__
    body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    scope = {"_set": _set}
    exec(f"def __init__(self, {', '.join(names)}):{body}", scope)
    init = scope["__init__"]
    init.__annotations__ = {n: cls.__annotations__[n] for n in names} | {"return": "None"}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Value:
    __slots__ = ()
    _fields: attrgetter[tuple[object, ...]]  # the fields of an instance, in slot order

    def __init_subclass__(cls) -> None:
        cls._fields = attrgetter(*cls.__slots__)
        if "__init__" not in cls.__dict__ and "__new__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        return self.__class__, self._fields(self)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{type(self).__qualname__}({shown})"
