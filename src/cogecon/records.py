"""Frozen, slotted records that share one set of methods.

`record` gives what ``dataclass(frozen=True, slots=True)`` gives for less
class-creation time, which every CLI process pays once per record class.
``dataclass`` still does the field bookkeeping (``__dataclass_fields__``, which
``fields``, ``replace`` and ``asdict`` read, and ``__match_args__``) but
compiles no method; its ``__dataclass_params__`` describes that call.  Each
class is then built once, with a slot per field, on `_Record`.  Its one
``__eq__``, ``__hash__`` and ``__repr__``, its refusing ``__setattr__`` and
``__delattr__`` and its pickle state methods act as the dataclass ones do,
over ``__slots__``, its one field list: every field compares, hashes, shows.
Only ``__init__`` is compiled per class.  It stores each field through its
slot's member descriptor and has the dataclass signature: plain defaults (no
``default_factory``), ``__post_init__`` last.  An ``init=False`` field is
derived: it takes no default, and ``__post_init__`` stores it.  A record
without a docstring is documented by that signature.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from reprlib import recursive_repr


class _Record:
    """The methods every record shares; see the module docstring."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (tuple([getattr(self, name) for name in self.__slots__])
                    == tuple([getattr(other, name) for name in self.__slots__]))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self.__slots__]))

    @recursive_repr()
    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


def record(cls: type) -> type:
    """cls, with no base of its own, as a frozen, slotted record on _Record."""
    doc = cls.__doc__
    if doc is None:
        # A placeholder, so that dataclass skips the signature of
        # object.__init__; the real one is set from __init__ below.
        cls.__doc__ = cls.__name__
    cls = dataclass(cls, init=False, repr=False, eq=False)
    own = fields(cls)
    namespace = {key: value for key, value in cls.__dict__.items()
                 if key not in cls.__dataclass_fields__ and key not in ("__dict__", "__weakref__")}
    namespace["__slots__"] = tuple(f.name for f in own)
    qualname = cls.__qualname__
    cls = type(cls)(cls.__name__, (_Record,), namespace)
    cls.__qualname__ = qualname
    env, params, body, annotations = {}, [], [], {"return": None}
    for f in own:
        if f.init:
            name = f.name
            env[f"_set_{name}"], env[f"_default_{name}"] = cls.__dict__[name].__set__, f.default
            params.append(name if f.default is MISSING else f"{name}=_default_{name}")
            annotations[name] = f.type
            body.append(f"    _set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(body) or "    pass"), env)
    cls.__init__ = env["__init__"]
    cls.__init__.__qualname__ = f"{qualname}.__init__"
    cls.__init__.__annotations__ = annotations
    if doc is None:
        cls.__doc__ = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    return cls
