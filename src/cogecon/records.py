"""Frozen, slotted records with a constructor that stores through the slots.

`record` is ``dataclass(frozen=True, slots=True)`` with one difference.  A
frozen dataclass's ``__init__`` writes each field through ``object``'s
``__setattr__``, to get past its own refusing ``__setattr__``; here
each field is stored through its slot's member descriptor instead, which
skips the attribute lookup.  The signature is the dataclass one: defaults, a
fresh ``default_factory()`` per construction, ``field(init=False)`` fields
left out, ``__post_init__`` called last, and a record without a docstring
documented by its signature.  Equality, hashing, repr, immutability,
``dataclasses.fields`` and ``dataclasses.replace`` are the dataclass ones.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, fields


class _Factory:
    """Default of a parameter whose field has a default_factory."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


def record(cls: type) -> type:
    """cls as a frozen, slotted dataclass whose __init__ stores through the slots."""
    doc = cls.__doc__
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    env = {"_FACTORY": _FACTORY}
    params, body, annotations = [], [], {"return": None}
    for f in fields(cls):
        name = f.name
        env.update({f"_set_{name}": cls.__dict__[name].__set__,
                    f"_default_{name}": f.default, f"_factory_{name}": f.default_factory})
        factory = f.default_factory is not MISSING
        default = "_FACTORY" if factory else None if f.default is MISSING else f"_default_{name}"
        if f.init:
            params.append(name if default is None else f"{name}={default}")
            annotations[name] = f.type
            value = f"_factory_{name}() if {name} is _FACTORY else {name}" if factory else name
        elif default is None:
            continue
        else:
            value = f"_factory_{name}()" if factory else default
        body.append(f"    _set_{name}(self, {value})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(body) or "    pass"), env)
    cls.__init__ = env["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__.__annotations__ = annotations
    if doc is None:
        cls.__doc__ = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    return cls
