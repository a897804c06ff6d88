"""One JSON codec for the dataclasses that are written to or read from disk.

A ``Record`` dataclass gets ``to_dict`` / ``from_dict`` from its fields:

- only fields that take part in equality are encoded; ``compare=False``
  fields are in-memory diagnostics;
- values are decoded by their type annotation: nested records, enums,
  homogeneous tuples, ``dict[str, Record]``, and strictly typed scalars
  (an ``int`` field rejects 1.5, a ``float`` field takes 2 as 2.0);
- unknown keys and missing required keys raise ValueError.

Class attributes shape the layout: ``_where`` names the object in error
messages, ``_schema`` prefixes a ``"schema"`` version, and ``_omit_none``
leaves out fields that are None.  Field metadata ``group`` nests a field
under that key; ``encode`` and ``decode`` replace the default converters.
"""

from __future__ import annotations

import functools
import numbers
import types
import typing
from dataclasses import MISSING, fields
from enum import Enum

__all__ = ["Record", "SCHEMA_VERSION", "check_keys", "decode"]

SCHEMA_VERSION = 1

_SCALARS = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str}

_type_hints = functools.cache(typing.get_type_hints)


def check_keys(d: dict, allowed, where: str):
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def _encode(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def decode(hint, value, where: str):
    """``value`` read from JSON as the type ``hint``; ValueError names ``where``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return decode(hint, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where} must be a list, got {value!r}")
        return tuple(decode(args[0], v, where) for v in value)
    if origin is dict:
        return {k: decode(args[1], v, where) for k, v in value.items()}
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint.from_dict(value)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(value)
    if hint in _SCALARS:
        if isinstance(value, bool) != (hint is bool) or not isinstance(value, _SCALARS[hint]):
            raise ValueError(f"{where} must be {hint.__name__}, got {value!r}")
        return hint(value)
    return value


class Record:
    """Mixin giving a dataclass the shared ``to_dict`` / ``from_dict``."""

    _where = "record"
    _schema = False
    _omit_none = False

    def to_dict(self) -> dict:
        out: dict = {"schema": SCHEMA_VERSION} if self._schema else {}
        for f in fields(self):
            value = getattr(self, f.name)
            if not f.compare or (value is None and self._omit_none):
                continue
            target = out.setdefault(f.metadata["group"], {}) if "group" in f.metadata else out
            target[f.name] = f.metadata.get("encode", _encode)(value)
        return out

    @classmethod
    def from_dict(cls, d: dict, where: str | None = None):
        where = where or cls._where
        own = [f for f in fields(cls) if f.compare]
        groups = {f.metadata.get("group") for f in own} - {None}
        top = {f.name for f in own if "group" not in f.metadata} | groups
        check_keys(d, top | ({"schema"} if cls._schema else set()), where)
        for g in groups:
            check_keys(d.get(g, {}), {f.name for f in own if f.metadata.get("group") == g}, g)
        hints = _type_hints(cls)
        kwargs = {}
        for f in own:
            src = d.get(f.metadata["group"], {}) if "group" in f.metadata else d
            if f.name not in src:
                if f.default is MISSING and f.default_factory is MISSING:
                    raise ValueError(f"{where} requires the '{f.name}' key")
                continue
            hook = f.metadata.get("decode")
            value = src[f.name]
            kwargs[f.name] = hook(value) if hook else decode(hints[f.name], value, f"{where} '{f.name}'")
        return cls(**kwargs)
