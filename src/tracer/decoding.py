"""One typed decoder for every JSON input: ``decode(hint, value)`` reads a
JSON value as an instance of ``hint`` or raises ``DecodeError``. A bool or
a string is never a number, an int where a float is due becomes a float,
and a dataclass's key may be missing only where the field's metadata says
``optional`` (by default, where the field defaults to None).
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import typing
from enum import Enum

# the exact JSON types each scalar type takes, so a bool is no int
_SCALARS = {str: {str}, int: {int}, float: {int, float}, bool: {bool}}


class DecodeError(TypeError, ValueError):
    """A value not of its type: both errors, as the checks it replaced raised one or the other."""


def decode(hint, value):
    """``value``, read from JSON, as an instance of the type ``hint``."""
    return _reader(hint)(value)


@functools.cache
def _reader(hint):
    """The function that reads a JSON value as ``hint``, made once per type."""
    if hint in _SCALARS:

        def scalar(value):
            if type(value) not in _SCALARS[hint]:
                raise DecodeError(f"expected {hint.__name__}, got {value!r:.80}")
            return _floats([value])[0] if hint is float and type(value) is int else value

        return scalar
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        (inner,) = set(args) - {type(None)}
        read = _reader(inner)
        return lambda value: None if value is None else read(value)
    origin = typing.get_origin(hint)
    if origin in (list, tuple):
        item, read = args[0], _reader(args[0])

        def items(value):
            if type(value) is not list:
                raise DecodeError(f"expected a list, got {value!r:.80}")
            if item not in _SCALARS:
                return origin(map(read, value))
            types = set(map(type, value))  # one pass, not a call per element
            if not types <= _SCALARS[item]:
                raise DecodeError(f"expected a list of {item.__name__}, got {value!r:.80}")
            return origin(_floats(value) if int in types and item is float else value)

        return items
    if dataclasses.is_dataclass(hint):
        hints, fields = typing.get_type_hints(hint), dataclasses.fields(hint)
        required = {f.name for f in fields if not f.metadata.get("optional", f.default is None)}
        readers = [(f.name, _reader(hints[f.name])) for f in fields]

        def build(value):
            if type(value) is not dict:
                raise DecodeError(f"expected an object, got {value!r:.80}")
            if not required <= value.keys():
                raise DecodeError(f"missing required keys {sorted(required - value.keys())}")
            return hint(**{name: read(value[name]) for name, read in readers if name in value})

        return build
    parse = hint if issubclass(hint, Enum) else datetime.date.fromisoformat

    def parsed(value):  # an enum member or a date
        try:
            return parse(value)
        except (TypeError, ValueError):
            raise DecodeError(f"expected {hint.__name__}, got {value!r:.80}") from None

    return parsed


def _floats(values) -> list[float]:
    try:
        return list(map(float, values))
    except OverflowError as exc:  # an int too large for a float
        raise DecodeError(str(exc)) from None


__all__ = ["DecodeError", "decode"]
