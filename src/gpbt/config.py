"""JSON config sections built straight into their dataclasses.

The dataclasses declare every field name, which fields are required, their
types and their defaults; range checks stay in each dataclass's
__post_init__. A bad value raises ConfigError naming the field's JSON path.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def typed_value(hint, value, path: str):
    """`value` checked against the annotation `hint`: a JSON object for a
    dataclass, a list for a tuple or list, null for an optional field. A float
    field takes any finite number (not NaN or Infinity, which Python's json
    module reads, nor an integer too large for a float) and stores a JSON
    integer as a float."""
    if hint not in _TYPE_NAMES:  # scalars skip the slower typing checks
        if dataclasses.is_dataclass(hint):
            return build(hint, value, path)
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if origin is types.UnionType:  # X | None
            if value is None:
                return None
            (hint,) = [a for a in args if a is not type(None)]
            return typed_value(hint, value, path)
        if origin in (tuple, list):
            if not isinstance(value, list):
                raise ConfigError(path, f"expected a list, got {json.dumps(value)}")
            return origin(typed_value(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(value, bool) == (hint is bool):  # true/false is a bool and no number
        if hint is float and isinstance(value, (int, float)):
            try:
                number = float(value)
            except OverflowError:
                number = math.inf
            if math.isfinite(number):
                return number
        if hint is not float and isinstance(value, hint):
            return value
    raise ConfigError(path, f"expected {_TYPE_NAMES[hint]}, got {json.dumps(value)}")


def build(cls, entry, context: str, **given):
    """Dataclass `cls` from the JSON object `entry`. The dataclass declares the
    field names, which are required and their defaults; `given` sets fields
    that are not read from JSON. A ValueError from cls.__post_init__ whose
    message starts with a field name is reported against that field."""
    if not isinstance(entry, dict):
        raise ConfigError(context, f"expected an object, got {json.dumps(entry)}")
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in given}
    values = dict(given)
    for key, value in entry.items():
        if key not in fields:
            raise ConfigError(f"{context}.{key}", "unknown field")
        values[key] = typed_value(hints[key], value, f"{context}.{key}")
    for name, f in fields.items():
        missing = dataclasses.MISSING
        if name not in values and f.default is missing and f.default_factory is missing:
            raise ConfigError(f"{context}.{name}", "missing required field")
    try:
        return cls(**values)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        if field in fields:
            raise ConfigError(f"{context}.{field}", rest) from None
        raise ConfigError(context, str(exc)) from None
