"""JSON config sections built straight into their dataclasses.

The dataclasses declare every field name, which fields are required, their
types and their defaults; range checks stay in each dataclass's
__post_init__. A bad value raises ConfigError naming the field's JSON path.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import types
import typing


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")


def check_sizes(obj, *names: str) -> None:
    """Raise ValueError naming the first of the fields `names` of `obj` that
    is not a size the run can index: 1 to sys.maxsize, the longest a list or
    a NumPy dimension can be."""
    for name in names:
        if getattr(obj, name) < 1:
            raise ValueError(f"{name} must be >= 1")
        if getattr(obj, name) > sys.maxsize:
            raise ValueError(f"{name} must be <= {sys.maxsize}")


_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def typed_value(hint, value, path: str):
    """`value` checked against the annotation `hint`: a JSON object for a
    dataclass, a list for a tuple or list, null for an optional field. A float
    field takes any finite number (not NaN or Infinity, which Python's json
    module reads, nor an integer too large for a float) and stores a JSON
    integer as a float."""
    if hint not in _TYPE_NAMES:  # scalars skip the slower typing checks
        origin, args = _shape(hint)
        if origin is dataclasses.dataclass:
            return build(hint, value, path)
        if origin is types.UnionType:  # X | None
            return None if value is None else typed_value(args[0], value, path)
        if origin in (tuple, list):
            if not isinstance(value, list):
                raise ConfigError(path, f"expected a list, got {json.dumps(value)}")
            try:
                return origin([typed_value(args[0], v, path) for v in value])
            except ConfigError:
                # Checked again to name the element at fault: formatting each
                # element's path up front would cost more than its check.
                for i, v in enumerate(value):
                    typed_value(args[0], v, f"{path}[{i}]")
                raise
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


@functools.cache
def _shape(hint) -> tuple:
    """(origin, args) of a non-scalar annotation, read once: the dataclass
    decorator for a dataclass, and for `X | None` the union and (X,)."""
    if dataclasses.is_dataclass(hint):
        return dataclasses.dataclass, ()
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        (hint,) = [a for a in args if a is not type(None)]
        return origin, (hint,)
    return origin, args


@functools.cache
def _schema(cls) -> dict:
    """Each field of dataclass `cls` by name: its type hint and whether it is
    required (has no default)."""
    hints, missing = typing.get_type_hints(cls), dataclasses.MISSING
    return {f.name: (hints[f.name], f.default is missing and f.default_factory is missing)
            for f in dataclasses.fields(cls)}


def build(cls, entry, context: str, **given):
    """Dataclass `cls` from the JSON object `entry`. The dataclass declares the
    field names, which are required and their defaults; `given` sets fields
    that are not read from JSON. A ValueError (or an OverflowError or
    RecursionError) from cls.__post_init__ whose message starts with a field
    name is reported against that field."""
    if not isinstance(entry, dict):
        raise ConfigError(context, f"expected an object, got {json.dumps(entry)}")
    schema = _schema(cls)
    values = dict(given)
    for key, value in entry.items():
        if key not in schema or key in given:
            raise ConfigError(f"{context}.{key}", "unknown field")
        values[key] = typed_value(schema[key][0], value, f"{context}.{key}")
    for name, (_, required) in schema.items():
        if required and name not in values:
            raise ConfigError(f"{context}.{name}", "missing required field")
    try:
        return cls(**values)
    except (ValueError, OverflowError, RecursionError) as exc:
        field, _, rest = str(exc).partition(" ")
        if field in schema and field not in given:
            raise ConfigError(f"{context}.{field}", rest) from None
        raise ConfigError(context, str(exc)) from None
