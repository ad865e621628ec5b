"""The one rule by which every config dataclass maps to and from its JSON
form, and by which its values are checked; and the one form in which every
JSON file the package writes is laid out.

Each config dataclass (`NoiseModel`, `TrackerParams`, `CommanderConfig`,
`Intrinsics`, `SceneGenParams`) maps 1:1 to its JSON object: one key per
field, in declaration order.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np


def json_text(obj) -> str:
    """`obj` as every JSON file of the package is laid out: indented, keys
    sorted, newline-terminated."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(obj))


def fields_to_json(obj) -> dict:
    """JSON form of a flat dataclass: its fields in declaration order, tuples as lists."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def json_number(name: str, kind: str, value, least: int | None = None):
    """`value` read as a `kind` ("float" or "int") field: a float field
    takes any number, an int field a whole number, at least `least` when
    that is given; bools are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number")
    if kind == "float":
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float range
            raise ValueError(f"{name} must be finite") from None
    if kind == "int" and (isinstance(value, int) or value.is_integer()):
        if least is not None and value < least:
            raise ValueError(f"{name} must be an integer >= {least}")
        return int(value)
    raise ValueError(f"{name} must be a whole number")


def json_numbers(name: str, value) -> list[float]:
    """`value` read as a list of float-field numbers."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list of numbers")
    return [json_number(name, "float", x) for x in value]


def fields_from_json(cls, d: dict):
    """Build dataclass `cls` from its JSON form, by one rule read from the
    field annotations (strings, as every module uses postponed annotations):
    a `float` field takes any number and stores float(x), an `int` field
    takes a whole number and stores int(x), a `tuple[float, ...]` field takes
    a list of numbers; bools are refused everywhere. Keys that are not
    fields raise TypeError."""
    if not isinstance(d, dict):
        raise TypeError("must be a JSON object")
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for name, value in d.items():
        kind = types.get(name)
        if kind is None:
            raise TypeError(f"{name} is not a field of this section")
        if kind.startswith("tuple["):
            kwargs[name] = tuple(json_numbers(name, value))
        else:
            kwargs[name] = json_number(name, kind, value)
    return cls(**kwargs)


def check_fields(obj, positive=(), counts=(), ranges=()) -> None:
    """Validate dataclass `obj`, raising ValueError that names the field.

    `counts` pairs an integer field (bools refused) with its least value;
    every field must hold finite numbers; `positive` fields must be > 0; and
    `ranges` gives (field, lo, hi): each number the field holds must lie in
    [lo, hi]. The class that passes a bound says in its docstring why it
    holds.
    """
    for name, least in counts:
        value = getattr(obj, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}")
    for f in fields(obj):
        try:
            finite = bool(np.isfinite(getattr(obj, f.name)).all())
        except TypeError:
            finite = False
        if not finite:
            raise ValueError(f"{f.name} must be finite")
    for name in positive:
        if not getattr(obj, name) > 0:
            raise ValueError(f"{name} must be > 0")
    for name, lo, hi in ranges:
        value = getattr(obj, name)
        for x in value if isinstance(value, tuple) else (value,):
            if x < lo:
                raise ValueError(f"{name} must be >= {lo:g}")
            if x > hi:
                raise ValueError(f"{name} must be <= {hi:g}")
