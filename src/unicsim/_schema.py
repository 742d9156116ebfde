"""Typed dataclasses built from parsed JSON, each defect named by its path.

`build` follows the fields and resolved type hints of a dataclass: a value
must have its field's JSON type (a bool is never a number), float fields
must be finite and int fields non-negative (every config int is a count, an
index or a seed); unknown and missing keys are errors.  Field errors are
listed together; `__post_init__` runs once a class's fields built, and its
`ValueError` is reported as `path: message`."""

from __future__ import annotations

import functools
import sys
from dataclasses import MISSING, fields, is_dataclass
from types import NoneType, UnionType
from typing import Literal, get_args, get_origin, get_type_hints


class ConfigError(ValueError):
    """Every defect found, each as `path: message`."""

    def __init__(self, paths):
        self.paths = list(paths)
        super().__init__("; ".join(self.paths))


INVALID = object()
_JSON_TYPES = {float: (int, float), int: int, str: str, bool: bool}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def at(path: str, msg: str, names) -> str:
    """`path: msg`, narrowed to `path.name` when msg opens with a field name."""
    head = msg.split(" ", 1)[0]
    return f"{_join(path, head) if head in names else path or 'config'}: {msg}"


def build(tp, value, path: str, errors: list):
    """`value` read from JSON as type `tp`; each problem is appended to
    `errors` as `path: message` and makes the result `INVALID`."""
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        return _build_dataclass(tp, value, path, errors)
    if origin is UnionType:
        members = [a for a in args if a is not NoneType]
        if value is None and len(members) < len(args):
            return None
        for m in members[:-1]:
            if isinstance(value, dict if is_dataclass(m) else m):
                return build(m, value, path, errors)
        return build(members[-1], value, path, errors)
    if origin is Literal:
        if value in args:
            return value
        errors.append(f"{path}: must be one of {list(args)}, got {value!r}")
        return INVALID
    if origin is tuple:
        if not isinstance(value, list):
            errors.append(f"{path}: expected a list, got {type(value).__name__}")
            return INVALID
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            errors.append(f"{path}: expected {len(args)} entries, got {len(value)}")
            return INVALID
        out = tuple(build(t, v, f"{path}[{i}]", errors) for i, (t, v) in enumerate(zip(args, value)))
        return INVALID if any(v is INVALID for v in out) else out
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, _JSON_TYPES[tp]):
        errors.append(f"{path}: expected {tp.__name__}, got {type(value).__name__}")
        return INVALID
    if tp is float and not abs(value) <= sys.float_info.max:  # NaN, +-Inf or a huge int
        errors.append(f"{path}: must be a finite number, got {value!r}")
        return INVALID
    if tp is int and value < 0:
        errors.append(f"{path}: must be >= 0, got {value}")
        return INVALID
    return value


_type_hints = functools.cache(get_type_hints)


def _build_dataclass(cls, value, path: str, errors: list):
    if not isinstance(value, dict):
        errors.append(f"{path}: expected an object, got {type(value).__name__}")
        return INVALID
    hints = _type_hints(cls)
    names = [f.name for f in fields(cls)]
    n_errors = len(errors)
    errors.extend(f"{_join(path, k)}: unknown key" for k in value if k not in names)
    kwargs = {}
    for f in fields(cls):
        if f.name in value:
            kwargs[f.name] = build(hints[f.name], value[f.name], _join(path, f.name), errors)
        elif f.default is MISSING and f.default_factory is MISSING:
            errors.append(f"{_join(path, f.name)}: missing required key")
    if len(errors) > n_errors:
        return INVALID
    try:
        return cls(**kwargs)
    except ValueError as e:
        errors.append(at(path, str(e), names))
        return INVALID
