"""Typed dataclasses built from parsed JSON, each defect named by its path.

`build` follows the fields and resolved type hints of a dataclass: a value
must have its field's JSON type (a bool is never a number), float fields
must be finite and int fields non-negative (every config int is a count, an
index or a seed); unknown and missing keys are errors.  Field errors are
listed together; `__post_init__` runs once a class's fields built, and its
`ValueError` is reported as `path: message`.

A field's range is declared on its type, as `Annotated[float, Bound(...)]`
(`Positive`, `Probability`, ...) or a `Literal`, and `check_fields` checks
them all from `__post_init__`, for the library constructors and the config
reader alike.  Each test is written so that NaN fails it."""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import MISSING, fields, is_dataclass
from types import NoneType, UnionType
from typing import Annotated, Callable, Literal, NamedTuple, get_args, get_origin, get_type_hints


class ConfigError(ValueError):
    """Every defect found, each as `path: message`."""

    def __init__(self, paths):
        self.paths = list(paths)
        super().__init__("; ".join(self.paths))


class Bound(NamedTuple):
    """A field's range: `test(value)` is true inside it; `text` completes "<field> must"."""

    test: Callable[[object], bool]
    text: str


Positive = Annotated[float, Bound(lambda v: v > 0, "be positive")]
NonNegative = Annotated[float, Bound(lambda v: v >= 0, "be >= 0")]
Probability = Annotated[float, Bound(lambda v: 0 <= v <= 1, "be a probability in [0, 1]")]
OpenUnit = Annotated[float, Bound(lambda v: 0 < v < 1, "lie in (0, 1)")]
Finite = Annotated[float, Bound(math.isfinite, "be finite")]


def at_least(n: int):
    """An int field of at least `n`."""
    return Annotated[int, Bound(lambda v: v >= n, f"be >= {n}")]


_type_hints = functools.cache(functools.partial(get_type_hints, include_extras=True))


@functools.cache
def _bounds(cls) -> list:
    """(field, test, text) of each bounded or `Literal` field of `cls`."""
    out = []
    for name, tp in _type_hints(cls).items():
        if get_origin(tp) is Annotated:
            out += [(name, b.test, b.text) for b in tp.__metadata__ if isinstance(b, Bound)]
        elif get_origin(tp) is Literal:
            values = get_args(tp)
            out.append((name, values.__contains__, "be " + " or ".join(map(repr, values))))
    return out


def check_fields(obj) -> None:
    """Raise `ValueError("<field> must <text>")` for the first field of `obj` outside its bound."""
    for name, test, text in _bounds(type(obj)):
        if not test(getattr(obj, name)):
            raise ValueError(f"{name} must {text}")


def check_finite(a, name: str) -> None:
    """Raise `ValueError("<name> must be finite")` if the float array `a` holds
    a NaN or an infinity.  min and max are NaN when any value is, and infinite
    when one is: two reductions, with no mask of the array."""
    if a.size and not (math.isfinite(a.min()) and math.isfinite(a.max())):
        raise ValueError(f"{name} must be finite")


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
    if origin is Annotated:  # the Bound is checked by the class's `check_fields`
        return build(args[0], value, path, errors)
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
