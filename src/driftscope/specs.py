"""Checks of config values, which refuse a malformed one with a ConfigError,
and `build`, the one dispatcher of the two kind tables,
`recover.DOMAIN_KINDS` and `kernels.KERNEL_KINDS`."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError


class Kind(NamedTuple):
    keys: tuple[str, ...]  # the keys the kind takes besides "kind"
    required: tuple[str, ...]
    build: Callable  # (spec, where) -> the object the spec describes


def require_keys(d, allowed, required, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"missing required key {sorted(missing)[0]!r} in {where}")


def build(kinds: dict, spec, where: str):
    """What spec describes, built by the entry of `kinds` that spec["kind"]
    names, once spec is checked to be a JSON object that names a known kind
    and holds every key that kind requires and no key it does not take."""
    require_keys(spec, spec, ("kind",), where)  # any keys until the kind is known
    name = spec["kind"]
    if not isinstance(name, str) or name not in kinds:
        raise ConfigError(f"unknown {where} kind {name!r}")
    kind = kinds[name]
    require_keys(spec, ("kind", *kind.keys), kind.required, where)
    return kind.build(spec, where)


def integer(value, where: str, minimum: int | None = None) -> int:
    """An integral config value (integral floats and digit strings pass)."""
    try:
        out = int(value)
        integral = not isinstance(value, bool) and out == float(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and out < minimum:
        raise ConfigError(f"{where} must be at least {minimum}, got {out}")
    return out


def finite(value, where: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        out = float("nan")
    if isinstance(value, bool) or not np.isfinite(out):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return out


def finite_list(value, where: str, length: int | None = None) -> tuple:
    """A JSON list of finite numbers (of the given length)."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = "a list" if length is None else f"a list of {length}"
        raise ConfigError(f"{where} must be {size} numbers, got {value!r}")
    return tuple(finite(v, where) for v in value)
