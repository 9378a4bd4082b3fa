"""Argument checks shared by the public functions and the config sections.

Each takes the field's name, so every message reads ``<name> must ...``,
and returns the value it passed. Booleans are rejected everywhere: ``True``
compares as 1, so a config's ``lr: true`` would otherwise train at 1.
"""

from __future__ import annotations

import math
import numbers


def check_finite(name: str, value):
    if isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_positive(name: str, value):
    if isinstance(value, bool) or not (0.0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_nonnegative(name: str, value):
    if isinstance(value, bool) or not (0.0 <= value < math.inf):
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")
    return value


def check_unit_interval(name: str, value, *, open_low: bool = False):
    """``value`` in ``[0, 1]``, or in ``(0, 1]`` with ``open_low``."""
    if isinstance(value, bool) or not ((0.0 < value if open_low else 0.0 <= value)
                                       and value <= 1.0):
        raise ValueError(f"{name} must lie in {'(' if open_low else '['}0, 1], got {value!r}")
    return value


def check_count(name: str, value, least: int = 1) -> int:
    """``value`` as an ``int``, if it is a whole number of at least ``least``.
    Bools are rejected; integral floats (the ``1e3`` override form) pass."""
    whole = not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and float(value).is_integer())
    if not (whole and value >= least):
        raise ValueError(f"{name} must be a whole number of at least {least}, got {value!r}")
    return int(value)
