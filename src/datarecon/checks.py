"""The value checks each configurable object applies to its own settings. A failed
check raises ``ValueError`` whose message begins with the setting's name."""

from __future__ import annotations

import sys

import numpy as np


def integer(name: str, value, minimum: int):
    """``value``, if it is an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def number(name: str, value, positive: bool = True):
    """``value``, if it is a finite positive (or, with ``positive=False``,
    non-negative) number."""
    # the chained comparison also rejects NaN and integers beyond float range
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 <= value <= sys.float_info.max or (positive and value == 0)):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a finite {kind} number, got {value!r}")
    return value
