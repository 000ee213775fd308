"""The package's argument rules: one per kind of argument.

Each rule takes a value and the name to report it under, returns the value
converted (a float or an int) and raises DomainError otherwise.  One type
policy holds for every rule: bool and str are never numbers; Python and numpy
integers and floats are; and a float with an integer value is an integer.
The CLI builds its flag types from these rules too.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

from .errors import DomainError


def finite(value, what: str) -> float:
    """value as a finite float."""
    # type() first: the abstract-class checks cost about a microsecond each
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise DomainError(f"{what} must be finite, got {value!r}")
    return number


def at_least(value, what: str, low: float, strict: bool = False) -> float:
    """value as a finite float >= low, or > low when strict."""
    number = finite(value, what)
    if number < low or (strict and number == low):
        raise DomainError(f"{what} must be {'>' if strict else '>='} {low:g}, got {number!r}")
    return number


def probability(value, what: str) -> float:
    """value as a float strictly inside (0, 1)."""
    number = finite(value, what)
    if not 0.0 < number < 1.0:
        raise DomainError(f"{what} must lie strictly in (0, 1), got {number!r}")
    return number


def integer(value, what: str, low: int, high: float = math.inf) -> int:
    """value as an int in [low, high)."""
    if type(value) is not int:
        if not isinstance(value, Integral) and isinstance(value, Real) \
                and float(value).is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise DomainError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if not low <= value < high:
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high})"
        raise DomainError(f"{what} must be an integer {bounds}, got {value}")
    return value
