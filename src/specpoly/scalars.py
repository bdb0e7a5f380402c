"""Scalar modes.

A computation runs either in exact rational arithmetic (``fractions.Fraction``)
or in IEEE double precision, never mixed.  Mode is carried by the containers
(polynomials, tuples); these helpers infer, validate and coerce.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

from .errors import ConfigError, ModeMismatch, NonFinite

RATIONAL = "rational"
FLOAT = "float"

Scalar = Union[Fraction, int, float]

# Largest decimal exponent parse_scalar reads: the digit limit Python puts on
# int(text) by default.  Fraction("1e99999999") would build the whole power
# of ten first.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE](?P<exp>[-+]?\d+(?:_\d+)*)\s*\Z")


def is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def infer_mode(values: Iterable[Scalar]) -> str:
    """Mode of a collection: FLOAT if any float appears, else RATIONAL."""
    mode = RATIONAL
    for v in values:
        if isinstance(v, float):
            mode = FLOAT
        elif type(v) is not int and type(v) is not Fraction and not is_exact(v):
            raise TypeError(f"unsupported scalar type {type(v).__name__}")
    return mode


def coerce(value: Scalar, mode: str) -> Scalar:
    if mode == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, float):
            if not math.isfinite(value):
                raise NonFinite(f"non-finite value {value!r}")
            return Fraction(value)
        return Fraction(value)
    try:
        out = float(value)
    except OverflowError:
        raise NonFinite("value beyond double range") from None
    if not math.isfinite(out):
        raise NonFinite(f"non-finite value {value!r}")
    return out


def coerce_all(values: Iterable[Scalar], mode: str) -> tuple:
    return tuple(coerce(v, mode) for v in values)


def require_same_mode(a: str, b: str) -> str:
    if a != b:
        raise ModeMismatch(f"cannot mix {a} and {b} operands")
    return a


def check_finite(values: Iterable[Scalar]) -> None:
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise NonFinite(f"non-finite entry {v!r}")


def check_tol(tol) -> None:
    """Refuse a float tolerance that is not a finite number >= 0.

    None (the caller's default) passes, and so does 0, which asks for
    float resolution.
    """
    if tol is not None and (isinstance(tol, bool)
                            or not isinstance(tol, (int, float))
                            or not 0 <= tol < math.inf):
        raise ConfigError(f"tol must be a finite number >= 0, got {tol!r}")


def parse_scalar(text) -> Scalar:
    """Parse a JSON scalar: numbers pass through, ``"p/q"`` strings are exact.

    The form the library writes, ASCII ``[-]digits[/digits]``, is split
    and handed to ``Fraction`` as integers; any other string goes to
    ``Fraction(text)`` whole, with the same result, unless its decimal
    exponent exceeds ``MAX_EXPONENT`` in size: that text is refused.
    """
    if isinstance(text, bool):
        raise ConfigError("booleans are not scalars")
    if isinstance(text, (int, float)):
        return text
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        try:
            if (digits.isascii() and digits.isdigit()
                    and (not slash or den.isascii() and den.isdigit())):
                return Fraction(int(num), int(den) if slash else 1)
            exp = _EXPONENT.search(text)
            if exp and abs(int(exp["exp"])) > MAX_EXPONENT:
                raise ConfigError(f"exponent of {text!r} exceeds "
                                  f"{MAX_EXPONENT} in size")
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"cannot parse scalar from {text!r}") from None
    raise ConfigError(f"cannot parse scalar from {text!r}")


def scalar_to_json(value: Scalar):
    if isinstance(value, Fraction):
        return str(value)
    return value
