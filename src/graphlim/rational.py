"""Rational parsing/printing shared by file formats and the CLI."""

from __future__ import annotations

import math
import re
from fractions import Fraction

RationalLike = Fraction | int | str

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def rational_parts(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of parse_rational(value) in lowest terms,
    the denominator positive, without building a Fraction; the same
    errors for the same values."""
    if isinstance(value, str):
        match = _RATIONAL_RE.match(value.strip())
        if not match:
            raise ValueError(f"not a rational string: {value!r}")
        numerator, denominator = match.groups()
        n, d = int(numerator), int(denominator or 1)
        if not d:
            raise ValueError(f"zero denominator: {value!r}")
        g = math.gcd(n, d)
        return n // g, d // g
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    raise ValueError(f"not a rational value: {value!r}")


def parse_rational(value: RationalLike) -> Fraction:
    """Accept a Fraction, an int, or a "p/q" / "p" string.

    Floats are rejected on purpose: file formats carry exact rationals only.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(*rational_parts(value))


def format_rational(value: Fraction) -> str:
    """Lowest terms, "p/q"; integers print without the denominator."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_float(value: float) -> str:
    """Positional notation with 12 significant digits.

    Trailing zeros are kept so repeated runs emit byte-identical output.
    """
    value = float(value)
    if value != value:
        return "nan"
    sign = "-" if value < 0 else ""
    if value == 0.0:
        return "0." + "0" * 12
    mantissa, _, exponent = f"{abs(value):.11e}".partition("e")
    exp = int(exponent)
    ds = mantissa.replace(".", "")
    if exp >= 0:
        if exp + 1 >= len(ds):
            return sign + ds + "0" * (exp + 1 - len(ds))
        return sign + ds[: exp + 1] + "." + ds[exp + 1 :]
    return sign + "0." + "0" * (-exp - 1) + ds
