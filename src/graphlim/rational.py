"""Rational parsing/printing shared by file formats and the CLI."""

from __future__ import annotations

import re
from fractions import Fraction

RationalLike = Fraction | int | str

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(value: RationalLike) -> Fraction:
    """Accept a Fraction, an int, or a "p/q" / "p" string.

    Floats are rejected on purpose: file formats carry exact rationals only.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not a rational string: {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise ValueError(f"not a rational value: {value!r}")


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
