"""Parsing and formatting of config values.

All internal lengths are meters.  Input text may attach a unit suffix
(nm, um, mm, m); a bare number is taken as meters already.
"""

from __future__ import annotations

import math
import re

from .errors import ConfigError

# Power of ten of one unit in meters; a bare number is meters already.
# "µm" is accepted alongside the ASCII spelling.
_LENGTH_POWERS = {
    "": 0,
    "nm": -9,
    "um": -6,
    "µm": -6,
    "mm": -3,
    "m": 0,
}

_VALUE_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Zµ]*)\s*$")
_DIGITS_RE = re.compile(r"^\s*[-+]?[0-9]{1,30}\s*$")


def _decimal(text: str, what: str) -> tuple[str, int, str]:
    """The mantissa text, the decimal exponent and the unit suffix ('' if
    none) of the number in text."""
    m = _VALUE_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse {what} value {text!r}")
    mantissa, sep, exponent = m.group(1).lower().partition("e")
    try:
        float(mantissa)
        power = int(exponent) if sep else 0
    except ValueError:
        raise ConfigError(f"cannot parse number in {text!r}") from None
    return mantissa, power, m.group(2)


def _rounded(text: str, mantissa: str, power: int) -> float:
    """The double nearest mantissa * 10**power, which must be finite.

    The power goes into the decimal text, so float() rounds once: '360um'
    reads as 360e-6, where 360 * 1e-6 would round twice and land one ulp
    off.
    """
    value = float(f"{mantissa}e{power}")
    if not math.isfinite(value):
        raise ConfigError(f"number out of range in {text!r}")
    return value


def parse_length(text: str) -> float:
    """Parse a length like '360 um', '160mm' or '8.1e-7' into meters."""
    mantissa, power, unit = _decimal(text, "length")
    if unit not in _LENGTH_POWERS:
        raise ConfigError(
            f"unknown length unit {unit!r} (use nm, um, mm or m)")
    return _rounded(text, mantissa, power + _LENGTH_POWERS[unit])


def parse_float(text: str) -> float:
    """Parse a dimensionless value; unit suffixes are rejected."""
    mantissa, power, unit = _decimal(text, "dimensionless")
    if unit != "":
        raise ConfigError(f"cannot parse dimensionless value {text!r}")
    return _rounded(text, mantissa, power)


def parse_int(text: str) -> int:
    """Parse an integer value; rejects fractions and unit suffixes."""
    if _DIGITS_RE.match(text):  # exactly, so a 64-bit seed keeps every bit
        return int(text)
    value = parse_float(text)
    if value != int(value):
        raise ConfigError(f"expected an integer, got {text!r}")
    return int(value)


# Data-column float format: 12 significant digits.  A %-template, so that
# csvio formats a whole table in one operation.
DATA_FORMAT = "%.12g"


def fmt(value: float) -> str:
    """Data-column float format: 12 significant digits."""
    return DATA_FORMAT % float(value)


def fmt_exact(value: float) -> str:
    """Config-echo float format: shortest string that parses back exactly."""
    return repr(float(value))
