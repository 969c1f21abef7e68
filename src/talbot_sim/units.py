"""Parsing and formatting of config values.

All internal lengths are meters.  Input text may attach a unit suffix
(nm, um, mm, m); a bare number is taken as meters already.
"""

from __future__ import annotations

import math
import re

from .errors import ConfigError

# "µm" is accepted alongside the ASCII spelling.
_LENGTH_UNITS = {
    "nm": 1e-9,
    "um": 1e-6,
    "µm": 1e-6,
    "mm": 1e-3,
    "m": 1.0,
}

_VALUE_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Zµ]*)\s*$")


def _number(text: str, what: str) -> tuple[float, str]:
    """The finite number in text and its unit suffix ('' if none)."""
    m = _VALUE_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse {what} value {text!r}")
    try:
        value = float(m.group(1))
    except ValueError:
        raise ConfigError(f"cannot parse number in {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"number out of range in {text!r}")
    return value, m.group(2)


def parse_length(text: str) -> float:
    """Parse a length like '360 um', '160mm' or '8.1e-7' into meters."""
    value, unit = _number(text, "length")
    if unit == "":
        return value
    try:
        return value * _LENGTH_UNITS[unit]
    except KeyError:
        raise ConfigError(
            f"unknown length unit {unit!r} (use nm, um, mm or m)"
        ) from None


def parse_float(text: str) -> float:
    """Parse a dimensionless value; unit suffixes are rejected."""
    value, unit = _number(text, "dimensionless")
    if unit != "":
        raise ConfigError(f"cannot parse dimensionless value {text!r}")
    return value


def parse_int(text: str) -> int:
    """Parse an integer value; rejects fractions and unit suffixes."""
    value = parse_float(text)
    if value != int(value):
        raise ConfigError(f"expected an integer, got {text!r}")
    return int(value)


# Data-column float format: 12 significant digits.  A %-template, so that
# csvio formats a whole row in one operation.
DATA_FORMAT = "%.12g"


def fmt(value: float) -> str:
    """Data-column float format: 12 significant digits."""
    return DATA_FORMAT % float(value)


def fmt_exact(value: float) -> str:
    """Config-echo float format: shortest string that parses back exactly."""
    return repr(float(value))
