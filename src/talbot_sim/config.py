"""Run configuration: built-in defaults, config files, merged overrides.

A config file is flat ``key = value`` text.  Lengths accept nm/um/mm/m
suffixes (bare numbers are meters), ``z0 = none`` selects plane-wave
illumination, and ``delta``, ``trunc`` and the window edges accept
``auto`` to defer to the derived defaults.  Unknown keys, bad values and
duplicates are reported with file and line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .errors import ConfigError, DomainError
from .grating import SlmProfile
from .model import (NORM_COLUMN_MAX_ONE, NORM_RAW, SPECTRAL_SAMPLES,
                    DetectionSpec, GratingSpec, SourceSpec, talbot_length)
from .units import fmt_exact, parse_float, parse_int, parse_length


def _or(word: str, parse):
    """parse, with the word itself read as None."""
    return lambda text: None if text.lower() == word else parse(text)


def _count(text: str) -> int:
    n = parse_int(text)
    if n < 1:
        raise ConfigError(f"must be >= 1, got {n}")
    return n


def _norm(text: str) -> str:
    if text not in (NORM_RAW, NORM_COLUMN_MAX_ONE):
        raise ConfigError(f"expected {NORM_RAW} or "
                          f"{NORM_COLUMN_MAX_ONE}, got {text!r}")
    return text


def _key(default, parse, help_line: str):
    """A config key: its default, its value parser and its --help line."""
    return field(default=default, metadata={"parse": parse, "help": help_line})


def _auto(what: str, rule: str):
    """A length key whose default, 'auto', derives from other keys by rule."""
    return _key(None, _or("auto", parse_length),
                f"{what} (length, or 'auto' for {rule})")


@dataclass(frozen=True)
class RunConfig:
    """Every input of a run, before spec-level validation: the thirteen
    run parameters, then the inputs of single subcommands.

    The built-in baseline: 810 nm center with a 50 nm filter on 41
    wavelengths over +-3 half-widths, source about 1.99 m upstream, 360 um
    period with a 10% opening, detection 160 mm downstream through a 115 um
    slit scanned over +-600 um in 12 um steps.
    """

    lambda0: float = _key(810e-9, parse_length,
                          "center wavelength (length, e.g. 810nm)")
    fwhm: float = _key(50e-9, parse_length,
                       "spectral filter FWHM (length; 0 = monochromatic)")
    spectral_samples: int = _key(SPECTRAL_SAMPLES, parse_int,
                                 "odd number of wavelength nodes")
    z0: Optional[float] = _key(
        1.9885714285714284, _or("none", parse_length),
        "source-to-grating distance (length, or 'none' for a plane wave)")
    delta: Optional[float] = _key(
        None, _or("auto", parse_length),
        "illuminated half-width at the grating (length, or 'auto')")
    d: float = _key(360e-6, parse_length, "grating period (length)")
    f: float = _key(0.1, parse_float,
                    "open fraction of the period, dimensionless in (0, 1]")
    trunc: Optional[int] = _key(
        None, _or("auto", parse_int),
        "largest diffraction order kept (integer, or 'auto')")
    z: float = _key(160e-3, parse_length,
                    "grating-to-detector distance (length)")
    slit_width: float = _key(115e-6, parse_length,
                             "detector slit width (length)")
    scan_start: float = _key(-600e-6, parse_length,
                             "first slit position (length)")
    scan_end: float = _key(600e-6, parse_length,
                           "last slit position (length)")
    scan_step: float = _key(12e-6, parse_length, "slit step (length)")
    # carpet and oracle
    x_min: Optional[float] = _auto("left x edge", "-d")
    x_max: Optional[float] = _auto("right x edge", "d")
    x_count: int = _key(256, _count, "x samples")
    z_min: Optional[float] = _auto("nearest plane", "d*d/lambda0/50")
    z_max: Optional[float] = _auto("farthest plane", "2*d*d/lambda0")
    z_count: int = _key(128, _count, "z samples")
    norm: str = _key(NORM_RAW, _norm, f"{NORM_RAW} or {NORM_COLUMN_MAX_ONE}")
    points: int = _key(129, _count, "probe positions")
    # analyze
    z_lo: Optional[float] = _auto("revival search start", "0.8*z")
    z_hi: Optional[float] = _auto("revival search end", "1.3*z")
    z_steps: int = _key(64, parse_int, "ignored: the revival search "
                        "has no grid (kept for old command lines)")
    # mc
    seed: Optional[int] = _key(None, _or("none", parse_int),
                               "RNG seed, an integer 0 to 2**64 - 1")
    events_per_point: float = _key(1000.0, parse_float,
                                   "expected counts at the curve peak")
    # mask
    width_px: int = _key(SlmProfile.width_px, parse_int, "width in pixels")
    height_px: int = _key(SlmProfile.height_px, parse_int, "height in pixels")
    pixel_pitch: float = _key(SlmProfile.pixel_pitch, parse_length,
                              "pixel size (length)")
    gray_open: int = _key(SlmProfile.gray_open, parse_int, "open gray level")
    gray_closed: int = _key(SlmProfile.gray_closed, parse_int,
                            "closed gray level")

    def source(self) -> SourceSpec:
        return SourceSpec(lambda0=self.lambda0, fwhm=self.fwhm,
                          spectral_samples=self.spectral_samples,
                          z0=self.z0, delta=self.delta)

    def grating(self) -> GratingSpec:
        return GratingSpec(d=self.d, f=self.f, trunc=self.trunc)

    def detection(self) -> DetectionSpec:
        return DetectionSpec(z=self.z, slit_width=self.slit_width,
                             scan_start=self.scan_start,
                             scan_end=self.scan_end,
                             scan_step=self.scan_step)

    def slm(self) -> SlmProfile:
        return SlmProfile(self.width_px, self.height_px, self.pixel_pitch,
                          self.gray_open, self.gray_closed)


_FIELDS = {spec.name: spec for spec in fields(RunConfig)}
CONFIG_KEYS = tuple(_FIELDS)
# the thirteen run parameters; the keys after them belong to one subcommand
RUN_KEYS = CONFIG_KEYS[:CONFIG_KEYS.index("x_min")]
KEY_HELP = {k: spec.metadata["help"] for k, spec in _FIELDS.items()}


def parse_value(key: str, text: str):
    """Parse the textual value for one config key."""
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    return _FIELDS[key].metadata["parse"](text.strip())


def read_config_file(path: str) -> dict:
    """Parse a config file into a key -> value dict.

    Raises ConfigError with ``path:line:`` diagnostics on any problem.
    """
    try:
        # a byte that is not UTF-8 reads as a lone surrogate, refused below
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            raw_lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None

    values: dict = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            raw.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, text = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {line!r}")
        key = key.strip()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = parse_value(key, text)
        except ConfigError as err:
            raise ConfigError(f"{path}:{lineno}: {err}") from None
    return values


# the keys whose None defers to a default derived from other keys
_DERIVED = {
    "delta": lambda c: c.source().delta,
    "trunc": lambda c: c.grating().trunc,
    "x_min": lambda c: -c.d,
    "x_max": lambda c: c.d,
    "z_min": lambda c: talbot_length(c.d, c.lambda0) / 50.0,
    "z_max": lambda c: 2.0 * talbot_length(c.d, c.lambda0),
    "z_lo": lambda c: 0.8 * c.z,
    "z_hi": lambda c: 1.3 * c.z,
}


def resolve(config: RunConfig, keys=CONFIG_KEYS) -> RunConfig:
    """config with each derived key among keys that is None set to its
    derived default; a default that overflows a double is a DomainError
    that names its key."""
    derived = {key: _DERIVED[key](config) for key in keys
               if key in _DERIVED and getattr(config, key) is None}
    for key, value in derived.items():
        if not math.isfinite(value):
            raise DomainError(f"{key} = auto resolves to {value}, which "
                              f"is not finite")
    return replace(config, **derived)


def _echo_value(value) -> str:
    if value is None:  # z0 (a plane wave) or an absent seed
        return "none"
    # counts and words (norm) echo as they are, other numbers as their
    # shortest repr (lengths in bare meters): each parses back bit-identically
    return str(value) if isinstance(value, (int, str)) else fmt_exact(value)


def echo_lines(config: RunConfig, keys=RUN_KEYS) -> list[str]:
    """Render the fully resolved values of keys as '# key = value' comment
    lines, in the order of keys.

    Derived keys (delta, trunc, the windows) are echoed as their resolved
    values, so feeding the echo back as a config file reproduces a run
    that reads only keys exactly, bit for bit.
    """
    resolved = resolve(config, keys)
    return [f"# {key} = {_echo_value(getattr(resolved, key))}"
            for key in keys]
