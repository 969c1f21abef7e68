"""Run configuration: built-in defaults, config files, merged overrides.

A config file is flat ``key = value`` text.  Lengths accept nm/um/mm/m
suffixes (bare numbers are meters), ``z0 = none`` selects plane-wave
illumination, and ``delta``/``trunc`` accept ``auto`` to defer to the
derived defaults.  Unknown keys, bad values and duplicates are reported
with file and line number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .errors import ConfigError
from .model import DetectionSpec, GratingSpec, SourceSpec, beta_from_fwhm
from .units import fmt_exact, parse_float, parse_int, parse_length

CONFIG_KEYS = (
    "lambda0", "fwhm", "z0", "delta", "d", "f", "trunc", "z",
    "slit_width", "scan_start", "scan_end", "scan_step",
)

# One-line help per key, used by the CLI --help text.
KEY_HELP = {
    "lambda0": "center wavelength (length, e.g. 810nm)",
    "fwhm": "spectral filter FWHM (length; 0 = monochromatic)",
    "z0": "source-to-grating distance (length, or 'none' for a plane wave)",
    "delta": "illuminated half-width at the grating (length, or 'auto')",
    "d": "grating period (length)",
    "f": "open fraction of the period, dimensionless in (0, 1]",
    "trunc": "largest diffraction order kept (integer, or 'auto')",
    "z": "grating-to-detector distance (length)",
    "slit_width": "detector slit width (length)",
    "scan_start": "first slit position (length)",
    "scan_end": "last slit position (length)",
    "scan_step": "slit step (length)",
}

# Built-in baseline: 810 nm center with a 50 nm filter, source about
# 1.99 m upstream, 360 um period with a 10% opening, detection 160 mm
# downstream through a 115 um slit scanned over +-600 um in 12 um steps.
DEFAULTS: dict[str, object] = {
    "lambda0": 810e-9,
    "fwhm": 50e-9,
    "z0": 1.9885714285714284,
    "delta": None,
    "d": 360e-6,
    "f": 0.1,
    "trunc": None,
    "z": 160e-3,
    "slit_width": 115e-6,
    "scan_start": -600e-6,
    "scan_end": 600e-6,
    "scan_step": 12e-6,
}

_LENGTH_KEYS = frozenset(CONFIG_KEYS) - {"z0", "delta", "f", "trunc"}


def parse_value(key: str, text: str):
    """Parse the textual value for one config key."""
    text = text.strip()
    if key == "z0":
        return None if text.lower() == "none" else parse_length(text)
    if key == "delta":
        return None if text.lower() == "auto" else parse_length(text)
    if key == "trunc":
        return None if text.lower() == "auto" else parse_int(text)
    if key == "f":
        return parse_float(text)
    if key in _LENGTH_KEYS:
        return parse_length(text)
    raise ConfigError(f"unknown config key {key!r}")


@dataclass(frozen=True)
class RunConfig:
    """The twelve run parameters, before spec-level validation."""

    lambda0: float
    fwhm: float
    z0: Optional[float]
    delta: Optional[float]
    d: float
    f: float
    trunc: Optional[int]
    z: float
    slit_width: float
    scan_start: float
    scan_end: float
    scan_step: float

    def source(self) -> SourceSpec:
        return SourceSpec(lambda0=self.lambda0,
                          beta=beta_from_fwhm(self.fwhm),
                          z0=self.z0, delta=self.delta)

    def grating(self) -> GratingSpec:
        return GratingSpec(d=self.d, f=self.f, trunc=self.trunc)

    def detection(self) -> DetectionSpec:
        return DetectionSpec(z=self.z, slit_width=self.slit_width,
                             scan_start=self.scan_start,
                             scan_end=self.scan_end,
                             scan_step=self.scan_step)


def read_config_file(path: str) -> dict:
    """Parse a config file into a key -> value dict.

    Raises ConfigError with ``path:line:`` diagnostics on any problem.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None

    values: dict = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, text = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {line!r}")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = parse_value(key, text)
        except ConfigError as err:
            raise ConfigError(f"{path}:{lineno}: {err}") from None
    return values


def build_config(file_values: Optional[dict] = None,
                 overrides: Optional[dict] = None) -> RunConfig:
    """Merge defaults, config-file values and overrides (highest wins)."""
    merged = dict(DEFAULTS)
    if file_values:
        merged.update(file_values)
    if overrides:
        merged.update(overrides)
    return RunConfig(**merged)


def _echo_value(key: str, value) -> str:
    if value is None:
        return "none" if key == "z0" else "auto"
    if key == "trunc":
        return str(int(value))
    # lengths echo in bare meters, which parse back bit-identically
    return fmt_exact(value)


def echo_lines(config: RunConfig) -> list[str]:
    """Render the fully resolved config as '# key = value' comment lines.

    Derived fields (delta, trunc) are echoed as their resolved values,
    so feeding the echo back as a config file reproduces the run
    exactly, bit for bit.
    """
    resolved = replace(config, delta=config.source().delta,
                       trunc=config.grating().trunc)
    return [f"# {key} = {_echo_value(key, getattr(resolved, key))}"
            for key in CONFIG_KEYS]
