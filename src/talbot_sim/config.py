"""Run configuration: built-in defaults, config files, merged overrides.

A config file is flat ``key = value`` text.  Lengths accept nm/um/mm/m
suffixes (bare numbers are meters), ``z0 = none`` selects plane-wave
illumination, and ``delta``/``trunc`` accept ``auto`` to defer to the
derived defaults.  Unknown keys, bad values and duplicates are reported
with file and line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .errors import ConfigError
from .model import (SPECTRAL_SAMPLES, SPECTRAL_SPAN, DetectionSpec,
                    GratingSpec, SourceSpec, beta_from_fwhm, spectral_grid)
from .units import fmt_exact, parse_float, parse_int, parse_length


def _or(word: str, parse):
    """parse, with the word itself read as None."""
    return lambda text: None if text.lower() == word else parse(text)


def _key(default, parse, help_line: str):
    """A config key: its default, its value parser and its --help line."""
    return field(default=default, metadata={"parse": parse, "help": help_line})


@dataclass(frozen=True)
class RunConfig:
    """The fourteen run parameters, before spec-level validation.

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
    spectral_span: float = _key(SPECTRAL_SPAN, parse_float,
                                "wavelength grid half-span in units of beta")
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

    def source(self) -> SourceSpec:
        return SourceSpec(lambda0=self.lambda0,
                          beta=beta_from_fwhm(self.fwhm),
                          z0=self.z0, delta=self.delta)

    def spectrum(self) -> list[tuple[float, float]]:
        return spectral_grid(self.source(), self.spectral_samples,
                             self.spectral_span)

    def grating(self) -> GratingSpec:
        return GratingSpec(d=self.d, f=self.f, trunc=self.trunc)

    def detection(self) -> DetectionSpec:
        return DetectionSpec(z=self.z, slit_width=self.slit_width,
                             scan_start=self.scan_start,
                             scan_end=self.scan_end,
                             scan_step=self.scan_step)


_FIELDS = {spec.name: spec for spec in fields(RunConfig)}
CONFIG_KEYS = tuple(_FIELDS)
DEFAULTS: dict[str, object] = {k: spec.default for k, spec in _FIELDS.items()}
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
    return RunConfig(**{**(file_values or {}), **(overrides or {})})


def _echo_value(value) -> str:
    if value is None:  # only z0: echo_lines resolves delta and trunc
        return "none"
    # counts echo as integers and other numbers as their shortest repr
    # (lengths in bare meters), which parse back bit-identically
    return str(value) if isinstance(value, int) else fmt_exact(value)


def echo_lines(config: RunConfig, keys=CONFIG_KEYS) -> list[str]:
    """Render the fully resolved values of keys as '# key = value' comment
    lines, in the order of keys.

    Derived fields (delta, trunc) are echoed as their resolved values,
    so feeding the echo back as a config file reproduces a run that
    reads only keys exactly, bit for bit.
    """
    resolved = replace(config, delta=config.source().delta,
                       trunc=config.grating().trunc)
    return [f"# {key} = {_echo_value(getattr(resolved, key))}"
            for key in keys]
