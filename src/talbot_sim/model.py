"""Core value types and closed-form derived quantities.

Every length held by these types is in meters.  The specs are frozen:
once constructed they are safe to share between threads and to stash in
result metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError

# Half angle of the source cone used to size the illuminated patch when
# a source distance is given.
SOURCE_DIVERGENCE_RAD = 0.5e-3

# Illuminated half-width fallback for collimated (plane wave) runs.
PLANE_WAVE_DELTA_M = 1.0e-3

# Spectral quadrature: the default odd node count, over the fixed
# lambda0 +- SPECTRAL_SPAN*beta, beta the line's 1/e half-width.
SPECTRAL_SAMPLES, SPECTRAL_SPAN = 41, 3.0

NORM_RAW = "raw"
NORM_MAX_ONE = "max-one"
NORM_COLUMN_MAX_ONE = "per-column-max-one"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def array_length(count, what: str) -> int:
    """int(count) if numpy can size an array of that many 8-byte values (it
    checks before it allocates), else DomainError naming what."""
    if not count < np.iinfo(np.intp).max // 8:
        try:
            shown = f"{count:.6g}"
        except OverflowError:  # an int beyond the double range
            shown = "over 1e308"
        raise DomainError(f"too many {what} for one array: {shown}")
    return int(count)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SourceSpec:
    """Illumination: center wavelength, spectral line, geometry.

    fwhm is the full width at half maximum of the Gaussian spectral line,
    0 for monochromatic light; spectral_grid samples it on
    spectral_samples nodes, an odd count so the center line is always a
    node.  z0 is the source-to-grating distance, None for plane-wave
    illumination.  delta is the illuminated half-width at the grating; if
    omitted it is sized from the 0.5 mrad source cone (delta = 0.5e-3 * z0)
    or falls back to 1 mm for a plane wave.
    """

    lambda0: float
    fwhm: float = 0.0
    spectral_samples: int = SPECTRAL_SAMPLES
    z0: Optional[float] = None
    delta: Optional[float] = None

    def __post_init__(self) -> None:
        _require(self.lambda0 > 0, "lambda0 must be positive")
        _require(self.fwhm >= 0, "fwhm must be non-negative")
        _require(self.spectral_samples >= 1, "samples must be >= 1")
        _require(self.spectral_samples % 2 == 1, "samples must be odd")
        object.__setattr__(self, "spectral_samples", array_length(
            self.spectral_samples, "wavelength nodes"))
        # the outermost node, lambda0 + half*step, as spectral_grid forms
        # it; its weight's exponent, (half*step/beta)^2, is about
        # SPECTRAL_SPAN^2
        _, half, step = self._nodes()
        _require(math.isfinite(self.lambda0 + half * step),
                 f"spectral grid overflows a double: fwhm = {self.fwhm:g} m")
        if self.z0 is not None:
            _require(self.z0 > 0, "z0 must be positive when given")
        if self.delta is None:
            if self.z0 is not None:
                object.__setattr__(self, "delta", SOURCE_DIVERGENCE_RAD * self.z0)
            else:
                object.__setattr__(self, "delta", PLANE_WAVE_DELTA_M)
        _require(self.delta > 0, "delta must be positive")

    def _nodes(self) -> tuple[float, int, float]:
        """beta = fwhm/(2*sqrt(ln 2)), the 1/e half-width of the weight
        exp(-(l-l0)^2/beta^2), half the node count and the node spacing."""
        beta = self.fwhm / (2.0 * math.sqrt(math.log(2.0)))
        half = self.spectral_samples // 2
        return beta, half, SPECTRAL_SPAN * beta / half if half else 0.0


@dataclass(frozen=True)
class GratingSpec:
    """Binary amplitude grating: period d, open fraction f, truncation order.

    trunc is the largest diffraction order kept in the harmonic sums.
    Passing trunc=None picks max(50, ceil(8/f)), enough that the kept
    orders carry nearly all of the transmitted power.
    """

    d: float
    f: float
    trunc: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.d > 0, "grating period d must be positive")
        _require(math.isfinite(self.d * self.d),
                 f"grating period d = {self.d:g} m too large: d*d overflows")
        _require(0 < self.f <= 1, "open fraction f must be in (0, 1]")
        if self.trunc is None:
            _require(8.0 / self.f < math.inf,
                     "open fraction f too small for trunc = auto")
            object.__setattr__(self, "trunc", max(50, math.ceil(8.0 / self.f)))
        _require(int(self.trunc) == self.trunc, "trunc must be an integer")
        object.__setattr__(self, "trunc", int(self.trunc))
        _require(self.trunc >= 0, "trunc must be >= 0")
        array_length(2 * self.trunc + 1, "diffraction orders")

    @property
    def k_d(self) -> float:
        """Grating wavenumber 2*pi/d."""
        return 2.0 * math.pi / self.d


@dataclass(frozen=True)
class DetectionSpec:
    """Detector plane: distance z, slit width, and the scan raster."""

    z: float
    slit_width: float
    scan_start: float
    scan_end: float
    scan_step: float

    def __post_init__(self) -> None:
        _require(self.z > 0, "detector distance z must be positive")
        _require(self.slit_width > 0, "slit_width must be positive")
        _require(self.scan_step > 0, "scan_step must be positive")
        _require(self.scan_end > self.scan_start,
                 "scan_end must be greater than scan_start")

    def positions(self) -> np.ndarray:
        """Slit positions scan_start, scan_start+step, ... up to scan_end."""
        span = self.scan_end - self.scan_start
        # the +eps absorbs representation error when span/step is integral
        steps = array_length(span / self.scan_step * (1.0 + 1e-12),
                             "scan positions")
        return self.scan_start + self.scan_step * np.arange(steps + 1)


@dataclass(frozen=True)
class Pattern:
    """A 1-D detection pattern: rate or counts versus slit position.

    errors, when present, are one-sigma bars matching values entry for
    entry (used by the photon counting simulation).
    """

    positions: np.ndarray
    values: np.ndarray
    norm: str = NORM_RAW
    errors: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", _readonly(self.positions))
        object.__setattr__(self, "values", _readonly(self.values))
        _require(self.positions.ndim == 1, "positions must be 1-D")
        _require(self.positions.shape == self.values.shape,
                 "positions and values must have matching length")
        _require(self.positions.size >= 1, "pattern may not be empty")
        _require(bool(np.all(np.diff(self.positions) > 0)),
                 "positions must be strictly increasing")
        _require(bool(np.all(self.values >= 0)), "values must be non-negative")
        _require(self.norm in (NORM_RAW, NORM_MAX_ONE),
                 f"unknown pattern norm {self.norm!r}")
        if self.norm == NORM_MAX_ONE:
            _require(abs(float(self.values.max()) - 1.0) <= 1e-12,
                     "max-one pattern must peak at 1")
        if self.errors is not None:
            object.__setattr__(self, "errors", _readonly(self.errors))
            _require(self.errors.shape == self.values.shape,
                     "errors must match values in length")


@dataclass(frozen=True)
class Carpet:
    """Intensity sampled on an (z, x) grid; values[i][j] belongs to
    z_axis[i], x_axis[j]."""

    x_axis: np.ndarray
    z_axis: np.ndarray
    values: np.ndarray
    norm: str = NORM_RAW
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_axis", _readonly(self.x_axis))
        object.__setattr__(self, "z_axis", _readonly(self.z_axis))
        object.__setattr__(self, "values", _readonly(self.values))
        _require(self.x_axis.ndim == 1 and self.z_axis.ndim == 1,
                 "axes must be 1-D")
        _require(bool(np.all(np.diff(self.x_axis) > 0)),
                 "x axis must be strictly increasing")
        _require(bool(np.all(np.diff(self.z_axis) > 0)),
                 "z axis must be strictly increasing")
        _require(self.values.shape == (self.z_axis.size, self.x_axis.size),
                 "values must be shaped (len(z_axis), len(x_axis))")
        _require(self.norm in (NORM_RAW, NORM_COLUMN_MAX_ONE),
                 f"unknown carpet norm {self.norm!r}")


def talbot_length(d: float, lam: float) -> float:
    """Self-imaging repeat length d**2/lam of a grating of period d."""
    _require(d > 0, "grating period must be positive")
    _require(lam > 0, "wavelength must be positive")
    return d * d / lam


def shaped_like(x, values):
    """values reshaped to the shape of x; for a 0-d x (a number or a 0-d
    array) the one value as a Python float, complex or int.  Every public
    function of positions, orders or distances returns through this rule.
    """
    values = np.asarray(values).reshape(np.shape(x))
    return values.item() if values.ndim == 0 else values


def effective_distance(z, z0: Optional[float] = None):
    """Reduced propagation distance z*z0/(z+z0); plain z for a plane wave.
    z is a distance or an array-like of them, every entry positive."""
    z = np.asarray(z, dtype=float)
    _require(bool((z > 0).all()), "z must be positive")
    if z0 is None:
        return shaped_like(z, z)
    _require(z0 > 0, "z0 must be positive when given")
    top = float(z.max(initial=0.0))
    if not math.isfinite(top * z0):
        raise DomainError(f"reduced distance z*z0/(z + z0) overflows a "
                          f"double: z = {top:g} m, z0 = {z0:g} m")
    return shaped_like(z, z * z0 / (z + z0))


def magnification(z, z0: Optional[float] = None):
    """Geometric stretch 1 + z/z0 of the pattern; 1 for a plane wave.
    z is a distance or an array-like of them, every entry positive."""
    z = np.asarray(z, dtype=float)
    _require(bool((z > 0).all()), "z must be positive")
    if z0 is None:
        return shaped_like(z, np.ones_like(z))
    _require(z0 > 0, "z0 must be positive when given")
    top = float(z.max())
    if not math.isfinite(1.0 + top / z0):
        raise DomainError(f"magnification 1 + z/z0 overflows a double: "
                          f"z = {top:g} m, z0 = {z0:g} m")
    return shaped_like(z, 1.0 + z / z0)


def spectral_grid(source: SourceSpec) -> list[tuple[float, float]]:
    """Quadrature nodes (wavelength, weight) for the source spectrum.

    source.spectral_samples nodes are evenly spaced over lambda0 +-
    SPECTRAL_SPAN*beta (non-positive wavelengths are dropped), weighted by
    exp(-(l-l0)^2/beta^2) and renormalized to unit sum.  A line whose
    outermost node rounds to lambda0 collapses to [(lambda0, 1.0)].
    """
    beta, half, step = source._nodes()
    if source.lambda0 + half * step == source.lambda0:
        return [(source.lambda0, 1.0)]
    # integer offsets keep the grid exactly symmetric about lambda0
    offsets = np.arange(-half, half + 1) * step
    lams = source.lambda0 + offsets
    keep = lams > 0
    lams = lams[keep]
    weights = np.exp(-((offsets[keep] / beta) ** 2))
    weights = weights / weights.sum()
    return list(zip(lams.tolist(), weights.tolist()))
