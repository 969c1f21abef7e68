"""Closed-form near-field propagation of the grating field.

Everything here comes from the harmonic expansion of the grating.  The
field amplitude is psi(x) = sum_n c_n exp(i*n*a*x) with the chirped
coefficients c_n = A_n exp(i*n^2*b).  The intensity is |psi|^2, a single
sum over orders per position.  Slit and spectral averages act on the
intensity harmonics C_q = sum_n c_{n+q} conj(c_n), q = 0..2*trunc, the
autocorrelation of c: one FFT per wavelength sums them, the spectral
weights and the slit factor apply to them once, and a position then costs
2*trunc cosines.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .grating import coefficient_table
from .model import (NORM_COLUMN_MAX_ONE, NORM_MAX_ONE, NORM_RAW, Carpet,
                    DetectionSpec, GratingSpec, Pattern, SourceSpec,
                    effective_distance, magnification, spectral_grid)

# Cap on the scratch matrix (orders or harmonics x positions) in doubles.
_CHUNK_BUDGET = 4_000_000


def _fft_size(grating: GratingSpec) -> int:
    """Length of the zero-padded FFT in _harmonics: the smallest power of
    two above 4*trunc + 1, which holds harmonic 2*trunc without wrapping."""
    return 1 << (4 * grating.trunc + 1).bit_length()


def _harmonics(grating: GratingSpec, b) -> np.ndarray:
    """Intensity harmonics C_q = sum_n c_{n+q} conj(c_n) for q = 0..2*trunc.

    c_n = A_n exp(i*n^2*b).  b may be a scalar or an array; each value of
    b gives one row of C_q, and the FFTs run row-wise along the last axis.
    The zero-padded FFT holds at least 2*(2*trunc+1) points, so the
    circular autocorrelation |F|^2 does not wrap.  A_-n = A_n makes c even
    in n and so C_q real; the rounding residue of the imaginary part is
    dropped.
    """
    ns, amps = coefficient_table(grating)
    chirped = amps * np.exp(np.multiply.outer(1j * np.asarray(b), ns * ns))
    spectrum = np.fft.fft(chirped, _fft_size(grating))
    power = spectrum.real ** 2 + spectrum.imag ** 2
    return np.fft.ifft(power)[..., :ns.size].real


def intensity(x, lam: float, source: SourceSpec, grating: GratingSpec,
              z: float):
    """Monochromatic intensity at lateral position x, distance z.

    x may be a scalar or an array.  The pattern is periodic with the
    magnified period d*(1 + z/z0) and normalized so that a fully open
    grating gives 1.

    The field amplitude is psi(x) = sum_n A_n exp(i(n*a*x + n^2*b)).
    The grating is symmetric about x = 0, so A_-n = A_n and the sum folds
    to A_0 + 2 sum_{n>0} A_n exp(i n^2 b) cos(n*a*x): O(trunc) work and
    memory per position.
    """
    if lam <= 0:
        raise DomainError("wavelength must be positive")
    zeff = effective_distance(z, source.z0)
    mag = magnification(z, source.z0)
    a = grating.k_d / mag
    b = math.pi * lam * zeff / (grating.d ** 2)
    ns, amps = coefficient_table(grating)
    zeroth = amps[grating.trunc]
    ns, amps = ns[grating.trunc + 1:], amps[grating.trunc + 1:]
    chirp = 2.0 * amps * np.exp(1j * b * (ns * ns))
    weights = np.stack([chirp.real, chirp.imag], axis=1)
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    vals = np.empty_like(xs)
    block = max(1, _CHUNK_BUDGET // max(1, ns.size))
    for lo in range(0, xs.size, block):
        hi = min(lo + block, xs.size)
        psi = np.cos(np.multiply.outer(xs[lo:hi], ns * a)) @ weights
        vals[lo:hi] = (zeroth + psi[:, 0]) ** 2 + psi[:, 1] ** 2
    if np.isscalar(x):
        return float(vals[0])
    return vals.reshape(np.shape(x))


def slit_rate(x, lam: float, source: SourceSpec, grating: GratingSpec,
              det: DetectionSpec):
    """Monochromatic count rate behind a slit spanning [x, x + slit_width].

    The one-node case of polychromatic_rate.
    """
    return polychromatic_rate(x, source, grating, det, grid=[(lam, 1.0)])


def polychromatic_rate(x, source: SourceSpec, grating: GratingSpec,
                       det: DetectionSpec, grid=None):
    """Spectrum-weighted count rate behind a slit spanning [x, x + slit_width].

    grid is a list of (wavelength, weight) nodes; by default it is
    spectral_grid(source).  The weighted harmonics are summed in node
    order.  Integrating harmonic q across the slit gives sin(q*a*D/2)/(q*a)
    times its phase factor at the slit center; q = 0 takes the limit D/2.
    """
    if grid is None:
        grid = spectral_grid(source)
    if len(grid) == 0:
        raise DomainError("spectral grid is empty")
    width = det.slit_width
    zeff = effective_distance(det.z, source.z0)
    a = grating.k_d / magnification(det.z, source.z0)
    harmonics = np.zeros(2 * grating.trunc + 1)
    for lam, weight in grid:
        if lam <= 0:
            raise DomainError("wavelength must be positive")
        b = math.pi * lam * zeff / (grating.d ** 2)
        harmonics += weight * _harmonics(grating, b)
    qa = np.arange(1, harmonics.size) * a
    weights = 2.0 * harmonics[1:] * np.sin(qa * width / 2.0) / qa
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    centered = xs + width / 2.0
    vals = np.empty_like(xs)
    block = max(1, _CHUNK_BUDGET // max(1, qa.size))
    for lo in range(0, xs.size, block):
        hi = min(lo + block, xs.size)
        vals[lo:hi] = harmonics[0] * width / 2.0 + np.cos(
            np.multiply.outer(centered[lo:hi], qa)) @ weights
    if np.isscalar(x):
        return float(vals[0])
    return vals.reshape(np.shape(x))


def scan(source: SourceSpec, grating: GratingSpec, det: DetectionSpec,
         samples: int = 41, span: float = 3.0) -> Pattern:
    """Sweep the slit across the pattern and return it as a Pattern.

    The slit is swept while the grating stays put; positions are the
    slit coordinates X.  The spectrum is spectral_grid(source, samples,
    span).  The curve peaks at 1 and the raw peak rate is kept in
    meta["raw_max"].
    """
    positions = det.positions()
    rates = np.asarray(polychromatic_rate(
        positions, source, grating, det,
        grid=spectral_grid(source, samples=samples, span=span)), dtype=float)
    raw_max = float(rates.max())
    if raw_max <= 0:
        raise DomainError("pattern is identically zero")
    meta = {
        "source": source,
        "grating": grating,
        "detection": det,
        "magnification": magnification(det.z, source.z0),
        "abscissa": "slit position X in meters; X/(d*magnification) "
                    "counts magnified grating periods",
        "raw_max": raw_max,
    }
    return Pattern(positions=positions, values=rates / raw_max,
                   norm=NORM_MAX_ONE, meta=meta)


def carpet(source: SourceSpec, grating: GratingSpec, x_grid, z_grid,
           lam: float | None = None, norm: str = NORM_RAW) -> Carpet:
    """Monochromatic intensity on a full (z, x) raster.

    Row i holds the pattern at z_grid[i].  With norm="per-column-max-one"
    each x column is rescaled to peak at 1 across z.
    """
    if lam is None:
        lam = source.lambda0
    xs = np.asarray(x_grid, dtype=float)
    zs = np.asarray(z_grid, dtype=float)
    if zs.size == 0:
        raise DomainError("carpet z grid is empty")
    values = np.vstack([intensity(xs, lam, source, grating, float(z))
                        for z in zs])
    if norm == NORM_COLUMN_MAX_ONE:
        peaks = values.max(axis=0)
        if np.any(peaks <= 0):
            raise DomainError("carpet column peaks at zero; cannot normalize")
        values = values / peaks
    elif norm != NORM_RAW:
        raise DomainError(f"unknown carpet norm {norm!r}")
    return Carpet(x_axis=xs, z_axis=zs, values=values, norm=norm,
                  meta={"source": source, "grating": grating,
                        "wavelength": lam})
