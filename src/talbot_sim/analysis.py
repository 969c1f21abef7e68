"""Observables extracted from computed or measured patterns."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError
from .model import (GratingSpec, Pattern, SourceSpec, array_length,
                    effective_distance)
from .propagation import (_MIN_ROW_POINTS, _fast_length, _harmonics,
                          _plane_harmonics)

# Orders kept while the revival search locates the main lobe: the lobe
# narrows roughly as 1/trunc^2, and the default coarse grid stops
# resolving it above about 80 orders (at 200 it lands on a sidelobe).
_SEARCH_TRUNC = 80

REVIVAL_STEPS = 64  # default coarse grid of the revival search


def visibility(pattern: Pattern) -> float:
    """Fringe contrast (max - min)/(max + min) of a pattern."""
    vmax = float(pattern.values.max())
    vmin = float(pattern.values.min())
    if vmax <= 0:
        raise DomainError("pattern is identically zero")
    return (vmax - vmin) / (vmax + vmin)


def fringe_width_fraction(pattern: Pattern, period: float) -> float:
    """Mean full width at half maximum of the fringes, in period units.

    The half level sits midway between the pattern's own extremes.
    Fringes clipped by the scan boundary are dropped; at least two full
    fringes must remain, which also requires the scan to span two
    periods or more.
    """
    if period <= 0:
        raise DomainError("period must be positive")
    x = pattern.positions
    v = pattern.values
    if x[-1] - x[0] < 2 * period:
        raise DomainError("insufficient fringes: scan spans under two periods")
    vmax = float(v.max())
    vmin = float(v.min())
    if vmax <= vmin:
        raise DomainError("insufficient fringes: pattern is flat")
    half = 0.5 * (vmax + vmin)

    above = v >= half
    rises = np.flatnonzero(~above[:-1] & above[1:])
    falls = np.flatnonzero(above[:-1] & ~above[1:])
    # runs touching either end have no measurable width
    if above[0]:
        falls = falls[1:]
    if above[-1]:
        rises = rises[:-1]

    def crossing(k):
        # linear interpolation between samples k and k + 1
        return x[k] + (half - v[k]) * (x[k + 1] - x[k]) / (v[k + 1] - v[k])

    widths = crossing(falls) - crossing(rises)
    if widths.size < 2:
        raise DomainError("insufficient fringes: need at least two full fringes")
    return float(np.mean(widths)) / period


def _reference(grating: GratingSpec):
    """The grating profile's harmonics R_q and its norm _structure(R)."""
    ref = _harmonics(grating, 0.0)
    return ref, float(_structure(ref))


def _revival_scorer(lam: float, source: SourceSpec, grating: GratingSpec,
                    reference=None):
    """Return scores(zs): for each distance in zs, the best normalized
    cross-correlation between the pattern there and the squared grating
    profile, over all lateral shifts within a period.

    Both signals are real, even and periodic, so they are their harmonics:
    C_q from _plane_harmonics for the plane at z, and R_q = C_q at b = 0
    for the profile (Berry & Klein, J. Mod. Opt. 43, 2139, 1996).  The
    magnification only stretches the pattern and drops out.  The mean-free
    correlation at shift phi (in periods) is sum_{q>=1} C_q R_q
    cos(2*pi*q*phi) over sqrt(sum C_q^2 * sum R_q^2); one irfft per plane
    evaluates it on max(256, 2*_fast_length(2*trunc + 1)) shifts: even, so
    phi = 1/2 is on the grid, and above 4*trunc, so harmonic 2*trunc is
    below its Nyquist bin.  A plane or profile whose standard deviation
    sqrt(2*sum C_q^2) is at rounding level against its mean C_0 scores 0.
    reference is _reference(grating), for a caller that has it already.
    """
    size = max(_MIN_ROW_POINTS, 2 * _fast_length(2 * grating.trunc + 1))
    ref, ref_norm = reference or _reference(grating)

    def scores(zs) -> np.ndarray:
        out = np.zeros(len(zs))
        for rows, harm, _ in _plane_harmonics(source, grating, [(lam, 1.0)],
                                              zs):
            norm = _structure(harm) * ref_norm
            cross = harm * ref
            cross[:, 0] = 0.0
            # irfft returns (2/size) * sum_q cross_q cos(2*pi*q*m/size)
            peak = np.fft.irfft(cross, size).max(axis=1) * (size / 2.0)
            np.divide(peak, norm, out=out[rows], where=norm > 0.0)
        return out

    return scores


def _structure(harm: np.ndarray) -> np.ndarray:
    """sqrt(sum_{q>=1} C_q^2) along the last axis, or 0 where the signal's
    standard deviation sqrt(2*sum C_q^2) is rounding noise against C_0."""
    norm = np.sqrt(np.sum(harm[..., 1:] ** 2, axis=-1))
    return np.where(math.sqrt(2.0) * norm <= 1e-9 * np.abs(harm[..., 0]),
                    0.0, norm)


def revival_distance(source: SourceSpec, grating: GratingSpec, lam: float,
                     z_lo: float, z_hi: float,
                     steps: int = REVIVAL_STEPS) -> float:
    """Distance in [z_lo, z_hi] where the pattern best reproduces the
    grating image, allowing a lateral shift (half-period-shifted
    recurrences count as revivals).

    The score (_revival_scorer) is at most 1, and exactly 1 at any trunc
    on the self-image planes z_eff = m*d^2/lam, where b = m*pi makes C_q
    = (+-1)^q R_q (Berry & Klein, J. Mod. Opt. 43, 2139, 1996): at z =
    z_eff*z0/(z0 - z_eff) for a point source, while z_eff < z0.  The
    answer is the plane of the smallest m >= 1 in the interval, or else
    the best plane of the steps-point coarse grid and of dense 65-point
    windows around its top four distinct maxima (the score rings: a
    narrow main lobe between tall sidelobes), scored at no more than
    _SEARCH_TRUNC orders.  A flat grating profile or score landscape
    raises DomainError.
    """
    if lam <= 0:
        raise DomainError("wavelength must be positive")
    if not 0 < z_lo < z_hi:
        raise DomainError("need 0 < z_lo < z_hi")
    if steps < 16:
        raise DomainError("steps must be >= 16")
    # the cap keeps A_1 = sin(pi*f)/pi, the structure this tests for
    search_grating = grating
    if grating.trunc > _SEARCH_TRUNC:
        search_grating = dataclasses.replace(grating, trunc=_SEARCH_TRUNC)
    ref, ref_norm = _reference(search_grating)
    if ref_norm == 0.0:
        raise DomainError("no revival found: grating profile is flat")

    # z(m) rises with m; rounding may put z_lo's own m one off its ceiling
    z0, d2 = source.z0, grating.d ** 2
    first = math.ceil(effective_distance(z_lo, z0) * lam / d2)
    for m in range(max(1, first - 1), first + 2):
        zeff = m * d2 / lam
        if z0 is None:
            z = zeff
        else:  # no plane once z_eff >= z0
            z = zeff * z0 / (z0 - zeff) if zeff < z0 else math.nan
        if z >= z_lo:
            break
    if z_lo <= z <= z_hi:
        return z

    scores = _revival_scorer(lam, source, search_grating, (ref, ref_norm))
    zs = np.linspace(z_lo, z_hi, array_length(steps, "search planes"))
    coarse = scores(zs)
    if coarse.max() - coarse.min() < 1e-6:
        raise DomainError("no revival found: correlation landscape is flat")
    spacing = (z_hi - z_lo) / (steps - 1)

    # distinct coarse candidates: grid maxima at least two steps apart
    order = np.argsort(coarse)[::-1]
    candidates: list[int] = []
    for idx in order:
        if all(abs(idx - c) >= 2 for c in candidates):
            candidates.append(int(idx))
        if len(candidates) == 4:
            break

    dense = np.concatenate([
        np.linspace(max(z_lo, zs[idx] - 2.0 * spacing),
                    min(z_hi, zs[idx] + 2.0 * spacing), 65)
        for idx in candidates])
    vals = scores(dense)
    i = int(np.argmax(vals))
    return float(dense[i] if vals[i] > coarse[order[0]] else zs[order[0]])
