"""Observables extracted from computed or measured patterns."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError
from .model import GratingSpec, Pattern, SourceSpec
from .propagation import (_CHUNK_BUDGET, _DOUBLES_PER_POINT, _fft_size,
                          _harmonics, _plane_harmonics)

# Orders kept while the revival search locates the main lobe: the lobe
# narrows roughly as 1/trunc^2, and the default coarse grid stops
# resolving it above about 80 orders (at 200 it lands on a sidelobe).
_SEARCH_TRUNC = 80


def visibility(pattern: Pattern) -> float:
    """Fringe contrast (max - min)/(max + min) of a pattern."""
    vmax = float(pattern.values.max())
    vmin = float(pattern.values.min())
    if vmax <= 0:
        raise DomainError("pattern is identically zero")
    return (vmax - vmin) / (vmax + vmin)


def _half_crossing(x0, v0, x1, v1, level):
    # linear interpolation between neighboring samples
    return x0 + (level - v0) * (x1 - x0) / (v1 - v0)


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

    widths = []
    above = v >= half
    i = 0
    n = v.size
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        # runs touching either end have no measurable width
        if i > 0 and j < n - 1:
            left = _half_crossing(x[i - 1], v[i - 1], x[i], v[i], half)
            right = _half_crossing(x[j], v[j], x[j + 1], v[j + 1], half)
            widths.append(right - left)
        i = j + 1
    if len(widths) < 2:
        raise DomainError("insufficient fringes: need at least two full fringes")
    return float(np.mean(widths)) / period


def _revival_scorer(lam: float, source: SourceSpec, grating: GratingSpec):
    """Return scores(zs): for each distance in zs, the best normalized
    cross-correlation between the pattern there and the squared grating
    profile, over all lateral shifts within a period.

    Both signals are real, even and periodic, so they are their harmonics:
    C_q from _plane_harmonics for the plane at z, and R_q = C_q at b = 0
    for the profile (Berry & Klein, J. Mod. Opt. 43, 2139, 1996).  The
    magnification only stretches the pattern and drops out.  The mean-free
    correlation at shift phi (in periods) is sum_{q>=1} C_q R_q
    cos(2*pi*q*phi) over sqrt(sum C_q^2 * sum R_q^2); one irfft per plane
    evaluates it on a grid of at least 256 shifts that holds harmonic
    2*trunc below its Nyquist bin.  A plane or profile whose standard
    deviation sqrt(2*sum C_q^2) is at rounding level against its mean C_0
    scores 0.  Planes are scored in chunks that keep the scratch within
    _CHUNK_BUDGET doubles.
    """
    size = max(256, _fft_size(grating))
    rows = max(1, _CHUNK_BUDGET // (_DOUBLES_PER_POINT * size))
    ref = _harmonics(grating, 0.0)
    ref_norm = float(_structure(ref))

    def scores(zs) -> np.ndarray:
        out = np.zeros(len(zs))
        if ref_norm == 0.0:
            return out
        for lo in range(0, len(zs), rows):
            harm, _ = _plane_harmonics(source, grating, [(lam, 1.0)],
                                       zs[lo:lo + rows])
            norm = _structure(harm) * ref_norm
            cross = harm * ref
            cross[:, 0] = 0.0
            # irfft returns (2/size) * sum_q cross_q cos(2*pi*q*m/size)
            peak = np.fft.irfft(cross, size).max(axis=1) * (size / 2.0)
            np.divide(peak, norm, out=out[lo:lo + rows], where=norm > 0.0)
        return out

    return scores


def _structure(harm: np.ndarray) -> np.ndarray:
    """sqrt(sum_{q>=1} C_q^2) along the last axis, or 0 where the signal's
    standard deviation sqrt(2*sum C_q^2) is rounding noise against C_0."""
    norm = np.sqrt(np.sum(harm[..., 1:] ** 2, axis=-1))
    return np.where(math.sqrt(2.0) * norm <= 1e-9 * np.abs(harm[..., 0]),
                    0.0, norm)


def _zoom(scores, z: float, score: float, radius: float, lo: float,
          hi: float, xtol: float = 1e-12, points: int = 9) -> float:
    """Shrinking grid search around z, which has already scored score.

    Each round scores points distances within radius of z in one batch,
    moves z to the best of them if it beats score, and cuts the radius by
    4, until the radius is under xtol.  Returns the final z.
    """
    while radius >= xtol:
        grid = np.linspace(max(lo, z - radius), min(hi, z + radius), points)
        vals = scores(grid)
        i = int(np.argmax(vals))
        if vals[i] > score:
            z, score = float(grid[i]), float(vals[i])
        radius /= 4.0
    return z


def revival_distance(source: SourceSpec, grating: GratingSpec, lam: float,
                     z_lo: float, z_hi: float, steps: int = 64) -> float:
    """Distance in [z_lo, z_hi] where the pattern best reproduces the
    grating image (allowing a lateral shift, so half-period-shifted
    recurrences count as revivals).

    Each plane is scored from its intensity harmonics (see
    _revival_scorer), at O(trunc log trunc) per plane.  The correlation
    score rings near a revival (defocus ripples of the sharp image leave a
    narrow main lobe between tall sidelobes), so a single local refinement
    is not trustworthy.  The steps-point coarse grid is scored in one
    batch, dense 65-point windows around the top four distinct coarse
    candidates in a second, and the global best is then zoomed: 9 points a
    round, the radius starting at an eighth of the coarse spacing and
    shrinking 4x a round until it is under 1e-12 m.  The main lobe narrows
    roughly as 1/trunc^2, so above _SEARCH_TRUNC orders these three stages
    score the grating truncated at _SEARCH_TRUNC, whose revival plane is
    the same, and a second zoom from the same radius finishes at the full
    trunc.  A flat score landscape (for instance a fully open grating)
    raises DomainError.
    """
    if lam <= 0:
        raise DomainError("wavelength must be positive")
    if not 0 < z_lo < z_hi:
        raise DomainError("need 0 < z_lo < z_hi")
    if steps < 16:
        raise DomainError("steps must be >= 16")

    search_grating = grating
    if grating.trunc > _SEARCH_TRUNC:
        search_grating = dataclasses.replace(grating, trunc=_SEARCH_TRUNC)
    scores = _revival_scorer(lam, source, search_grating)
    zs = np.linspace(z_lo, z_hi, steps)
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

    best_z, best_s = float(zs[order[0]]), float(coarse[order[0]])
    dense = np.concatenate([
        np.linspace(max(z_lo, zs[idx] - 2.0 * spacing),
                    min(z_hi, zs[idx] + 2.0 * spacing), 65)
        for idx in candidates])
    vals = scores(dense)
    i = int(np.argmax(vals))
    if vals[i] > best_s:
        best_z, best_s = float(dense[i]), float(vals[i])
    best_z = _zoom(scores, best_z, best_s, spacing / 8.0, z_lo, z_hi)
    if search_grating is grating:
        return best_z
    # the capped optimum lies inside the narrower full-trunc main lobe, and
    # _zoom only accepts better scores, so it cannot leave that lobe
    scores = _revival_scorer(lam, source, grating)
    return _zoom(scores, best_z, float(scores([best_z])[0]), spacing / 8.0,
                 z_lo, z_hi)
