"""Observables extracted from computed or measured patterns."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError
from .model import GratingSpec, Pattern, SourceSpec, effective_distance
from .propagation import (_MIN_ROW_POINTS, _fast_length, _harmonics,
                          _plane_harmonics)

# Orders kept while the revival search locates the main lobe: the lobe
# narrows roughly as 1/trunc^2, and the default coarse grid stops
# resolving it above about 80 orders (at 200 it lands on a sidelobe).
_SEARCH_TRUNC = 80

# Relative secant step, a few ulps, at which the slope-root search stops.
_ROOT_XTOL = 1e-15

# The revival score's main lobe spans at least +-_LOBE/trunc^2 in b about
# a revival plane (its slope has the sign of the offset there), at every
# open fraction from 0.001 to 0.97 and trunc from 1 to 8000.
_LOBE = 1.5


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


def _shifts(trunc: int) -> int:
    """Lateral shifts the revival score tries per period:
    max(256, 2*_fast_length(2*trunc + 1)), even, so the half-period shift
    is on the grid, and above 4*trunc, so harmonic 2*trunc is below its
    Nyquist bin."""
    return max(_MIN_ROW_POINTS, 2 * _fast_length(2 * trunc + 1))


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
    evaluates it on the _shifts(trunc) grid.  A plane or profile whose
    standard deviation sqrt(2*sum C_q^2) is at rounding level against its
    mean C_0 scores 0.
    """
    size = _shifts(grating.trunc)
    ref = _harmonics(grating, 0.0)
    ref_norm = float(_structure(ref))

    def scores(zs) -> np.ndarray:
        out = np.zeros(len(zs))
        if ref_norm == 0.0:
            return out
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


def _revival_slopes(grating: GratingSpec):
    """Return slopes(b): the first two derivatives (S', S'') of the
    revival score in b = pi*lam*z_eff/d^2, through which alone the score
    of one wavelength depends on z.

    The best of a fixed grid of shifts is, piecewise in b, the correlation
    S = X/(N*|R|) at one shift (the envelope theorem), with X = sum_{q>=1}
    C_q r_q, r_q = R_q cos(2*pi*q*phi) and N = sqrt(sum_{q>=1} C_q^2).
    With the unit vector c^ = C/N and e = r - c^(c^.r), S' = C'.e/(N*|R|)
    and S'' = (C''.e - (c^.r)|C' - c^(c^.C')|^2/N - 2(c^.C')S'|R|)/(N*|R|).
    At an exact revival S' has a triple root, so it is a difference of
    terms that vanish only as the offset: e is taken from the departure
    C - r, by the identity e*N^2 = ((r.E + E.E) r - (r.r + r.E) E) with
    E = C - r, and b is reduced modulo pi, the score's period (C_q(b + pi)
    = (-1)^q C_q(b), and the half-period shift is on the grid).  Near a
    revival the best shift is then 0, E is _harmonics's departure row
    C(b) - C(0) with its relative precision, and S' keeps its sign to a
    few ulps of b from the revival plane.
    """
    length = _fast_length(4 * grating.trunc + 1)
    size = _shifts(grating.trunc)
    ref = _harmonics(grating, 0.0, length)
    ref_norm = float(_structure(ref))
    orders = np.arange(1, ref.size)

    def slopes(b: float) -> tuple[float, float]:
        dev, first, second = _harmonics(grating, math.remainder(b, math.pi),
                                        length, slopes=True)
        harm = ref + dev
        cross = harm * ref
        cross[0] = 0.0
        shift = int(np.argmax(np.fft.irfft(cross, size)))
        cosines = np.cos((2.0 * math.pi * shift / size) * orders)
        c, d1, d2 = harm[1:], first[1:], second[1:]
        r = ref[1:] * cosines
        gap = dev[1:] + ref[1:] * (1.0 - cosines)
        norm2 = c @ c
        norm = math.sqrt(norm2)
        e = ((r @ gap + gap @ gap) * r - (r @ r + r @ gap) * gap) / norm2
        along = c @ d1 / norm
        s1 = d1 @ e / norm
        s2 = (d2 @ e - (c @ r) * (d1 @ d1 - along * along) / norm2
              - 2.0 * along * s1) / norm
        return float(s1 / ref_norm), float(s2 / ref_norm)

    return slopes


def _structure(harm: np.ndarray) -> np.ndarray:
    """sqrt(sum_{q>=1} C_q^2) along the last axis, or 0 where the signal's
    standard deviation sqrt(2*sum C_q^2) is rounding noise against C_0."""
    norm = np.sqrt(np.sum(harm[..., 1:] ** 2, axis=-1))
    return np.where(math.sqrt(2.0) * norm <= 1e-9 * np.abs(harm[..., 0]),
                    0.0, norm)


def _slope_root(slopes, lo: float, hi: float):
    """The b in [lo, hi] where the score's slope S'(b) falls through zero,
    or None unless S'(lo) > 0 > S'(hi).

    At an exact revival S' has a triple root (1 - S grows as the fourth
    power of the offset), where secant or Newton steps on S' converge only
    linearly; u = S'/S'' has a simple root there and wherever S' does.  So
    the steps are secant steps on u, kept inside the sign bracket of S':
    a step that leaves the bracket, or one no shorter than half the step
    before last, is replaced by a bisection.  It returns once a secant
    step is under _ROOT_XTOL of b relatively, or the bracket holds no
    double between its ends.
    """
    s_lo, c_lo = slopes(lo)
    s_hi, c_hi = slopes(hi)
    if not s_lo > 0.0 > s_hi:
        return None
    (b0, u0), (b1, u1) = (lo, s_lo / c_lo), (hi, s_hi / c_hi)
    last = older = hi - lo
    while True:
        b = b1 - u1 * (b1 - b0) / (u1 - u0) if u1 != u0 else math.nan
        if lo < b < hi and abs(b - b1) < 0.5 * older:
            if abs(b - b1) <= _ROOT_XTOL * b:
                return b
        else:
            b = 0.5 * (lo + hi)
            if not lo < b < hi:
                return b
        s, c = slopes(b)
        if s == 0.0:
            return b
        if s > 0.0:
            lo = b
        else:
            hi = b
        last, older = abs(b - b1), last
        (b0, u0), (b1, u1) = (b1, u1), (b, s / c)


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
    batch, and dense 65-point windows around the top four distinct coarse
    candidates in a second.  The main lobe narrows roughly as 1/trunc^2,
    so above _SEARCH_TRUNC orders these stages score the grating
    truncated at _SEARCH_TRUNC, whose revival plane is the same.

    The maximum is then a root of the score's slope in b =
    pi*lam*z_eff/d^2 (_revival_slopes, _slope_root), bracketed by the
    best dense plane plus or minus one dense step.  A root is only
    trusted within one lobe, and the main lobe spans at least
    +-_LOBE/trunc^2 in b, so the first search scores the largest
    truncation whose main lobe spans 1.5 brackets; its root is the
    revival plane, which every truncation shares, and a last search at
    the full trunc brackets it within +-_LOBE/(2*trunc^2).  If the slope
    does not change sign across a bracket (the maximum is at an end of the
    interval, or off the planes the dense windows resolve), the best
    dense plane is the answer.  The root maps back by z = z_eff*z0/(z0 -
    z_eff).  At an exact revival 1 - score grows only as the fourth power
    of the offset (1e-15 at 10 nm), so an argmax resolves the plane only
    to about 5 nm; the slope, taken from the departure of C_q from the
    revival image, resolves it to a few ulps.  A flat score landscape
    (for instance a fully open grating) raises DomainError.
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
        best_z = float(dense[i])

    scale = math.pi * lam / grating.d ** 2

    def to_b(z: float) -> float:
        return scale * float(effective_distance(z, source.z0))

    step = spacing / 16.0
    lo, hi = to_b(max(z_lo, best_z - step)), to_b(min(z_hi, best_z + step))
    first = int(math.sqrt(_LOBE / (1.5 * (hi - lo))))
    first = max(1, min(first, grating.trunc))
    b = _slope_root(
        _revival_slopes(dataclasses.replace(grating, trunc=first)), lo, hi)
    if b is not None and first < grating.trunc:
        half = 0.5 * _LOBE / grating.trunc ** 2
        b = _slope_root(_revival_slopes(grating),
                        max(to_b(z_lo), b - half), min(to_b(z_hi), b + half))
    if b is None:
        return best_z
    zeff = b / scale
    z = zeff if source.z0 is None else zeff * source.z0 / (source.z0 - zeff)
    return min(max(z, z_lo), z_hi)
