"""Observables extracted from computed or measured patterns."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import GratingSpec, Pattern, SourceSpec


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


def _simplest_fraction(side) -> tuple[int, int]:
    """The first p/q > 0 of the Stern-Brocot descent with side(p, q) == 0.

    side(p, q) is -1 below an interval, 0 in it and 1 above it, and does
    not fall as p/q rises.  The first fraction the descent meets in the
    interval has both the smallest q and the smallest p of any in it.
    Each run of steps to one side, a continued-fraction term, is taken
    by doubling and bisection.
    """
    lo, hi = (0, 1), (1, 0)
    while True:
        p, q = lo[0] + hi[0], lo[1] + hi[1]
        where = side(p, q)
        if where == 0:
            return p, q
        # the mediants base + k*step, k >= 1, lie on one side up to some
        # k; the one after is in the interval or across it
        (bp, bq), (sp, sq) = (lo, hi) if where < 0 else (hi, lo)
        k, j = 1, 2
        while side(bp + j * sp, bq + j * sq) == where:
            k, j = j, 2 * j
        while j - k > 1:
            mid = (k + j) // 2
            if side(bp + mid * sp, bq + mid * sq) == where:
                k = mid
            else:
                j = mid
        base = (bp + k * sp, bq + k * sq)
        lo, hi = (base, hi) if where < 0 else (lo, base)


def revival_distance(source: SourceSpec, grating: GratingSpec, z_lo: float,
                     z_hi: float) -> float:
    """Distance of the lowest-order Talbot plane in [z_lo, z_hi].

    At z_eff = (p/q)*d^2/lam, at lam = source.lambda0 and with p/q in
    lowest terms, the monochromatic pattern is q shifted copies of the
    grating image; at p/q = m it is the image itself, shifted half a
    period for odd m (Berry & Klein, J. Mod. Opt. 43, 2139, 1996).  For a
    point source the plane lies at z = z_eff*z0/(z0 - z_eff), and there
    is none once z_eff >= z0.  The answer is the plane of the smallest q
    in the window, then of the smallest p (_simplest_fraction), so a
    window that holds a self-image plane returns the one of the smallest
    m >= 1.  Each candidate's plane is tested in floats against the
    window, so a window edge that is a plane counts.  A flat grating
    profile (f = 1 or trunc = 0) has no image to repeat and raises
    DomainError.
    """
    if not 0 < z_lo < z_hi:
        raise DomainError("need 0 < z_lo < z_hi")
    if grating.f == 1.0 or grating.trunc == 0:
        raise DomainError("no revival found: grating profile is flat")
    z0, d2, lam = source.z0, grating.d ** 2, source.lambda0

    def plane(p: int, q: int):
        """z of the plane of p/q, or None where z_eff >= z0."""
        zeff = p * d2 / (q * lam)
        if z0 is None:
            return zeff
        return zeff * z0 / (z0 - zeff) if zeff < z0 else None

    def side(p: int, q: int) -> int:
        # past 2**53 a double no longer tells p/q from its neighbours
        if max(p, q) > 2 ** 53:
            raise DomainError("no revival found: no plane in the window is "
                              "resolved in double precision")
        z = plane(p, q)
        if z is None or z > z_hi:
            return 1
        return -1 if z < z_lo else 0

    return plane(*_simplest_fraction(side))
