"""Direct Fresnel integral, kept deliberately separate from the harmonic
engine so the two can cross-check each other.

The field behind the grating is integrated directly over the
illuminated patch [-W, W], W = source.delta:

    field(x) = sqrt(i/lam)/z * int dx1 exp(-i k (z + (x-x1)^2/(2 z)))
               * t(x1) * exp(-i k (z0 + x1^2/(2 z0)))

with the source chirp dropped for plane-wave illumination.  t(x1) is
the exact binary transmission, not its harmonic truncation, so the
integral is a sum over the open windows of the grating inside [-W, W].
Inside each window the integrand is a pure quadratic phase in x1.
Completing the square with the reduced distance Z = z*z0/(z + z0)
(Z = z for a plane wave) gives

    k (x-x1)^2/(2 z) + k x1^2/(2 z0)
        = k (x1 - c)^2/(2 Z) + k x^2/(2 (z + z0)),    c = x Z/z,

so each window integrates exactly to a difference of the Fresnel
integrals C(u) - i S(u) at u = sqrt(2/(lam Z)) (x1 - c) on its edges.
The work per field evaluation is one such difference per open window;
MAX_WINDOWS bounds it.

The Fresnel integrals E(u) = C(u) + i S(u) = int_0^u exp(i pi t^2/2) dt
come from a numpy kernel with two branches:

* |u| <= 12: a Taylor table (_taylor).  Centres c sit every 1/64; each
  holds E(c) and phi^(k)(c)/(k+1)! for phi(t) = exp(i pi t^2/2), from
  the recurrence phi^(k+1) = i pi (t phi^(k) + k phi^(k-1)).  E at each
  centre is the previous centre's series stepped by 1/64, summed with
  Kahan compensation from E(0) = 0.
* |u| >= 8: the asymptotic series of the auxiliary functions f and g
  (_asymptotic; Abramowitz & Stegun 7.3.9-10 and 7.3.27-28, DLMF 7.5 and
  7.12): E(u) = sgn(u) (1 + i)/2 - (g(u) + i f(u)) exp(i pi u^2/2), with
  the phase pi u^2/2 reduced in whole turns before the cosine and sine.

Both are within about 1e-15 + 1e-16 |u| of E at the given u, as
scipy.special.fresnel is; the rounding of u^2 limits both.  The probes
go in blocks that span at most 3.5 in u.  A window edge at least 8 in u
from every probe of a block, on one side, takes the series, and its
constants sgn(u) (1 + i)/2 are summed once per block; every other edge
then has |u| < 11.5 and takes the table.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, ResolutionCapError
from .model import (GratingSpec, SourceSpec, array_length, effective_distance,
                    shaped_like)
from .units import fmt

# Budget of open windows per field evaluation.  The widest aperture the
# test suite integrates, 31.25 m at d = 360 um, opens about 1.7e5.
MAX_WINDOWS = 1_000_000

# |u| from which the asymptotic series serves E(u): there the first terms
# that _F_SERIES and _G_SERIES drop would add under 3e-18 to f and 3e-17
# to g.
_ASYMPTOTIC_FROM = 8.0
# values of u per kernel call: the series' scratch arrays then stay in a
# core's cache, which halves its time per value against 1.4e5 values
_CHUNK = 16384
# probes per block span at most this in u, so that every edge within
# _ASYMPTOTIC_FROM of some probe has |u| < 11.5, inside the table
_BLOCK_SPAN = 3.5
# Taylor centres per unit of u, the table's last centre, and the terms of
# each centre's series: the first one dropped, at |h| <= 1/128 and
# |c| <= 12, is below 6e-19.
_STEPS = 64
_TABLE_END = 12
_TERMS = 12
# (-1)^m (4m - 1)!! and (-1)^m (4m + 1)!!, m = 0, 1, ..., of
# f(u) ~ sum_m F[m] / (pi u (pi u^2)^(2m)) and
# g(u) ~ sum_m G[m] / (pi^2 u^3 (pi u^2)^(2m))
_F_SERIES = (1.0, -3.0, 105.0, -10395.0, 2027025.0, -654729075.0)
_G_SERIES = (1.0, -15.0, 945.0, -135135.0, 34459425.0)


def _derivative_terms(c: np.ndarray, terms: int) -> np.ndarray:
    """phi^(k)(c)/(k+1)!, k < terms, of phi(t) = exp(i pi t^2/2), one row
    per k; c = j/_STEPS, so the phase c^2/4 in turns is exact."""
    quarter = c * c / 4.0
    d = [np.exp(2j * math.pi * (quarter - np.rint(quarter)))]
    d.append(1j * math.pi * c * d[0])
    for k in range(1, terms - 1):
        d.append(1j * math.pi * (c * d[k] + k * d[k - 1]))
    return np.array(d) / np.cumprod(np.arange(1.0, terms + 1))[:, None]


@functools.cache
def _taylor_table() -> np.ndarray:
    """(2, _TERMS + 1, centres): the real and imaginary parts, at the
    centres c = j/_STEPS, |c| <= _TABLE_END, of E(c) and then of the
    coefficients of h, h^2, ... in E(c + h).  Built on first use."""
    last = _TABLE_END * _STEPS
    terms = _derivative_terms(np.arange(-last, last + 1) / _STEPS, 20)
    # E(c + 1/_STEPS) - E(c) for c >= 0 to 20 terms, the first dropped
    # below 1e-26
    rises = (terms[:, last:-1]
             * (1.0 / _STEPS) ** np.arange(1, 21)[:, None]).sum(axis=0)
    values = [0j]
    total = carry = 0j
    for rise in rises.tolist():
        y = rise - carry
        t = total + y
        carry = (t - total) - y
        total = t
        values.append(total)
    values = np.array(values)
    table = np.vstack([np.concatenate([-values[:0:-1], values]),
                       terms[:_TERMS]])
    return np.stack([table.real, table.imag])


def _taylor(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C(u), S(u)) from the Taylor table, for |u| <= _TABLE_END."""
    nearest = np.rint(u * _STEPS)
    h = u - nearest / _STEPS
    coeffs = np.take(_taylor_table(),
                     nearest.astype(np.intp) + _TABLE_END * _STEPS, axis=2)
    acc = coeffs[:, _TERMS].copy()
    for k in range(_TERMS - 1, -1, -1):
        acc *= h
        acc += coeffs[:, k]
    return acc[0], acc[1]


def _horner(series, w: np.ndarray) -> np.ndarray:
    """sum_m series[m] w^m."""
    acc = series[-1] * w
    for coeff in series[-2:0:-1]:
        acc += coeff
        acc *= w
    acc += series[0]
    return acc


def _asymptotic(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C(u) - sgn(u)/2, S(u) - sgn(u)/2) from the asymptotic series, for
    |u| >= _ASYMPTOTIC_FROM."""
    r = np.divide(1.0 / math.pi, u)   # 1/(pi u), odd like f and g
    v = r / u                         # 1/(pi u^2)
    w = v * v
    f = _horner(_F_SERIES, w)
    f *= r
    g = _horner(_G_SERIES, w)
    g *= r
    g *= v
    # pi u^2/2 is u^2/4 turns; the whole turns go first, exactly.  r, v
    # and w are spent, and hold what follows.
    turns = np.multiply(u, u, out=w)
    turns *= 0.25
    turns -= np.rint(turns, out=r)
    turns *= 2.0 * math.pi
    cos, sin = np.cos(turns, out=r), np.sin(turns, out=v)
    # -(g + i f) exp(i pi u^2/2)
    c = np.multiply(f, sin, out=turns)
    sin *= g
    g *= cos
    c -= g
    f *= cos
    f += sin
    return c, np.negative(f, out=f)


def _window_edges(g: GratingSpec, half_width: float) -> np.ndarray:
    """Edges of the open grating windows clipped to [-W, W], ascending:
    each window's lower edge, then its upper one.

    Window k spans k d +- f d/2.  The aperture is symmetric about 0, so the
    open windows, those with k d - f d/2 < W, are k = -K..K, where
    K = ceil((W + f d/2)/d) - 1 up to a rounding that this test, in floats,
    on K - 1, K and K + 1 settles.  A fully open grating is one window.

    Raises ResolutionCapError, before any array is built, when more than
    MAX_WINDOWS windows are open.
    """
    if g.f == 1.0:
        last, half_open = 0.0, half_width
    else:
        half_open = g.f * g.d / 2.0
        last = float(np.ceil((half_width + half_open) / g.d)) - 1.0
        last += np.count_nonzero((last + np.array([-1.0, 0.0, 1.0])) * g.d
                                 - half_open < half_width) - 2
    count = 2.0 * last + 1.0
    if not count <= MAX_WINDOWS:
        shown = f"{count:.6g}" if count < math.inf else "over 1e308"
        raise ResolutionCapError(
            f"oracle resolution: {shown} open windows in the aperture, "
            f"cap is {MAX_WINDOWS:.6g}")
    ks = np.arange(array_length(count, "open grating windows")) - int(last)
    edges = np.add.outer(ks * g.d, (-half_open, half_open)).ravel()
    return np.minimum(np.maximum(edges, -half_width), half_width)


def _edge_sum(kernel, edges: np.ndarray, signs: np.ndarray,
              centers: np.ndarray, scale: float) -> np.ndarray:
    """sum over r of signs[r] (c - i s), (c, s) = kernel(u) at
    u = scale (edges[r] - centers), in chunks of at most _CHUNK values."""
    rows = max(1, _CHUNK // centers.size)
    total = np.zeros(centers.size, dtype=complex)
    for r in range(0, edges.size, rows):
        u = np.subtract.outer(edges[r:r + rows], centers)
        u *= scale
        c, s = kernel(u)
        total += signs[r:r + rows] @ c - 1j * (signs[r:r + rows] @ s)
    return total


def fresnel_field(x, lam: float, source: SourceSpec, g: GratingSpec,
                  z: float):
    """Complex field at lateral position x on the plane at distance z.

    Raises ResolutionCapError when the aperture holds more than
    MAX_WINDOWS open grating windows, DomainError when the Fresnel scale
    is not a finite positive number or a phase overflows.
    """
    if lam <= 0:
        raise DomainError("wavelength must be positive")
    z_red = effective_distance(z, source.z0)
    spread = lam * z_red
    if not (spread > 0 and 0 < 2.0 / spread < math.inf):
        raise DomainError(f"Fresnel scale sqrt(2/(lambda0*z)) is not a "
                          f"finite positive number: lambda0 = {fmt(lam)} m, "
                          f"z = {fmt(z)} m")
    scale = math.sqrt(2.0 / spread)
    xs = np.asarray(x, dtype=float).ravel()
    edges = _window_edges(g, source.delta)
    # each window adds E at its upper edge and subtracts it at its lower
    signs = np.ones(edges.size)
    signs[::2] = -1.0
    k = 2.0 * math.pi / lam
    centers = xs * (z_red / z)
    # |u| <= scale (max |centre| + W); a point source's phase holds k x^2
    far = float(np.abs(xs).max(initial=0.0))
    u_far = scale * (far * (z_red / z) + source.delta)
    if not (math.isfinite(u_far * u_far)
            and (source.z0 is None or math.isfinite(k * far * far))):
        raise DomainError(f"Fresnel phase overflows a double: |x| up to "
                          f"{fmt(far)} m, delta = {fmt(source.delta)} m")
    # k*z is the piston phase modulo 2 pi; fmod is exact, so reducing the
    # distance by whole wavelengths first keeps the phase to full precision
    if source.z0 is None:
        phase = np.full(xs.shape, k * math.fmod(z, lam))
    else:
        phase = (k * (math.fmod(z, lam) + math.fmod(source.z0, lam))
                 + k * xs ** 2 / (2.0 * (z + source.z0)))

    # blocks of probes in ascending order of their centres
    order = np.argsort(centers, kind="stable")
    centers = centers[order]
    reach = _ASYMPTOTIC_FROM / scale
    sums = np.empty(xs.shape, dtype=complex)
    i = 0
    while i < xs.size:
        j = min(i + _CHUNK, np.searchsorted(
            centers, centers[i] + _BLOCK_SPAN / scale, "right"))
        cen = centers[i:j]
        # edges[:a] lie at least reach left of every probe of the block,
        # edges[b:] as far right; the edges between have |u| < 11.5
        a = np.searchsorted(edges, cen[0] - reach, "right")
        b = max(a, np.searchsorted(edges, cen[-1] + reach, "left"))
        side = 0.5 * (signs[b:].sum() - signs[:a].sum())
        sums[order[i:j]] = (
            _edge_sum(_taylor, edges[a:b], signs[a:b], cen, scale)
            + _edge_sum(_asymptotic, np.concatenate((edges[:a], edges[b:])),
                        np.concatenate((signs[:a], signs[b:])), cen, scale)
            + side * (1.0 - 1.0j))
        i = j
    prefactor = np.sqrt(1j / lam) / (z * scale)
    return shaped_like(x, prefactor * np.exp(-1j * phase) * sums)


def fresnel_intensity(xs, lam: float, source: SourceSpec, g: GratingSpec,
                      z: float):
    """|field|^2 at each probe position (probes are independent)."""
    fields = fresnel_field(xs, lam, source, g, z)
    return shaped_like(xs, np.abs(fields) ** 2)
