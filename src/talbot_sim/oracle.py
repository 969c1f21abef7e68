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
max_windows bounds it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ResolutionCapError
from .model import (SCRATCH_BUDGET, GratingSpec, SourceSpec,
                    effective_distance, shaped_like)

# Budget of open windows per field evaluation.  The widest aperture the
# test suite integrates, 31.25 m at d = 360 um, opens about 1.7e5.
DEFAULT_MAX_WINDOWS = 1_000_000


def _window_edges(g: GratingSpec, half_width: float,
                  max_windows: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges (lo, hi) of the open grating windows clipped to [-W, W].

    Raises ResolutionCapError, before any array is built, when more than
    max_windows windows are open.
    """
    if g.f == 1.0:
        k_lo = k_hi = 0
        half_open = half_width
    else:
        half_open = g.f * g.d / 2.0

        def is_open(k: int) -> bool:
            return (min(k * g.d + half_open, half_width)
                    > max(k * g.d - half_open, -half_width))

        # the open windows are the contiguous run of periods k that
        # overlap the aperture; only the outermost candidates can miss it
        k_lo = math.floor((-half_width - half_open) / g.d)
        k_hi = math.ceil((half_width + half_open) / g.d)
        while not is_open(k_lo):
            k_lo += 1
        while not is_open(k_hi):
            k_hi -= 1
    count = k_hi - k_lo + 1
    if count > max_windows:
        raise ResolutionCapError(
            f"oracle resolution: {count} open windows in the aperture, "
            f"cap is {max_windows}")
    centers = np.arange(k_lo, k_hi + 1) * g.d
    lo = np.maximum(centers - half_open, -half_width)
    hi = np.minimum(centers + half_open, half_width)
    return lo, hi


def fresnel_field(x, lam: float, source: SourceSpec, g: GratingSpec,
                  z: float, max_windows: int = DEFAULT_MAX_WINDOWS):
    """Complex field at lateral position x on the plane at distance z.

    Raises ResolutionCapError when the aperture holds more than
    max_windows open grating windows.
    """
    # imported here, not at module level: scipy takes longer to import than
    # every other subcommand takes to run, and only the oracle needs it
    from scipy.special import fresnel

    if lam <= 0:
        raise DomainError("wavelength must be positive")
    if z <= 0:
        raise DomainError("propagation distance must be positive")
    xs = np.asarray(x, dtype=float).ravel()
    lo, hi = _window_edges(g, source.delta, max_windows)
    edges = np.concatenate([lo, hi])
    signs = np.concatenate([-np.ones(lo.size), np.ones(hi.size)])
    k = 2.0 * math.pi / lam
    z_red = effective_distance(z, source.z0)
    scale = math.sqrt(2.0 / (lam * z_red))
    # k*z is the piston phase modulo 2 pi; fmod is exact, so reducing the
    # distance by whole wavelengths first keeps the phase to full precision
    if source.z0 is None:
        centers = xs
        phase = np.full(xs.shape, k * math.fmod(z, lam))
    else:
        centers = xs * (z_red / z)
        phase = (k * (math.fmod(z, lam) + math.fmod(source.z0, lam))
                 + k * xs ** 2 / (2.0 * (z + source.z0)))

    sums = np.empty(xs.shape, dtype=complex)
    # about 4 doubles of scratch per window edge and probe
    block = max(1, SCRATCH_BUDGET // (4 * edges.size))
    for i in range(0, xs.size, block):
        j = min(i + block, xs.size)
        s, c = fresnel(scale * np.subtract.outer(edges, centers[i:j]))
        sums[i:j] = signs @ c - 1j * (signs @ s)
    prefactor = np.sqrt(1j / lam) / (z * scale)
    return shaped_like(x, prefactor * np.exp(-1j * phase) * sums)


def fresnel_intensity(xs, lam: float, source: SourceSpec, g: GratingSpec,
                      z: float, max_windows: int = DEFAULT_MAX_WINDOWS):
    """|field|^2 at each probe position (probes are independent)."""
    fields = fresnel_field(xs, lam, source, g, z, max_windows)
    return shaped_like(xs, np.abs(fields) ** 2)
