"""Shared builders for the test suite.

The numbers here mirror the package's built-in baseline (the defaults
of talbot_sim.config.RunConfig): a 360 um period grating lit at 810 nm,
detector slit 115 um wide stepped by 12 um at z = 160 mm.
"""

import math
from pathlib import Path

import mpmath as mp
import numpy as np

from talbot_sim import (DetectionSpec, GratingSpec, SourceSpec,
                        effective_distance, intensity, magnification)
from talbot_sim.grating import coefficient_table
from talbot_sim.model import shaped_like

LAMBDA0 = 810e-9
D = 360e-6
FWHM = 50e-9
# Source distance chosen so a pattern formed at 160 mm under plane-wave
# illumination reappears, magnified, at 174 mm: z0 = 0.174*0.16/0.014.
Z0 = 1.9885714285714284
TALBOT = 0.16  # d**2/lambda0 for the baseline numbers


def plane_source(**kw):
    kw.setdefault("lambda0", LAMBDA0)
    return SourceSpec(**kw)


def point_source(**kw):
    kw.setdefault("lambda0", LAMBDA0)
    kw.setdefault("z0", Z0)
    return SourceSpec(**kw)


def baseline_grating(f=0.3, **kw):
    kw.setdefault("d", D)
    return GratingSpec(f=f, **kw)


def baseline_detection(z=160e-3, **kw):
    kw.setdefault("slit_width", 115e-6)
    kw.setdefault("scan_start", -600e-6)
    kw.setdefault("scan_end", 600e-6)
    kw.setdefault("scan_step", 12e-6)
    return DetectionSpec(z=z, **kw)


def truncated_transmission(x, g):
    """Harmonic reconstruction sum_n A_n cos(n*k_d*x) of the transmission,
    truncated at g.trunc: the Fourier series, real since A_-n = A_n.  The
    reference profile of the imaging identities, shaped like x."""
    ns, amps = coefficient_table(g)
    xs = np.ravel(np.asarray(x, dtype=float))
    return shaped_like(x, np.cos(np.multiply.outer(xs * g.k_d, ns)) @ amps)


def point_rng(seed, index):
    """Reference definition of scan point index's count stream: a Philox
    keyed by the seed, jumped index times (counter offset index * 2**128)."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def read_pgm(path):
    """The image in a PGM file as write_pgm writes it: exactly the header
    P5\\n{w} {h}\\n255\\n, then h rows of w bytes."""
    raw = Path(path).read_bytes()
    _, size, _, pixels = raw.split(b"\n", 3)
    w, h = (int(v) for v in size.split(b" "))
    assert raw.startswith(f"P5\n{w} {h}\n255\n".encode("ascii"))
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def mp_fresnel_field(x, source, g, z, dps=30):
    """The oracle's integral at source.lambda0 by mpmath quadrature, window
    by window.

    Integrates the exact binary transmission over [-delta, delta] in
    dps-digit arithmetic, with no use of the closed-form window rule.
    """
    with mp.workdps(dps):
        x, lam, z, d = (mp.mpf(v) for v in (x, source.lambda0, z, g.d))
        half_width = mp.mpf(source.delta)
        half_open = mp.mpf(g.f) * d / 2
        z0 = None if source.z0 is None else mp.mpf(source.z0)
        k = 2 * mp.pi / lam

        def integrand(x1):
            phase = k * (z + (x - x1) ** 2 / (2 * z))
            if z0 is not None:
                phase += k * (z0 + x1 ** 2 / (2 * z0))
            return mp.expj(-phase)

        reach = int(math.ceil(source.delta / g.d)) + 1
        total = mp.mpc(0)
        for n in range(-reach, reach + 1):
            a = max(n * d - half_open, -half_width)
            b = min(n * d + half_open, half_width)
            if b > a:
                total += mp.quad(integrand, mp.linspace(a, b, 5))
        return complex(mp.sqrt(1j / lam) / z * total)


def scipy_fresnel_field(xs, source, g, z):
    """The oracle's window rule at source.lambda0 with E(u) from
    scipy.special.fresnel.

    Each open window [lo, hi] in [-delta, delta] adds (C - iS)(u) at
    u = scale (hi - c) less the same at u = scale (lo - c), c = x Z/z,
    as the oracle sums them; only the Fresnel integrals differ.
    """
    from scipy.special import fresnel

    xs = np.asarray(xs, dtype=float)
    lam = source.lambda0
    half_open = g.f * g.d / 2
    reach = int(math.ceil(source.delta / g.d)) + 1
    centres = np.arange(-reach, reach + 1) * g.d
    lo = np.maximum(centres - half_open, -source.delta)
    hi = np.minimum(centres + half_open, source.delta)
    lo, hi = lo[hi > lo], hi[hi > lo]
    k = 2 * math.pi / lam
    z_red = effective_distance(z, source.z0)
    scale = math.sqrt(2 / (lam * z_red))
    if source.z0 is None:
        centers, phase = xs, k * math.fmod(z, lam)
    else:
        centers = xs * (z_red / z)
        phase = (k * (math.fmod(z, lam) + math.fmod(source.z0, lam))
                 + k * xs ** 2 / (2 * (z + source.z0)))
    s_hi, c_hi = fresnel(scale * np.subtract.outer(hi, centers))
    s_lo, c_lo = fresnel(scale * np.subtract.outer(lo, centers))
    sums = (c_hi - c_lo).sum(axis=0) - 1j * (s_hi - s_lo).sum(axis=0)
    return np.sqrt(1j / lam) / (z * scale) * np.exp(-1j * phase) * sums


def sampled_revival_score(z, lam, source, g, samples_per_period=256,
                          periods=2):
    """Revival score by sampling: the best normalized cross-correlation
    between the pattern at z and the magnified squared grating profile,
    over every circular shift of a samples_per_period grid, built as a
    stack of rolled copies of the profile."""
    mag = magnification(z, source.z0)
    s = samples_per_period
    xs = (np.arange(periods * s) / s) * g.d * mag
    pat = intensity(xs, lam, source, g, z)
    ref = truncated_transmission(xs / mag, g) ** 2
    # both signals repeat exactly every s samples; fold before correlating
    pat = pat.reshape(periods, s).mean(axis=0)
    ref = ref.reshape(periods, s).mean(axis=0)
    # a structureless signal leaves only rounding noise after mean
    # subtraction, which must not be normalized back up to order one
    if (pat.std() < 1e-9 * max(float(np.abs(pat).max()), 1e-300)
            or ref.std() < 1e-9 * max(float(np.abs(ref).max()), 1e-300)):
        return 0.0
    pat = pat - pat.mean()
    ref = ref - ref.mean()
    norm = np.sqrt(float(pat @ pat) * float(ref @ ref))
    # row shift is np.roll(ref, shift), gathered by index in one step
    rolled = ref[(np.arange(s) - np.arange(s)[:, np.newaxis]) % s]
    return float((rolled @ pat).max() / norm)
