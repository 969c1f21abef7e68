"""Closed-form near-field propagation of the grating field.

Everything here comes from the harmonic expansion of the grating.  The
field amplitude is psi(x) = sum_n c_n exp(i*n*a*x) with the chirped
coefficients c_n = A_n exp(i*n^2*b), b = pi*lam*z_eff/d^2.  Its intensity
|psi|^2 has the harmonics C_q = sum_n c_{n+q} conj(c_n), q = 0..2*trunc,
the autocorrelation of c, the inverse FFT of its power spectrum.  One
engine, _plane_harmonics, reads its source's nodes (lam_w, weight_w) from
spectral_grid and gives every plane H_q = sum_w weight_w C_q(b_w), one
inverse FFT of the nodes' weighted power spectra, and a = 2*pi/(d*M).
Each observable is a cosine sum sum_q w_q cos(q*a*x) over them, taken by
one step (_series) with w = (H_0, 2*H_1, ...): the slit rate over the
source's line, slit factor folded in; intensity and carpet at one node.
On an evenly spaced grid of P positions the sum is a chirp-z transform,
one FFT convolution of about 2*trunc + P points (_chirp_z); scalars and
other positions cost 2*trunc cosines each.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import DomainError
from .grating import coefficient_table
from .model import (NORM_COLUMN_MAX_ONE, NORM_MAX_ONE, NORM_RAW, Carpet,
                    DetectionSpec, GratingSpec, Pattern, SourceSpec,
                    effective_distance, magnification, shaped_like,
                    spectral_grid)

# Cap in doubles on the scratch of one engine pass: a block of planes'
# power spectra, or a pass of cosine sums over positions.
SCRATCH_BUDGET = 4_000_000

# Scratch doubles per row and per FFT point: the complex chirp, spectrum
# and product rows and their real temporaries (tracemalloc reads 10 to 11
# in a chirp-z pass).
_DOUBLES_PER_POINT = 12


def _fast_length(n: int) -> int:
    """The smallest 2^i * 3^j * 5^k >= n, a length numpy's FFT does fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _power_spectra(grating: GratingSpec, b, length: int) -> np.ndarray:
    """|F|^2 on length points of the zero-padded chirped coefficients c_n,
    n = -trunc..trunc, one row per value of b.  A_-n = A_n makes c even in
    n, so the chirps of n >= 0 are mirrored.  |F|^2 is made in the FFT's
    array: a fresh array of its size costs page faults on every call."""
    ns, amps = coefficient_table(grating)
    half = amps[grating.trunc:] * np.exp(
        np.multiply.outer(1j * np.asarray(b), ns[grating.trunc:] ** 2))
    spectrum = np.fft.fft(np.concatenate([half[..., :0:-1], half], axis=-1),
                          length)
    power = np.square(spectrum.real, out=spectrum.real)
    power += np.square(spectrum.imag, out=spectrum.imag)
    return power


def _uniform_step(xs: np.ndarray):
    """The spacing h when xs[j] = xs[0] + j*h holds to a few ulps of
    max|x| (np.linspace and DetectionSpec.positions() do), else None;
    None too when xs[-1] - xs[0] overflows."""
    if xs.size < 2:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        step = (xs[-1] - xs[0]) / (xs.size - 1)
        drift = np.max(np.abs(xs - (xs[0] + step * np.arange(xs.size))))
        if drift <= 4.0 * np.spacing(np.max(np.abs(xs))):
            return step
    return None


def _turns(scale: np.ndarray, ints: np.ndarray) -> np.ndarray:
    """scale * ints modulo 1, one row per scale value, for ascending
    non-negative integers ints.

    The chirp phases reach about 1e9 rad at trunc 80000, where a double
    resolves only 1e-7 rad.  So each scale splits into a high part of
    53 - bits(max ints) significant bits, whose products are exact and
    lose their whole turns exactly (p - rint(p) is exact like
    fmod(p, 1), and much faster), and a small remainder whose products
    stay below 2^bits ulps of the high part.
    """
    keep = 53 - int(ints[-1]).bit_length()
    mant, expo = np.frexp(scale)
    high = np.ldexp(np.round(np.ldexp(mant, keep)), expo - keep)
    whole = np.multiply.outer(high, ints)
    whole -= np.rint(whole)
    return whole + np.multiply.outer(scale - high, ints)


def _chirp_z(weights: np.ndarray, nu: np.ndarray, x0: float, step: float,
             count: int, length: int) -> np.ndarray:
    """sum_q weights[r, q] cos(2*pi*q*nu[r]*(x0 + j*step)) for j < count.

    Bluestein's identity q*j = (q^2 + j^2 - (j - q)^2)/2 makes the sum,
    with t = nu*step, the real part of conj(k_j) * sum_q v_q k_{j-q}, where
    v_q = w_q exp(2*pi*i*(q*nu*x0 + t*q^2/2)) and k_m = exp(-i*pi*t*m^2):
    a linear convolution, computed by FFTs of length >= Q + count - 1
    (Bluestein 1970; Rabiner, Schafer & Rader 1969).  When every row has
    the same nu (a plane wave's carpet, any one plane) the rows share one
    kernel and one phase row exp(2*pi*i*(q*nu*x0 + t*q^2/2)), which
    broadcasts against the weights.  Phases are taken in turns (_turns)
    and multiplied by 2*pi only after the reduction.
    """
    size = weights.shape[1]
    if np.all(nu == nu[0]):
        nu = nu[:1]
    half = nu * step / 2.0
    m = np.arange(max(size, count), dtype=float)
    square = _turns(half, m * m)
    chirp = np.exp(-2j * np.pi * square)
    kernel = np.zeros((half.size, length), dtype=complex)
    kernel[:, :count] = chirp[:, :count]
    kernel[:, length - size + 1:] = chirp[:, size - 1:0:-1]
    kernel = np.fft.fft(kernel)
    phase = _turns(nu * x0, m[:size]) + square[:, :size]
    spectrum = np.fft.fft(weights * np.exp(2j * np.pi * phase), length)
    spectrum *= kernel
    conv = np.fft.ifft(spectrum)[:, :count]
    return (conv * chirp[:, :count].conj()).real


def _direct_cosine_sums(weights: np.ndarray, a: np.ndarray,
                        xs: np.ndarray) -> np.ndarray:
    """The cosine sums of _cosine_sums by one cosine per harmonic and
    position, in blocks of positions within SCRATCH_BUDGET doubles."""
    rows, size = weights.shape
    out = np.empty((rows, xs.size))
    block = max(1, SCRATCH_BUDGET // size)
    for r in range(rows):
        qa = np.arange(size) * a[r]
        for lo in range(0, xs.size, block):
            out[r, lo:lo + block] = np.cos(
                np.multiply.outer(xs[lo:lo + block], qa)) @ weights[r]
    return out


def _cosine_sums(weights: np.ndarray, a, x) -> np.ndarray:
    """sum_q weights[r, q] cos(q*a[r]*x) for every row r of weights and
    every position x (flattened): an array of shape (rows, x.size).

    The rows are one _plane_harmonics block.  Evenly spaced positions (at
    least two) go through _chirp_z, in passes of positions sized to the
    block's rows within SCRATCH_BUDGET doubles; scalars and other
    positions take _direct_cosine_sums.
    """
    weights = np.atleast_2d(weights)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    step = _uniform_step(xs)
    rows, size = weights.shape
    count = min(xs.size, max(size, SCRATCH_BUDGET
                             // (_DOUBLES_PER_POINT * rows) - size))
    nu = a / (2.0 * math.pi)
    # the largest phase the route forms: q*a*x in radians for the direct
    # sums; for the chirp-z transform, in turns, q*nu*x0 and nu*step*m^2
    # (halved after nu*step), m below max(size, count)
    top = float(np.max(np.abs(xs)))
    if step is None:
        phase = float(a.max()) * (size - 1) * top
    else:
        phase = float(nu.max()) * max(
            (size - 1) * top, abs(float(step)) * (max(size, count) - 1) ** 2)
    if not math.isfinite(phase):
        raise DomainError(f"harmonic phase q*a*x overflows a double: "
                          f"positions up to |x| = {top:g} m")
    if step is None:
        return _direct_cosine_sums(weights, a, xs)
    length = _fast_length(size + count - 1)
    out = np.empty((rows, xs.size))
    for lo in range(0, xs.size, count):
        hi = min(lo + count, xs.size)
        out[:, lo:hi] = _chirp_z(weights, nu, xs[lo], step, hi - lo, length)
    return out


def _plane_harmonics(source: SourceSpec, grating: GratingSpec, zs):
    """Spectrum-weighted harmonics of the planes zs, in blocks (rows, harm,
    a) in order: rows is the slice of zs a block covers, harm[i] = sum_w
    weight_w * C_q(b_w(z_i)) over the nodes w of spectral_grid(source),
    one inverse FFT of their weighted power spectra summed row by row in
    node order, and a[i] = 2*pi/(d*M(z_i)).
    The one sizing of passes over planes: a block, and each _power_spectra
    call in it, holds as many node x plane rows as SCRATCH_BUDGET allows
    at _DOUBLES_PER_POINT doubles per point of a row's FFT.
    """
    lams, weights = zip(*spectral_grid(source))
    zs = np.asarray(zs, dtype=float)
    zeff = effective_distance(zs, source.z0)
    # b = pi*lam*z_eff/d^2 peaks at the longest wavelength and the farthest
    # plane, where an overflow leaves its chirp phase b*trunc^2 not finite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bs = np.multiply.outer(math.pi * np.array(lams), zeff) / grating.d ** 2
    z = float(zs.max())
    if not math.isfinite(float(bs.max()) * grating.trunc ** 2):
        raise DomainError(
            f"chirp phase b*trunc^2, b = pi*lambda*z_eff/d^2, is not "
            f"finite: lambda0 = {source.lambda0:g} m, z = {z:g} m, "
            f"d = {grating.d:g} m, trunc = {grating.trunc}")
    # a = 2*pi/(d*M) underflows to 0 when the magnified period does not
    # fit a double, and the slit factor sin(q*a*D/2)/(q*a) becomes 0/0
    mag = magnification(zs, source.z0)
    if not math.isfinite(grating.d * float(mag.max())):
        raise DomainError(
            f"magnified period d*(1 + z/z0) is not finite: "
            f"d = {grating.d:g} m, z = {z:g} m, z0 = {source.z0:g} m")
    a = grating.k_d / mag
    length = _fast_length(4 * grating.trunc + 1)
    rows = max(1, SCRATCH_BUDGET // (_DOUBLES_PER_POINT * length))
    nodes = min(len(lams), rows)
    planes = rows // nodes
    for lo in range(0, zs.size, planes):
        block = slice(lo, lo + planes)
        if weights == (1.0,):
            # one node of weight 1 (every monochromatic call): its power
            # spectra are the block total, with no node arithmetic
            total = _power_spectra(grating, bs[0, block], length)
        else:
            total = 0.0
            for n0 in range(0, len(lams), nodes):
                power = _power_spectra(grating, bs[n0:n0 + nodes, block],
                                       length)
                power *= np.reshape(weights[n0:n0 + nodes], (-1, 1, 1))
                power[0] += total
                total = power.sum(axis=0)
        harm = np.fft.ifft(total)[:, :2 * grating.trunc + 1].real
        yield block, harm, a[block]


def _series(source: SourceSpec, grating: GratingSpec, zs, x,
            slit_width: float | None = None):
    """sum_q w_q cos(q*a*x) on the planes zs from their _plane_harmonics,
    w = (H_0, 2*H_1, 2*H_2, ...): the intensity.

    With slit_width D the harmonics are integrated across a slit spanning
    [x, x + D]: harmonic q takes sin(q*a*D/2)/(q*a) (q = 0 the limit D/2)
    and its phase factor at the slit center x + D/2.  A 1-D zs gives an
    array of shape (zs.size, x.size); a scalar z gives the plane's values
    in the shape of x (model.shaped_like).
    """
    xs = np.asarray(x, dtype=float)
    if slit_width is not None:
        xs = xs + slit_width / 2.0
    planes = np.atleast_1d(zs)
    values = np.empty((planes.size, xs.size))
    for rows, harm, a in _plane_harmonics(source, grating, planes):
        harm[:, 1:] *= 2.0
        if slit_width is not None:
            qa = np.multiply.outer(a, np.arange(1, harm.shape[1]))
            harm[:, 0] = harm[:, 0] * slit_width / 2.0
            harm[:, 1:] = harm[:, 1:] * np.sin(qa * slit_width / 2.0) / qa
        values[rows] = _cosine_sums(harm, a, xs)
    return values if np.ndim(zs) else shaped_like(x, values[0])


def intensity(x, lam: float, source: SourceSpec, grating: GratingSpec,
              z: float):
    """Monochromatic intensity at lam, lateral position x, distance z.

    x may be a scalar or an array.  The pattern is periodic with the
    magnified period d*(1 + z/z0) and normalized so that a fully open
    grating gives 1.  An evenly spaced grid costs one FFT convolution,
    any other x O(trunc) per position.  The source's fwhm is not read.
    """
    return _series(replace(source, lambda0=lam, fwhm=0.0), grating, z, x)


def polychromatic_rate(x, source: SourceSpec, grating: GratingSpec,
                       det: DetectionSpec):
    """Spectrum-weighted count rate behind a slit spanning [x, x + slit_width].

    The spectrum is spectral_grid(source): the nodes' weighted power
    spectra are summed before one inverse FFT.
    """
    return _series(source, grating, det.z, x, det.slit_width)


def scan(source: SourceSpec, grating: GratingSpec,
         det: DetectionSpec) -> Pattern:
    """Sweep the slit across the pattern and return it as a Pattern.

    The slit is swept while the grating stays put; positions are the
    slit coordinates X.  The curve peaks at 1 and the raw peak rate is
    kept in meta["raw_max"].
    """
    positions = det.positions()
    rates = polychromatic_rate(positions, source, grating, det)
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
           norm: str = NORM_RAW) -> Carpet:
    """Intensity at source.lambda0, whatever its fwhm, on a (z, x) raster.

    Row i holds the pattern at z_grid[i].  With norm="per-column-max-one"
    each x column is rescaled to peak at 1 across z.
    """
    xs = np.asarray(x_grid, dtype=float)
    zs = np.asarray(z_grid, dtype=float)
    if zs.size == 0:
        raise DomainError("carpet z grid is empty")
    values = _series(replace(source, fwhm=0.0), grating, zs, xs)
    if norm == NORM_COLUMN_MAX_ONE:
        peaks = values.max(axis=0)
        if np.any(peaks <= 0):
            raise DomainError("carpet column peaks at zero; cannot normalize")
        values = values / peaks
    elif norm != NORM_RAW:
        raise DomainError(f"unknown carpet norm {norm!r}")
    return Carpet(x_axis=xs, z_axis=zs, values=values, norm=norm,
                  meta={"source": source, "grating": grating,
                        "wavelength": source.lambda0})
