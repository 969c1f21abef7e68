"""Closed-form near-field propagation of the grating field.

Everything here comes from the harmonic expansion of the grating.  The
field amplitude is psi(x) = sum_n c_n exp(i*n*a*x) with the chirped
coefficients c_n = A_n exp(i*n^2*b), b = pi*lam*z_eff/d^2.  Its intensity
|psi|^2 has the harmonics C_q = sum_n c_{n+q} conj(c_n), q = 0..2*trunc,
the autocorrelation of c, which one FFT sums (_harmonics).  One engine,
_plane_harmonics, gives every plane its spectrum-weighted harmonics
H_q = sum_w weight_w C_q(b_w) and its a = 2*pi/(d*M).  Each observable is
a cosine sum sum_q w_q cos(q*a*x) over them: the intensity and the carpet
take w = (H_0, 2*H_1, 2*H_2, ...) of one node, the slit rate folds in the
slit factor, and the revival search (analysis) correlates H_q with the
grating's own harmonics.  On an evenly spaced grid of P positions the sum
is a chirp-z transform, one FFT convolution of about 2*trunc + P points
(_chirp_z); scalars and other positions cost 2*trunc cosines each.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .grating import coefficient_table
from .model import (NORM_COLUMN_MAX_ONE, NORM_MAX_ONE, NORM_RAW, Carpet,
                    DetectionSpec, GratingSpec, Pattern, SourceSpec,
                    effective_distance, magnification, spectral_grid)

# Cap on the scratch of one pass (rows x FFT points, or harmonics x
# positions) in doubles.
_CHUNK_BUDGET = 4_000_000

# Scratch doubles per row and per FFT point: the complex chirp, spectrum
# and product rows and their real temporaries (tracemalloc reads about 9
# in the revival scorer at trunc 8000, 10 to 11 in a chirp-z pass).
_DOUBLES_PER_POINT = 12


def _fft_size(grating: GratingSpec) -> int:
    """Length of the zero-padded FFT in _harmonics: the smallest power of
    two above 4*trunc + 1, which holds harmonic 2*trunc without wrapping."""
    return 1 << (4 * grating.trunc + 1).bit_length()


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


def _uniform_step(xs: np.ndarray):
    """The spacing h when xs[j] = xs[0] + j*h holds to a few ulps of
    max|x| (np.linspace and DetectionSpec.positions() do), else None."""
    if xs.size < 2:
        return None
    step = (xs[-1] - xs[0]) / (xs.size - 1)
    with np.errstate(invalid="ignore"):
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
    the same t (a plane wave's carpet) the rows share one kernel.  Phases
    are taken in turns (_turns) and multiplied by 2*pi only after the
    reduction.
    """
    size = weights.shape[1]
    half = nu * step / 2.0
    if np.all(half == half[0]):
        half = half[:1]
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
    position, in blocks of positions within _CHUNK_BUDGET doubles."""
    rows, size = weights.shape
    out = np.empty((rows, xs.size))
    block = max(1, _CHUNK_BUDGET // size)
    for r in range(rows):
        qa = np.arange(size) * a[r]
        for lo in range(0, xs.size, block):
            out[r, lo:lo + block] = np.cos(
                np.multiply.outer(xs[lo:lo + block], qa)) @ weights[r]
    return out


def _cosine_sums(weights: np.ndarray, a, x) -> np.ndarray:
    """sum_q weights[r, q] cos(q*a[r]*x) for every row r of weights and
    every position x (flattened): an array of shape (rows, x.size).

    Evenly spaced positions (at least two) go through _chirp_z, in passes
    of positions and rows whose scratch stays within _CHUNK_BUDGET
    doubles; scalars and other positions take _direct_cosine_sums.
    """
    weights = np.atleast_2d(weights)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    step = _uniform_step(xs)
    if step is None:
        return _direct_cosine_sums(weights, a, xs)
    rows, size = weights.shape
    count = min(xs.size, max(size, _CHUNK_BUDGET // _DOUBLES_PER_POINT - size))
    length = _fast_length(size + count - 1)
    chunk = max(1, _CHUNK_BUDGET // (_DOUBLES_PER_POINT * length))
    nu = a / (2.0 * math.pi)
    out = np.empty((rows, xs.size))
    for r in range(0, rows, chunk):
        for lo in range(0, xs.size, count):
            hi = min(lo + count, xs.size)
            out[r:r + chunk, lo:hi] = _chirp_z(weights[r:r + chunk],
                                               nu[r:r + chunk], xs[lo],
                                               step, hi - lo, length)
    return out


def _plane_harmonics(source: SourceSpec, grating: GratingSpec, grid, zs):
    """Spectrum-weighted harmonics (harm, a) of each plane z_i of zs:
    harm[i] = sum_w weight_w * C_q(b_w(z_i)) over grid's (wavelength, weight)
    nodes in order, b = pi*lam*z_eff/d^2, and a[i] = 2*pi/(d*M(z_i)).
    _harmonics runs on blocks of nodes x planes within _CHUNK_BUDGET.
    """
    if len(grid) == 0:
        raise DomainError("spectral grid is empty")
    lams, weights = zip(*grid)
    if any(lam <= 0 for lam in lams):
        raise DomainError("wavelength must be positive")
    zs = np.asarray(zs, dtype=float)
    zeff = effective_distance(zs, source.z0)
    bs = np.multiply.outer(math.pi * np.array(lams), zeff) / (grating.d ** 2)
    rows = max(1, _CHUNK_BUDGET // (_DOUBLES_PER_POINT * _fft_size(grating)))
    nodes = min(len(lams), rows)
    planes = rows // nodes
    harm = np.zeros((zs.size, 2 * grating.trunc + 1))
    for lo in range(0, zs.size, planes):
        for n0 in range(0, len(lams), nodes):
            parts = _harmonics(grating, bs[n0:n0 + nodes, lo:lo + planes])
            for weight, part in zip(weights[n0:n0 + nodes], parts):
                harm[lo:lo + planes] += weight * part
    return harm, grating.k_d / magnification(zs, source.z0)


def intensity(x, lam: float, source: SourceSpec, grating: GratingSpec,
              z: float):
    """Monochromatic intensity at lateral position x, distance z.

    x may be a scalar or an array.  The pattern is periodic with the
    magnified period d*(1 + z/z0) and normalized so that a fully open
    grating gives 1.  It is sum_q w_q cos(q*a*x) with the one-node
    harmonics, w = (C_0, 2*C_1, 2*C_2, ...): an evenly spaced grid costs
    one FFT convolution, any other x O(trunc) per position.
    """
    harm, a = _plane_harmonics(source, grating, [(lam, 1.0)], [z])
    harm[:, 1:] *= 2.0
    vals = _cosine_sums(harm, a, x)[0]
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
    [harm], [a] = _plane_harmonics(source, grating, grid, [det.z])
    width = det.slit_width
    qa = np.arange(1, harm.size) * a
    harm[0] = harm[0] * width / 2.0
    harm[1:] = 2.0 * harm[1:] * np.sin(qa * width / 2.0) / qa
    vals = _cosine_sums(harm, a, np.asarray(x, dtype=float) + width / 2.0)[0]
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
    each x column is rescaled to peak at 1 across z.  The rows go in passes
    of one _plane_harmonics call and one batched _cosine_sums; a pass's
    harmonics hold at most _CHUNK_BUDGET/_DOUBLES_PER_POINT doubles.
    """
    if lam is None:
        lam = source.lambda0
    xs = np.asarray(x_grid, dtype=float)
    zs = np.asarray(z_grid, dtype=float)
    if zs.size == 0:
        raise DomainError("carpet z grid is empty")
    values = np.empty((zs.size, xs.size))
    rows = max(1, _CHUNK_BUDGET // (_DOUBLES_PER_POINT
                                    * (2 * grating.trunc + 1)))
    for lo in range(0, zs.size, rows):
        harm, a = _plane_harmonics(source, grating, [(lam, 1.0)],
                                   zs[lo:lo + rows])
        harm[:, 1:] *= 2.0
        values[lo:lo + rows] = _cosine_sums(harm, a, xs)
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
