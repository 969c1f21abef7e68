"""Binary amplitude grating: harmonic content, real-space profile, and
the pixel mask that displays it on a spatial light modulator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import GratingSpec


@dataclass(frozen=True)
class SlmProfile:
    """Geometry and gray levels of the modulator panel."""

    width_px: int = 1024
    height_px: int = 768
    pixel_pitch: float = 36e-6
    gray_open: int = 255
    gray_closed: int = 0

    def __post_init__(self) -> None:
        if self.width_px <= 0 or self.height_px <= 0:
            raise DomainError("panel dimensions must be positive")
        if self.pixel_pitch <= 0:
            raise DomainError("pixel pitch must be positive")
        for g in (self.gray_open, self.gray_closed):
            if not 0 <= g <= 255:
                raise DomainError("gray levels must fit 8 bits")
        if self.gray_open == self.gray_closed:
            raise DomainError("open and closed gray levels must differ")


def fourier_coefficient(n, f: float):
    """Harmonic amplitude A_n = sin(n*pi*f)/(n*pi) of the grating, f at n=0.

    n may be an integer or an integer array.  f*sinc(n*f) is the same
    amplitude and handles n=0 without a branch.
    """
    if not 0 < f <= 1:
        raise DomainError("open fraction f must be in (0, 1]")
    return f * np.sinc(n * f)


def coefficient_table(g: GratingSpec) -> tuple[np.ndarray, np.ndarray]:
    """Orders -trunc..trunc and their amplitudes, as two aligned arrays."""
    ns = np.arange(-g.trunc, g.trunc + 1)
    return ns, fourier_coefficient(ns, g.f)


def binary_transmission(x, g: GratingSpec):
    """Ideal 0/1 transmission at position x (meters).

    The open window covers [-f*d/2, f*d/2) of each period, with x
    wrapped into (-d/2, d/2].  Scalar in, scalar out; arrays broadcast.
    """
    xw = np.mod(x, g.d)
    xw = np.where(xw > g.d / 2, xw - g.d, xw)
    half = g.f * g.d / 2
    open_ = (xw >= -half) & (xw < half)
    if np.isscalar(x):
        return int(open_)
    return open_.astype(int)


def truncated_transmission(x, g: GratingSpec):
    """Harmonic reconstruction of the transmission, truncated at g.trunc.

    The full complex sum is evaluated and its (analytically zero)
    imaginary part is checked before the real part is returned.
    """
    ns, amps = coefficient_table(g)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    phase = np.multiply.outer(xs * g.k_d, ns)
    total = np.exp(1j * phase) @ amps
    assert np.all(np.abs(total.imag) < 1e-10), "harmonic sum drifted off the real axis"
    out = total.real
    if np.isscalar(x):
        return float(out[0])
    return out.reshape(np.shape(x))


def render_slm_mask(g: GratingSpec, profile: SlmProfile | None = None) -> np.ndarray:
    """Rasterize the grating onto the panel as an 8-bit image.

    Column j is sampled at its center (j + 0.5 - width/2) * pitch, so the
    pattern is centered on the panel.  Raises if the period is finer than
    two pixels and cannot be displayed, or if it is not a whole number of
    pixels (to a relative 1e-9), where the mask would not repeat with d.
    """
    if profile is None:
        profile = SlmProfile()
    if g.d < 2 * profile.pixel_pitch:
        raise DomainError(
            f"period unresolvable: d = {g.d:g} m is below two pixels "
            f"({2 * profile.pixel_pitch:g} m)")
    pixels = g.d / profile.pixel_pitch
    if abs(pixels - round(pixels)) > 1e-9 * pixels:
        raise DomainError(
            f"period not a whole number of pixels: d = {g.d:g} m is "
            f"{pixels:.6g} pixels of {profile.pixel_pitch:g} m")
    centers = (np.arange(profile.width_px) + 0.5 - profile.width_px / 2)
    centers = centers * profile.pixel_pitch
    # When pitch divides d, centers can land exactly on window edges and
    # rounding in the wrap would decide them arbitrarily.  A sub-nm bias
    # resolves such ties the way the half-open window does: the closed
    # left edge stays open, the excluded right edge stays closed.
    centers = centers + 1e-9 * g.d
    row = np.where(binary_transmission(centers, g) == 1,
                   profile.gray_open, profile.gray_closed).astype(np.uint8)
    return np.tile(row, (profile.height_px, 1))


def write_pgm(path, image: np.ndarray) -> None:
    """Store an 8-bit grayscale image as a binary (P5) PGM file."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise DomainError("PGM output expects a 2-D uint8 image")
    h, w = image.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.tobytes())


def read_pgm(path) -> np.ndarray:
    """Load a binary (P5) PGM file written by write_pgm."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields: list[bytes] = []
    pos = 0
    # header = magic, width, height, maxval; '#' starts a comment
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            pos = data.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise DomainError("not a binary PGM file")
    w, h, maxval = (int(v) for v in fields[1:])
    if maxval != 255:
        raise DomainError("only 8-bit PGM is supported")
    pos += 1  # single whitespace byte after maxval
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    return pixels.reshape(h, w)
