"""Binary amplitude grating: harmonic content, real-space profile, and
the pixel mask that displays it on a spatial light modulator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import GratingSpec, array_length, shaped_like


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
        array_length(self.width_px * self.height_px, "mask pixels")
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
    return shaped_like(n, f * np.sinc(np.asarray(n) * f))


def coefficient_table(g: GratingSpec) -> tuple[np.ndarray, np.ndarray]:
    """Orders -trunc..trunc and their amplitudes, as two aligned arrays."""
    ns = np.arange(-g.trunc, g.trunc + 1)
    return ns, fourier_coefficient(ns, g.f)


def binary_transmission(x, g: GratingSpec):
    """Ideal 0/1 transmission at position x (meters).

    The open window covers [-f*d/2, f*d/2) of each period, with x
    wrapped into (-d/2, d/2].
    """
    xw = np.mod(x, g.d)
    xw = np.where(xw > g.d / 2, xw - g.d, xw)
    half = g.f * g.d / 2
    open_ = (xw >= -half) & (xw < half)
    return shaped_like(x, open_.astype(int))


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
    if not math.isfinite(pixels):
        raise DomainError(
            f"period in pixels d/pixel_pitch is not finite: d = {g.d:g} m, "
            f"pixel_pitch = {profile.pixel_pitch:g} m")
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
    """Store an 8-bit grayscale image as a binary (P5) PGM file, written
    from the image's own buffer: no byte is formed once the file is open."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise DomainError("PGM output expects a 2-D uint8 image")
    h, w = image.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    pixels = np.ascontiguousarray(image)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels)
