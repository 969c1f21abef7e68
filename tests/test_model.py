"""Geometry, source and detection model checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from talbot_sim import (Carpet, DetectionSpec, DomainError, GratingSpec,
                        Pattern, SourceSpec, effective_distance,
                        magnification, spectral_grid, talbot_length)
from talbot_sim.model import SPECTRAL_SPAN

from helpers import D, FWHM, LAMBDA0, Z0, plane_source


def test_talbot_length_baseline():
    # d**2/lam for the baseline geometry is 0.16 m to the last float digit
    assert talbot_length(D, LAMBDA0) == pytest.approx(0.16, abs=1e-15)


@pytest.mark.parametrize("d, lam, want", [
    (1e-3, 1e-6, 1.0),
    (2e-3, 1e-6, 4.0),
    (1e-3, 0.5e-6, 2.0),
])
def test_talbot_length_values(d, lam, want):
    assert talbot_length(d, lam) == pytest.approx(want, rel=1e-12)


def test_talbot_length_scale_invariance():
    # scaling d by c and lam by c**2 leaves the length unchanged
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = float(rng.uniform(0.1, 10.0))
        assert talbot_length(c * D, c * c * LAMBDA0) == pytest.approx(
            talbot_length(D, LAMBDA0), rel=1e-12)


@pytest.mark.parametrize("d, lam", [(0.0, 1e-6), (-1e-3, 1e-6),
                                    (1e-3, 0.0), (1e-3, -1e-6)])
def test_talbot_length_rejects_nonpositive(d, lam):
    with pytest.raises(DomainError):
        talbot_length(d, lam)


def test_effective_distance_plane_wave_is_identity():
    assert effective_distance(0.16) == 0.16
    assert effective_distance(0.16, None) == 0.16


def test_effective_distance_point_source_exact_case():
    # with z = 174/1000 and z0 = 348/175 the reduced distance is exactly
    # 4/25 m; check against rational arithmetic
    z = Fraction(174, 1000)
    z0 = Fraction(348, 175)
    want = z * z0 / (z + z0)
    assert want == Fraction(4, 25)
    assert float(z0) == pytest.approx(Z0, rel=1e-15)
    assert effective_distance(0.174, Z0) == pytest.approx(0.16, abs=1e-15)


def test_effective_distance_bounds_and_monotonicity():
    rng = np.random.default_rng(12)
    for _ in range(30):
        z = float(rng.uniform(0.01, 1.0))
        z0 = float(rng.uniform(0.01, 10.0))
        zeff = effective_distance(z, z0)
        assert 0 < zeff < min(z, z0)
    # larger z0 pushes the reduced distance toward z itself
    z = 0.16
    ladder = [effective_distance(z, z0) for z0 in (0.1, 1.0, 10.0, 1e4)]
    assert all(a < b for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] == pytest.approx(z, rel=1e-4)


def test_magnification_plane_wave_is_one():
    assert magnification(0.16) == 1.0
    assert magnification(0.16, None) == 1.0


def test_magnification_matches_distance_ratio():
    # M = 1 + z/z0 equals z / (reduced distance)
    rng = np.random.default_rng(13)
    for _ in range(30):
        z = float(rng.uniform(0.01, 1.0))
        z0 = float(rng.uniform(0.01, 10.0))
        assert magnification(z, z0) == pytest.approx(
            z / effective_distance(z, z0), rel=1e-12)
    assert magnification(0.174, Z0) == pytest.approx(1.0875, abs=1e-12)


@pytest.mark.parametrize("z0", [None, Z0])
def test_distance_and_magnification_of_an_array_match_scalar_calls(z0):
    zs = np.array([0.01, 0.16, 0.174, 0.9])
    zeff = effective_distance(zs, z0)
    mag = magnification(zs, z0)
    assert zeff.shape == mag.shape == zs.shape
    assert np.array_equal(zeff, [effective_distance(float(z), z0) for z in zs])
    assert np.array_equal(mag, [magnification(float(z), z0) for z in zs])
    assert type(effective_distance(0.16, z0)) is float
    assert type(magnification(0.16, z0)) is float


@pytest.mark.parametrize("bad", [0.0, -0.1, float("nan")])
@pytest.mark.parametrize("z0", [None, Z0])
def test_distance_and_magnification_reject_a_nonpositive_entry(bad, z0):
    zs = np.array([0.16, bad, 0.2])
    with pytest.raises(DomainError):
        effective_distance(zs, z0)
    with pytest.raises(DomainError):
        magnification(zs, z0)


def test_effective_distance_refuses_an_overflowing_product():
    # z*z0 overflows though the reduced distance itself would fit
    with pytest.raises(DomainError, match=r"^reduced distance z\*z0/\(z \+ "
                       r"z0\) overflows a double: z = 1e\+300 m, "
                       r"z0 = 1e\+300 m$"):
        effective_distance(np.array([0.16, 1e300]), 1e300)
    assert effective_distance(1e300, 1e-10) == pytest.approx(1e-10)


# the 1/e half-width of the baseline line's weight exp(-(dl/beta)**2)
BETA = FWHM / (2 * math.sqrt(math.log(2)))


def test_spectral_grid_weights_are_the_gaussian_line():
    # each node's weight is the line exp(-4 ln 2 (l - l0)^2 / fwhm^2), which
    # is 1/2 at l - l0 = fwhm/2, normalized over the nodes
    for samples in (3, 41, 101):
        grid = spectral_grid(plane_source(fwhm=FWHM, spectral_samples=samples))
        lams = np.array([lam for lam, _ in grid])
        line = np.exp(-4 * math.log(2) * (lams - LAMBDA0) ** 2 / FWHM ** 2)
        want = line / line.sum()
        got = np.array([w for _, w in grid])
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


def test_source_refuses_negative_fwhm():
    with pytest.raises(DomainError, match="^fwhm must be non-negative$"):
        plane_source(fwhm=-1e-9)
    assert spectral_grid(plane_source(fwhm=0.0)) == [(LAMBDA0, 1.0)]


def test_spectral_grid_symmetric_unit_sum():
    grid = spectral_grid(plane_source(fwhm=FWHM, spectral_samples=41))
    assert len(grid) == 41
    lams = [g[0] for g in grid]
    ws = [g[1] for g in grid]
    assert sum(ws) == pytest.approx(1.0, abs=1e-12)
    assert lams[20] == LAMBDA0  # center line is always a node
    assert lams[40] - LAMBDA0 == pytest.approx(SPECTRAL_SPAN * BETA,
                                               rel=1e-9)
    for i in range(20):
        assert ws[i] == ws[40 - i]  # weights mirror exactly
        assert lams[i] + lams[40 - i] == pytest.approx(2 * LAMBDA0, abs=1e-18)
    assert all(a < b for a, b in zip(lams, lams[1:]))


def test_spectral_grid_monochromatic_collapses():
    assert spectral_grid(plane_source(fwhm=0.0)) == [(LAMBDA0, 1.0)]
    assert spectral_grid(plane_source(fwhm=FWHM, spectral_samples=1)) == [
        (LAMBDA0, 1.0)]


@pytest.mark.parametrize("fwhm", [5e-324, 1e-320, 1e-23])
def test_spectral_grid_sub_ulp_line_is_one_node(fwhm):
    # the outermost node lambda0 + SPECTRAL_SPAN*beta rounds to lambda0, so
    # every node would: the line is its center node alone, not 41 copies
    assert spectral_grid(plane_source(fwhm=fwhm)) == [(LAMBDA0, 1.0)]
    # a line whose outermost node moves keeps all of its nodes
    assert len(spectral_grid(plane_source(fwhm=1e-22))) == 41


def test_spectral_grid_drops_nonpositive_wavelengths():
    # a line wider than its own center wavelength would reach lam <= 0
    src = SourceSpec(lambda0=1e-9, fwhm=2e-9, spectral_samples=41)
    grid = spectral_grid(src)
    assert 0 < len(grid) < 41
    assert all(lam > 0 for lam, _ in grid)
    assert sum(w for _, w in grid) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("samples", [40, 0, -3, 10 ** 19 - 1])
def test_spectral_grid_rejects_bad_arguments(samples):
    # the node count is the source's: a bad one is refused with the source
    with pytest.raises(DomainError):
        plane_source(fwhm=FWHM, spectral_samples=samples)


def test_spectral_grid_refuses_a_node_beyond_a_double():
    # the outermost node lambda0 + SPECTRAL_SPAN*beta overflows, so the
    # source that would need it is refused
    with pytest.raises(DomainError, match=r"^spectral grid overflows a "
                       r"double: fwhm = 1e\+308 m$"):
        plane_source(fwhm=1e308)
    # one node is lambda0 alone, at any width
    assert spectral_grid(plane_source(fwhm=1e308, spectral_samples=1)) == [
        (LAMBDA0, 1.0)]


def test_source_delta_defaults():
    # plane wave: 1 mm half-width; point source: z0/2000
    assert plane_source().delta == pytest.approx(1e-3)
    assert SourceSpec(lambda0=LAMBDA0, z0=4.0).delta == pytest.approx(2e-3)
    assert SourceSpec(lambda0=LAMBDA0, delta=5e-3).delta == 5e-3


@pytest.mark.parametrize("kw", [
    dict(lambda0=0.0), dict(lambda0=-1e-9),
    dict(lambda0=LAMBDA0, fwhm=-1e-9),
    dict(lambda0=LAMBDA0, z0=0.0), dict(lambda0=LAMBDA0, z0=-1.0),
    dict(lambda0=LAMBDA0, delta=0.0), dict(lambda0=LAMBDA0, delta=-1e-3),
])
def test_source_rejects_bad_arguments(kw):
    with pytest.raises(DomainError):
        SourceSpec(**kw)


def test_grating_trunc_default_scales_with_duty_cycle():
    # max(50, ceil(8/f)) keeps roughly the same number of sidebands
    # across the open fraction ladder
    assert GratingSpec(d=D, f=0.1).trunc == 80
    assert GratingSpec(d=D, f=0.5).trunc == 50
    assert GratingSpec(d=D, f=1.0).trunc == 50
    assert GratingSpec(d=D, f=0.3, trunc=7).trunc == 7
    assert GratingSpec(d=D, f=0.3, trunc=0).trunc == 0


def test_grating_wavenumber():
    g = GratingSpec(d=D, f=0.3)
    assert g.k_d == pytest.approx(2 * math.pi / D, rel=1e-15)


@pytest.mark.parametrize("kw", [
    dict(d=0.0, f=0.3), dict(d=-1e-3, f=0.3),
    dict(d=D, f=0.0), dict(d=D, f=-0.1), dict(d=D, f=1.1),
    dict(d=D, f=0.3, trunc=-1), dict(d=D, f=5e-324),
    dict(d=1.4e154, f=0.3),  # d*d overflows
    # 2*trunc + 1 orders, more than numpy can size
    dict(d=D, f=1e-300), dict(d=D, f=0.3, trunc=10**19),
    dict(d=D, f=0.3, trunc=1e30), dict(d=D, f=0.3, trunc=int(1.7e308)),
])
def test_grating_rejects_bad_arguments(kw):
    with pytest.raises(DomainError):
        GratingSpec(**kw)


def test_detection_positions_inclusive_raster():
    det = DetectionSpec(z=0.16, slit_width=115e-6, scan_start=-600e-6,
                        scan_end=600e-6, scan_step=12e-6)
    xs = det.positions()
    assert xs.size == 101
    assert xs[0] == -600e-6
    assert xs[-1] == pytest.approx(600e-6, abs=1e-18)
    assert np.allclose(np.diff(xs), 12e-6, rtol=0, atol=1e-18)


def test_detection_positions_partial_last_step():
    det = DetectionSpec(z=0.16, slit_width=115e-6, scan_start=0.0,
                        scan_end=50e-6, scan_step=12e-6)
    xs = det.positions()
    # 0, 12, 24, 36, 48 um; 60 um would overshoot
    assert xs.size == 5
    assert xs[-1] == pytest.approx(48e-6, abs=1e-18)


@pytest.mark.parametrize("kw", [
    dict(z=0.0), dict(z=-0.1),
    dict(slit_width=0.0), dict(slit_width=-1e-6),
    dict(scan_step=0.0), dict(scan_step=-1e-6),
    dict(scan_start=1e-3, scan_end=1e-3), dict(scan_start=1e-3, scan_end=0.0),
])
def test_detection_rejects_bad_arguments(kw):
    base = dict(z=0.16, slit_width=115e-6, scan_start=-600e-6,
                scan_end=600e-6, scan_step=12e-6)
    base.update(kw)
    with pytest.raises(DomainError):
        DetectionSpec(**base)


def test_pattern_validation():
    xs = np.linspace(0.0, 1.0, 5)
    vals = np.linspace(0.0, 1.0, 5)
    pat = Pattern(positions=xs, values=vals, norm="max-one")
    assert not pat.values.flags.writeable  # stored arrays are frozen
    with pytest.raises(DomainError):
        Pattern(positions=xs, values=vals[:4])
    with pytest.raises(DomainError):
        Pattern(positions=xs[::-1], values=vals)
    with pytest.raises(DomainError):
        Pattern(positions=xs, values=vals - 0.5)
    with pytest.raises(DomainError):
        Pattern(positions=xs, values=vals, norm="percent")
    with pytest.raises(DomainError):
        # claims a unit peak but tops out at 0.5
        Pattern(positions=xs, values=vals / 2, norm="max-one")
    with pytest.raises(DomainError):
        Pattern(positions=xs, values=vals, errors=np.zeros(3))


def test_carpet_validation():
    x = np.linspace(-1.0, 1.0, 4)
    z = np.linspace(0.1, 0.2, 3)
    vals = np.ones((3, 4))
    carp = Carpet(x_axis=x, z_axis=z, values=vals)
    assert carp.values.shape == (3, 4)
    with pytest.raises(DomainError):
        Carpet(x_axis=x, z_axis=z, values=np.ones((4, 3)))
    with pytest.raises(DomainError):
        Carpet(x_axis=x[::-1], z_axis=z, values=vals)
    with pytest.raises(DomainError):
        Carpet(x_axis=x, z_axis=z, values=vals, norm="percent")
