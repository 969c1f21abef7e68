"""Pattern analysis: visibility, fringe widths, revival search."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbot_sim import (DomainError, Pattern, SourceSpec,
                        binary_transmission,
                        fringe_width_fraction, revival_distance, scan,
                        visibility)
from talbot_sim import propagation

from helpers import (D, LAMBDA0, TALBOT, Z0, baseline_detection,
                     baseline_grating, plane_source, point_source,
                     sampled_revival_score)


def _pattern(xs, vals):
    return Pattern(positions=np.asarray(xs, dtype=float),
                   values=np.asarray(vals, dtype=float))


def test_visibility_limits():
    xs = np.linspace(0, 1, 64)
    assert visibility(_pattern(xs, np.full(64, 2.5))) == 0.0
    vals = 0.5 * (1 + np.cos(12 * xs))
    vals[0] = 0.0  # force an exact zero minimum
    assert visibility(_pattern(xs, vals)) == 1.0


def test_visibility_scale_invariant():
    rng = np.random.default_rng(41)
    xs = np.linspace(0, 1, 64)
    vals = rng.uniform(0.2, 1.0, 64)
    base = visibility(_pattern(xs, vals))
    for c in (1e-6, 3.7, 1e6):
        assert visibility(_pattern(xs, c * vals)) == pytest.approx(
            base, rel=1e-12)


def test_visibility_rejects_dark_pattern():
    xs = np.linspace(0, 1, 8)
    with pytest.raises(DomainError):
        visibility(_pattern(xs, np.zeros(8)))


def test_fringe_fraction_pure_cosine_is_half():
    # a raised cosine spends exactly half of each period above the
    # midpoint between its extremes
    period = 360e-6
    xs = np.linspace(-3 * period, 3 * period, 1200)
    vals = 0.5 * (1 + np.cos(2 * np.pi * xs / period))
    frac = fringe_width_fraction(_pattern(xs, vals), period)
    assert frac == pytest.approx(0.5, abs=1e-3)


def test_fringe_fraction_ideal_binary_is_duty_cycle():
    g = baseline_grating(f=0.1)
    xs = np.linspace(-2.5 * D, 2.5 * D, 4000)
    vals = binary_transmission(xs, g)
    frac = fringe_width_fraction(_pattern(xs, vals), D)
    assert frac == pytest.approx(0.1, abs=0.01)


def test_fringe_fraction_tracks_duty_cycle_at_revival():
    # plane-wave self images: with a slit much narrower than the
    # fringes, the measured fraction approaches the open fraction
    det = baseline_detection(slit_width=2e-6, scan_step=3e-6)
    for f in (0.2, 0.3):
        g = baseline_grating(f=f, trunc=100)
        pat = scan(plane_source(fwhm=0.0), g, det)
        frac = fringe_width_fraction(pat, D)
        assert frac == pytest.approx(f, abs=0.02)


def test_fringe_fraction_rejects_short_or_flat_scans():
    xs = np.linspace(0, 1.5 * D, 50)
    vals = 0.5 * (1 + np.cos(2 * np.pi * xs / D))
    with pytest.raises(DomainError):
        fringe_width_fraction(_pattern(xs, vals), D)  # under two periods
    xs = np.linspace(0, 5 * D, 50)
    with pytest.raises(DomainError):
        fringe_width_fraction(_pattern(xs, np.ones(50)), D)  # flat
    with pytest.raises(DomainError):
        fringe_width_fraction(_pattern(xs, np.ones(50)), 0.0)
    # two periods spanned, but the runs at both ends are cut: one full
    # fringe, from 0.75 D to 1.25 D
    xs = np.linspace(0, 2.2 * D, 200)
    vals = 0.5 * (1 + np.cos(2 * np.pi * xs / D))
    with pytest.raises(DomainError, match="need at least two full fringes"):
        fringe_width_fraction(_pattern(xs, vals), D)


def test_revival_plane_wave_repeats_at_full_length():
    g = baseline_grating(f=0.3, trunc=30)
    z = revival_distance(plane_source(), g, 0.14, 0.18)
    assert z == pytest.approx(TALBOT, abs=1e-4)


def test_revival_point_source_lands_on_magnified_plane():
    # the reduced distance hits d**2/lam at z = 174 mm for this source
    g = baseline_grating(f=0.3, trunc=30)
    z = revival_distance(point_source(), g, 0.15, 0.2)
    assert z == pytest.approx(0.174, abs=1e-4)


def test_revival_far_source_approaches_plane_wave():
    g = baseline_grating(f=0.3, trunc=30)
    far = SourceSpec(lambda0=LAMBDA0, z0=1e6 * TALBOT)
    z_plane = revival_distance(plane_source(), g, 0.155, 0.165)
    z_far = revival_distance(far, g, 0.155, 0.165)
    assert abs(z_far - z_plane) < 1e-5


def test_revival_stays_inside_search_interval():
    g = baseline_grating(f=0.3, trunc=30)
    z = revival_distance(plane_source(), g, 0.15, 0.17)
    assert 0.15 <= z <= 0.17


@pytest.mark.parametrize("f, trunc", [(1.0, None), (1.0, 8000), (0.3, 0)])
def test_revival_rejects_structureless_grating(f, trunc):
    # a flat profile is refused from its spec alone, with no engine call
    g = baseline_grating(f=f, trunc=trunc)
    with mock.patch.object(propagation, "_plane_harmonics",
                           wraps=propagation._plane_harmonics) as engine:
        with pytest.raises(DomainError, match="no revival found"):
            revival_distance(plane_source(), g, 0.14, 0.18)
    engine.assert_not_called()


def test_revival_rejects_bad_search_arguments():
    g = baseline_grating(f=0.3)
    with pytest.raises(DomainError):
        revival_distance(plane_source(), g, 0.18, 0.14)
    with pytest.raises(DomainError):
        revival_distance(plane_source(), g, 0.0, 0.18)


def test_revival_refuses_planes_finer_than_a_double():
    # past z_eff = 2**53 * d^2/lam neighbouring planes share one double
    g = baseline_grating(f=0.3)
    with pytest.raises(DomainError, match="double precision"):
        revival_distance(plane_source(), g, 1e300, 2e300)


def test_revival_small_open_fraction_stays_small_in_memory():
    g = baseline_grating(f=0.001)
    assert g.trunc == 8000
    tracemalloc.start()
    try:
        z = revival_distance(point_source(), g, 0.128, 0.208)
        # no self-image plane here: the half-order plane p/q = 1/2
        z_none = revival_distance(point_source(), g, 0.080, 0.130)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.128 <= z <= 0.208
    assert 0.080 <= z_none <= 0.130
    assert peak < 100e6


@pytest.mark.parametrize("f", [0.001, 0.003])
def test_revival_small_open_fraction_finds_main_lobe(f):
    # at the auto trunc (8000 and 2667 orders) the revival lobe is a few
    # um wide; the closed form lands on its centre at any order count
    g = baseline_grating(f=f)
    z = revival_distance(point_source(), g, 0.128, 0.208)
    assert z == pytest.approx(0.174, abs=1e-6)


def _self_image(m, z0):
    """z of the self-image plane z_eff = m*d^2/lam."""
    zeff = m * D ** 2 / LAMBDA0
    return zeff if z0 is None else zeff * z0 / (z0 - zeff)


_TRUNCS = st.one_of(st.integers(3, 400), st.sampled_from([2000, 8000]))
_SOURCES = st.one_of(st.none(), st.just(Z0), st.floats(1.0, 5.0))


@settings(max_examples=30, deadline=None)
@given(f=st.floats(0.05, 0.97), trunc=_TRUNCS, m=st.sampled_from([1, 2]),
       z0=_SOURCES)
def test_revival_is_the_self_image_plane(f, trunc, m, z0):
    # the monochromatic pattern repeats exactly where z_eff = m*d^2/lam;
    # the CLI's default window, [0.8, 1.3] times the plane, holds no other
    want = _self_image(m, z0)
    g = baseline_grating(f=f, trunc=trunc)
    src = SourceSpec(lambda0=LAMBDA0, z0=z0)
    assert revival_distance(src, g, 0.8 * want, 1.3 * want) == want


@settings(max_examples=30, deadline=None)
@given(f=st.floats(0.05, 0.97), trunc=st.integers(3, 63),
       m=st.sampled_from([1, 2]), z0=_SOURCES)
def test_self_image_plane_is_the_best_score(f, trunc, m, z0):
    # the physical argument for the closed form: the plane it returns
    # scores 1, the bound of a normalized correlation, and no plane of a
    # grid over the window scores above it.  Up to trunc 63, harmonic
    # 2*trunc stays below the Nyquist bin of the 256-sample score.
    want = _self_image(m, z0)
    z_lo, z_hi = 0.8 * want, 1.3 * want
    g = baseline_grating(f=f, trunc=trunc)
    src = SourceSpec(lambda0=LAMBDA0, z0=z0)
    best = sampled_revival_score(
        revival_distance(src, g, z_lo, z_hi), LAMBDA0, src, g)
    grid = [sampled_revival_score(z, LAMBDA0, src, g)
            for z in np.linspace(z_lo, z_hi, 64)]
    assert abs(best - 1.0) <= 1e-12
    assert max(grid) <= best


@pytest.mark.parametrize("f, z0, z_lo, z_hi, trunc, m", [
    (0.005, None, 0.1, 0.4, 32, 1),
    (0.87, None, 0.256, 0.416, 32, 2),
    (0.05, Z0, 0.15, 0.2, 16, 1),
    (0.3, None, 0.1, 0.33, 16, 1),
    (0.3, Z0, 0.1, 0.39, 16, 1),
])
def test_revival_is_the_first_plane_in_the_window(f, z0, z_lo, z_hi, trunc,
                                                  m):
    # the first three windows once defeated a grid search, whose coarse
    # step missed a main lobe narrower than itself; the first and the last
    # two hold two planes, and the nearer one counts.  The answer reads no
    # harmonics, so it is the same at the auto trunc and at trunc
    src = SourceSpec(lambda0=LAMBDA0, z0=z0)
    for g in (baseline_grating(f=f), baseline_grating(f=f, trunc=trunc)):
        assert revival_distance(src, g, z_lo, z_hi) == \
            _self_image(m, z0)


@pytest.mark.parametrize("z0, m", [(None, 1), (None, 7), (Z0, 1), (Z0, 3)])
def test_revival_counts_a_plane_on_the_window_edge(z0, m):
    # z_eff(z_lo)*lam/d^2 rounds to 7.000000000000001 at the plane wave's
    # m = 7 plane and to 1.0000000000000002 at the point source's first,
    # so its ceiling alone would skip to the next plane in the window
    g = baseline_grating(f=0.3, trunc=30)
    src = SourceSpec(lambda0=LAMBDA0, z0=z0)
    plane = _self_image(m, z0)
    assert revival_distance(src, g, plane,
                            1.01 * _self_image(m + 1, z0)) == plane
    assert revival_distance(src, g, 0.9 * plane, plane) == plane


def _plane(frac, z0):
    """z of the plane z_eff = frac*d^2/lam, or None where z_eff >= z0."""
    zeff = frac.numerator * D ** 2 / (frac.denominator * LAMBDA0)
    if z0 is None:
        return zeff
    return zeff * z0 / (z0 - zeff) if zeff < z0 else None


def _lowest_plane(z_lo, z_hi, z0, max_q=200):
    """(p/q, z) of the plane of the smallest q, then the smallest p, in
    [z_lo, z_hi] among q <= max_q, by trying every fraction near the
    window, or None."""
    zeff_lo = z_lo if z0 is None else z_lo * z0 / (z_lo + z0)
    r_lo = Fraction(zeff_lo) * Fraction(LAMBDA0) / Fraction(D) ** 2
    for q in range(1, max_q + 1):
        # start a step of 1/q below the window; a plane rises with p
        for p in itertools.count(max(1, math.floor(r_lo * q) - 1)):
            z = _plane(Fraction(p, q), z0)
            if z is None or z > z_hi:
                break
            if z >= z_lo and math.gcd(p, q) == 1:
                return Fraction(p, q), z
    return None


@settings(max_examples=200, deadline=None)
@given(z0=st.one_of(st.none(), st.just(Z0), st.floats(0.5, 5.0)),
       z_lo=st.floats(0.005, 0.6), reach=st.floats(0.0, 1.0))
def test_revival_is_the_lowest_order_plane_in_the_window(z0, z_lo, reach):
    # windows from 1e-12 of z_lo wide up to 3*d^2/lam, log-uniformly
    small, large = 1e-12 * z_lo, 3 * TALBOT
    z_hi = z_lo + small * (large / small) ** reach
    src = SourceSpec(lambda0=LAMBDA0, z0=z0)
    # numpy scalars, as a caller slicing an array passes them
    z = revival_distance(src, baseline_grating(), np.float64(z_lo),
                         np.float64(z_hi))
    assert z_lo <= z <= z_hi
    lowest = _lowest_plane(z_lo, z_hi, z0)
    if lowest is not None:
        frac, want = lowest
        assert z == want
        if frac.denominator == 1:
            assert z == _self_image(frac.numerator, z0)
