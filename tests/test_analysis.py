"""Pattern analysis: visibility, fringe widths, revival search."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbot_sim import (DomainError, Pattern, SourceSpec,
                        binary_transmission,
                        fringe_width_fraction, revival_distance, scan,
                        visibility)
from talbot_sim import analysis
from talbot_sim.analysis import _SEARCH_TRUNC, _revival_scorer

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
        pat = scan(plane_source(beta=0.0), g, det)
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


def test_revival_plane_wave_repeats_at_full_length():
    g = baseline_grating(f=0.3, trunc=30)
    z = revival_distance(plane_source(), g, LAMBDA0, 0.14, 0.18, steps=16)
    assert z == pytest.approx(TALBOT, abs=1e-4)


def test_revival_point_source_lands_on_magnified_plane():
    # the reduced distance hits d**2/lam at z = 174 mm for this source
    g = baseline_grating(f=0.3, trunc=30)
    z = revival_distance(point_source(), g, LAMBDA0, 0.15, 0.2, steps=16)
    assert z == pytest.approx(0.174, abs=1e-4)


def test_revival_far_source_approaches_plane_wave():
    g = baseline_grating(f=0.3, trunc=30)
    far = SourceSpec(lambda0=LAMBDA0, z0=1e6 * TALBOT)
    z_plane = revival_distance(plane_source(), g, LAMBDA0, 0.155, 0.165,
                               steps=16)
    z_far = revival_distance(far, g, LAMBDA0, 0.155, 0.165, steps=16)
    assert abs(z_far - z_plane) < 1e-5


def test_revival_stays_inside_search_interval():
    g = baseline_grating(f=0.3, trunc=30)
    z = revival_distance(plane_source(), g, LAMBDA0, 0.15, 0.17, steps=16)
    assert 0.15 <= z <= 0.17


@pytest.mark.parametrize("f, trunc", [(1.0, None), (1.0, 8000), (0.3, 0)])
def test_revival_rejects_structureless_grating(monkeypatch, f, trunc):
    original, truncs = analysis._harmonics, []

    def harmonics(grating, *args):
        truncs.append(grating.trunc)
        return original(grating, *args)

    # the flatness test reads the profile at no more than the search cap
    monkeypatch.setattr(analysis, "_harmonics", harmonics)
    g = baseline_grating(f=f, trunc=trunc)
    with pytest.raises(DomainError, match="no revival found"):
        revival_distance(plane_source(), g, LAMBDA0, 0.14, 0.18, steps=16)
    assert truncs and max(truncs) <= _SEARCH_TRUNC


def test_revival_rejects_bad_search_arguments():
    g = baseline_grating(f=0.3)
    with pytest.raises(DomainError, match="steps"):
        revival_distance(plane_source(), g, LAMBDA0, 0.14, 0.18, steps=8)
    with pytest.raises(DomainError):
        revival_distance(plane_source(), g, LAMBDA0, 0.18, 0.14, steps=16)
    with pytest.raises(DomainError):
        revival_distance(plane_source(), g, LAMBDA0, 0.0, 0.18, steps=16)
    with pytest.raises(DomainError, match="wavelength"):
        revival_distance(plane_source(), g, 0.0, 0.14, 0.18, steps=16)


@settings(max_examples=40, deadline=None)
@given(f=st.floats(0.05, 0.95), trunc=st.integers(0, 63),
       z0=st.one_of(st.none(), st.floats(0.5, 5.0)),
       zs=st.lists(st.floats(0.05, 0.4), min_size=1, max_size=5))
def test_harmonic_scores_match_sampled_correlation(f, trunc, z0, zs):
    # up to trunc 63 harmonic 2*trunc stays below the Nyquist bin of the
    # 256-sample grid, so both scorers see the same signal on the same
    # shifts
    g = baseline_grating(f=f, trunc=trunc)
    src = SourceSpec(lambda0=LAMBDA0, z0=z0)
    got = _revival_scorer(LAMBDA0, src, g)(zs)
    want = [sampled_revival_score(z, LAMBDA0, src, g) for z in zs]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_revival_small_open_fraction_stays_small_in_memory():
    g = baseline_grating(f=0.001)
    assert g.trunc == 8000
    tracemalloc.start()
    try:
        z = revival_distance(point_source(), g, LAMBDA0, 0.128, 0.208)
        # no self-image plane here, so the grid stages score it
        z_none = revival_distance(point_source(), g, LAMBDA0, 0.080, 0.130)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.128 <= z <= 0.208
    assert 0.080 <= z_none <= 0.130
    assert peak < 100e6


@pytest.mark.parametrize("f", [0.001, 0.003])
def test_revival_small_open_fraction_finds_main_lobe(f):
    # at the auto trunc (8000 and 2667 orders) the main lobe is a few um
    # wide, far narrower than the coarse grid's 1.3 mm spacing
    g = baseline_grating(f=f)
    z = revival_distance(point_source(), g, LAMBDA0, 0.128, 0.208)
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
    assert revival_distance(src, g, LAMBDA0, 0.8 * want, 1.3 * want) == want


@settings(max_examples=30, deadline=None)
@given(f=st.floats(0.05, 0.97), trunc=_TRUNCS, m=st.sampled_from([1, 2]),
       z0=_SOURCES)
def test_self_image_plane_is_the_best_score(f, trunc, m, z0):
    # the argument for the closed form: the plane it returns scores 1, the
    # bound of a normalized correlation, and no plane of a grid over the
    # window scores above it
    want = _self_image(m, z0)
    z_lo, z_hi = 0.8 * want, 1.3 * want
    g = baseline_grating(f=f, trunc=trunc)
    src = SourceSpec(lambda0=LAMBDA0, z0=z0)
    z = revival_distance(src, g, LAMBDA0, z_lo, z_hi)
    best, *grid = _revival_scorer(LAMBDA0, src, g)(
        np.append(z, np.linspace(z_lo, z_hi, 64)))
    assert abs(best - 1.0) <= 1e-12
    assert max(grid) <= best


@pytest.mark.parametrize("f, z0, z_lo, z_hi, steps, m", [
    (0.005, None, 0.1, 0.4, 32, 1),
    (0.87, None, 0.256, 0.416, 32, 2),
    (0.05, Z0, 0.15, 0.2, 16, 1),
    (0.3, None, 0.1, 0.33, 16, 1),
    (0.3, Z0, 0.1, 0.39, 16, 1),
])
def test_revival_is_the_first_plane_in_the_window(f, z0, z_lo, z_hi, steps,
                                                  m):
    # the first three are windows where a coarse grid misses a main lobe
    # narrower than its step (the first two land on the window edge); the
    # first and the last two hold two planes, and the nearer one counts
    g = baseline_grating(f=f)
    src = SourceSpec(lambda0=LAMBDA0, z0=z0)
    z = revival_distance(src, g, LAMBDA0, z_lo, z_hi, steps=steps)
    assert z == _self_image(m, z0)


@pytest.mark.parametrize("z0, m", [(None, 1), (None, 7), (Z0, 1), (Z0, 3)])
def test_revival_counts_a_plane_on_the_window_edge(z0, m):
    # z_eff(z_lo)*lam/d^2 rounds to 7.000000000000001 at the plane wave's
    # m = 7 plane and to 1.0000000000000002 at the point source's first,
    # so its ceiling alone would skip to the next plane in the window
    g = baseline_grating(f=0.3, trunc=30)
    src = SourceSpec(lambda0=LAMBDA0, z0=z0)
    plane = _self_image(m, z0)
    assert revival_distance(src, g, LAMBDA0, plane,
                            1.01 * _self_image(m + 1, z0), steps=16) == plane
    assert revival_distance(src, g, LAMBDA0, 0.9 * plane, plane,
                            steps=16) == plane
