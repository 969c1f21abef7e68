"""Pattern analysis: visibility, fringe widths, revival search."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from talbot_sim import (DomainError, Pattern, SourceSpec,
                        binary_transmission, effective_distance,
                        fringe_width_fraction, revival_distance, scan,
                        visibility)
from talbot_sim.analysis import _revival_scorer, _revival_slopes, _shifts
from talbot_sim.grating import coefficient_table
from talbot_sim.propagation import _harmonics

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


def test_revival_rejects_structureless_grating():
    g = baseline_grating(f=1.0)
    with pytest.raises(DomainError, match="no revival"):
        revival_distance(plane_source(), g, LAMBDA0, 0.14, 0.18, steps=16)


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
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.128 <= z <= 0.208
    assert peak < 100e6


@pytest.mark.parametrize("f", [0.001, 0.003])
def test_revival_small_open_fraction_finds_main_lobe(f):
    # at the auto trunc (8000 and 2667 orders) the main lobe is a few um
    # wide, far narrower than the coarse grid's 1.3 mm spacing
    g = baseline_grating(f=f)
    z = revival_distance(point_source(), g, LAMBDA0, 0.128, 0.208)
    assert z == pytest.approx(0.174, abs=1e-6)


def _mp_rows(g, b, dps=20):
    """C_q(b) - C_q(0), dC_q/db and d^2C_q/db^2 by mpmath pair sums: with
    k = (n+q)^2 - n^2, they sum A_{n+q} A_n times cos(k*b) - 1,
    -k*sin(k*b) and -k^2*cos(k*b)."""
    ns, amps = coefficient_table(g)
    with mp.workdps(dps):
        a = [mp.mpf(float(v)) for v in amps]
        turn = [mp.expj(int(n) ** 2 * mp.mpf(b)) for n in ns]
        rows = []
        for q in range(ns.size):
            pairs = range(ns.size - q)
            ks = [q * (2 * int(ns[j]) + q) for j in pairs]
            terms = [a[j + q] * a[j] * turn[j + q] * mp.conj(turn[j])
                     for j in pairs]
            rows.append((
                mp.fsum(mp.re(t) - a[j + q] * a[j]
                        for j, t in zip(pairs, terms)),
                -mp.fsum(k * mp.im(t) for k, t in zip(ks, terms)),
                -mp.fsum(k * k * mp.re(t) for k, t in zip(ks, terms))))
        return np.array(rows, dtype=float).T


@settings(max_examples=25, deadline=None)
@given(f=st.floats(0.05, 0.9), trunc=st.integers(0, 63),
       z0=st.one_of(st.none(), st.floats(0.5, 5.0)),
       z=st.floats(0.05, 0.4))
def test_score_slopes_match_mpmath(f, trunc, z0, z):
    # the departure and slope rows against mpmath pair sums; S' and S''
    # against the plain quotient rule on those rows at the best shift; and
    # S' times db/dz against a five-point difference of the scorer in z
    g = baseline_grating(f=f, trunc=trunc)
    src = SourceSpec(lambda0=LAMBDA0, z0=z0)
    scale = math.pi * LAMBDA0 / D ** 2
    b = scale * effective_distance(z, z0)
    got = _harmonics(g, b, slopes=True)
    want = _mp_rows(g, b)
    # FFT rounding is relative to the pair terms, not to a row that
    # cancels to nothing (near a revival, or C' at b = pi)
    _, amps = coefficient_table(g)
    terms = np.sum(np.abs(amps)) ** 2 * (4.0 * trunc ** 2 + 1) ** np.arange(3)
    for row, ref, term in zip(got, want, terms):
        assert (np.max(np.abs(row - ref))
                <= 1e-10 * np.max(np.abs(ref)) + 1e-13 * term)
    assume(trunc >= 1)

    ref = _harmonics(g, 0.0)
    harm = ref + want[0]
    size = _shifts(trunc)
    cross = harm * ref
    cross[0] = 0.0
    corr = np.fft.irfft(cross, size)
    shift = int(np.argmax(corr))
    # shifts m and size - m tie by symmetry; any other near tie could
    # rank differently in the scorer's own rounding
    top = np.sort(corr)
    assume(top[-1] - top[-3] > 1e-9 * abs(top[-1]))
    r = ref[1:] * np.cos(2 * np.pi * shift / size * np.arange(1, ref.size))
    c, d1, d2 = harm[1:], want[1][1:], want[2][1:]
    n = math.sqrt(c @ c)
    n1 = c @ d1 / n
    n2 = (d1 @ d1 + c @ d2) / n - n1 * n1 / n
    x, x1, x2 = c @ r, d1 @ r, d2 @ r
    unit = math.sqrt(ref[1:] @ ref[1:]) * n
    s1 = (x1 - x * n1 / n) / unit
    s2 = (x2 - (2 * x1 * n1 + x * n2) / n + 2 * x * n1 * n1 / n ** 2) / unit
    got1, got2 = _revival_slopes(g)(b)
    assert got1 == pytest.approx(s1, rel=1e-9, abs=1e-9)
    assert got2 == pytest.approx(s2, rel=1e-9, abs=1e-9)

    h = 1e-7 * z
    zs = z + h * np.array([-2.0, -1.0, 1.0, 2.0])
    for side in _harmonics(g, scale * effective_distance(zs, z0)):
        cross = side * ref
        cross[0] = 0.0
        # the best shift must hold across the difference stencil
        best = int(np.argmax(np.fft.irfft(cross, size)))
        assume(min(best, size - best) == min(shift, size - shift))
    dbdz = scale * (1.0 if z0 is None else (z0 / (z + z0)) ** 2)
    far_lo, lo, hi, far_hi = _revival_scorer(LAMBDA0, src, g)(zs)
    slope = (8.0 * (hi - lo) - (far_hi - far_lo)) / (12.0 * h)
    assert slope == pytest.approx(got1 * dbdz, rel=1e-6, abs=1e-6 * dbdz)


@settings(max_examples=30, deadline=None)
@given(f=st.floats(0.05, 0.9), trunc=st.integers(3, 400),
       m=st.sampled_from([1, 2]),
       z0=st.one_of(st.none(), st.just(Z0), st.floats(1.0, 5.0)))
def test_revival_is_the_self_image_plane(f, trunc, m, z0):
    # the monochromatic pattern repeats exactly where z_eff = m*d^2/lam,
    # so the search must land there to rounding, not just near the lobe
    zeff = m * D ** 2 / LAMBDA0
    want = zeff if z0 is None else zeff * z0 / (z0 - zeff)
    g = baseline_grating(f=f, trunc=trunc)
    src = SourceSpec(lambda0=LAMBDA0, z0=z0)
    z = revival_distance(src, g, LAMBDA0, 0.9 * want, 1.1 * want)
    assert abs(z / want - 1.0) <= 1e-12
