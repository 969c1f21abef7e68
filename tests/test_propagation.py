"""Closed-form propagation: imaging identities, rates, scans, carpets."""

import cmath
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from talbot_sim import (DomainError, GratingSpec, beta_from_fwhm, carpet,
                        effective_distance, fresnel_intensity, intensity,
                        magnification, polychromatic_rate, scan, slit_rate,
                        truncated_transmission, visibility)
from talbot_sim import propagation
from talbot_sim.grating import coefficient_table
from talbot_sim.propagation import (_cosine_sums, _direct_cosine_sums,
                                    _harmonics, _plane_harmonics)

from helpers import (D, FWHM, LAMBDA0, TALBOT, Z0, baseline_detection,
                     baseline_grating, plane_source, point_source)


def test_full_transmission_gives_uniform_intensity():
    g = baseline_grating(f=1.0)
    xs = np.linspace(-D, D, 65)
    vals = intensity(xs, LAMBDA0, plane_source(), g, 0.12)
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_plane_wave_self_image_at_full_revival():
    # at z = 2 d**2/lam the grating reproduces itself in place
    g = baseline_grating(f=0.3)
    xs = np.linspace(-D, D, 257)
    vals = intensity(xs, LAMBDA0, plane_source(), g, 2 * TALBOT)
    want = truncated_transmission(xs, g) ** 2
    assert np.max(np.abs(vals - want)) < 1e-9


def test_plane_wave_half_period_shift_halfway():
    # at z = d**2/lam the image appears shifted by half a period
    g = baseline_grating(f=0.3)
    xs = np.linspace(-D, D, 257)
    vals = intensity(xs, LAMBDA0, plane_source(), g, TALBOT)
    want = truncated_transmission(xs - D / 2, g) ** 2
    assert np.max(np.abs(vals - want)) < 1e-9


def test_point_source_image_is_magnified_plane_image():
    # a source at finite distance forms the same pattern as a plane wave
    # at the reduced distance, stretched by the magnification
    g = baseline_grating(f=0.3)
    z = 0.174
    mag = magnification(z, Z0)
    assert effective_distance(z, Z0) == pytest.approx(TALBOT, abs=1e-15)
    xs = np.linspace(-D, D, 257) * mag
    vals = intensity(xs, LAMBDA0, point_source(), g, z)
    want = intensity(xs / mag, LAMBDA0, plane_source(), g, TALBOT)
    assert vals == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("z0, z", [(None, 0.12), (Z0, 0.174), (0.5, 0.095)])
def test_intensity_periodic_in_magnified_period(z0, z):
    g = baseline_grating(f=0.3)
    src = plane_source(z0=z0)
    period = D * magnification(z, z0)
    rng = np.random.default_rng(31)
    xs = rng.uniform(-D, D, 40)
    a = intensity(xs, LAMBDA0, src, g, z)
    b = intensity(xs + period, LAMBDA0, src, g, z)
    assert b == pytest.approx(a, rel=1e-9)


def test_intensity_matches_direct_double_sum():
    # independent reference: accumulate the interference double sum
    # term by term in complex arithmetic and keep the real part
    g = baseline_grating(f=0.3, trunc=20)
    src = point_source()
    z = 0.11
    zeff = effective_distance(z, Z0)
    mag = magnification(z, Z0)
    a = 2 * math.pi / (D * mag)
    b = math.pi * LAMBDA0 * zeff / D ** 2
    orders, coeffs = coefficient_table(g)
    xs = np.linspace(-D, D, 17)
    sums = []
    for x in xs:
        total = 0.0 + 0.0j
        for n, cn in zip(orders, coeffs):
            for m, cm in zip(orders, coeffs):
                total += cn * cm * cmath.exp(
                    1j * ((n - m) * a * x - (n * n - m * m) * b))
        sums.append(total)
    ref = np.array([t.real for t in sums])
    # the conjugate pair structure cancels every imaginary part
    assert max(abs(t.imag) for t in sums) < 1e-9 * ref.max()
    vals = intensity(xs, LAMBDA0, src, g, z)
    assert vals == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_intensity_rejects_bad_arguments():
    g = baseline_grating(f=0.3)
    with pytest.raises(DomainError):
        intensity(0.0, -LAMBDA0, plane_source(), g, 0.16)
    with pytest.raises(DomainError):
        intensity(0.0, LAMBDA0, plane_source(), g, 0.0)


def test_slit_rate_full_transmission_is_half_width():
    # behind a fully open grating the rate integral is slit_width/2
    # (the pattern convention folds a factor 1/2 into the rate)
    g = baseline_grating(f=1.0)
    det = baseline_detection()
    rate = slit_rate(0.0, LAMBDA0, plane_source(), g, det)
    assert rate == pytest.approx(det.slit_width / 2, rel=1e-10)


def test_slit_rate_narrow_slit_approaches_intensity():
    g = baseline_grating(f=0.3)
    src = point_source()
    width = 1e-9
    det = baseline_detection(slit_width=width)
    for x in (-150e-6, 0.0, 87e-6):
        rate = slit_rate(x, LAMBDA0, src, g, det)
        point = intensity(x + width / 2, LAMBDA0, src, g, det.z)
        assert rate / (width / 2) == pytest.approx(point, rel=1e-6)


def test_slit_rate_matches_quadrature_of_intensity():
    # closed-form slit integral against Gauss-Legendre quadrature of the
    # intensity over the same interval [x, x + slit_width], with enough
    # nodes to resolve the highest harmonic 2*trunc; the cases run from
    # the baseline to the fine grating (trunc 400) and f = 0.01 (trunc 800)
    det = baseline_detection()
    cases = [(baseline_grating(f=0.3), point_source()),
             (GratingSpec(d=1.8e-3, f=0.02, trunc=400), point_source()),
             (baseline_grating(f=0.01), point_source())]
    for g, src in cases:
        a = g.k_d / magnification(det.z, src.z0)
        nodes = int(0.7 * 2 * g.trunc * a * det.slit_width) + 48
        t, w = scipy.special.roots_legendre(nodes)
        for x in (-300e-6, -41e-6, 120e-6):
            grid = x + det.slit_width / 2 * (1 + t)
            vals = intensity(grid, LAMBDA0, src, g, det.z)
            quad = det.slit_width / 4 * float(w @ vals)
            rate = slit_rate(x, LAMBDA0, src, g, det)
            assert rate == pytest.approx(quad, rel=1e-10)


def test_polychromatic_rate_is_weighted_sum():
    g = baseline_grating(f=0.3)
    src = plane_source(beta=30e-9)
    det = baseline_detection()
    lam1, lam2 = 790e-9, 830e-9
    xs = np.linspace(-300e-6, 300e-6, 11)
    combo = polychromatic_rate(xs, src, g, det,
                               grid=[(lam1, 0.5), (lam2, 0.5)])
    want = 0.5 * slit_rate(xs, lam1, src, g, det) \
        + 0.5 * slit_rate(xs, lam2, src, g, det)
    assert combo == pytest.approx(want, rel=1e-14)


def test_polychromatic_rate_monochromatic_bitwise():
    g = baseline_grating(f=0.3)
    src = plane_source(beta=0.0)
    det = baseline_detection()
    xs = np.linspace(-300e-6, 300e-6, 11)
    assert np.array_equal(polychromatic_rate(xs, src, g, det),
                          slit_rate(xs, LAMBDA0, src, g, det))


def test_polychromatic_rate_rejects_empty_grid():
    with pytest.raises(DomainError):
        polychromatic_rate(0.0, plane_source(), baseline_grating(),
                           baseline_detection(), grid=[])


@pytest.mark.parametrize("f", [0.1, 0.3])
def test_spectral_averaging_never_raises_visibility(f):
    g = baseline_grating(f=f)
    det = baseline_detection()
    mono = scan(plane_source(beta=0.0), g, det)
    poly = scan(plane_source(beta=30e-9), g, det)
    assert visibility(poly) <= visibility(mono) + 1e-9


def test_scan_small_open_fraction_stays_small_in_memory():
    # f = 0.001 keeps 8000 orders (16001 coefficients) at 41 wavelengths;
    # the harmonic engine needs O(trunc * positions) scratch, not the
    # trunc**2 order pairs
    g = baseline_grating(f=0.001)
    assert g.trunc == 8000
    src = point_source(beta=beta_from_fwhm(FWHM))
    tracemalloc.start()
    try:
        pat = scan(src, g, baseline_detection())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pat.meta["raw_max"] > 0
    assert peak < 100e6


def test_scan_normalization_and_meta():
    g = baseline_grating(f=0.3)
    src = point_source(beta=30e-9)
    det = baseline_detection()
    pat = scan(src, g, det)
    assert pat.norm == "max-one"
    assert pat.values.max() == 1.0
    assert pat.positions.size == 101
    assert pat.meta["magnification"] == magnification(det.z, Z0)
    assert "d*magnification" in pat.meta["abscissa"]
    assert pat.meta["raw_max"] > 0
    raw = polychromatic_rate(pat.positions, src, g, det)
    assert raw == pytest.approx(pat.values * pat.meta["raw_max"], rel=1e-12)


def test_carpet_rows_are_intensity_patterns():
    g = baseline_grating(f=0.3)
    src = plane_source()
    xs = np.linspace(-D, D, 33)
    zs = np.array([0.04, 0.16, 0.29])
    carp = carpet(src, g, xs, zs)
    assert carp.values.shape == (3, 33)
    assert carp.norm == "raw"
    assert carp.meta["wavelength"] == LAMBDA0
    for i, z in enumerate(zs):
        assert np.array_equal(carp.values[i],
                              intensity(xs, LAMBDA0, src, g, float(z)))


def test_carpet_mirror_symmetry_about_half_revival():
    # plane-wave planes at z and 2*d**2/lam - z carry the same pattern
    g = baseline_grating(f=0.3)
    src = plane_source()
    xs = np.linspace(-D, D, 257)
    for z in (0.04, 0.12, 0.2):
        near = intensity(xs, LAMBDA0, src, g, z)
        far = intensity(xs, LAMBDA0, src, g, 2 * TALBOT - z)
        assert np.max(np.abs(near - far)) < 1e-9 * near.max()


def test_carpet_mirror_confirmed_by_quadrature():
    # same symmetry cross-checked against the direct Fresnel integral:
    # the windowed-aperture oracle resolves the structure well enough
    # for a strong correlation even though its envelope differs
    g = baseline_grating(f=0.3, trunc=50)
    src = plane_source(delta=5e-3)
    xs = np.linspace(-D, D, 197)
    for z in (0.04, 0.12, 0.2):
        numeric = fresnel_intensity(xs, LAMBDA0, src, g, z)
        mirrored = intensity(xs, LAMBDA0, src, g, 2 * TALBOT - z)
        a = numeric - numeric.mean()
        b = mirrored - mirrored.mean()
        corr = float(np.dot(a, b) / math.sqrt(np.dot(a, a) * np.dot(b, b)))
        assert corr > 0.8


def test_carpet_per_column_normalization():
    g = baseline_grating(f=0.3)
    src = plane_source()
    xs = np.linspace(-D, D, 33)
    zs = np.linspace(0.04, 0.32, 9)
    carp = carpet(src, g, xs, zs, norm="per-column-max-one")
    assert np.allclose(carp.values.max(axis=0), 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        carpet(src, g, xs, zs, norm="percent")



def test_carpet_rejects_empty_z_grid():
    with pytest.raises(DomainError, match="z grid is empty"):
        carpet(plane_source(), baseline_grating(), np.linspace(-D, D, 5), [])


def _intensity_weights(grating, source, z):
    """Cosine-sum weights C_0, 2*C_1, 2*C_2, ... of the plane at z, as
    one row, and the plane's mean intensity C_0."""
    b = math.pi * LAMBDA0 * effective_distance(z, source.z0) / D ** 2
    harm = _harmonics(grating, b)
    weights = 2.0 * harm[np.newaxis]
    weights[0, 0] = harm[0]
    return weights, float(harm[0])


def _assert_chirp_z_matches_direct(weights, mean, a, xs):
    # the evaluator takes the chirp-z route on an even grid; the direct
    # cosines are its reference.  The pattern peaks at or above its mean.
    fast = _cosine_sums(weights, a, xs)
    ref = _direct_cosine_sums(weights, np.array([a]), xs)
    peak = max(float(np.abs(ref).max()), mean)
    assert np.max(np.abs(fast - ref)) <= 1e-12 * peak


@settings(max_examples=150, deadline=None)
@given(trunc=st.integers(0, 400), count=st.integers(1, 300),
       start=st.floats(-1e-3, 1e-3), step=st.floats(1e-8, 1e-5),
       stretch=st.floats(0.5, 2.0), z=st.floats(1e-3, 0.4),
       point=st.booleans())
def test_chirp_z_matches_direct_cosines(trunc, count, start, step, stretch,
                                        z, point):
    # The routes differ by what about three ulps of x change in the sum:
    # the chirp-z grid x0 + j*h sits within ulps of the given x.  Over
    # these draws (x within 12 periods, a within 2x of the plane's) that
    # stays near 2e-13 of peak.  At much larger q*a*x one ulp of x alone
    # moves the sum by 1e-12 of peak, so no route can match another there.
    src = point_source() if point else plane_source()
    g = baseline_grating(f=0.3, trunc=trunc)
    weights, mean = _intensity_weights(g, src, z)
    a = stretch * g.k_d / magnification(z, src.z0)
    _assert_chirp_z_matches_direct(weights, mean, a,
                                   start + step * np.arange(count))


def test_chirp_z_matches_direct_cosines_at_8000_orders():
    # chirp phases reach about 1e7 turns here, which the split of the step
    # in _turns keeps exact to well below 1e-12
    g = baseline_grating(f=0.001)
    assert g.trunc == 8000
    src = point_source()
    weights, mean = _intensity_weights(g, src, 0.16)
    a = g.k_d / magnification(0.16, Z0)
    _assert_chirp_z_matches_direct(weights, mean, a,
                                   baseline_detection().positions())


def test_chirp_z_matches_scipy_czt():
    # scipy's chirp-z transform evaluates sum_q w_q A^-q W^(q*j); with
    # A = exp(i*a*x0) and W = exp(i*a*h) its real part is the cosine sum
    from scipy.signal import czt
    g = baseline_grating(f=0.3, trunc=80)
    src = point_source()
    weights, _ = _intensity_weights(g, src, 0.11)
    a = g.k_d / magnification(0.11, Z0)
    xs = np.linspace(-1.3 * D, 0.7 * D, 181)
    h = xs[1] - xs[0]
    want = czt(weights[0], m=xs.size, w=np.exp(1j * a * h),
               a=np.exp(-1j * a * xs[0])).real
    got = _cosine_sums(weights, a, xs)[0]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("x_count, z_count", [(1, 5), (2, 5), (33, 1),
                                              (33, 9)])
@pytest.mark.parametrize("norm", ["raw", "per-column-max-one"])
def test_carpet_edge_shapes_match_direct_intensity(x_count, z_count, norm):
    # a scalar x takes the direct cosines; the batched carpet must give the
    # same raster for any shape, point source included
    g = baseline_grating(f=0.3)
    src = point_source()
    xs = np.linspace(-D, 0.6 * D, x_count)
    zs = np.linspace(0.05, 0.3, z_count)
    carp = carpet(src, g, xs, zs, norm=norm)
    want = np.array([[intensity(float(x), LAMBDA0, src, g, float(z))
                      for x in xs] for z in zs])
    if norm == "per-column-max-one":
        want = want / want.max(axis=0)
    assert carp.values.shape == (z_count, x_count)
    assert np.max(np.abs(carp.values - want)) <= 1e-12 * want.max()


def test_carpet_small_open_fraction_stays_small_in_memory():
    # f = 0.001 keeps 8000 orders; the default 256 x 128 raster runs in
    # row chunks whose scratch stays within the engine's budget
    g = baseline_grating(f=0.001)
    assert g.trunc == 8000
    xs = np.linspace(-D, D, 256)
    zs = np.linspace(TALBOT / 50.0, 2.0 * TALBOT, 128)
    tracemalloc.start()
    try:
        carp = carpet(point_source(), g, xs, zs, norm="per-column-max-one")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert carp.values.shape == (128, 256)
    assert peak < 100e6


@settings(max_examples=60, deadline=None)
@given(nodes=st.lists(st.tuples(st.floats(600e-9, 1000e-9),
                                st.floats(0.0, 1.0)), min_size=1, max_size=5),
       zs=st.lists(st.floats(1e-3, 0.4), min_size=1, max_size=20),
       point=st.booleans(), rows=st.integers(1, 30))
def test_plane_harmonics_is_the_node_order_sum(nodes, zs, point, rows):
    # each row is the weighted node sum, in node order, bit for bit, however
    # the budget splits the nodes x planes blocks (rows per _harmonics
    # call); and a carpet row, batched with the others, is intensity at its z
    src = point_source() if point else plane_source()
    g = baseline_grating(f=0.3, trunc=40)
    budget = rows * propagation._DOUBLES_PER_POINT * propagation._fft_size(g)
    with mock.patch.object(propagation, "_CHUNK_BUDGET", budget):
        harm, a = _plane_harmonics(src, g, nodes, zs)
    assert harm.shape == (len(zs), 2 * g.trunc + 1)
    for i, z in enumerate(zs):
        want = np.zeros(2 * g.trunc + 1)
        for lam, weight in nodes:
            b = math.pi * lam * effective_distance(z, src.z0) / D ** 2
            want += weight * _harmonics(g, b)
        assert np.array_equal(harm[i], want)
        assert a[i] == g.k_d / magnification(z, src.z0)
    xs = np.linspace(-D, D, 33)
    planes = sorted(set(zs))
    carp = carpet(src, g, xs, planes)
    for row, z in zip(carp.values, planes):
        assert np.array_equal(row, intensity(xs, LAMBDA0, src, g, z))
