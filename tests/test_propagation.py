"""Closed-form propagation: imaging identities, rates, scans, carpets."""

import cmath
import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talbot_sim import (DomainError, GratingSpec, carpet, effective_distance,
                        fresnel_intensity, intensity, magnification,
                        polychromatic_rate, revival_distance, scan,
                        spectral_grid, talbot_length, visibility)
from talbot_sim import propagation
from talbot_sim.grating import coefficient_table
from talbot_sim.propagation import (_cosine_sums, _direct_cosine_sums,
                                    _plane_harmonics)

from helpers import (D, FWHM, LAMBDA0, TALBOT, Z0, baseline_detection,
                     baseline_grating, plane_source, point_source,
                     truncated_transmission)


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


@settings(max_examples=100, deadline=None)
@given(f=st.floats(0.02, 1.0), trunc=st.integers(0, 400),
       m=st.sampled_from([1, 2]), z0=st.sampled_from([None, Z0, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_whole_talbot_planes_image_the_grating(f, trunc, m, z0, seed):
    # at z_eff = m*d**2/lam the chirp exp(i*n**2*b) is (-1)**(n*m), so the
    # pattern is the squared truncated transmission, magnified, and
    # shifted half a period for odd m (Berry & Klein 1996); on an evenly
    # spaced grid and on random positions
    src = plane_source(z0=z0)
    g = GratingSpec(d=D, f=f, trunc=trunc)
    zeff = m * talbot_length(D, LAMBDA0)
    z = zeff if z0 is None else zeff * z0 / (z0 - zeff)
    mag = magnification(z, z0)
    shift = D / 2 * (m % 2)
    # at small f few random probes land in the narrow open window, so the
    # peak is taken at its centre, not over the probes
    peak = truncated_transmission(0.0, g) ** 2
    rng = np.random.default_rng(seed)
    for xs in (np.linspace(-D, D, 129), rng.uniform(-D, D, 40)):
        want = truncated_transmission(xs + shift, g) ** 2
        got = intensity(xs * mag, LAMBDA0, src, g, z)
        assert np.max(np.abs(got - want)) <= 1e-11 * peak


@settings(max_examples=100, deadline=None)
@given(f=st.floats(0.02, 1.0), trunc=st.integers(0, 400),
       fwhm=st.floats(0.0, 40e-9), z=st.floats(0.01, 0.4),
       z0=st.sampled_from([None, Z0, 0.5]), width=st.floats(5e-6, 400e-6),
       start=st.floats(-2 * D, 2 * D), step=st.floats(1e-7, 2e-5),
       even=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
# dark stretches (window peak near 5e-5, mean intensity near f): the
# mirror gap there was over 1e-12 of the window's own peak
@example(f=0.03125, trunc=28, fwhm=0.0, z=1 / 3, z0=0.5, width=5e-6,
         start=239.8e-6, step=1e-7, even=True, seed=0)
@example(f=0.0234375, trunc=83, fwhm=0.0, z=1 / 3, z0=None, width=5e-6,
         start=-350.5e-6, step=1e-7, even=True, seed=0)
def test_patterns_are_mirror_symmetric(f, trunc, fwhm, z, z0, width, start,
                                       step, even, seed):
    # the grating is even in x, and so is its intensity; the slit over
    # [x, x + D] sees the mirror image of the slit over [-x - D, -x].  The
    # gap is rounding, so it is measured against the pattern's own scale:
    # its window peak, or its mean H_0 = sum A_n^2 where the window is dark
    src = plane_source(z0=z0, fwhm=fwhm)
    g = GratingSpec(d=D, f=f, trunc=trunc)
    det = baseline_detection(z=z, slit_width=width)
    mean = float(np.sum(coefficient_table(g)[1] ** 2))
    if even:
        xs = start + step * np.arange(101)
    else:
        xs = np.random.default_rng(seed).uniform(-2 * D, 2 * D, 40)
    lit = intensity(xs, LAMBDA0, src, g, z)
    mirrored = intensity(-xs, LAMBDA0, src, g, z)
    assert np.max(np.abs(mirrored - lit)) <= 1e-12 * max(np.max(lit), mean)
    rate = polychromatic_rate(xs, src, g, det)
    mirrored = polychromatic_rate(-xs - width, src, g, det)
    assert np.max(np.abs(mirrored - rate)) <= 1e-12 * max(np.max(rate),
                                                           mean * width)


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


@pytest.mark.parametrize("z0, d, z, cause", [
    # d^2 underflows to 0, so b = pi*lambda*z_eff/d^2 is inf
    (None, 1e-300, 0.16, "chirp phase b*trunc^2"),
    (1e-200, D, 1e200, "magnification 1 + z/z0 overflows"),
    (1e-200, 1e154, 0.16, "magnified period d*(1 + z/z0) is not finite"),
    (1e300, D, 1e300, "reduced distance z*z0/(z + z0) overflows"),
])
@pytest.mark.parametrize("engine", ["intensity", "polychromatic_rate",
                                    "carpet"])
def test_each_engine_refusal_names_its_cause(z0, d, z, cause, engine):
    # the first check a plane fails names it, under the RuntimeWarning
    # errors of the test settings: no overflow warns before the refusal
    src, g = plane_source(z0=z0), baseline_grating(d=d)
    calls = {
        "intensity": lambda: intensity(0.0, LAMBDA0, src, g, z),
        "polychromatic_rate": lambda: polychromatic_rate(
            0.0, src, g, baseline_detection(z=z)),
        "carpet": lambda: carpet(src, g, [0.0], [z / 2, z]),
    }
    with pytest.raises(DomainError, match="^" + re.escape(cause)):
        calls[engine]()



def test_positions_whose_phase_overflows_are_refused():
    # the chirp-z and the direct route each weigh their largest phase
    # before forming it, under the RuntimeWarning errors of the settings
    src, g = plane_source(), baseline_grating()
    for xs in (np.linspace(0.0, 1e308, 5), 1e308,
               np.array([0.0, 3e-4, 1e308]), np.array([-1e308, 1e308])):
        with pytest.raises(DomainError, match=r"^harmonic phase q\*a\*x "
                           r"overflows a double: positions up to "
                           r"\|x\| = 1e\+308 m$"):
            intensity(xs, LAMBDA0, src, g, 0.16)


def test_slit_rate_full_transmission_is_half_width():
    # behind a fully open grating the rate integral is slit_width/2
    # (the pattern convention folds a factor 1/2 into the rate)
    g = baseline_grating(f=1.0)
    det = baseline_detection()
    rate = polychromatic_rate(0.0, plane_source(), g, det)
    assert rate == pytest.approx(det.slit_width / 2, rel=1e-10)


def test_slit_rate_narrow_slit_approaches_intensity():
    g = baseline_grating(f=0.3)
    src = point_source()
    width = 1e-9
    det = baseline_detection(slit_width=width)
    for x in (-150e-6, 0.0, 87e-6):
        rate = polychromatic_rate(x, src, g, det)
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
            rate = polychromatic_rate(x, src, g, det)
            assert rate == pytest.approx(quad, rel=1e-10)


@settings(max_examples=200, deadline=None)
@given(f=st.floats(0.02, 1.0), trunc=st.integers(0, 120),
       z=st.floats(0.01, 0.4), z0=st.sampled_from([None, 1.9886, 0.5]),
       width=st.floats(5e-6, 400e-6), x=st.floats(-D, D))
def test_slit_rate_is_the_slit_integral_of_intensity(f, trunc, z, z0, width,
                                                     x):
    # the slit branch of the cosine-series step against Gauss-Legendre
    # quadrature of its intensity branch over [x, x + width], with enough
    # nodes to resolve harmonic 2*trunc across the slit
    src = plane_source(z0=z0)
    g = GratingSpec(d=D, f=f, trunc=trunc)
    det = baseline_detection(z=z, slit_width=width)
    a = g.k_d / magnification(z, z0)
    t, w = scipy.special.roots_legendre(int(0.7 * 2 * trunc * a * width) + 48)
    vals = intensity(x + width / 2 * (1 + t), LAMBDA0, src, g, z)
    quad = width / 4 * float(w @ vals)
    rate = polychromatic_rate(x, src, g, det)
    assert abs(rate - quad) <= 1e-10 * width / 2


def test_polychromatic_rate_is_weighted_sum():
    # the rate over a source's own spectral grid is the weighted sum of the
    # monochromatic (fwhm 0) rates at its nodes
    g = baseline_grating(f=0.3)
    src = plane_source(fwhm=FWHM, spectral_samples=5)
    det = baseline_detection()
    xs = np.linspace(-300e-6, 300e-6, 11)
    want = sum(weight * polychromatic_rate(xs, plane_source(lambda0=lam), g,
                                           det)
               for lam, weight in spectral_grid(src))
    assert polychromatic_rate(xs, src, g, det) == pytest.approx(want,
                                                                rel=1e-14)


def test_polychromatic_rate_monochromatic_bitwise():
    # a source collapses to its center line by fwhm = 0 or by one node
    g = baseline_grating(f=0.3)
    det = baseline_detection()
    xs = np.linspace(-300e-6, 300e-6, 11)
    assert np.array_equal(
        polychromatic_rate(xs, plane_source(fwhm=0.0), g, det),
        polychromatic_rate(xs, plane_source(fwhm=FWHM, spectral_samples=1),
                           g, det))


@pytest.mark.parametrize("f", [0.1, 0.3])
def test_spectral_averaging_never_raises_visibility(f):
    g = baseline_grating(f=f)
    det = baseline_detection()
    mono = scan(plane_source(fwhm=0.0), g, det)
    poly = scan(plane_source(fwhm=FWHM), g, det)
    assert visibility(poly) <= visibility(mono) + 1e-9


def test_scan_small_open_fraction_stays_small_in_memory():
    # f = 0.001 keeps 8000 orders (16001 coefficients) at 41 wavelengths;
    # the harmonic engine needs O(trunc * positions) scratch, not the
    # trunc**2 order pairs
    g = baseline_grating(f=0.001)
    assert g.trunc == 8000
    src = point_source(fwhm=FWHM)
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
    src = point_source(fwhm=FWHM)
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



def test_scan_meta_names_the_spectrum_it_averaged():
    # the curve is averaged over the grid of the source its meta carries,
    # so meta["source"] states the fwhm and node count of its values
    g, det = baseline_grating(f=0.3), baseline_detection()
    for fwhm, samples in ((0.0, 41), (FWHM, 1), (FWHM, 5), (FWHM, 41)):
        src = point_source(fwhm=fwhm, spectral_samples=samples)
        with mock.patch.object(propagation, "spectral_grid",
                               wraps=spectral_grid) as grid:
            pat = scan(src, g, det)
        grid.assert_called_once_with(src)
        meta = pat.meta["source"]
        assert (meta.fwhm, meta.spectral_samples) == (fwhm, samples)
        rates = polychromatic_rate(pat.positions, meta, g, det)
        assert np.array_equal(pat.values, rates / pat.meta["raw_max"])


def test_sub_ulp_line_scans_as_its_center_line():
    # a line whose samples all round to lambda0 is one node of weight 1, so
    # its scan has the bits of the fwhm-0 scan, not a 41-node sum at lambda0
    g, det = baseline_grating(f=0.3), baseline_detection()
    mono = scan(point_source(fwhm=0.0), g, det).values
    for fwhm in (5e-324, 1e-320, 1e-23):
        assert np.array_equal(scan(point_source(fwhm=fwhm), g, det).values,
                              mono)


def test_scan_transforms_one_row_per_distinct_wavelength():
    # at 1e-22 m the 41 samples of the line sit at 5 doubles, so the
    # engine forms the power spectra of 5 nodes, not 41
    g, det = baseline_grating(f=0.3), baseline_detection()
    with mock.patch.object(propagation, "_power_spectra",
                           wraps=propagation._power_spectra) as power:
        scan(point_source(fwhm=1e-22), g, det)
    assert sum(np.atleast_2d(c.args[1]).shape[0]
               for c in power.call_args_list) == 5


def test_carpet_and_intensity_compute_at_the_line_center():
    # both read no fwhm: a 50 nm source gives the bits of its fwhm-0 copy
    g = baseline_grating(f=0.3)
    wide = point_source(fwhm=FWHM)
    mono = dataclasses.replace(wide, fwhm=0.0)
    xs = np.linspace(-D, D, 33)
    zs = np.array([0.05, 0.16])
    assert np.array_equal(carpet(wide, g, xs, zs).values,
                          carpet(mono, g, xs, zs).values)
    assert np.array_equal(intensity(xs, LAMBDA0, wide, g, 0.16),
                          intensity(xs, LAMBDA0, mono, g, 0.16))


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


def _row_points(grating):
    """The FFT points _plane_harmonics costs a row at."""
    return propagation._fast_length(4 * grating.trunc + 1)


def _node_harmonics(source, grating, nodes, zs):
    """The blocks of _plane_harmonics with the source's line replaced by
    nodes, any list of (wavelength, weight) pairs."""
    with mock.patch.object(propagation, "spectral_grid", return_value=nodes):
        return list(_plane_harmonics(source, grating, zs))


def _harmonics(grating, b):
    """Intensity harmonics C_q, q = 0..2*trunc, at one b: the
    autocorrelation of the chirped coefficients c_n = A_n exp(i*n^2*b),
    n = -trunc..trunc, as the inverse FFT of their power spectrum on
    4*trunc + 1 points, enough for it not to wrap."""
    ns, amps = coefficient_table(grating)
    spectrum = np.fft.fft(amps * np.exp(1j * b * ns ** 2), 2 * ns.size - 1)
    return np.fft.ifft(np.abs(spectrum) ** 2)[:ns.size].real


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


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 8), trunc=st.integers(0, 100),
       count=st.integers(2, 200), start=st.floats(-1e-3, 1e-3),
       step=st.floats(1e-8, 1e-5), z=st.floats(1e-3, 0.4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rows_sharing_a_match_row_by_row_cosine_sums(rows, trunc, count,
                                                     start, step, z, seed):
    # a block of rows with one a (a plane wave's carpet) shares the chirp-z
    # kernel and phase row; each row may not move a bit against its sum
    # taken alone
    weights = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                                  (rows, 2 * trunc + 1))
    a = baseline_grating().k_d / magnification(z, Z0)
    xs = start + step * np.arange(count)
    block = _cosine_sums(weights, np.full(rows, a), xs)
    alone = np.concatenate([_cosine_sums(w, a, xs) for w in weights])
    assert np.array_equal(block, alone)


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


# Node weights.  A subnormal weight keeps only a few bits of
# weight * |F|^2, so a sum taken before the inverse FFT cannot match one
# taken after it to a bound relative to H_0; such weights are not drawn.
# A normal weight near the smallest normal double still gives subnormal
# harmonics, where one unit in the last place, 5e-324, is more than a
# relative bound on them; so the bounds keep an absolute floor of a few
# such units (_FLOOR).
_WEIGHTS = st.floats(0.0, 1.0, allow_subnormal=False)
_FLOOR = 4 * np.finfo(float).smallest_subnormal


@settings(max_examples=60, deadline=None)
@given(nodes=st.lists(st.tuples(st.floats(600e-9, 1000e-9), _WEIGHTS),
                      min_size=1, max_size=5),
       zs=st.lists(st.floats(1e-3, 0.4), min_size=1, max_size=20),
       point=st.booleans(), rows=st.integers(1, 30))
def test_plane_harmonics_is_the_node_order_sum(nodes, zs, point, rows):
    # the blocks cover the planes in order, each within the budget (rows
    # per _power_spectra call); the power spectra are summed in node
    # order, so a row does not move a bit however the budget splits the
    # nodes x planes blocks; each row is the weighted node sum of the
    # single-node harmonics to rounding (one inverse FFT of the summed
    # spectra against one per node); and a carpet row, batched with the
    # others, is intensity at its z
    src = point_source() if point else plane_source()
    g = baseline_grating(f=0.3, trunc=40)
    budget = rows * propagation._DOUBLES_PER_POINT * _row_points(g)
    with mock.patch.object(propagation, "SCRATCH_BUDGET", budget):
        blocks = _node_harmonics(src, g, nodes, zs)
    covered = np.concatenate([np.arange(len(zs))[r] for r, _, _ in blocks])
    assert np.array_equal(covered, np.arange(len(zs)))
    assert all(len(h) <= max(1, rows // len(nodes)) for _, h, _ in blocks)
    harm = np.concatenate([h for _, h, _ in blocks])
    a = np.concatenate([ab for _, _, ab in blocks])
    whole = _node_harmonics(src, g, nodes, zs)
    assert len(whole) == 1
    assert np.array_equal(harm, whole[0][1])
    assert harm.shape == (len(zs), 2 * g.trunc + 1)
    for i, z in enumerate(zs):
        want = np.zeros(2 * g.trunc + 1)
        for lam, weight in nodes:
            b = math.pi * lam * effective_distance(z, src.z0) / D ** 2
            want += weight * _harmonics(g, b)
        assert np.max(np.abs(harm[i] - want)) <= max(1e-14 * want[0], _FLOOR)
        assert a[i] == g.k_d / magnification(z, src.z0)
    xs = np.linspace(-D, D, 33)
    planes = sorted(set(zs))
    carp = carpet(src, g, xs, planes)
    for row, z in zip(carp.values, planes):
        assert np.array_equal(row, intensity(xs, LAMBDA0, src, g, z))


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(600e-9, 1000e-9), lam2=st.floats(600e-9, 1000e-9),
       zs=st.lists(st.floats(1e-3, 0.4), min_size=1, max_size=20),
       point=st.booleans(), trunc=st.integers(0, 60))
def test_one_node_harmonics_are_the_node_sum(lam, lam2, zs, point, trunc):
    # one node of weight 1 skips the node sum; a second node of weight 0
    # takes it, and adds nothing to a single bit
    src = point_source() if point else plane_source()
    g = baseline_grating(f=0.3, trunc=trunc)
    one = _node_harmonics(src, g, [(lam, 1.0)], zs)
    two = _node_harmonics(src, g, [(lam, 1.0), (lam2, 0.0)], zs)
    for k in (1, 2):
        assert np.array_equal(np.concatenate([b[k] for b in one]),
                              np.concatenate([b[k] for b in two]))


def _pair_sum(grating, grid, zeff):
    """H_q = sum_w weight_w sum_n A_{n+q} A_n cos(q*(2n + q)*b_w), pair by
    pair: the diagonal q of the matrix A_m A_n cos((m^2 - n^2)*b)."""
    ns, amps = coefficient_table(grating)
    lags = np.subtract.outer(ns * ns, ns * ns).T
    harm = np.zeros(ns.size)
    for lam, weight in grid:
        b = math.pi * lam * zeff / grating.d ** 2
        pairs = np.outer(amps, amps) * np.cos(lags * b)
        harm += weight * np.array([np.trace(pairs, offset=q)
                                   for q in range(ns.size)])
    return harm


@settings(max_examples=60, deadline=None)
@given(trunc=st.integers(0, 40), f=st.floats(0.001, 1.0),
       nodes=st.lists(st.tuples(st.floats(600e-9, 1000e-9), _WEIGHTS),
                      min_size=1, max_size=41),
       z=st.floats(1e-3, 0.4), point=st.booleans())
# harmonics near 4e-312, subnormal, that the engine gets to one unit
@example(trunc=1, f=0.0078125, nodes=[(600e-9, 2.2250738585072014e-308)],
         z=0.25, point=False)
def test_plane_harmonics_match_direct_pair_sums(trunc, f, nodes, z, point):
    src = point_source() if point else plane_source()
    g = baseline_grating(f=f, trunc=trunc)
    [(_, harm, _)] = _node_harmonics(src, g, nodes, [z])
    want = _pair_sum(g, nodes, effective_distance(z, src.z0))
    assert np.max(np.abs(harm[0] - want)) <= max(1e-13 * want[0], _FLOOR)


def test_plane_harmonics_take_one_inverse_fft_per_block():
    # the 41 nodes' power spectra are summed before the one inverse FFT of
    # their block, whether the planes fit one block or seven
    src = point_source(fwhm=FWHM)
    assert len(spectral_grid(src)) == 41
    g = baseline_grating(f=0.1)
    zs = np.linspace(0.05, 0.3, 20)
    for budget, count in ((propagation.SCRATCH_BUDGET, 1),
                          (3 * 41 * propagation._DOUBLES_PER_POINT
                           * _row_points(g), 7)):
        with mock.patch.object(propagation, "SCRATCH_BUDGET", budget), \
                mock.patch.object(np.fft, "ifft", wraps=np.fft.ifft) as ifft:
            blocks = list(_plane_harmonics(src, g, zs))
        assert len(blocks) == count
        assert ifft.call_count == count


def test_split_blocks_leave_carpet_and_revival_unchanged():
    # a budget of three planes per block splits the carpet's rows into
    # many blocks; the result may not move a bit.  129 positions are fewer
    # than the 161 harmonics, so the carpet keeps one position pass at any
    # budget.
    g = baseline_grating(f=0.1)
    src = point_source()
    xs = np.linspace(-D, D, 129)
    zs = np.linspace(0.05, 0.3, 20)
    want = carpet(src, g, xs, zs).values
    budget = 3 * propagation._DOUBLES_PER_POINT * _row_points(g)
    with mock.patch.object(propagation, "SCRATCH_BUDGET", budget):
        assert len(list(_plane_harmonics(src, g, zs))) == 7
        got = carpet(src, g, xs, zs).values
    assert np.array_equal(got, want)
