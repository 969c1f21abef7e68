"""Direct Fresnel integral: accuracy and cross-checks.

The oracle integrates the exact binary transmission over a finite
illuminated aperture of half-width W = source.delta, one open window at
a time.  It and the truncated closed form model the same field only
when both keep the same orders, and two causes separate them:

* walk-off: at z = L = d**2/lam order n walks sideways by n*d, so an
  aperture of half-width W passes only the orders |n| <= W/d to the
  probes near the axis;
* truncation: the closed form keeps |n| <= trunc and drops the power
  f - sum A_n**2, 1.27% of it at the default 80 orders.

These tests pin the window rule against an mpmath quadrature, symmetry,
the 1/z energy scaling, and both causes, and the oracle's Fresnel kernel
against mpmath and scipy.special.fresnel.
"""

import math
import re
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talbot_sim import (DomainError, ResolutionCapError,
                        binary_transmission, fresnel_field,
                        fresnel_intensity, intensity, oracle)

from helpers import (D, LAMBDA0, TALBOT, Z0, baseline_detection,
                     baseline_grating, mp_fresnel_field, plane_source,
                     point_source, scipy_fresnel_field)

PROBES = np.array([-250e-6, -90e-6, 0.0, 60e-6, 210e-6])


def _scaled_rms(analytic, numeric):
    # least-squares scale the quadrature curve onto the closed form,
    # then return the relative rms residual
    c = float(np.dot(analytic, numeric) / np.dot(numeric, numeric))
    resid = analytic - c * numeric
    return float(np.sqrt(np.mean(resid ** 2) / np.mean(analytic ** 2)))


def test_refinement_halving_converges():
    # the window rule has no grid to refine, so its integration error is
    # measured against a 30-digit quadrature of the same integral
    g = baseline_grating(f=0.3, trunc=50)
    src = plane_source()
    ref = np.array([abs(mp_fresnel_field(x, LAMBDA0, src, g, 0.16)) ** 2
                    for x in PROBES])
    vals = fresnel_intensity(PROBES, LAMBDA0, src, g, 0.16)
    rel = np.max(np.abs(vals - ref)) / np.max(ref)
    assert rel < 1e-4


@pytest.mark.parametrize("source, f", [(plane_source(), 0.1),
                                       (point_source(), 0.3),
                                       (point_source(delta=2e-3), 1.0)])
def test_window_rule_matches_mpmath_quadrature(source, f):
    # each open window integrates exactly to a difference of Fresnel
    # integrals; the complex field agrees with an independent 30-digit
    # quadrature to rounding, well inside 1e-10
    g = baseline_grating(f=f)
    for x in PROBES:
        ref = mp_fresnel_field(x, LAMBDA0, source, g, 0.16)
        got = fresnel_field(x, LAMBDA0, source, g, 0.16)
        assert abs(got - ref) < 1e-10 * abs(ref)


def test_truncation_floor_at_talbot_length():
    # at z = L the plane-wave field is the binary transmission shifted by
    # half a period (Berry & Klein 1996); the closed form converges to it
    # only as the kept orders grow, which no aperture can make up for
    xs = np.linspace(-D, D, 257)
    exact = binary_transmission(xs + D / 2, baseline_grating(f=0.1))
    errs = {}
    for trunc in (None, 80_000):
        g = baseline_grating(f=0.1, trunc=trunc)
        errs[g.trunc] = _scaled_rms(
            intensity(xs, LAMBDA0, plane_source(), g, TALBOT), exact)
    assert errs[80] > 0.05
    assert errs[80_000] < 1e-3


def test_window_growth_improves_agreement():
    # the aperture tail decays as the illuminated window widens; the
    # scaled rms residual against the closed form must fall with it
    g = baseline_grating(f=0.3, trunc=50)
    xs = np.linspace(-D, D, 257)
    analytic = intensity(xs, LAMBDA0, plane_source(), g, 0.16)
    errs = []
    for delta in (1e-3, 5e-3, 20e-3):
        src = plane_source(delta=delta)
        numeric = fresnel_intensity(xs, LAMBDA0, src, g, 0.16)
        errs.append(_scaled_rms(analytic, numeric))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.1


def test_energy_scale_tracks_inverse_distance():
    # |field|^2 carries the 1/z spreading factor the closed form drops;
    # the least-squares scale between the two must sit near z itself
    g = baseline_grating(f=0.3, trunc=100)
    src = plane_source(delta=10e-3)
    z = 37e-3
    xs = np.linspace(-D, D, 33)
    analytic = intensity(xs, LAMBDA0, src, g, z)
    numeric = fresnel_intensity(xs, LAMBDA0, src, g, z)
    c = float(np.dot(analytic, numeric) / np.dot(numeric, numeric))
    assert abs(c / z - 1.0) < 0.1


def test_field_intensity_symmetric_in_x():
    # symmetric aperture and symmetric grating: |E(-x)| = |E(x)|
    g = baseline_grating(f=0.3, trunc=50)
    src = plane_source(delta=2e-3)
    for x in (30e-6, 111e-6, 280e-6):
        plus = abs(fresnel_field(x, LAMBDA0, src, g, 0.16)) ** 2
        minus = abs(fresnel_field(-x, LAMBDA0, src, g, 0.16)) ** 2
        assert minus == pytest.approx(plus, rel=1e-6)


def test_open_aperture_flat_near_axis():
    # with no grating structure the center of the pattern flattens as
    # the aperture grows (ripple falls off with the Fresnel number);
    # at a 10 mm half-width the residual ripple is about 4%
    g = baseline_grating(f=1.0)
    src = plane_source(delta=10e-3)
    xs = np.linspace(-0.2e-3, 0.2e-3, 21)
    vals = fresnel_intensity(xs, LAMBDA0, src, g, 0.16)
    assert vals.max() / vals.min() - 1.0 < 0.1


def _slit_integral(x, src, g, det, samples=257):
    # trapezoid of the oracle intensity across the slit [x, x + width]
    probes = np.linspace(x, x + det.slit_width, samples)
    vals = fresnel_intensity(probes, LAMBDA0, src, g, det.z)
    return float(np.trapezoid(vals, probes))


def test_slit_rate_narrow_limit_matches_field():
    # a very narrow slit integral collapses to width times the field
    # intensity at the slit center
    g = baseline_grating(f=0.3, trunc=50)
    src = plane_source()
    width = 1e-6
    det = baseline_detection(slit_width=width)
    for x in (-60e-6, 35e-6):
        rate = _slit_integral(x, src, g, det)
        center = abs(fresnel_field(x + width / 2, LAMBDA0, src, g,
                                   det.z)) ** 2
        assert rate / (width * center) == pytest.approx(1.0, abs=0.01)


def test_slit_rate_sampling_refinement_stable():
    g = baseline_grating(f=0.3, trunc=50)
    src = plane_source()
    det = baseline_detection()
    coarse = _slit_integral(-41e-6, src, g, det, samples=257)
    fine = _slit_integral(-41e-6, src, g, det, samples=1025)
    assert fine == pytest.approx(coarse, rel=1e-4)


def test_resolution_cap_enforced():
    # the budget counts open windows per field evaluation: the 1 mm
    # aperture opens 5 of them, and the default budget refuses the
    # 1.1e7 windows of a 2 km aperture before building them
    g = baseline_grating(f=0.3, trunc=50)
    with mock.patch.object(oracle, "MAX_WINDOWS", 4), \
            pytest.raises(ResolutionCapError):
        fresnel_field(0.0, LAMBDA0, plane_source(), g, 0.16)
    with mock.patch.object(oracle, "MAX_WINDOWS", 5):
        fresnel_field(0.0, LAMBDA0, plane_source(), g, 0.16)
    with pytest.raises(ResolutionCapError):
        fresnel_field(0.0, LAMBDA0, plane_source(delta=2e3), g, 0.16)


def test_field_rejects_bad_arguments():
    g = baseline_grating(f=0.3)
    src = plane_source()
    with pytest.raises(DomainError):
        fresnel_field(0.0, -LAMBDA0, src, g, 0.16)
    with pytest.raises(DomainError):
        fresnel_field(0.0, LAMBDA0, src, g, 0.0)
    # lambda0*z underflows to 0 or overflows to inf, so sqrt(2/(lambda0*z))
    # is not a finite positive number
    for lam, z in ((1e-200, 1e-200), (1e200, 1e200)):
        with pytest.raises(DomainError, match=re.escape(
                f"lambda0 = {lam:g} m, z = {z:g} m")):
            fresnel_field(0.0, lam, src, g, z)

    # z*z0 overflows: refused by name before any warning
    with pytest.raises(DomainError, match="^reduced distance"):
        fresnel_intensity([0.0], LAMBDA0, plane_source(z0=1e300),
                          baseline_grating(f=0.1, trunc=5), 1e300)


def _kernel_values(u):
    """E(u) = C(u) + i S(u) from each branch of the oracle's kernel whose
    domain holds u: the Taylor table to |u| = 12, the asymptotic series
    from |u| = 8."""
    us = np.array([u])
    values = []
    if abs(u) <= 12:
        c, s = oracle._taylor(us)
        values.append(complex(c[0], s[0]))
    if abs(u) >= oracle._ASYMPTOTIC_FROM:
        c, s = oracle._asymptotic(us)
        half = math.copysign(0.5, u)
        values.append(complex(c[0] + half, s[0] + half))
    return values


def _kernel_bound(u):
    # a relative error eps in u moves E by eps*|u|, since |E'| = 1; u^2
    # rounds to about as much, so no double kernel can do much better
    return 2e-15 + 2e-16 * np.abs(u)


@settings(max_examples=300, deadline=None)
@given(u=st.one_of(st.floats(-12.0, 12.0), st.floats(-3e4, 3e4)))
@example(u=0.0).via("the origin")
@example(u=1 / 128).via("halfway between two table centres")
@example(u=-8.0).via("where the series takes over")
@example(u=11.5).via("the table's reach from the oracle's rows")
@example(u=12.0).via("the table's last centre")
@example(u=3e4).via("the far end")
def test_fresnel_kernel_matches_mpmath(u):
    with mp.workdps(30):
        ref = complex(mp.fresnelc(u), mp.fresnels(u))
    values = _kernel_values(u)
    assert values
    for got in values:
        assert abs(got - ref) <= _kernel_bound(u)


def test_taylor_centres_do_not_drift():
    # each centre's E is the previous one's plus a step of the series; the
    # compensated sum keeps all 769 of them within 8e-16 of E (a plain
    # running sum drifts to 1.2e-15 by |u| = 12)
    centres = np.arange(0, 12 * 64 + 1) / 64
    c, s = oracle._taylor(centres)
    with mp.workdps(30):
        ref = np.array([complex(mp.fresnelc(u), mp.fresnels(u))
                        for u in centres])
    assert np.max(np.abs(c + 1j * s - ref)) <= 8e-16


def test_fresnel_kernel_matches_scipy():
    # both sit within _kernel_bound of E, so within twice it of each other
    from scipy.special import fresnel

    rng = np.random.default_rng(23)
    us = np.concatenate([np.linspace(-12, 12, 24_577),
                         rng.uniform(-100, 100, 20_000),
                         rng.uniform(-3e4, 3e4, 20_000)])
    s_ref, c_ref = fresnel(us)
    near = np.abs(us) <= 12
    far = np.abs(us) >= oracle._ASYMPTOTIC_FROM
    c, s = oracle._taylor(us[near])
    assert np.all(np.abs(c - c_ref[near]) <= 2 * _kernel_bound(us[near]))
    assert np.all(np.abs(s - s_ref[near]) <= 2 * _kernel_bound(us[near]))
    c, s = oracle._asymptotic(us[far])
    half = np.copysign(0.5, us[far])
    assert np.all(np.abs(c + half - c_ref[far])
                  <= 2 * _kernel_bound(us[far]))
    assert np.all(np.abs(s + half - s_ref[far])
                  <= 2 * _kernel_bound(us[far]))


@pytest.mark.parametrize("source, z, points", [
    (point_source(), 0.16, 129),
    (plane_source(delta=1e-3), TALBOT, 65),
    (plane_source(delta=10e-3), TALBOT, 65),
    (plane_source(delta=20e-3), TALBOT, 65),
    (plane_source(delta=20e-3), 2 * TALBOT, 65),
], ids=["default", "1mm-L", "10mm-L", "20mm-L", "20mm-2L"])
def test_oracle_keeps_the_scipy_route(source, z, points):
    # the default oracle run and the benchmark's four oracle geometries:
    # the intensities stay within 1e-12 of peak of the same window rule
    # summed over scipy.special.fresnel
    g = baseline_grating(f=0.1)
    xs = np.linspace(-D, D, points)
    ref = np.abs(scipy_fresnel_field(xs, LAMBDA0, source, g, z)) ** 2
    got = fresnel_intensity(xs, LAMBDA0, source, g, z)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


def test_probe_order_and_blocks_do_not_change_the_field():
    # probes go in blocks of ascending centres, at most 3.5 apart in u
    # (about 0.9 mm here); a shuffled window that needs several blocks
    # gives each probe the field it gets alone
    g = baseline_grating(f=0.1)
    src = point_source(z0=Z0, delta=5e-3)
    xs = np.random.default_rng(5).permutation(np.linspace(-3e-3, 3e-3, 41))
    together = fresnel_field(xs, LAMBDA0, src, g, 0.16)
    alone = np.array([fresnel_field(x, LAMBDA0, src, g, 0.16) for x in xs])
    assert np.max(np.abs(together - alone)) <= 1e-13 * np.max(np.abs(alone))
