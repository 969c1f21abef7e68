"""The oracle's open grating windows: the closed form against the overlap
rule tested window by window, and the window budget at its boundary."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from talbot_sim import GratingSpec, ResolutionCapError, SourceSpec, oracle


def _overlap_edges(d, f, half_width):
    """Clipped edges of every window k d +- f d/2 that overlaps the
    aperture (-W, W), trying each k from -K - 2 to K + 2 in turn; a fully
    open grating is the one window [-W, W]."""
    if f == 1.0:
        return [-half_width, half_width]
    half_open = f * d / 2.0
    last = math.ceil((half_width + half_open) / d) - 1
    edges = []
    for k in range(-last - 2, last + 3):
        lo = max(k * d - half_open, -half_width)
        hi = min(k * d + half_open, half_width)
        if hi > lo:
            edges += [lo, hi]
    return edges


@st.composite
def _apertures(draw):
    """(d, f, W): W at a window edge, one ulp either side of one, or
    anywhere within 300 periods."""
    d = draw(st.floats(1e-7, 1e2))
    f = draw(st.one_of(st.just(1.0), st.floats(1e-6, 1.0)))
    k = draw(st.integers(0, 300))
    edge = k * d + draw(st.sampled_from([-1.0, 1.0])) * f * d / 2.0
    half_width = draw(st.one_of(
        st.just(edge),
        st.sampled_from([0.0, math.inf]).map(lambda to: math.nextafter(edge,
                                                                       to)),
        st.floats(0.0, 300.0, exclude_min=True).map(lambda w: w * d)))
    return d, f, half_width


@settings(max_examples=1000, deadline=None)
@given(_apertures())
# the default oracle geometry: 0.5 mrad at z0 = 1.99 m, d = 360 um
@example((360e-6, 0.1, 0.0009942857142857142))
# K = ceil((W + f d/2)/d) - 1 one below the last open window
@example((114.05055072549804, 0.9895375717186959, 8041.160449001317))
@example((0.6703879783394668, 0.9140991923368967, 1717.227599950938))
def test_closed_form_edges_match_the_overlap_rule(aperture):
    d, f, half_width = aperture
    assume(half_width > 0)
    g = GratingSpec(d=d, f=f, trunc=0)
    edges = oracle._window_edges(g, half_width)
    assert edges.tolist() == _overlap_edges(d, f, half_width)
    # the budget is the window count itself: one fewer refuses
    count = edges.size // 2
    with mock.patch.object(oracle, "MAX_WINDOWS", count):
        assert oracle._window_edges(g, half_width).tolist() == (
            edges.tolist())
    with mock.patch.object(oracle, "MAX_WINDOWS", count - 1), \
            pytest.raises(ResolutionCapError):
        oracle._window_edges(g, half_width)


def test_zero_width_windows_add_nothing():
    # f d/2 underflows to 0: the windows have no width, and each adds
    # E(u) - E(u) = 0 to the field
    g = GratingSpec(d=360e-6, f=5e-324, trunc=0)
    edges = oracle._window_edges(g, 1e-3)
    assert edges.size == 10 and np.array_equal(edges[::2], edges[1::2])
    source = SourceSpec(lambda0=810e-9, delta=1e-3)
    field = oracle.fresnel_field(np.linspace(-1e-3, 1e-3, 9), source, g,
                                 0.16)
    assert not field.any()
