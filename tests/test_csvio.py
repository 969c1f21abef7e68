"""CSV tables: the one-pass writer against a row-by-row reference."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from talbot_sim.csvio import _write_table, write_carpet_csv
from talbot_sim.model import Carpet
from talbot_sim.units import fmt

# Values where "%.12g" changes spelling: the exponent form below 1e-4 and
# from 1e12 up, each boundary and its neighbours, signed zeros, the
# subnormal range and the non-finite values.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5,
          math.nextafter(1e-4, 0.0), 1e-4, 99999.99999995, 1e12,
          math.nextafter(1e12, 0.0), 999999999999.5, -1e12,
          1.7976931348623157e308, math.inf, -math.inf, math.nan]
_VALUES = st.one_of(st.floats(), st.sampled_from(_EDGES))
# free text for the comment and header lines, a % in each (surrogates
# have no UTF-8 spelling, so they are left out)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
_COMMENTS = st.lists(_TEXT.map(lambda s: "# %" + s), max_size=3)


def _reference(comments, header, table) -> bytes:
    """The table written line by line, each value through fmt."""
    lines = [*comments, header]
    lines.extend(",".join(fmt(v) for v in row) for row in table.tolist())
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(table=arrays(np.float64, st.tuples(st.integers(0, 6),
                                          st.integers(1, 5)),
                    elements=_VALUES),
       comments=_COMMENTS, header=_TEXT)
@example(table=np.array([[1e-5, -0.0, math.nan], [1e12, 5e-324, -math.inf]]),
         comments=["# 100% = %s %d %(x)s %%"], header="%.12g,%")
def test_write_table_matches_the_row_by_row_reference(tmp_path_factory, table,
                                                      comments, header):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    _write_table(path, comments, header, *table.T)
    assert path.read_bytes() == _reference(comments, header, table)


_AXIS = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5,
                 unique=True).map(sorted)


@settings(max_examples=100, deadline=None)
@given(xs=_AXIS, zs=_AXIS, data=st.data(), comments=_COMMENTS)
def test_carpet_csv_matches_the_row_by_row_reference(tmp_path_factory, xs, zs,
                                                     data, comments):
    # the x axis in the header, then z and that plane's row on each line
    values = data.draw(arrays(np.float64, (len(zs), len(xs)),
                              elements=_VALUES))
    carp = Carpet(x_axis=np.array(xs), z_axis=np.array(zs), values=values)
    path = tmp_path_factory.mktemp("csv") / "carpet.csv"
    write_carpet_csv(path, carp, comments)
    header = "," + ",".join(fmt(x) for x in xs)
    table = np.column_stack([zs, values])
    assert path.read_bytes() == _reference(comments, header, table)
