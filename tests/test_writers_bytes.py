"""The CSV writers give the bytes of the per-writer bodies that iq.write_csv replaced.

writers_reference keeps the earlier bodies.  Each property writes one table
with both and compares the files byte for byte, over values that format
differently from plain floats: ±0.0, ±inf, NaN, the smallest subnormal and
1e±300, with empty tables and, for the track CSV, several passes, some of
them with no tracks.  The truth table is handed over as a stand-in with its
two columns, since a TruthRecord rejects NaN and inf; the writer reads no
other field.  Waterfalls have at least one frequency column, as every
dynamic_spectrum does.
"""

import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import writers_reference as ref
from stsa import metrics, siggen, synthesis
from stsa.blockproc import Estimates

SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            1e300, -1e300, 1e-300, -1e-300]
VALUES = st.one_of(st.sampled_from(SPECIALS), st.floats())
INTS = st.integers(-2**63, 2**63 - 1)


def column(n, values=VALUES, dtype=np.float64):
    return st.lists(values, min_size=n, max_size=n).map(lambda v: np.array(v, dtype))


def assert_same_bytes(writer, oracle, table):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        writer(table, got)
        oracle(table, want)
        assert got.read_bytes() == want.read_bytes()


@st.composite
def passes(draw):
    """(estimates, tracks) pairs; a track lists any rows of its table, possibly none."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 12))
        est = Estimates(draw(column(n, INTS, np.intp)), draw(column(n, INTS, np.intp)),
                        *(draw(column(n)) for _ in range(4)), np.zeros(0))
        rows = column(draw(st.integers(0, n)), st.integers(0, max(n - 1, 0)), np.intp)
        out.append((est, draw(st.lists(rows if n else st.just(np.zeros(0, np.intp)),
                                       max_size=4))))
    return out


@given(table=passes())
def test_tracks_csv(table):
    assert_same_bytes(synthesis.write_tracks_csv, ref.write_tracks_csv, table)


@given(n=st.integers(0, 40), data=st.data())
def test_truth_csv(n, data):
    truth = SimpleNamespace(f_inst_hz=data.draw(column(n)), amplitude=data.draw(column(n)))
    assert_same_bytes(siggen.write_truth_csv, ref.write_truth_csv, truth)


@given(band=st.tuples(*[st.one_of(VALUES, st.integers(-10**6, 10**6))] * 2),
       values=st.tuples(*[VALUES] * 4))
def test_report_csv(band, values):
    report = metrics.SuppressionReport(band, *values)
    assert_same_bytes(metrics.write_report_csv, ref.write_report_csv, report)


@given(n=st.integers(0, 40), data=st.data())
def test_spectrum_csv(n, data):
    frame = metrics.SpectrumFrame(data.draw(column(n)), data.draw(column(n)), 1.0)
    assert_same_bytes(metrics.write_spectrum_csv, ref.write_spectrum_csv, frame)


@given(rows=st.integers(0, 6), cols=st.integers(1, 20), data=st.data())
def test_dynamic_spectrum_csv(rows, cols, data):
    ds = metrics.DynamicSpectrum(data.draw(column(rows)), data.draw(column(cols)),
                                 data.draw(column(rows * cols)).reshape(rows, cols))
    assert_same_bytes(metrics.write_dynamic_spectrum_csv, ref.write_dynamic_spectrum_csv, ds)
