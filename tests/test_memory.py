"""Traced peak memory of the report and the IQ writer on a 2**21-sample stream.

The stream is built before tracing starts, so each peak counts only what
the call itself allocates.  The bounds are fractions of one stream copy, so a
stage that again transforms or encodes the whole stream at once fails them.
"""

import tracemalloc

import numpy as np
import pytest

from stsa.iq import IqFormat, SampleStream, write_iq
from stsa.metrics import suppression_report

RATE = 2048000.0
SAMPLES = 2**21
STREAM_BYTES = SAMPLES * np.dtype(np.complex128).itemsize


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def streams():
    rng = np.random.default_rng(21)
    noise = rng.standard_normal((2, 2, SAMPLES))
    return [SampleStream(re + 1j * im, RATE) for re, im in noise]


def test_report_peak_is_under_a_quarter_of_the_stream(streams):
    peak = traced_peak(lambda: suppression_report(*streams, (-5000.0, 5000.0)))
    assert peak < STREAM_BYTES / 4


def test_write_peak_is_the_encoded_size(streams, tmp_path):
    encoded_bytes = SAMPLES * IqFormat.FLOAT32.bytes_per_sample
    peak = traced_peak(lambda: write_iq(streams[0], tmp_path / "x.iq", IqFormat.FLOAT32))
    assert (tmp_path / "x.iq").stat().st_size == encoded_bytes
    assert peak < encoded_bytes + 2**20
