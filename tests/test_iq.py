"""IQ codec and SampleStream tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stsa.iq import IqFormat, SampleStream, encode_iq, decode_iq, read_iq, write_iq
from stsa.iq import _ENCODE_CHUNK as CHUNK


def test_int8_known_bytes(tmp_path):
    path = tmp_path / "two.iq"
    path.write_bytes(bytes([0x40, 0x00, 0x00, 0xC0]))
    stream = read_iq(path, IqFormat.INT8, 1000.0)
    assert len(stream) == 2
    np.testing.assert_array_equal(stream.samples, [0.5 + 0j, 0.0 - 0.5j])
    assert stream.sample_rate_hz == 1000.0


def test_empty_file(tmp_path):
    path = tmp_path / "empty.iq"
    path.write_bytes(b"")
    for fmt in IqFormat:
        assert len(read_iq(path, fmt, 1.0)) == 0


def test_zero_length_write(tmp_path):
    path = tmp_path / "zero.iq"
    write_iq(SampleStream(np.zeros(0, complex), 1.0), path, IqFormat.FLOAT32)
    assert path.stat().st_size == 0


def test_float32_roundtrip_byte_exact(tmp_path):
    rng = np.random.default_rng(1)
    raw = rng.standard_normal(512).astype("<f4").tobytes()
    path = tmp_path / "f32.iq"
    path.write_bytes(raw)
    stream = read_iq(path, IqFormat.FLOAT32, 48000.0)
    out = tmp_path / "copy.iq"
    write_iq(stream, out, IqFormat.FLOAT32)
    assert out.read_bytes() == raw


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_int8_roundtrip_quantization_bound(seed, tmp_path):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300)
    stream = SampleStream(samples, 2e6)
    path = tmp_path / "i8.iq"
    write_iq(stream, path, IqFormat.INT8)
    back = read_iq(path, IqFormat.INT8, 2e6)
    err = np.concatenate(
        [np.abs(back.samples.real - samples.real), np.abs(back.samples.imag - samples.imag)]
    )
    assert err.max() <= 1.0 / 128 + 1e-12


def test_int8_exact_upper_edge():
    # +1.0 is representable only as 127/128; still inside the 1/128 bound.
    stream = SampleStream(np.array([1.0 + 1.0j]), 1.0)
    back = decode_iq(encode_iq(stream, IqFormat.INT8), IqFormat.INT8, 1.0)
    assert back.samples[0] == (127 / 128) * (1 + 1j)


def test_int8_clipping_warns_with_count():
    stream = SampleStream(np.array([2.0 + 0j, 0.5 - 3.0j, 0.1 + 0.1j]), 1.0)
    with pytest.warns(UserWarning, match="clipped 2"):
        data = encode_iq(stream, IqFormat.INT8)
    back = decode_iq(data, IqFormat.INT8, 1.0)
    assert back.samples[0].real == 127 / 128
    assert back.samples[1].imag == -1.0


def test_truncated_file_names_offset(tmp_path):
    path = tmp_path / "trunc.iq"
    path.write_bytes(bytes(9))
    with pytest.raises(ValueError, match="byte offset 8"):
        read_iq(path, IqFormat.FLOAT32, 1.0)
    with pytest.raises(ValueError, match="byte offset 8"):
        read_iq(path, IqFormat.INT8, 1.0)


def test_unreadable_path_is_io_error(tmp_path):
    with pytest.raises(OSError):
        read_iq(tmp_path / "missing.iq", IqFormat.FLOAT32, 1.0)


def test_rate_is_sidecar_metadata(tmp_path):
    stream = SampleStream(np.ones(4, complex) * 0.25, 1e6)
    path = tmp_path / "rate.iq"
    write_iq(stream, path, IqFormat.FLOAT32)
    assert read_iq(path, IqFormat.FLOAT32, 12345.0).sample_rate_hz == 12345.0


def test_stream_validation():
    with pytest.raises(ValueError, match="positive"):
        SampleStream(np.zeros(2, complex), 0.0)
    with pytest.raises(ValueError, match="NaN"):
        SampleStream(np.array([np.nan + 0j]), 1.0)
    with pytest.raises(ValueError, match="NaN"):
        SampleStream(np.array([1.0 + 1j * np.inf]), 1.0)


@pytest.mark.parametrize("big", [1e300, np.finfo(np.float64).max])
def test_stream_accepts_finite_samples_whose_squared_sum_overflows(big):
    parts = np.array([big, -big, 0.5, -big, big, big], dtype=np.float64)
    stream = SampleStream(parts.view(np.complex128), 1.0)
    assert stream.samples.view(np.float64).tobytes() == parts.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("where", [0, 4, 9])
@pytest.mark.parametrize("strided", [False, True])
def test_stream_rejects_each_non_finite_component(bad, part, where, strided):
    samples = np.full(20 if strided else 10, 0.25 - 0.5j)
    view = samples[::2] if strided else samples
    getattr(view, part)[where] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        SampleStream(view, 1.0)


def test_int8_decode_is_the_scaled_cast_of_every_byte():
    data = bytes(range(256))
    want = np.frombuffer(data, np.int8).astype(np.float64) / 128.0 + 0.0
    got = decode_iq(data, IqFormat.INT8, 1.0).samples.view(np.float64)
    assert got.tobytes() == want.tobytes()


def test_float32_decode_is_the_cast_with_zeros_made_positive():
    f32 = np.finfo(np.float32)
    parts = np.array([-0.0, 0.0, f32.smallest_subnormal, -f32.smallest_subnormal,
                      f32.smallest_normal * 0.75, -f32.smallest_normal, f32.max, -f32.max,
                      1.0, -1.5], dtype="<f4")
    want = parts.astype(np.float64) + 0.0
    got = decode_iq(parts.tobytes(), IqFormat.FLOAT32, 1.0).samples.view(np.float64)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[:2]).any()


@pytest.mark.parametrize("at", [0, 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("component", [3.5e38, -1e39, np.finfo(np.float64).max])
def test_float32_write_beyond_its_range_is_a_value_error(tmp_path, at, component):
    """No RuntimeWarning and no file left: the encoder names the overflow."""
    parts = np.zeros(2 * (2 * CHUNK + 4))
    parts[at] = component
    stream = SampleStream(parts.view(np.complex128), 1.0)
    old = tmp_path / "old.iq"
    old.write_bytes(b"an earlier capture")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="beyond ±3.4e38 overflow float32"):
            encode_iq(stream, IqFormat.FLOAT32)
        for path in (tmp_path / "new.iq", old):
            with pytest.raises(ValueError, match="beyond ±3.4e38 overflow float32"):
                write_iq(stream, path, IqFormat.FLOAT32)
            assert not path.exists()  # neither empty nor partial
    parts[at] = np.copysign(float(np.finfo(np.float32).max), component)  # the edge encodes
    once = encode_iq(SampleStream(parts.view(np.complex128), 1.0), IqFormat.FLOAT32)
    assert np.frombuffer(once, "<f4")[at] == parts[at]


def test_stream_is_immutable():
    stream = SampleStream(np.zeros(4, complex), 1.0)
    with pytest.raises(ValueError):
        stream.samples[0] = 1.0


def test_format_names():
    assert IqFormat("i8") is IqFormat.INT8
    assert IqFormat("f32") is IqFormat.FLOAT32
    with pytest.raises(ValueError, match=r"unknown IQ format 's16' \(expected 'i8' or 'f32'\)"):
        IqFormat("s16")


def _interleaved_encode(stream, fmt):
    """The codec's earlier encoder, through a float64 interleaved copy."""
    interleaved = np.empty(2 * len(stream), dtype=np.float64)
    interleaved[0::2] = stream.samples.real
    interleaved[1::2] = stream.samples.imag
    if fmt is IqFormat.FLOAT32:
        encoded = interleaved.astype("<f4")
        encoded[encoded == 0.0] = 0.0  # the encoder now writes a -0.0 float32 as +0.0
        return encoded.tobytes()
    n_clipped = int(np.count_nonzero(np.abs(interleaved) > 1.0))
    if n_clipped:
        warnings.warn(f"int8 write clipped {n_clipped} out-of-range components")
    return np.clip(np.round(interleaved * 128.0), -128, 127).astype(np.int8).tobytes()


def _interleaved_decode(data, fmt):
    """The codec's earlier decoder, real + 1j*imag."""
    if fmt is IqFormat.INT8:
        raw = np.frombuffer(data, dtype=np.int8).astype(np.float64) / 128.0
    else:
        raw = np.frombuffer(data, dtype="<f4").astype(np.float64)
    return raw[0::2] + 1j * raw[1::2]


def _codec_inputs():
    """Random components, every pairing of signed zeros, and values to clip."""
    real, imag = np.random.default_rng(5).uniform(-1.5, 1.5, (2, 600))
    real[:16], imag[:16] = (g.ravel() for g in np.meshgrid([-0.0, 0.0, -0.25, 0.25],
                                                           [-0.0, 0.0, -0.75, 0.75]))
    real[16:20], imag[16:20] = [1.0, -1.0, 127 / 128, -129 / 128], [-1.0, 1.0, 3.0, -1e-300]
    samples = np.empty(real.size, dtype=np.complex128)
    samples.real, samples.imag = real, imag
    return samples


@pytest.mark.parametrize("fmt", list(IqFormat))
@pytest.mark.parametrize("step", [1, 3])
def test_codec_matches_interleaved_copies(fmt, step):
    samples = _codec_inputs()
    stream = SampleStream(samples[::step], 1.0)
    assert stream.samples.flags.c_contiguous == (step == 1)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = encode_iq(stream, fmt)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = _interleaved_encode(stream, fmt)
    assert got == want
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
    assert bool(got_warnings) == (fmt is IqFormat.INT8)

    data = np.ascontiguousarray(stream.samples).view(np.float64).astype("<f4").tobytes()
    for blob in (got, data) if fmt is IqFormat.FLOAT32 else (got,):
        decoded = decode_iq(blob, fmt, 1.0).samples
        reference = _interleaved_decode(blob, fmt)
        # every -0.0 now reads as +0.0; the earlier decoder kept a -0.0 real
        # part whose imaginary part had its sign bit set
        parts = decoded.view(np.float64)
        assert not np.any(np.signbit(parts) & (parts == 0.0))
        reference.real[reference.real == 0.0] = 0.0
        assert decoded.tobytes() == reference.tobytes()


@pytest.mark.parametrize("fmt", list(IqFormat))
@pytest.mark.parametrize("step", [1, 3])
def test_write_iq_writes_the_encoded_bytes(tmp_path, fmt, step):
    stream = SampleStream(_codec_inputs()[::step], 1.0)
    written, encoded = [], []
    for record, run in ((written, lambda: write_iq(stream, tmp_path / "x.iq", fmt)),
                        (encoded, lambda: encode_iq(stream, fmt))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record.append(run())
        record.append([str(w.message) for w in caught])
    assert (tmp_path / "x.iq").read_bytes() == encoded[0]
    assert written[1] == encoded[1]
    assert len(written[1]) == (fmt is IqFormat.INT8)  # an int8 clip warns exactly once


@pytest.mark.parametrize("fmt", list(IqFormat))
@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize("length", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_write_iq_is_the_one_shot_encoding_at_chunk_boundaries(tmp_path, fmt, step, length):
    real, imag = np.random.default_rng(length).uniform(-1.5, 1.5, (2, length * step))
    stream = SampleStream((real + 1j * imag)[::step], 1.0)
    path = tmp_path / "x.iq"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        write_iq(stream, path, fmt)
        encoded = encode_iq(stream, fmt)
        want = _interleaved_encode(stream, fmt)
    assert path.read_bytes() == encoded == want
    messages = [str(w.message) for w in caught]
    assert messages == messages[:1] * 3  # write, encode and the oracle warn alike, or none does


def test_int8_write_clipping_in_several_chunks_warns_once_with_the_total(tmp_path):
    samples = np.full(3 * CHUNK, 0.5 + 0.5j)
    samples[[0, CHUNK + 1, 3 * CHUNK - 1]] = [2.0, -3.0j, 1.5 - 1.5j]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        write_iq(SampleStream(samples, 1.0), tmp_path / "x.iq", IqFormat.INT8)
    assert [str(w.message) for w in caught] == ["int8 write clipped 4 out-of-range components"]


def test_write_iq_minus_writes_the_encoded_difference(tmp_path):
    rng = np.random.default_rng(2)
    a, b = (SampleStream(rng.standard_normal(2 * CHUNK + 3) + 1j, 1.0) for _ in range(2))
    for fmt in IqFormat:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # int8 clips; the counts are checked above
            write_iq(a, tmp_path / "d.iq", fmt, minus=b)
            want = encode_iq(SampleStream(a.samples - b.samples, 1.0), fmt)
        assert (tmp_path / "d.iq").read_bytes() == want
    with pytest.raises(ValueError, match="length mismatch"):
        write_iq(a, tmp_path / "d.iq", IqFormat.FLOAT32, minus=SampleStream(b.samples[:-1], 1.0))


@pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_rate_must_be_positive_and_finite(rate):
    with pytest.raises(ValueError, match=f"sample_rate_hz must be positive and finite, got {rate}"):
        SampleStream(np.zeros(2, complex), rate)


def test_samples_must_be_one_dimensional():
    with pytest.raises(ValueError, match="one-dimensional"):
        SampleStream(np.zeros((2, 2), complex), 1.0)


@pytest.mark.parametrize("band", [
    (5000.0, -5000.0), (1000.0, 1000.0), (np.nan, np.nan), (np.nan, 1.0), (-1.0, np.nan),
    (2e6, 3e6), (-1024000.5, 0.0), (0.0, 1024000.5),
])
def test_check_band_rejects_bands_not_increasing_inside_nyquist(band):
    stream = SampleStream(np.zeros(4, complex), 2048000.0)
    with pytest.raises(ValueError, match=r"band \(.*\) is not increasing inside the Nyquist "
                                         r"span ±1024000.0"):
        stream.check_band(band)


def test_check_band_accepts_the_whole_nyquist_span():
    stream = SampleStream(np.zeros(4, complex), 2048000.0)
    assert stream.check_band([-1024000.0, 1024000.0]) == (-1024000.0, 1024000.0)
    assert stream.check_band((-1.0, 0.0)) == (-1.0, 0.0)


def test_empty_stream_power_is_zero():
    assert SampleStream(np.zeros(0, complex), 4.0).power() == 0.0


# Components inside the float32 range: signed zeros, values that clip to int8 or
# underflow float32, and any other finite value.
_COMPONENTS = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 127 / 128, -129 / 128, -1e-300, 1e-46]) | \
    st.floats(-3.4e38, 3.4e38)


@given(fmt=st.sampled_from(list(IqFormat)), parts=st.lists(_COMPONENTS, max_size=64))
def test_reencoding_the_decoded_bytes_gives_the_same_bytes(fmt, parts):
    parts = np.array(parts[: len(parts) // 2 * 2], dtype=np.float64)
    stream = SampleStream(parts.view(np.complex128), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # int8 clipping
        once = encode_iq(stream, fmt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # decoded samples never clip
        assert encode_iq(decode_iq(once, fmt, 1.0), fmt) == once
