"""IQ codec and SampleStream tests."""

import numpy as np
import pytest

from stsa.iq import IqFormat, SampleStream, encode_iq, decode_iq, read_iq, write_iq


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


def test_stream_is_immutable():
    stream = SampleStream(np.zeros(4, complex), 1.0)
    with pytest.raises(ValueError):
        stream.samples[0] = 1.0


def test_format_names():
    assert IqFormat("i8") is IqFormat.INT8
    assert IqFormat("f32") is IqFormat.FLOAT32
    with pytest.raises(ValueError, match=r"unknown IQ format 's16' \(expected 'i8' or 'f32'\)"):
        IqFormat("s16")
