"""The frame-grid synthesize against the renderers it replaced.

Two oracles live here.  oracle_synthesize is the earlier per-track renderer:
one full-length buffer per track, filled through lead, blend, gap and trail
branches.  slice_synthesize is the single-buffer slice renderer that followed
it, bit-identical to the per-track oracle summed with combine_waveforms.
The frame-grid synthesize computes each tone from two short phasor tables
instead of one complex exponential per sample, so it matches slice_synthesize
to rounding: exact zeros in the same places, samples within 4*N*2**-52 of the
summed track amplitudes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stsa import synthesis
from stsa.blockproc import Estimates, SinusoidEstimate, StsaConfig, process_stream
from stsa.siggen import NbfmSpec, add_awgn, gen_nbfm, mix
from stsa.synthesis import assemble_tracks, combine_waveforms, synthesize
import table_helpers

RATE = 2048000.0


def _tone_at(est: SinusoidEstimate, sample_indices: np.ndarray, center_index: float,
             sample_rate_hz: float) -> np.ndarray:
    dt = (sample_indices - center_index) / sample_rate_hz
    return est.amp * np.exp(1j * (2.0 * np.pi * est.freq_hz * dt + est.phase_rad))


def slice_synthesize(
    tracks: list[np.ndarray],
    stream_meta: tuple[int, float],
    config: StsaConfig,
    table: Estimates,
) -> np.ndarray:
    """Render every track, summed in list order, into one waveform on the stream's grid.

    Between the centers of estimates in adjacent blocks the two sinusoids are
    blended as (1-a)*x_i + a*x_j with a running 0 -> 1; the outer half-blocks
    of a run of adjacent estimates use the nearest estimate unblended.
    Detection gaps wider than one block step are left at zero rather than
    bridged.
    """
    length, sample_rate_hz = stream_meta
    n = config.block_len_n
    hop = config.hop
    out = np.zeros(length, dtype=np.complex128)

    def center_of(e):
        return e.block_index * hop + (n - 1) / 2.0

    def grid(lo: int, hi: int) -> np.ndarray:
        return np.arange(lo, min(hi, length), dtype=np.float64)

    def add(lo: int, values: np.ndarray):
        out[lo : lo + values.size] += values

    for track in tracks:
        entries = table_helpers.entries(table, track)
        if not entries:
            raise ValueError("cannot synthesize an empty track")
        for i, e in enumerate(entries):
            start, c = e.block_index * hop, center_of(e)
            ic = int(np.ceil(c))
            if i == 0 or e.block_index - entries[i - 1].block_index > 1:
                # Own tone on the left half-block where a run begins.
                add(start, _tone_at(e, grid(start, ic), c, sample_rate_hz))
            nxt = entries[i + 1] if i + 1 < len(entries) else None
            if nxt is not None and nxt.block_index - e.block_index == 1:
                cn = center_of(nxt)
                idx = grid(ic, int(np.ceil(cn)))
                alpha = (idx - c) / (cn - c)
                add(ic, (1.0 - alpha) * _tone_at(e, idx, c, sample_rate_hz)
                    + alpha * _tone_at(nxt, idx, cn, sample_rate_hz))
            else:
                # Own tone on the right half-block where a run ends.
                add(ic, _tone_at(e, grid(ic, start + n), c, sample_rate_hz))

    return out


def oracle_synthesize(
    track: np.ndarray,
    stream_meta: tuple[int, float],
    config: StsaConfig,
    table: Estimates,
) -> np.ndarray:
    """Render one track into a waveform on the stream's sample grid.

    Between the centers of estimates in adjacent blocks the two sinusoids are
    blended as (1-a)*x_i + a*x_j with a running 0 -> 1; the outer half-blocks
    use the nearest estimate unblended.  Detection gaps wider than one block
    step are left at zero rather than bridged.
    """
    if not len(track):
        raise ValueError("cannot synthesize an empty track")
    length, sample_rate_hz = stream_meta
    n = config.block_len_n
    hop = config.hop
    out = np.zeros(length, dtype=np.complex128)

    def center_of(e):
        return e.block_index * hop + (n - 1) / 2.0

    def fill(lo: int, hi: int, values: np.ndarray):
        lo = max(lo, 0)
        hi = min(hi, length)
        if lo < hi:
            out[lo:hi] = values[: hi - lo]

    entries = table_helpers.entries(table, track)
    first, last = entries[0], entries[-1]

    # Leading half-block: nearest (first) estimate, unblended.
    start0 = first.block_index * hop
    c0 = int(np.ceil(center_of(first)))
    idx = np.arange(start0, min(c0, length))
    fill(start0, c0, _tone_at(first, idx, center_of(first), sample_rate_hz))

    for ea, eb in zip(entries, entries[1:]):
        ca, cb = center_of(ea), center_of(eb)
        ia, ib = int(np.ceil(ca)), int(np.ceil(cb))
        if eb.block_index - ea.block_index == 1:
            idx = np.arange(ia, ib, dtype=np.float64)
            alpha = (idx - ca) / (cb - ca)
            blend = (1.0 - alpha) * _tone_at(ea, idx, ca, sample_rate_hz) + alpha * _tone_at(
                eb, idx, cb, sample_rate_hz
            )
            fill(ia, ib, blend)
        else:
            # Gap: each side covers only its own block, zeros in between.
            end_a = ea.block_index * hop + n
            idx = np.arange(ia, min(end_a, length), dtype=np.float64)
            fill(ia, end_a, _tone_at(ea, idx, ca, sample_rate_hz))
            start_b = eb.block_index * hop
            idx = np.arange(start_b, min(ib, length), dtype=np.float64)
            fill(start_b, ib, _tone_at(eb, idx, cb, sample_rate_hz))

    # Trailing half-block.
    c_last = center_of(last)
    i_last = int(np.ceil(c_last))
    end_last = last.block_index * hop + n
    idx = np.arange(i_last, min(end_last, length), dtype=np.float64)
    fill(i_last, end_last, _tone_at(last, idx, c_last, sample_rate_hz))

    return out


def assert_matches_oracle(tracks, meta, config, table):
    got = slice_synthesize(tracks, meta, config, table)
    # a generator keeps one per-track buffer alive at a time
    want = combine_waveforms((oracle_synthesize(t, meta, config, table) for t in tracks),
                             meta[0])
    assert got.tobytes() == want.tobytes()


def assert_close_to_slices(tracks, meta, config, table):
    """Exact zeros in the same places; samples within 4*N*eps of the summed track peaks.

    The phase argument 2*pi*f*dt of either renderer reaches pi*N radians, so
    each rounds to about N*eps relative.
    """
    got = synthesize(tracks, meta, config, table)
    want = slice_synthesize(tracks, meta, config, table)
    assert np.array_equal(got == 0, want == 0)
    scale = sum(table.amp[t].max() for t in tracks)
    bound = 4 * config.block_len_n * 2.0**-52 * scale
    assert np.abs(got - want).max(initial=0.0) <= bound


def stream_tracks(stream, config):
    """(tracks, table) of one pass over the stream."""
    blocks = process_stream(stream, config)
    return assemble_tracks(blocks, config, stream.sample_rate_hz), blocks


def test_acceptance_fm_scenario():
    spec = NbfmSpec(carrier_offset_hz=0.0, deviation_hz=4000.0, duration_s=1.0,
                    mod_noise_bw_hz=1000.0, mod_noise_seed=7, mod_noise_rms=0.9)
    clean, _ = gen_nbfm(spec, RATE)
    noisy = add_awgn(clean, 34.0, spec.carson_band_hz(), 99)
    config = StsaConfig(detect_threshold_db=9.0, max_peel=3)
    tracks, table = stream_tracks(noisy, config)
    assert len(tracks) == 43
    assert_matches_oracle(tracks, (len(noisy), RATE), config, table)
    assert_close_to_slices(tracks, (len(noisy), RATE), config, table)


def test_three_station_mixture():
    streams = []
    for offset, amp, seed in [(-25000.0, 1.0, 31), (0.0, 10 ** -0.5, 32),
                              (25000.0, 10 ** -0.7, 33)]:
        spec = NbfmSpec(carrier_offset_hz=offset, deviation_hz=4000.0, duration_s=1.0,
                        amp=amp, mod_noise_bw_hz=1000.0, mod_noise_seed=seed)
        streams.append(gen_nbfm(spec, RATE)[0])
    mixed = mix(streams)
    snr_arg = 34.0 + 10 * np.log10(mixed.power() / streams[0].power())
    noisy = add_awgn(mixed, snr_arg, (-30000.0, -20000.0), 44)
    config = StsaConfig(detect_threshold_db=12.0)
    tracks, table = stream_tracks(noisy, config)
    assert sum(1 for t in tracks if len(t) > len(noisy) // (2 * config.block_len_n)) == 3
    assert_matches_oracle(tracks, (len(noisy), RATE), config, table)
    assert_close_to_slices(tracks, (len(noisy), RATE), config, table)


@st.composite
def scenarios(draw):
    """Random tracks over a short stream: gaps, overlapping tracks, odd N,
    half overlap, and stream ends anywhere, mid-block included."""
    n = draw(st.integers(8, 40))
    overlap = draw(st.sampled_from(["none", "half"] if n % 2 == 0 else ["none"]))
    config = StsaConfig(block_len_n=n, overlap=overlap)
    n_blocks = draw(st.integers(1, 12))
    length = draw(st.integers(0, (n_blocks - 1) * config.hop + n + 5))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    entry_lists = []
    for _ in range(draw(st.integers(0, 4))):
        indices = sorted(draw(st.sets(st.integers(0, n_blocks - 1), min_size=1)))
        entry_lists.append(tuple(
            SinusoidEstimate(draw(st.floats(0.0, 10.0)), draw(values) * 1e3, draw(values),
                             b, (b * config.hop + (n - 1) / 2) / RATE, 0)
            for b in indices
        ))
    table, tracks = table_helpers.tracks_table(entry_lists)
    return tracks, (length, RATE), config, table


@settings(max_examples=300)
@given(scenarios())
def test_random_track_sets(scenario):
    assert_matches_oracle(*scenario)


@st.composite
def wide_scenarios(draw):
    """Random tracks for the frame grid: N up to 8192, odd N, half overlap,
    gaps, tracks overlapping in time, f across +-fs/2, phases as estimated,
    and streams that end mid-block or before a block."""
    n = draw(st.one_of(st.integers(8, 64), st.integers(65, 8192)))
    overlap = draw(st.sampled_from(["none", "half"] if n % 2 == 0 else ["none"]))
    config = StsaConfig(block_len_n=n, overlap=overlap)
    n_blocks = draw(st.integers(1, 6))
    length = draw(st.integers(0, (n_blocks - 1) * config.hop + n + 5))
    entry_lists = []
    for _ in range(draw(st.integers(0, 3))):
        indices = sorted(draw(st.sets(st.integers(0, n_blocks - 1), min_size=1)))
        entry_lists.append(tuple(
            SinusoidEstimate(draw(st.floats(1e-6, 1e3)), draw(st.floats(-RATE / 2, RATE / 2)),
                             draw(st.floats(-np.pi, np.pi)), b,
                             (b * config.hop + (n - 1) / 2) / RATE, 0)
            for b in indices
        ))
    table, tracks = table_helpers.tracks_table(entry_lists)
    return tracks, (length, RATE), config, table


@settings(max_examples=200)
@given(wide_scenarios())
def test_frame_grid_matches_slice_renderer(scenario):
    assert_close_to_slices(*scenario)


def test_properties_run_under_the_deterministic_profile():
    for test in (test_random_track_sets, test_frame_grid_matches_slice_renderer):
        applied = test._hypothesis_internal_use_settings
        assert (applied.derandomize, applied.database, applied.deadline) == (True, None, None)
    assert test_random_track_sets._hypothesis_internal_use_settings.max_examples == 300


def test_no_tracks_render_zeros():
    wave = synthesize([], (100, RATE), StsaConfig(), table_helpers.estimates_table([]))
    assert wave.tobytes() == np.zeros(100, np.complex128).tobytes()


def test_empty_track_rejected_anywhere_in_list():
    config = StsaConfig(block_len_n=8)
    full = (SinusoidEstimate(1.0, 0.0, 0.0, 0, 0.0, 0),)
    for entry_lists in ([()], [full, ()]):
        table, tracks = table_helpers.tracks_table(entry_lists)
        with pytest.raises(ValueError, match="empty track"):
            synthesize(tracks, (64, RATE), config, table)


def test_negative_block_index_rejected():
    config = StsaConfig(block_len_n=8)
    table, tracks = table_helpers.tracks_table([(SinusoidEstimate(1.0, 0.0, 0.0, -1, 0.0, 0),)])
    with pytest.raises(ValueError, match="block_index must be non-negative"):
        synthesize(tracks, (64, RATE), config, table)


@pytest.mark.parametrize("n,overlap", [(16, "none"), (15, "none"), (16, "half")])
def test_chunk_size_does_not_change_the_sum(monkeypatch, n, overlap):
    """Every row sums its contributions in one order, whatever entries share a pass.

    Track 0 covers every block, so each later track's chunk boundaries fall
    on rows that already hold a value, where the order of two additions shows.
    """
    config = StsaConfig(block_len_n=n, overlap=overlap)
    rng = np.random.default_rng(11)
    spans = [range(0, 40), [*range(1, 17), *range(19, 38)], range(3, 40), range(0, 40, 2)]
    table, tracks = table_helpers.tracks_table([
        tuple(SinusoidEstimate(rng.uniform(0.1, 2.0), rng.uniform(-RATE / 4, RATE / 4),
                               rng.uniform(-np.pi, np.pi), b, 0.0, 0) for b in blocks)
        for blocks in spans])
    meta = (39 * config.hop + n, RATE)
    monkeypatch.setattr(synthesis, "_CHUNK_SAMPLES", 2**30)  # one pass per track
    want = synthesize(tracks, meta, config, table)
    for entries in (1, 2, 3, 7, 16):
        monkeypatch.setattr(synthesis, "_CHUNK_SAMPLES", entries * config.hop)
        got = synthesize(tracks, meta, config, table)
        assert got.tobytes() == want.tobytes()
