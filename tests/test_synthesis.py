"""Track assembly, waveform rendering, and cancellation tests."""

import numpy as np
import pytest

from stsa.blockproc import SinusoidEstimate, StsaConfig, process_stream
from stsa.iq import SampleStream
from stsa.siggen import add_awgn, gen_tone, mix
from stsa.synthesis import assemble_tracks, cancel, combine_waveforms, synthesize, write_tracks_csv
import table_helpers
from table_helpers import estimates_table, tracks_table

RATE = 2048000.0
N = 256


def est(block_index, freq_hz, amp=1.0, phase=0.0, rank=0, hop=N):
    t_center = (block_index * hop + (N - 1) / 2) / RATE
    return SinusoidEstimate(amp, freq_hz, phase, block_index, t_center, rank)


def blocks_from(estimates_by_block):
    return estimates_table([e for _, ests in sorted(estimates_by_block.items()) for e in ests])


def render(entries, stream_meta, config):
    """synthesize one track made of the entries."""
    table, tracks = tracks_table([entries])
    return synthesize(tracks, stream_meta, config, table)


class TestAssembleTracks:
    CFG = StsaConfig()

    def test_single_signal_single_track(self):
        blocks = blocks_from({i: [est(i, 50000.0 + 100 * i)] for i in range(20)})
        tracks = assemble_tracks(blocks, self.CFG, RATE)
        assert len(tracks) == 1
        assert len(tracks[0]) == 20

    def test_two_tones_two_pure_tracks(self):
        stream = mix([
            gen_tone(1.0, -50000.0, 0.0, N * 50, RATE)[0],
            gen_tone(0.5, 50000.0, 1.0, N * 50, RATE)[0],
        ])
        blocks = process_stream(stream, StsaConfig(max_peel=2))
        tracks = assemble_tracks(blocks, self.CFG, RATE)
        big = [t for t in tracks if len(t) >= 45]
        assert len(big) == 2
        for trk in big:
            freqs = blocks.freq_hz[trk]
            assert np.ptp(freqs) < 100.0, "track mixes frequencies"
        medians = sorted(np.median(blocks.freq_hz[t]) for t in big)
        assert abs(medians[0] + 50000.0) < 100
        assert abs(medians[1] - 50000.0) < 100

    def test_gap_jump_limit_decides_track_split(self):
        # 5 missing blocks; the limit scales with the gap: 0.5 bin/step
        # at 8 kHz bins over 6 steps tolerates a 24 kHz move.
        within = blocks_from({**{i: [est(i, 100000.0)] for i in range(5)},
                              **{i: [est(i, 120000.0)] for i in range(10, 15)}})
        tracks = assemble_tracks(within, self.CFG, RATE)
        assert len(tracks) == 1

        beyond = blocks_from({**{i: [est(i, 100000.0)] for i in range(5)},
                              **{i: [est(i, 130000.0)] for i in range(10, 15)}})
        tracks = assemble_tracks(beyond, self.CFG, RATE)
        assert len(tracks) == 2

    def test_one_estimate_per_block_per_track(self):
        # Two same-block estimates at nearby frequencies cannot both join one track.
        blocks = blocks_from({
            0: [est(0, 100000.0)],
            1: [est(1, 100000.0, rank=0), est(1, 101000.0, rank=1)],
        })
        tracks = assemble_tracks(blocks, self.CFG, RATE)
        assert sorted(len(t) for t in tracks) == [1, 2]

    @pytest.mark.parametrize("limit", [0.0, -0.5, float("nan")])
    def test_non_positive_jump_limit_rejected(self, limit):
        blocks = blocks_from({0: [est(0, 0.0)], 1: [est(1, 0.0)]})
        with pytest.raises(ValueError, match="jump_limit_bins must be positive"):
            assemble_tracks(blocks, self.CFG, RATE, jump_limit_bins=limit)

    def test_out_of_order_blocks_rejected(self):
        blocks = estimates_table([est(1, 0.0), est(0, 0.0)])
        with pytest.raises(ValueError, match="order"):
            assemble_tracks(blocks, self.CFG, RATE)


class TestSynthesize:
    def test_empty_track_rejected(self):
        with pytest.raises(ValueError):
            render((), (1024, RATE), StsaConfig())

    @pytest.mark.parametrize("blocks", [(3, 3), (4, 3), (0, 2, 1)])
    def test_block_indices_must_increase(self, blocks):
        with pytest.raises(ValueError, match="strictly increasing"):
            render(tuple(est(b, 0.0) for b in blocks), (8 * N, RATE), StsaConfig())

    def test_block_center_anchor_odd_n(self):
        # Odd block length puts centers on the sample grid; there the blend
        # weight is exactly zero and the sample equals amp*exp(j*phase).
        n_odd = 129
        cfg = StsaConfig(block_len_n=n_odd)
        entries = []
        for b in range(4):
            t_center = (b * n_odd + (n_odd - 1) / 2) / RATE
            entries.append(SinusoidEstimate(0.8, 70000.0, 0.3 + 0.1 * b, b, t_center, 0))
        wave = render(entries, (4 * n_odd, RATE), cfg)
        for b in range(4):
            center_idx = b * n_odd + (n_odd - 1) // 2
            expected = 0.8 * np.exp(1j * (0.3 + 0.1 * b))
            assert wave[center_idx] == expected

    def test_stationary_tone_cancels_deeply(self):
        stream, _ = gen_tone(1.0, 82000.0, 0.7, N * 64, RATE)
        cfg = StsaConfig(max_peel=1)
        blocks = process_stream(stream, cfg)
        tracks = assemble_tracks(blocks, cfg, RATE)
        assert len(tracks) == 1
        wave = synthesize(tracks[:1], (len(stream), RATE), cfg, blocks)
        assert wave.all()
        residual = cancel(stream, wave)
        ratio = residual.power() / stream.power()
        assert 10 * np.log10(ratio) < -80.0

    def test_half_overlap_no_worse_on_stationary_tone(self):
        stream, _ = gen_tone(1.0, 82000.0, 0.7, N * 64, RATE)
        powers = {}
        for overlap in ("none", "half"):
            cfg = StsaConfig(max_peel=1, overlap=overlap)
            blocks = process_stream(stream, cfg)
            tracks = assemble_tracks(blocks, cfg, RATE)
            wave = synthesize(tracks[:1], (len(stream), RATE), cfg, blocks)
            powers[overlap] = cancel(stream, wave).power()
        assert powers["half"] <= powers["none"] + 1e-16

    def test_phase_jump_stays_continuous(self):
        # A deliberate 0.1 rad phase step between adjacent blocks must be
        # smeared across the blend, not appear as a sample jump.
        f = 82000.0
        amp = 1.0
        entries = (est(0, f, amp, 0.0), est(1, f, amp, 0.1))
        cfg = StsaConfig()
        wave = render(entries, (2 * N, RATE), cfg)
        assert wave.all()
        jumps = np.abs(np.diff(wave))
        tone_rotation = 2 * amp * abs(np.sin(np.pi * f / RATE))
        assert jumps.max() <= tone_rotation + 1.2 * amp * 0.1 / N

    def test_modulated_track_continuity(self):
        # Rendered waveform of a modulated carrier stays within 3x the
        # inter-sample step of an ideal continuous-phase tone at the band
        # edge with the track's peak amplitude.
        from stsa.siggen import NbfmSpec, add_awgn, gen_nbfm

        spec = NbfmSpec(carrier_offset_hz=0.0, deviation_hz=4000.0, duration_s=0.2,
                        mod_noise_bw_hz=1000.0, mod_noise_seed=7, mod_noise_rms=0.9)
        clean, _ = gen_nbfm(spec, RATE)
        noisy = add_awgn(clean, 34.0, spec.carson_band_hz(), 99)
        cfg = StsaConfig(detect_threshold_db=9.0, max_peel=3)
        blocks = process_stream(noisy, cfg)
        tracks = assemble_tracks(blocks, cfg, RATE)
        main = max(tracks, key=lambda rows: sum(a**2 for a in blocks.amp[rows].tolist()))
        wave = synthesize([main], (len(noisy), RATE), cfg, blocks)
        amp_max = blocks.amp[main].max()
        ideal_step = 2 * amp_max * np.sin(np.pi * 5000.0 / RATE)
        assert np.abs(np.diff(wave)).max() <= 3 * ideal_step

    def test_gap_wider_than_one_block_zero_filled(self):
        entries = (est(0, 50000.0), est(3, 50000.0))
        stream, _ = gen_tone(1.0, 1000.0, 0.0, 4 * N, RATE)
        wave = render(entries, (len(stream), RATE), StsaConfig())
        # each entry renders its own block; the two missing blocks are exact zeros
        assert wave[:N].all() and wave[3 * N :].all()
        assert wave[N : 3 * N].tobytes() == np.zeros(2 * N, complex).tobytes()
        residual = cancel(stream, wave)
        assert residual.samples[N : 3 * N].tobytes() == stream.samples[N : 3 * N].tobytes()

    def test_adjacent_blocks_blend_continuously(self):
        entries = (est(0, 50000.0), est(1, 50080.0))
        wave = render(entries, (2 * N, RATE), StsaConfig())
        assert wave.all()

    def test_leading_and_trailing_edges_unblended(self):
        entries = (est(2, 40000.0, amp=0.5, phase=1.0),)
        stream, _ = gen_tone(1.0, 1000.0, 0.0, 5 * N, RATE)
        wave = render(entries, (len(stream), RATE), StsaConfig())
        # a lone entry renders its own block at its amplitude, exact zeros elsewhere
        np.testing.assert_allclose(np.abs(wave[2 * N : 3 * N]), 0.5, rtol=1e-12)
        outside = np.r_[: 2 * N, 3 * N : 5 * N]
        assert wave[outside].tobytes() == np.zeros(4 * N, complex).tobytes()
        residual = cancel(stream, wave)
        assert residual.samples[outside].tobytes() == stream.samples[outside].tobytes()


class TestCancel:
    def test_zero_waveform_is_identity(self):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 128, RATE)
        assert cancel(s, np.zeros(128, complex)).samples.tobytes() == s.samples.tobytes()

    def test_self_cancel_is_zero(self):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 128, RATE)
        np.testing.assert_array_equal(cancel(s, np.array(s.samples)).samples, np.zeros(128))

    def test_linearity_exact(self):
        # Dyadic values make float addition exact, so the identity
        # cancel(a+b, w) == b + cancel(a, w) holds bitwise.
        rng = np.random.default_rng(0)
        quant = lambda: (rng.integers(-512, 512, 64) + 1j * rng.integers(-512, 512, 64)) / 256.0
        a = SampleStream(quant(), RATE)
        b = SampleStream(quant(), RATE)
        w = quant()
        lhs = cancel(mix([a, b]), w.copy()).samples
        rhs = b.samples + cancel(a, w.copy()).samples
        np.testing.assert_array_equal(lhs, rhs)

    def test_residual_is_written_into_the_waveform(self):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 128, RATE)
        w = 0.5 * s.samples
        expected = s.samples - w
        residual = cancel(s, w)
        assert np.shares_memory(residual.samples, w)
        assert residual.samples.tobytes() == expected.tobytes()
        assert not residual.samples.flags.writeable

    def test_length_mismatch_rejected(self):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 128, RATE)
        with pytest.raises(ValueError, match="length"):
            cancel(s, np.zeros(64, complex))


def test_combine_waveforms():
    total = combine_waveforms([np.ones(8, complex), 2j * np.ones(8, complex)], 8)
    np.testing.assert_array_equal(total, 1 + 2j)
    assert total.dtype == np.complex128
    assert combine_waveforms([], 4).tobytes() == np.zeros(4, complex).tobytes()


def test_tracks_csv(tmp_path):
    table, tracks = tracks_table([(est(0, 1000.0), est(1, 1000.0)), (est(5, -2000.0),)])
    path = tmp_path / "tracks.csv"
    write_tracks_csv([(table, tracks)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "signal_id,block_index,t_center_s,peel_rank,amp,freq_hz,phase_rad"
    assert len(lines) == 4
    assert lines[3].startswith("1,5,")


def fstring_tracks_csv(passes, path):
    """The earlier per-entry f-string writer, kept as the byte-level oracle."""
    with open(path, "w") as fh:
        fh.write("signal_id,block_index,t_center_s,peel_rank,amp,freq_hz,phase_rad\n")
        signal_id = 0
        for table, tracks in passes:
            for rows in tracks:
                for e in table_helpers.entries(table, rows):
                    fh.write(
                        f"{signal_id},{e.block_index},{e.t_center_s:.9f},{e.peel_rank},"
                        f"{e.amp:.9g},{e.freq_hz:.6f},{e.phase_rad:.9f}\n"
                    )
                signal_id += 1


def test_tracks_csv_numbers_tracks_across_passes(tmp_path):
    """Ids run 0..T-1 over the passes in order, whatever each pass's table holds."""
    passes = [tracks_table([(est(0, 1.0), est(1, 1.0)), (est(1, 2.0),), (est(4, 3.0),)]),
              tracks_table([(est(2, 4.0),), (est(0, 5.0), est(3, 5.0))]),
              tracks_table([]),
              tracks_table([(), (est(7, 6.0, rank=1),)])]
    write_tracks_csv(iter(passes), tmp_path / "fast.csv")
    rows = np.loadtxt(tmp_path / "fast.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, 0].astype(int).tolist() == [0, 0, 1, 2, 3, 4, 4, 6]
    assert rows[:, 5].tolist() == [1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 6.0]
    fstring_tracks_csv(passes, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("tracks", [
    [(est(0, 1000.0), est(1, 1000.0, rank=2)), (est(5, -2000.0),), (), (est(7, 3.5, amp=0.25),)],
    [],
    [(est(3, -123456.789, phase=-0.0), est(4, -0.0, phase=-3.141592653589793))],
    [tuple(est(b, 1e5, amp=a) for b, a in
           enumerate([1e-12, 1.23456789e11, 5e-324, 2.5e-320, 0.0]))],
    [(est(0, 82000.0, amp=float("inf")),)],
])
def test_tracks_csv_matches_fstring_writer(tmp_path, tracks):
    passes = [tracks_table(tracks)]
    write_tracks_csv(passes, tmp_path / "fast.csv")
    fstring_tracks_csv(passes, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
