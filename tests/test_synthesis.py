"""Track assembly, waveform rendering, and cancellation tests."""

import numpy as np
import pytest

from stsa.blockproc import SinusoidEstimate, StsaConfig, process_stream
from stsa.iq import SampleStream
from stsa.siggen import add_awgn, gen_tone, mix
from stsa.synthesis import (
    SynthesizedWaveform,
    assemble_tracks,
    cancel,
    combine_waveforms,
    synthesize,
    write_tracks_csv,
)
import table_helpers
from table_helpers import estimates_table, track

RATE = 2048000.0
N = 256


def est(block_index, freq_hz, amp=1.0, phase=0.0, rank=0, hop=N):
    t_center = (block_index * hop + (N - 1) / 2) / RATE
    return SinusoidEstimate(amp, freq_hz, phase, block_index, t_center, rank)


def blocks_from(estimates_by_block):
    return estimates_table([e for _, ests in sorted(estimates_by_block.items()) for e in ests])


class TestTrackType:
    def test_indices_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            track((est(3, 0.0), est(3, 0.0)), 0)

    def test_energy(self):
        t = track((est(0, 0.0, amp=2.0), est(1, 0.0, amp=1.0)), 0)
        assert t.total_energy() == 5.0


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
            freqs = trk.freq_hz
            assert np.ptp(freqs) < 100.0, "track mixes frequencies"
        medians = sorted(np.median(t.freq_hz) for t in big)
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
            synthesize([track((), 0)], (1024, RATE, 0.0), StsaConfig())

    def test_block_center_anchor_odd_n(self):
        # Odd block length puts centers on the sample grid; there the blend
        # weight is exactly zero and the sample equals amp*exp(j*phase).
        n_odd = 129
        cfg = StsaConfig(block_len_n=n_odd)
        entries = []
        for b in range(4):
            t_center = (b * n_odd + (n_odd - 1) / 2) / RATE
            entries.append(SinusoidEstimate(0.8, 70000.0, 0.3 + 0.1 * b, b, t_center, 0))
        wave = synthesize([track(entries, 0)], (4 * n_odd, RATE, 0.0), cfg)
        for b in range(4):
            center_idx = b * n_odd + (n_odd - 1) // 2
            expected = 0.8 * np.exp(1j * (0.3 + 0.1 * b))
            assert wave.samples[center_idx] == expected

    def test_stationary_tone_cancels_deeply(self):
        stream, _ = gen_tone(1.0, 82000.0, 0.7, N * 64, RATE)
        cfg = StsaConfig(max_peel=1)
        blocks = process_stream(stream, cfg)
        tracks = assemble_tracks(blocks, cfg, RATE)
        assert len(tracks) == 1
        wave = synthesize(tracks[:1], (len(stream), RATE, 0.0), cfg)
        assert wave.coverage.all()
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
            wave = synthesize(tracks[:1], (len(stream), RATE, 0.0), cfg)
            powers[overlap] = cancel(stream, wave).power()
        assert powers["half"] <= powers["none"] + 1e-16

    def test_phase_jump_stays_continuous(self):
        # A deliberate 0.1 rad phase step between adjacent blocks must be
        # smeared across the blend, not appear as a sample jump.
        f = 82000.0
        amp = 1.0
        entries = (est(0, f, amp, 0.0), est(1, f, amp, 0.1))
        cfg = StsaConfig()
        wave = synthesize([track(entries, 0)], (2 * N, RATE, 0.0), cfg)
        jumps = np.abs(np.diff(wave.samples[wave.coverage]))
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
        main = max(tracks, key=lambda t: t.total_energy())
        wave = synthesize([main], (len(noisy), RATE, 0.0), cfg)
        amp_max = main.amp.max()
        ideal_step = 2 * amp_max * np.sin(np.pi * 5000.0 / RATE)
        assert np.abs(np.diff(wave.samples)).max() <= 3 * ideal_step

    def test_gap_wider_than_one_block_zero_filled(self):
        entries = (est(0, 50000.0), est(3, 50000.0))
        cfg = StsaConfig()
        wave = synthesize([track(entries, 0)], (4 * N, RATE, 0.0), cfg)
        # own blocks covered, the two missing blocks zero
        assert wave.coverage[:N].all()
        assert not wave.coverage[N : 3 * N].any()
        assert wave.coverage[3 * N :].all()
        np.testing.assert_array_equal(wave.samples[N : 3 * N], 0.0)

    def test_adjacent_blocks_blend_continuously(self):
        entries = (est(0, 50000.0), est(1, 50080.0))
        wave = synthesize([track(entries, 0)], (2 * N, RATE, 0.0), StsaConfig())
        assert wave.coverage.all()

    def test_leading_and_trailing_edges_unblended(self):
        entries = (est(2, 40000.0, amp=0.5, phase=1.0),)
        cfg = StsaConfig()
        wave = synthesize([track(entries, 0)], (5 * N, RATE, 0.0), cfg)
        assert not wave.coverage[: 2 * N].any()
        assert wave.coverage[2 * N : 3 * N].all()
        assert not wave.coverage[3 * N :].any()
        # every covered sample has the estimate's magnitude (single tone)
        mags = np.abs(wave.samples[wave.coverage])
        np.testing.assert_allclose(mags, 0.5, rtol=1e-12)


class TestCancel:
    def test_zero_waveform_is_identity(self):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 128, RATE)
        zero = SynthesizedWaveform(np.zeros(128, complex), np.zeros(128, bool))
        np.testing.assert_array_equal(cancel(s, zero).samples, s.samples)

    def test_self_cancel_is_zero(self):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 128, RATE)
        wave = SynthesizedWaveform(np.array(s.samples), np.ones(128, bool))
        np.testing.assert_array_equal(cancel(s, wave).samples, np.zeros(128))

    def test_linearity_exact(self):
        # Dyadic values make float addition exact, so the identity
        # cancel(a+b, w) == b + cancel(a, w) holds bitwise.
        rng = np.random.default_rng(0)
        quant = lambda: (rng.integers(-512, 512, 64) + 1j * rng.integers(-512, 512, 64)) / 256.0
        a = SampleStream(quant(), RATE)
        b = SampleStream(quant(), RATE)
        w = SynthesizedWaveform(quant(), np.ones(64, bool))
        lhs = cancel(mix([a, b]), w).samples
        rhs = b.samples + cancel(a, w).samples
        np.testing.assert_array_equal(lhs, rhs)

    def test_length_mismatch_rejected(self):
        s, _ = gen_tone(1.0, 1000.0, 0.0, 128, RATE)
        wave = SynthesizedWaveform(np.zeros(64, complex), np.zeros(64, bool))
        with pytest.raises(ValueError, match="length"):
            cancel(s, wave)


def test_combine_waveforms():
    w1 = SynthesizedWaveform(np.ones(8, complex), np.array([1, 1, 1, 1, 0, 0, 0, 0], bool))
    w2 = SynthesizedWaveform(2j * np.ones(8, complex), np.array([0, 0, 1, 1, 1, 1, 0, 0], bool))
    total = combine_waveforms([w1, w2], 8)
    np.testing.assert_array_equal(total.samples, 1 + 2j)
    assert total.coverage.sum() == 6
    empty = combine_waveforms([], 4)
    np.testing.assert_array_equal(empty.samples, 0)
    assert not empty.coverage.any()


def test_tracks_csv(tmp_path):
    tracks = [track((est(0, 1000.0), est(1, 1000.0)), 0), track((est(5, -2000.0),), 1)]
    path = tmp_path / "tracks.csv"
    write_tracks_csv(tracks, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "signal_id,block_index,t_center_s,peel_rank,amp,freq_hz,phase_rad"
    assert len(lines) == 4
    assert lines[3].startswith("1,5,")


def fstring_tracks_csv(tracks, path):
    """The earlier per-entry f-string writer, kept as the byte-level oracle."""
    with open(path, "w") as fh:
        fh.write("signal_id,block_index,t_center_s,peel_rank,amp,freq_hz,phase_rad\n")
        for trk in tracks:
            for e in table_helpers.entries(trk):
                fh.write(
                    f"{trk.signal_id},{e.block_index},{e.t_center_s:.9f},{e.peel_rank},"
                    f"{e.amp:.9g},{e.freq_hz:.6f},{e.phase_rad:.9f}\n"
                )


@pytest.mark.parametrize("tracks", [
    [track((est(0, 1000.0), est(1, 1000.0, rank=2)), 0), track((est(5, -2000.0),), 1),
     track((), 2), track((est(7, 3.5, amp=0.25),), 11)],
    [],
    [track((est(3, -123456.789, phase=-0.0), est(4, -0.0, phase=-3.141592653589793)), 4)],
    [track(tuple(est(b, 1e5, amp=a) for b, a in
                 enumerate([1e-12, 1.23456789e11, 5e-324, 2.5e-320, 0.0])), 0)],
    [track((est(0, 82000.0, amp=float("inf")),), 0)],
])
def test_tracks_csv_matches_fstring_writer(tmp_path, tracks):
    write_tracks_csv(tracks, tmp_path / "fast.csv")
    fstring_tracks_csv(tracks, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
