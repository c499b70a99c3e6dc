"""Nearest-first track assembly against the all-pairs loop it replaced.

all_pairs_assemble is the earlier assembler: each estimate is compared with
every track opened so far, and the smallest distance under the jump limit
wins, the lowest track index on a tie.  assemble_tracks walks the open tracks
outward from the estimate's frequency instead, and must give the same tracks.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stsa.blockproc import SinusoidEstimate, StsaConfig, process_stream
from stsa.synthesis import assemble_tracks
from scenarios import FM_CONFIG, RATE, STATIONS_CONFIG, fm_stream, three_station_stream
from table_helpers import estimates_table


def all_pairs_assemble(estimates, config, sample_rate_hz):
    bin_width = config.bin_width_hz(sample_rate_hz)
    members, ends = [], []  # per track: its rows, and the frequency and block it ends at
    current, taken = None, set()
    for row, (block, freq) in enumerate(zip(estimates.block_index.tolist(),
                                            estimates.freq_hz.tolist())):
        if block != current:
            current, taken = block, set()
        best = None
        best_dist = None
        for ti, (track_freq, track_block) in enumerate(ends):
            if ti in taken:
                continue
            limit = config.jump_limit_bins * bin_width * (block - track_block)
            dist = abs(freq - track_freq)
            if dist < limit and (best_dist is None or dist < best_dist):
                best, best_dist = ti, dist
        if best is None:
            best = len(members)
            members.append([])
            ends.append(None)
        members[best].append(row)
        ends[best] = freq, block
        taken.add(best)
    return members


def assert_same_tracks(got, want):
    assert all(rows.dtype == np.intp for rows in got)
    assert [rows.tolist() for rows in got] == want


@pytest.fixture(scope="module")
def fm_estimates():
    return process_stream(fm_stream(1.0), FM_CONFIG)


@pytest.mark.parametrize("jump_limit_bins,n_tracks", [(0.5, 43), (0.1, 97), (0.02, 205)])
def test_fm_scenario_matches_all_pairs(fm_estimates, jump_limit_bins, n_tracks):
    config = dataclasses.replace(FM_CONFIG, jump_limit_bins=jump_limit_bins)
    got = assemble_tracks(fm_estimates, config, RATE)
    assert len(got) == n_tracks
    assert_same_tracks(got, all_pairs_assemble(fm_estimates, config, RATE))


@pytest.fixture(scope="module")
def station_estimates():
    return process_stream(three_station_stream(), STATIONS_CONFIG)


@pytest.mark.parametrize("jump_limit_bins,n_tracks", [(0.5, 6), (0.1, 22)])
def test_three_station_mixture_matches_all_pairs(station_estimates, jump_limit_bins, n_tracks):
    # three to five peels per block, so the walk passes tracks already extended in the block
    config = dataclasses.replace(STATIONS_CONFIG, jump_limit_bins=jump_limit_bins)
    got = assemble_tracks(station_estimates, config, RATE)
    assert len(got) == n_tracks
    assert_same_tracks(got, all_pairs_assemble(station_estimates, config, RATE))


@st.composite
def small_tables(draw):
    """Several estimates per block on a coarse frequency grid, so frequencies repeat,
    open tracks sit at equal distances on both sides, and blocks are skipped."""
    base = draw(st.sampled_from([0.0, 100000.3, -7.7e5]))
    step = draw(st.sampled_from([1000.0, 2500.0, 0.1]))
    rows = []
    for block in range(draw(st.integers(1, 10))):
        for rank in range(draw(st.integers(0, 4))):
            freq = base + step * draw(st.integers(-6, 6))
            rows.append(SinusoidEstimate(1.0, freq, 0.0, block, 0.0, rank))
    return estimates_table(rows), draw(st.sampled_from([0.02, 0.1, 0.25, 0.5, 1.0, 3.0]))


@settings(max_examples=400)
@given(small_tables())
def test_small_tables_match_all_pairs(case):
    table, jump_limit_bins = case
    config = StsaConfig(jump_limit_bins=jump_limit_bins)  # 8 kHz bins at RATE
    assert_same_tracks(assemble_tracks(table, config, RATE),
                       all_pairs_assemble(table, config, RATE))


@settings(max_examples=400)
@given(small_tables())
def test_tracks_partition_the_table_rows(case):
    """Each row is in exactly one track, blocks strictly increase along a track,
    and the tracks are listed in the order their first rows appear."""
    table, jump_limit_bins = case
    tracks = assemble_tracks(table, StsaConfig(jump_limit_bins=jump_limit_bins), RATE)
    rows = np.concatenate([np.zeros(0, np.intp), *tracks])
    assert np.sort(rows).tolist() == list(range(table.freq_hz.size))
    assert all(np.all(np.diff(table.block_index[t]) > 0) for t in tracks)
    assert all(np.diff([t[0] for t in tracks]) > 0)


def test_tie_goes_to_the_track_opened_first():
    # tracks 0 and 1 end 1 kHz above and below the block-2 estimate; track 0 wins
    rows = [SinusoidEstimate(1.0, f, 0.0, b, 0.0, r)
            for b, r, f in [(0, 0, 11000.0), (0, 1, 9000.0), (2, 0, 10000.0)]]
    table = estimates_table(rows)
    tracks = assemble_tracks(table, StsaConfig(), RATE)
    assert [table.freq_hz[t].tolist() for t in tracks] == [[11000.0, 10000.0], [9000.0]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_frequency_rejected(bad):
    rows = [SinusoidEstimate(1.0, 0.0, 0.0, 0, 0.0, 0), SinusoidEstimate(1.0, bad, 0.0, 1, 0.0, 0)]
    with pytest.raises(ValueError, match="frequencies must be finite"):
        assemble_tracks(estimates_table(rows), StsaConfig(), RATE)


def test_blocks_out_of_order_rejected():
    rows = [SinusoidEstimate(1.0, 0.0, 0.0, b, 0.0, 0) for b in (0, 2, 1)]
    with pytest.raises(ValueError, match="blocks must be supplied in increasing index order"):
        assemble_tracks(estimates_table(rows), StsaConfig(), RATE)
