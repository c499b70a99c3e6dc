"""The columnar estimate table: block views, no per-estimate objects in the
pipeline, and the benchmark tracer's counts over it; and the benchmark's
reference workload against the acceptance capture."""

import importlib
from pathlib import Path

import pytest

import stsa
from stsa import blockproc, run_cancel
from stsa.blockproc import BlockEstimates, SinusoidEstimate
from stsa.synthesis import write_tracks_csv
from scenarios import FM_CONFIG, fm_stream
from table_helpers import estimates_table

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_block_views():
    rows = [SinusoidEstimate(1.0, 5.0, 0.5, 0, 1e-4, 0), SinusoidEstimate(0.5, -7.0, -0.0, 0, 1e-4, 1),
            SinusoidEstimate(2.0, 9.0, 3.0, 2, 5e-4, 0)]
    table = estimates_table(rows, [0.1, 0.2, 0.3])
    assert len(table) == 3
    assert table[0] == BlockEstimates(0, tuple(rows[:2]), 0.1)
    assert table[1] == BlockEstimates(1, (), 0.2)
    assert table[2] == table[-1] == BlockEstimates(2, (rows[2],), 0.3)
    assert table[-3] == table[0]
    assert list(table) == [table[0], table[1], table[2]]
    for i in (3, -4):
        with pytest.raises(IndexError):
            table[i]
    # plain Python numbers, as a per-estimate object held before the table
    block = table[0]
    assert {type(v) for e in block.estimates for v in vars(e).values()} == {float, int}
    assert {type(block.block_index), type(block.noise_floor)} == {int, float}


def test_pipeline_builds_no_per_estimate_objects(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-estimate object was built")

    monkeypatch.setattr(blockproc, "SinusoidEstimate", refuse)
    monkeypatch.setattr(blockproc, "BlockEstimates", refuse)
    result = run_cancel(fm_stream(1.0), FM_CONFIG)
    table, tracks = result.passes[0]
    write_tracks_csv([(table, tracks)], tmp_path / "tracks.csv")
    assert (len(table), table.freq_hz.size, len(tracks)) == (8000, 15478, 43)
    with pytest.raises(AssertionError, match="per-estimate"):
        table[0]  # the stubs were in place


def test_benchmark_tracer_counts_the_table(monkeypatch):
    """perfbench/spans.py wraps the pipeline by attribute name and counts what passes."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    originals = (blockproc.process_stream, stsa.synthesis.assemble_tracks)
    tracer = spans.Tracer()
    spans.patch_pipeline(tracer, stsa)
    try:
        result = run_cancel(fm_stream(0.1), FM_CONFIG)
    finally:
        tracer.restore()
    assert (blockproc.process_stream, stsa.synthesis.assemble_tracks) == originals
    metrics = spans.pipeline_metrics(tracer, tracer.run_id)
    table, tracks = result.passes[0]
    assert table.freq_hz.size > len(table) > 0
    assert metrics["blockproc.blocks"][0] == len(table)
    assert metrics["blockproc.estimates"][0] == table.freq_hz.size
    assert metrics["synthesis.tracks"][0] == len(tracks)
    assert metrics["synthesis.tracks_long"][0] == sum(len(t) > len(table) // 2 for t in tracks)


def test_benchmark_fm_ref_is_the_acceptance_capture(monkeypatch):
    """perfbench/workloads.py's fm_ref at seed 0, on which the golden digests rest."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    built = workloads.WORKLOADS["fm_ref"].build(stsa.siggen, 0)
    assert built.sample_rate_hz == fm_stream(1.0).sample_rate_hz
    assert built.samples.tobytes() == fm_stream(1.0).samples.tobytes()
