"""The CSV writers that stsa.iq.write_csv replaced.

Each function keeps the earlier body, which opened its file and wrote its
own header and rows (some with f-strings, one numpy scalar at a time), so
tests can require the writers that now go through write_csv to give the
same bytes.  The headers are the library's, whose one copy stays in each
writer's module.
"""

from itertools import count, repeat

from stsa.metrics import REPORT_CSV_HEADER, SPECTRUM_CSV_HEADER
from stsa.siggen import TRUTH_CSV_HEADER
from stsa.synthesis import TRACKS_CSV_HEADER


def write_truth_csv(truth, path) -> None:
    f, a = truth.f_inst_hz.tolist(), truth.amplitude.tolist()
    with open(path, "w") as fh:
        fh.write(TRUTH_CSV_HEADER + "\n")
        fh.writelines(map("%d,%.6f,%.9g\n".__mod__, zip(range(len(f)), f, a)))


def write_tracks_csv(passes, path) -> None:
    ids = count()
    with open(path, "w") as fh:
        fh.write(TRACKS_CSV_HEADER + "\n")
        for est, tracks in passes:
            columns = (est.block_index, est.t_center_s, est.peel_rank, est.amp, est.freq_hz,
                       est.phase_rad)
            for rows, signal_id in zip(tracks, ids):  # tracks first: no id is drawn past the end
                fh.writelines(map("%d,%d,%.9f,%d,%.9g,%.6f,%.9f\n".__mod__,
                                  zip(repeat(signal_id), *(c[rows].tolist() for c in columns))))


def write_report_csv(report, path) -> None:
    with open(path, "w") as fh:
        fh.write(REPORT_CSV_HEADER + "\n")
        fh.write(
            f"{report.band_hz[0]:.6f},{report.band_hz[1]:.6f},"
            f"{report.power_before:.9g},{report.power_after:.9g},"
            f"{report.suppression_db:.6f},{report.out_of_band_delta_db:.6f},\n"
        )


def write_spectrum_csv(frame, path) -> None:
    with open(path, "w") as fh:
        fh.write(SPECTRUM_CSV_HEADER + "\n")
        for f, p in zip(frame.freqs_hz, frame.power):
            fh.write(f"{f:.6f},{p:.9g}\n")


def write_dynamic_spectrum_csv(ds, path) -> None:
    with open(path, "w") as fh:
        fh.write("time_s," + ",".join(f"{f:.3f}" for f in ds.freqs_hz) + "\n")
        for t, row in zip(ds.times_s, ds.power):
            fh.write(f"{t:.6f}," + ",".join(f"{p:.6g}" for p in row) + "\n")
