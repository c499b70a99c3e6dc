"""Print one sha256 per capture and per output table of the benchmark workloads.

Run from the repository root:

    python3 tools/golden_digests.py

Each workload's seed-0 capture is built once, checked and cancelled the way
perfbench/run.py does it, with the stsa in src/.  The digests cover the
capture itself (`<workload> input`), so a generator change shows directly,
and the residual, the estimate, the track CSV and the report of `stsa cancel`.
fm_ref's capture is also measured by `stsa analyze spectrum` and `stsa analyze
waterfall` at their defaults, and `stsa generate nbfm` writes a 0.1 s capture
and its truth sidecar (`generate_nbfm iq`, `generate_nbfm truth`), so every
kind of table stsa writes has a digest.  Running this at two commits and
diffing the printouts is the golden-output check.  The benchmark builds each
capture several times and requires equal bytes; diffing two runs of this
script checks the same across processes.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (first: it fixes the BLAS threads before numpy loads)
import gate  # noqa: E402
import stsa  # noqa: E402
from workloads import RATE_HZ, WORKLOADS  # noqa: E402


# `stsa generate` arguments of the sidecar check: fm_ref's modulation settings and SNR, 0.1 s
NBFM_ARGV = ["generate", "nbfm", "--rate", repr(RATE_HZ), "--dur", "0.1", "--mod-noise-bw",
             "1000", "--mod-noise-rms", "0.9", "--seed", "7", "--snr", "34"]


def stsa_cli(argv, tmp: Path, label: str) -> None:
    """Run `stsa argv` in a child process, as the benchmark does; exit if it fails."""
    code = run.run_child([sys.executable, "-c", run.CLI_ENTRY, *map(str, argv)], tmp)[1]
    if code != 0:
        sys.exit(f"{label}: stsa {argv[0]} exited {code}\n{(tmp / 'child.err').read_text()}")


def main() -> None:
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            capture = tmp / "input.iq"
            run.build_input(stsa, workload, 0, capture, 1)
            print(name, "input", gate.file_digest([capture]))
            stsa_cli(run.cancel_argv(workload, capture, tmp), tmp, name)
            for out, path in run.output_paths(tmp).items():
                print(name, out, gate.file_digest([path]))
            for mode in ("spectrum", "waterfall") if name == "fm_ref" else ():
                stsa_cli(["analyze", mode, "--in", capture, "--rate", repr(RATE_HZ),
                          "--format", workload.fmt, "--out", tmp / f"{mode}.csv"], tmp, name)
                print(name, mode, gate.file_digest([tmp / f"{mode}.csv"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        stsa_cli([*NBFM_ARGV, "--out", tmp / "nbfm.iq", "--truth", tmp / "truth.csv"], tmp,
                 "generate_nbfm")
        print("generate_nbfm iq", gate.file_digest([tmp / "nbfm.iq"]))
        print("generate_nbfm truth", gate.file_digest([tmp / "truth.csv"]))


if __name__ == "__main__":
    main()
