"""Print one sha256 per capture and per output file of `stsa cancel` on the benchmark workloads.

Run from the repository root:

    python3 tools/golden_digests.py

Each workload's seed-0 capture is built once, checked and cancelled the way
perfbench/run.py does it, with the stsa in src/.  The digests cover the
capture itself (`<workload> input`), so a generator change shows directly,
and the residual, the estimate, the track CSV and the report.  Running this
at two commits and diffing the printouts is the golden-output check.  The benchmark
builds each capture several times and requires equal bytes; diffing two runs
of this script checks the same across processes.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (first: it fixes the BLAS threads before numpy loads)
import gate  # noqa: E402
import stsa  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            capture = tmp / "input.iq"
            run.build_input(stsa, workload, 0, capture, 1)
            print(name, "input", gate.file_digest([capture]))
            argv = [sys.executable, "-c", run.CLI_ENTRY, *run.cancel_argv(workload, capture, tmp)]
            code = run.run_child(argv, tmp)[1]
            if code != 0:
                sys.exit(f"{name}: stsa cancel exited {code}\n{(tmp / 'child.err').read_text()}")
            for out, path in run.output_paths(tmp).items():
                print(name, out, gate.file_digest([path]))


if __name__ == "__main__":
    main()
