"""Quick self-check of the benchmark itself (about 30 s).

    python3 perfbench/selfcheck.py

Runs every workload once, untraced and traced, on a capture an eighth of
its normal length, and checks that:
  - every metric BENCHMARK.json names is emitted with its unit, and no other;
  - no run of the current code fails the correctness gate;
  - a deliberately corrupted residual is counted as a failed run;
  - without the stsa sources next to it, run.py exits non-zero and prints
    no result.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
from workloads import WORKLOADS

SHORTEN = 8


def shortened(workload):
    """The workload on a capture SHORTEN times shorter.  The acceptance floors
    hold for the full-length capture only, so the copy has none."""
    return dataclasses.replace(workload, capture_s=workload.capture_s / SHORTEN,
                               acceptance=None)


def expected_metrics(section) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_metrics(label, metrics, section, failures):
    got = {name: unit for name, (_, unit) in metrics.items()}
    want = expected_metrics(section)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        failures.append(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")


def check_workloads(stsa, failures):
    for workload in WORKLOADS.values():
        short = shortened(workload)
        for trace_flag, runner, section in ((0, run.run_trace0, "end_to_end"),
                                            (1, run.run_trace1, "per_layer")):
            label = f"{workload.name} --trace {trace_flag}"
            workdir = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
            try:
                checker, metrics, _ = runner(stsa, short, 1, 0.0, workdir,
                                             workdir / f"input.{short.fmt}")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if checker.failed or not checker.attempted:
                failures.append(f"{label}: {checker.failed} of {checker.attempted} runs failed")
            check_metrics(label, metrics, section, failures)
            print(f"{label}: {checker.attempted} runs, {checker.failed} failed", flush=True)


def check_corruption(stsa, failures):
    workload = shortened(WORKLOADS["fm_ref"])
    workdir = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
    try:
        input_path = workdir / "input.f32"
        run.build_input(stsa, workload, 0, input_path, 1)
        argv = [sys.executable, "-c", run.CLI_ENTRY, *run.cancel_argv(workload, input_path,
                                                                      workdir)]
        code = run.run_child(argv, workdir)[1]
        out = run.output_paths(workdir)
        checker = run.RunChecker(workload, input_path)
        clean_ok = checker.check(code, out)
        residual = np.fromfile(out["residual"], dtype="<f4")
        residual[1000:1010] += 0.25
        residual.tofile(out["residual"])
        corrupt_ok = checker.check(code, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not clean_ok or corrupt_ok or checker.failed != 1:
        failures.append(f"corrupted residual: clean passed {clean_ok}, corrupted passed "
                        f"{corrupt_ok}, failed count {checker.failed}")
    print(f"corrupted residual counted as failed: {not corrupt_ok}", flush=True)


def check_without_sources(failures):
    bare = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "fm_ref",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"without sources: exit {proc.returncode}", flush=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import stsa.cli  # loads every stsa module the runners use

    run.WORK_ROOT.mkdir(exist_ok=True)
    failures = []
    check_workloads(stsa, failures)
    check_corruption(stsa, failures)
    check_without_sources(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
