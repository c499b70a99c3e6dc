"""Benchmark of `stsa cancel`: speed, peak memory and cancellation quality.

Run from the repository root:

    python3 perfbench/run.py --workload fm_ref --seed 0 --seconds 55 --trace 0

Each run first builds the workload's input capture on disk with stsa.siggen
and stsa.iq.write_iq, several times, timing each build (setup_s).

--trace 0 then runs the real `stsa cancel` CLI in a child process, one run
after another (a closed loop with one client), for --seconds seconds.  Each
child's wall time and peak RSS (os.wait4) are taken and each run's outputs
pass the correctness gate in gate.py.

--trace 1 instead drives stsa.cli.main() in-process with the same
arguments, alternating untraced and traced calls; the traced calls record
spans around the public functions of each layer (spans.py) and give the
per-layer self times and counts.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is a record of the
environment, the exact per-workload counts and the timing samples.
"""

from __future__ import annotations

import os

# Fix the BLAS thread pool before numpy loads, here and in every child.  One
# thread: the pipeline's matrix products (201 x N matvecs) are too small to
# gain from more; on a 2-core machine a second OpenBLAS thread spin-waited,
# nearly doubling the child's CPU time without lowering its wall time.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import gate
import spans
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"

SETUP_REPS = 3
MIN_RUNS = 3
IMPORT_REPS = 3
CHILD_TIMEOUT_S = 150.0
# What the installed `stsa` console script (stsa.cli:entry) executes.
CLI_ENTRY = "from stsa.cli import entry; entry()"
IMPORT_ONLY = "import stsa.cli"
OUTPUTS = {"residual": "--out-residual", "estimate": "--out-estimate",
           "tracks": "--out-tracks", "report": "--report"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, cwd) -> tuple[float, int, float, float]:
    """Run argv to completion; return (wall s, exit code, peak RSS MiB, CPU s).

    The RSS comes from os.wait4 on this child alone; RUSAGE_CHILDREN would
    keep the high-water mark of the largest earlier child.
    """
    with open(cwd / "child.out", "wb") as out, open(cwd / "child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def output_paths(outdir) -> dict:
    return {key: outdir / f"{key}.{'csv' if key in ('tracks', 'report') else 'iq'}"
            for key in OUTPUTS}


def cancel_argv(workload, input_path, outdir) -> list:
    argv = ["cancel", "--in", str(input_path), *workload.cancel_args]
    for key, path in output_paths(outdir).items():
        argv += [OUTPUTS[key], str(path)]
    return argv


def build_input(stsa, workload, seed, path, reps, tracer=None) -> tuple[list, list]:
    """Build the capture `reps` times; return the build times and siggen times."""
    fmt = stsa.iq.IqFormat(workload.fmt)
    times, siggen_times, digests = [], [], set()
    for rep in range(reps):
        if tracer is not None:
            tracer.run_id = f"setup{rep}"
        start = time.perf_counter()
        stream = workload.build(stsa.siggen, seed)
        stsa.iq.write_iq(stream, path, fmt)
        times.append(time.perf_counter() - start)
        if tracer is not None:
            siggen_times.append(spans.top_level_seconds(tracer, tracer.run_id))
        digests.add(gate.file_digest([path]))
    if len(digests) != 1:
        raise RuntimeError("set-up is not deterministic: builds differ")
    if fmt is stsa.iq.IqFormat.INT8 and max(abs(stream.samples.real).max(),
                                            abs(stream.samples.imag).max()) > 127 / 128:
        raise RuntimeError("int8 capture would clip")
    return times, siggen_times


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(np) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no git history to ask
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": NPROC,
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def tail_percentile(samples) -> dict | None:
    """Highest percentile with at least ten samples above it, once that
    percentile is a tail (at or above the median, so 20 samples or more)."""
    n = len(samples)
    if n < 20:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


class RunChecker:
    """Counts attempted and failed runs; every passing run must match the first."""

    def __init__(self, workload, input_path):
        self.workload = workload
        self.input_path = input_path
        self.attempted = 0
        self.failed = 0
        self.first_digest = None
        self.found = {}

    def check(self, returncode, out, expect=None) -> bool:
        self.attempted += 1
        try:
            problems, found = gate.check_run(self.workload, returncode, self.input_path, out)
        except (OSError, ValueError) as exc:
            problems, found = [f"unreadable output: {exc}"], {}
        if expect:
            problems += [f"{key}: outputs show {found.get(key)}, pipeline counted {value}"
                         for key, value in expect.items() if found.get(key) != value]
        if not problems:
            digest = gate.file_digest(out[key] for key in OUTPUTS)
            if self.first_digest is None:
                self.first_digest, self.found = digest, found
            elif digest != self.first_digest:
                problems.append("outputs differ from the first run on the same input")
        if problems:
            self.failed += 1
            print(f"run {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        return not problems


def measure_cli(workload, input_path, workdir, seconds, checker) -> dict:
    """Closed loop of `stsa cancel` child processes for `seconds` seconds."""
    argv = [sys.executable, "-c", CLI_ENTRY, *cancel_argv(workload, input_path, workdir)]
    # warm the file cache and bytecode once; users do not pay that per run
    run_child([sys.executable, "-c", IMPORT_ONLY], workdir)
    walls, rss, cpu = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        wall, code, peak, cpu_s = run_child(argv, workdir)
        if not checker.check(code, output_paths(workdir)) and code:
            sys.stderr.write((workdir / "child.err").read_text()[-2000:])
        walls.append(wall)
        rss.append(peak)
        cpu.append(cpu_s)
        step = time.perf_counter() - started
        if len(walls) >= MIN_RUNS and time.perf_counter() + step > deadline:
            return {"walls": walls, "rss": rss, "cpu": cpu}


def run_trace0(stsa, workload, seed, seconds, workdir, input_path):
    setup, _ = build_input(stsa, workload, seed, input_path, SETUP_REPS)
    checker = RunChecker(workload, input_path)
    samples = measure_cli(workload, input_path, workdir, seconds, checker)
    wall = statistics.median(samples["walls"])
    metrics = {
        "cancel_wall_s": (wall, "s"),
        "realtime_factor": (workload.capture_s / wall, "x"),
        "peak_rss_mb": (statistics.median(samples["rss"]), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
        "suppression_db": (checker.found.get("suppression_db", float("nan")), "dB"),
        "oob_delta_db": (abs(checker.found.get("out_of_band_delta_db", float("nan"))), "dB"),
    }
    record = {
        "counts": {k: v for k, v in checker.found.items()
                   if k not in ("suppression_db", "out_of_band_delta_db")},
        "cancel_wall_s": {"median": wall, "runs": len(samples["walls"]),
                          "tail": tail_percentile(samples["walls"]),
                          "samples": samples["walls"]},
        "peak_rss_mb": samples["rss"],
        "cancel_cpu_s": samples["cpu"],
        "setup_s": setup,
    }
    return checker, metrics, record


def call_main(stsa, argv) -> tuple[float, int]:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        try:
            code = stsa.cli.main(argv)
        except Exception as exc:  # a crash is a failed run, not a failed benchmark
            print(f"main() raised {exc!r}", file=sys.stderr)
            code = -1
        return time.perf_counter() - start, code


def run_trace1(stsa, workload, seed, seconds, workdir, input_path):
    tracer = spans.Tracer()
    spans.patch_siggen(tracer, stsa.siggen)
    try:
        setup, siggen_times = build_input(stsa, workload, seed, input_path, SETUP_REPS, tracer)
    finally:
        tracer.restore()
    imports = [run_child([sys.executable, "-c", IMPORT_ONLY], workdir)[0]
               for _ in range(IMPORT_REPS + 1)][1:]
    checker = RunChecker(workload, input_path)
    argv = cancel_argv(workload, input_path, workdir)
    out = output_paths(workdir)
    per_run, untraced, traced = [], [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    while True:
        started = time.perf_counter()
        for traced_call in ((False, True) if rep % 2 == 0 else (True, False)):
            if traced_call:
                tracer.run_id = f"main{rep}"
                spans.patch_pipeline(tracer, stsa)
                try:
                    wall, code = call_main(stsa, argv)
                finally:
                    tracer.restore()
                layer = spans.pipeline_metrics(tracer, tracer.run_id)
                layer["cli.self_s"] = (wall - spans.top_level_seconds(tracer, tracer.run_id),
                                       "s")
                per_run.append(layer)
                traced.append(wall)
                expect = {key: layer[f"{prefix}.{key}"][0] for prefix, key in (
                    ("blockproc", "blocks"), ("blockproc", "estimates"),
                    ("synthesis", "tracks"), ("synthesis", "tracks_long"))}
                checker.check(code, out, expect)
            else:
                wall, code = call_main(stsa, argv)
                untraced.append(wall)
                checker.check(code, out)
        rep += 1
        step = time.perf_counter() - started
        if time.perf_counter() + step > deadline:
            break
    tracer.write_spans(WORK_ROOT / f"spans_{workload.name}_seed{seed}.csv")
    metrics = spans.median_metrics(per_run)
    metrics.update({
        "siggen.generate_s": (statistics.median(siggen_times), "s"),
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.main_s": (statistics.median(untraced), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    })
    record = {"counts": {k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")},
              "main_untraced_s": untraced, "main_traced_s": traced, "setup_s": setup}
    return checker, metrics, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (non-negative; 0 is the reference scenario)")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: in-process traced run giving per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stsa" / "cli.py").is_file():
        print(f"error: no stsa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import stsa.cli  # loads every stsa module the runners use

    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        input_path = workdir / f"input.{workload.fmt}"
        run = run_trace1 if args.trace else run_trace0
        checker, metrics, record = run(stsa, workload, args.seed, args.seconds, workdir,
                                       input_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                   "environment": environment(np)})
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        # a metric no passing run produced is null, not NaN (not JSON)
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
