"""Peak RSS of the capture build and of `stsa cancel` children, two source trees side by side.

Run from the repository root, with the src/ directories of the two commits:

    python3 tools/child_rss.py PARENT_SRC CHANGE_SRC WORKLOAD

One helper process per tree builds the workload's seed-0 capture through
perfbench/run.py, as the benchmark does before it times `stsa cancel`, and
records its own VmHWM, the build's peak: exec gave it a new address space.
The tool prints each tree's build peak and exits if the two captures differ.
This launcher imports no numpy and forks each child, so a child's ru_maxrss
(os.wait4) is its own peak and not the launcher's: a /bin/true child must
read under 10 MiB first.  It then runs 10 pairs of `stsa cancel` children on
the parent's capture, alternating which tree goes first, and prints each
side's median and quartiles of wall time and peak RSS, the pairs the change
won, and whether the two trees wrote the same bytes.
"""

import os
import sys

if __name__ == "__main__" and not sys.flags.no_site:
    # without the site module the launcher, and so a /bin/true child, is ~3 MiB smaller
    os.execv(sys.executable, [sys.executable, "-S", "-I", *sys.argv])

import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
PAIRS = 10
FLOOR_MIB = 10.0
BUILD = """
import json, sys
from pathlib import Path
tree, perfbench, name, workdir, built = sys.argv[1:]
sys.path[:0] = [tree, perfbench]
import run  # first: it fixes the BLAS threads before numpy loads
import stsa
from workloads import WORKLOADS
workload, work = WORKLOADS[name], Path(workdir)
capture = work / f"input_{built}.{workload.fmt}"
run.build_input(stsa, workload, 0, capture, 1)
argv = {side: [sys.executable, "-c", run.CLI_ENTRY, *run.cancel_argv(workload, capture, work / side)]
        for side in ("parent", "change")}
with open("/proc/self/status") as fh:
    vmhwm_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
plan = {"argv": argv, "env": run.child_env(), "capture": str(capture), "build_mib": vmhwm_kib / 1024}
(work / f"plan_{built}.json").write_text(json.dumps(plan))
"""


def run_child(argv, env, log) -> tuple[float, float]:
    """Fork and exec argv; return (wall s, peak RSS MiB), or exit if it fails."""
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            os.execve(argv[0], argv, env)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        with open(log) as fh:
            sys.exit(f"{argv[:4]} exited {os.waitstatus_to_exitcode(status)}:\n{fh.read()}")
    return wall, usage.ru_maxrss / 1024.0


def same_bytes(a, b) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x, y = fa.read(1 << 20), fb.read(1 << 20)
            if x != y or not x:
                return x == y


def summary(values) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:8.3f} [{q1:.3f}-{q3:.3f}]"


def main(parent_src, change_src, workload) -> None:
    trees = {"parent": os.path.abspath(parent_src), "change": os.path.abspath(change_src)}
    work = tempfile.mkdtemp(prefix="child_rss-")
    try:
        log = os.path.join(work, "child.log")
        floor = run_child(["/bin/true"], {}, log)[1]
        print(f"/bin/true child: {floor:.1f} MiB")
        if floor >= FLOOR_MIB:
            sys.exit(f"the launcher's own RSS leaks into its children ({floor:.1f} MiB)")
        plans = {}
        for side, tree in trees.items():
            run_child([sys.executable, "-c", BUILD, tree, PERFBENCH, workload, work, side],
                      dict(os.environ), log)
            with open(os.path.join(work, f"plan_{side}.json")) as fh:
                plans[side] = json.load(fh)
            print(f"{workload} {side:6s} build VmHWM MiB {plans[side]['build_mib']:8.1f}")
        if not same_bytes(*(plans[side]["capture"] for side in trees)):
            sys.exit(f"{workload}: the two trees built different captures")
        os.remove(plans["change"]["capture"])
        plan = plans["parent"]
        envs = {side: {**plan["env"], "PYTHONPATH": tree} for side, tree in trees.items()}
        for side in trees:
            os.mkdir(os.path.join(work, side))
            run_child(plan["argv"][side], envs[side], log)  # warm the file cache and bytecode
        runs = {side: [] for side in trees}
        for pair in range(PAIRS):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                runs[side].append(run_child(plan["argv"][side], envs[side], log))
        for k, what in enumerate(("wall s", "peak RSS MiB")):
            for side in trees:
                print(f"{workload} {side:6s} {what:13s} {summary([r[k] for r in runs[side]])}")
            won = sum(c[k] < p[k] for p, c in zip(runs["parent"], runs["change"]))
            print(f"{workload} change won {won} of {PAIRS} pairs on {what}")
        outputs = sorted(os.listdir(os.path.join(work, "parent")))
        same = all(same_bytes(*(os.path.join(work, side, name) for side in trees))
                   for name in outputs)
        print(f"{workload} outputs {'identical' if same else 'DIFFER'}: {', '.join(outputs)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(*sys.argv[1:])
