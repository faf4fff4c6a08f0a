"""The pbesynth benchmark command.

    python3 perfbench/run.py --workload enum_micro --seed 1 --seconds 12
    python3 perfbench/run.py --workload beam_learned --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Each workload runs in its own fresh process (perfbench/worker.py), one
after another, single-threaded.  The command prints the environment, every
metric by name and unit, the checks and a trajectory digest per workload,
and as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from a traced run.  With --workload all the
metric names are prefixed by the workload.  It exits non-zero, without the
JSON line, when a workload cannot run, and with "correct": false and exit
code 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS
from workloads import END_TO_END, FAILED_FRAC, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER_TIMEOUT_S = 175
# setup_s is the median of at least SETUP_MIN setups, each in a fresh
# process; cheap setups are repeated while they fit in SETUP_BUDGET_S.
SETUP_MIN = 3
SETUP_MAX = 15
SETUP_BUDGET_S = 1.0


def environment():
    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"commit {commit}")


def run_worker(name, args, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{name}: no result within {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{name}: worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, args):
    """Untraced: time setup in fresh processes, then the measuring worker,
    whose own setup is one more sample.  Traced: the worker alone."""
    if args.trace:
        return run_worker(name, args)
    setups = []
    start = time.monotonic()
    while len(setups) < SETUP_MIN - 1 or (
            len(setups) < SETUP_MAX - 1
            and time.monotonic() - start < SETUP_BUDGET_S):
        setups.append(run_worker(name, args, "--setup-only")["setup_s"])
    res = run_worker(name, args)
    setups.append(res["metrics"]["setup_s"])
    res["metrics"]["setup_s"] = statistics.median(setups)
    res["metrics"][FAILED_FRAC.name] = res["failed"] / res["attempted"]
    res["notes"]["setup_s"] = f"median of {len(setups)} fresh processes"
    return res


def report(res, metrics):
    print(f"workload {res['workload']}: attempted {res['attempted']}, "
          f"failed {res['failed']}, solved {res['solved']}, "
          f"trajectory digest {res['digest']}")
    for m in metrics:
        note = res["notes"].get(m.name, "")
        print(f"  {m.name:40s} {res['metrics'][m.name]:>14.6g} {m.unit:6s}"
              f" {m.better} is better" + (f"; {note}" if note else ""))
    for name, share in res["notes"].get("self_time_shares", []):
        print(f"  self-time share {name:35s} {100 * share:6.2f}%")
    print("  checks: " + ("ok" if res["correct"] else "FAILED"))
    for p in res["problems"]:
        print("    " + p.replace("\n", "\n    "))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small budgets, for the self-test")
    args = ap.parse_args(argv)
    if args.trace:
        shown = list(LAYER_METRICS)
    else:
        shown = list(END_TO_END) + [FAILED_FRAC]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"perfbench: {environment()}")
    print(f"seed {args.seed}, {args.seconds:g} s per workload, "
          f"{'traced' if args.trace else 'untraced'}")
    results = []
    for name in names:
        res = run_workload(name, args)
        report(res, shown)
        results.append(res)
    reported = LAYER_METRICS if args.trace else END_TO_END
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for m in reported:
            metrics[prefix + m.name] = {"value": res["metrics"][m.name],
                                        "unit": m.unit}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
