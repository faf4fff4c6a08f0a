"""One workload in a fresh process: set up, measure, check, report.

run.py starts this file once per workload.  It loads the program from the
checkout's ``src/`` and prints one JSON object on its last line of
standard output.  Untraced, it sets up and then searches the workload's
tasks (or runs its loop) in passes, each in a new seeded order, until
``--seconds`` have passed and at least MIN_PASSES passes ran, timing the
reference computation before every search.  With ``--setup-only`` it
only sets up, so that run.py can time setup in several fresh processes.
Traced, it runs setup and one pass of the work untraced, then the same
again with spans on every layer.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

from reference import REFERENCE_S, time_reference
from tracing import Tracer, patch, unpatch
from workloads import LOOP_ITERATIONS, TINY, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "pbesynth", "data")
OUT = os.path.join(ROOT, "perfbench", "out")
# Every task is searched, and every loop run, at least twice, a pass
# apart.  wall_s sums each task's fastest search: a one-off pause (a
# garbage collection, a burst of load from another tenant) slows one
# search, never both.
MIN_PASSES = 2
MODULES = ("lang", "dsl", "task", "sampling", "synthesis", "guidance",
           "librarian", "harness")


def load_program():
    """Import the program from this checkout; returns (modules, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    pb = SimpleNamespace(**{m: importlib.import_module(f"pbesynth.{m}")
                            for m in MODULES})
    seconds = time.perf_counter() - t0
    where = os.path.abspath(pb.lang.__file__)
    if not where.startswith(SRC + os.sep):
        raise SystemExit(f"pbesynth was loaded from {where}, not from {SRC}")
    return pb, seconds


def setup(pb, wl):
    """Parse tasks and library; train the scorer for guided workloads."""
    tasks = pb.task.load_tasks(os.path.join(DATA, wl.task_file))
    if wl.task_names:
        by_name = {t.name: t for t in tasks}
        tasks = [by_name[n] for n in wl.task_names]
    if wl.library_file:
        lib = pb.dsl.load_library(os.path.join(DATA, wl.library_file))
    else:
        lib = pb.dsl.default_list_dsl()
    scorer = pb.synthesis.UniformScorer()
    if wl.scorer_traces:
        traces = pb.guidance.generate_traces(
            lib, pb.guidance.TraceGenConfig(**wl.scorer_traces))
        scorer = pb.guidance.train_scorer(traces, seed=0)
    return tasks, lib, scorer


class Recorder:
    """Per-search timings and outcomes, plus everything the checks need.

    Keys are task names, or (iteration, task name) inside the loop.  A key
    searched again must give the same outcome: the work is fixed.  With
    ``calibrate``, the reference computation is timed before each search,
    and the timings are scaled to the reference host speed."""

    def __init__(self, pb, calibrate=False):
        # the originals, so checks never show up in a trace
        self.verify_solution = pb.harness.verify_solution
        self.format_term = pb.lang.format_term
        self.seconds: dict = {}
        self.outcome: dict = {}
        self.solutions: list = []  # (key, task, program, lib)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.timed_out_episodes = 0
        self.calibrate = calibrate
        self.reference: list = []

    def time_reference(self):
        """Time the reference computation now; returns its seconds."""
        if not self.calibrate:
            return 0.0
        self.reference.append(time_reference())
        return self.reference[-1]

    def host_factor(self):
        """Reference seconds over the run's median reference time: a
        timing times this factor reads as at the reference host speed."""
        if not self.reference:
            return 1.0
        return REFERENCE_S / statistics.median(self.reference)

    def add(self, key, task, lib, result, seconds):
        self.attempted += 1
        self.seconds.setdefault(key, []).append(seconds)
        got = (result.solved,
               self.format_term(result.program) if result.solved else None,
               result.candidates_evaluated)
        first = self.outcome.setdefault(key, got)
        if got != first:
            self.problems.append(f"{key}: searched again, got {got} "
                                 f"instead of {first}")
        if result.solved:
            self.solutions.append((key, task, result.program, lib))

    def fail(self, what):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what} raised:\n{traceback.format_exc()}")

    def check(self, reference_solved):
        """Re-check each solution on the task's own examples with the plain
        evaluator; hold the solve count to the workload's reference."""
        for key, task, program, lib in self.solutions:
            if not self.verify_solution(task, program, lib):
                self.failed += 1
                self.problems.append(
                    f"{key}: {self.format_term(program)} fails the task's "
                    "examples")
        if self.timed_out_episodes:
            self.problems.append(f"{self.timed_out_episodes} trace-generation"
                                 " episodes hit their timeout")
        if self.solved() < reference_solved:
            self.problems.append(f"solved {self.solved()}, reference is "
                                 f"{reference_solved}")
        return not self.problems and not self.failed

    def solved(self):
        return sum(1 for ok, _p, _c in self.outcome.values() if ok)

    def digest(self):
        """Hash of the search trajectory: (task, program, candidates)."""
        lines = sorted(f"{k}\t{p}\t{c}" for k, (_ok, p, c)
                       in self.outcome.items())
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def count_timeouts(pb, rec, patches):
    """Count trace-generation episodes that stopped on their timeout."""
    def make(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            rec.timed_out_episodes += out.timed_out
            return out
        return wrapper
    patch(patches, pb.guidance, "exhaustive_search", make)


def passes(tasks, rng, count, seconds):
    """Task orders, one per pass, until ``count`` passes ran and
    ``seconds`` have passed."""
    start = time.perf_counter()
    done = 0
    while done < count or time.perf_counter() - start < seconds:
        order = list(tasks)
        rng.shuffle(order)
        yield order
        done += 1


def run_searches(pb, wl, lib, scorer, rec, orders):
    """Search the tasks in each given order; each search is timed alone."""
    cfg = pb.synthesis.SearchConfig(**wl.search)
    for task in (t for order in orders for t in order):
        rec.time_reference()
        try:
            a = time.perf_counter()
            result = pb.synthesis.search(task, lib, scorer, cfg)
            b = time.perf_counter()
        except Exception:
            rec.fail(f"search of {task.name}")
            continue
        rec.add(task.name, task, lib, result, b - a)


def run_loops(pb, wl, lib, rec, orders):
    """Run the wake-sleep loop once per given task order, each time in a
    fresh empty directory; returns the wall time of each loop."""
    cfg = pb.harness.RunConfig(
        iterations=LOOP_ITERATIONS,
        search=pb.synthesis.SearchConfig(**wl.search),
        tracegen=pb.guidance.TraceGenConfig(**wl.loop_traces),
        mining=pb.librarian.MineConfig(), workers=1, random_seed=0,
        train_steps=wl.train_steps)
    os.makedirs(OUT, exist_ok=True)
    walls = []
    for tasks in orders:
        calls = [0]
        reference_s = [0.0]
        patches = []

        def timed(fn):
            def search(task, lib_, scorer, scfg):
                it = calls[0] // len(tasks)
                calls[0] += 1
                reference_s[0] += rec.time_reference()
                a = time.perf_counter()
                result = fn(task, lib_, scorer, scfg)
                rec.add((it, task.name), task, lib_, result,
                        time.perf_counter() - a)
                return result
            return search

        patch(patches, pb.harness, "search", timed)
        out = tempfile.mkdtemp(prefix="loop-", dir=OUT)
        try:
            a = time.perf_counter()
            loop = pb.harness.wake_sleep_loop(tasks, lib, out, cfg)
            walls.append(time.perf_counter() - a - reference_s[0])
            check_loop(rec, loop, out, calls[0], len(tasks))
        except Exception:
            rec.fail("wake-sleep loop")
            walls.append(time.perf_counter() - a - reference_s[0])
        finally:
            unpatch(patches)
            shutil.rmtree(out, ignore_errors=True)
    return walls


def check_loop(rec, loop, out, searches, n_tasks):
    """Both iterations ran here, from scratch, instead of resuming."""
    n = LOOP_ITERATIONS
    done = [os.path.exists(os.path.join(out, f"iter_{i:03d}", "report.json"))
            for i in range(n)]
    if loop.iterations_run != n or not all(done) or searches != n * n_tasks:
        rec.problems.append(
            f"loop ran {loop.iterations_run} iterations with {searches} "
            f"searches; expected {n} with {n * n_tasks} in a fresh "
            "directory")


def tail(values):
    """The value with 10 samples beyond it, and its percentile."""
    vals = sorted(values)
    n = len(vals)
    if n <= 10:
        return vals[-1], f"max of {n} (fewer than 11 samples)"
    return vals[n - 11], (f"p{100 * (n - 10) / n:.1f}: {n - 10}th of {n} "
                          "searches, 10 beyond")


def end_to_end(rec, wall_s, setup_s):
    """The untraced metrics; timings of the work are scaled by the host
    factor, setup is not."""
    factor = rec.host_factor()
    fastest = sum(min(v) for v in rec.seconds.values())
    candidates = sum(c for _ok, _p, c in rec.outcome.values())
    latency = [factor * s for v in rec.seconds.values() for s in v]
    tail_s, tail_note = tail(latency)
    metrics = {
        "wall_s": factor * wall_s,
        "setup_s": setup_s,
        "candidates_per_s": candidates / (factor * fastest),
        "task_ms_p50": 1000 * statistics.median(latency),
        "task_ms_tail": 1000 * tail_s,
        "solved": rec.solved(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    notes = {"task_ms_tail": tail_note,
             "task_ms_p50": f"median of {len(latency)} searches",
             "wall_s": f"{wall_s:.4f} s measured x host factor {factor:.4f}"
                       f" from {len(rec.reference)} reference timings"}
    return metrics, notes


def measure(pb, wl, order_seed, seconds, import_s, rec):
    """The untraced run: setup, then the timed work."""
    a = time.perf_counter()
    tasks, lib, scorer = setup(pb, wl)
    setup_s = import_s + time.perf_counter() - a
    rng = random.Random(order_seed)
    if wl.loop_traces:
        wall_s = min(run_loops(pb, wl, lib, rec,
                               passes(tasks, rng, MIN_PASSES, seconds)))
    else:
        run_searches(pb, wl, lib, scorer, rec,
                     passes(tasks, rng, MIN_PASSES, seconds))
        # one pass over the fixed task set, from each task's fastest search
        wall_s = sum(min(v) for v in rec.seconds.values())
    return end_to_end(rec, wall_s, setup_s)


def one_pass(pb, wl, order_seed, rec):
    """Setup and a single pass of the work; returns its wall seconds."""
    a = time.perf_counter()
    tasks, lib, scorer = setup(pb, wl)
    orders = passes(tasks, random.Random(order_seed), 1, 0)
    if wl.loop_traces:
        run_loops(pb, wl, lib, rec, orders)
    else:
        run_searches(pb, wl, lib, scorer, rec, orders)
    return time.perf_counter() - a


def measure_traced(pb, wl, order_seed, rec):
    """Untraced then traced, the same work each time; the layer metrics
    come from the traced pass, which must follow the same trajectory."""
    plain = Recorder(pb)
    untraced_s = one_pass(pb, wl, order_seed, plain)
    tracer = Tracer()
    tracer.install(pb)
    tracer.enter_group("setup")
    try:
        traced_s = one_pass(pb, wl, order_seed, rec)
    finally:
        tracer.uninstall()
    if plain.digest() != rec.digest():
        rec.problems.append("the traced pass followed another trajectory")
    metrics = tracer.metrics()
    metrics.update({
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
    })
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{wl.name}"))
    totals = tracer.layer_totals()
    shares = sorted(((s / traced_s, name) for name, (_c, s)
                     in totals.items()), reverse=True)
    return metrics, {"self_time_shares": [[n, round(s, 4)]
                                          for s, n in shares]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small budgets, for the self-test")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = (TINY if args.tiny else WORKLOADS)[args.workload]
    pb, import_s = load_program()
    if args.setup_only:
        a = time.perf_counter()
        setup(pb, wl)
        print(json.dumps({"setup_s": import_s + time.perf_counter() - a}))
        return
    rec = Recorder(pb, calibrate=not args.trace)
    patches = []
    count_timeouts(pb, rec, patches)
    if args.trace:
        metrics, notes = measure_traced(pb, wl, args.seed, rec)
    else:
        metrics, notes = measure(pb, wl, args.seed, args.seconds, import_s,
                                 rec)
    unpatch(patches)
    correct = rec.check(wl.reference_solved)
    print(json.dumps({
        "workload": wl.name, "correct": correct, "attempted": rec.attempted,
        "failed": rec.failed, "metrics": metrics, "notes": notes,
        "digest": rec.digest(), "solved": rec.solved(),
        "problems": rec.problems,
    }))


if __name__ == "__main__":
    main()
