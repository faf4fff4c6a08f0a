"""Wake/sleep orchestration, evaluation and report emission.

A run directory holds one subdirectory per iteration with the library,
scorer, traces, solutions and a JSON report; a run can be resumed from the
last completed iteration.  All reports are emitted with sorted keys and no
timestamps, so two runs with the same seeds produce byte-identical files
when the search uses its virtual clock.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from .lang import Apply, PrimRef, format_term, parse_term, subtrees, term_size
from .dsl import DSLibrary, load_library, save_library
from .synthesis import SearchConfig, UniformScorer, search
from .guidance import (
    LinearScorer, TraceGenConfig, generate_traces, load_scorer, save_scorer,
    save_traces, train_scorer, warm_start_new_op,
)
from .librarian import MineConfig, mine
from .stats import ci95, t_test


@dataclass(frozen=True)
class RunConfig:
    iterations: int = 10
    search: SearchConfig = SearchConfig()
    tracegen: TraceGenConfig = TraceGenConfig()
    mining: MineConfig = MineConfig()
    trials: int = 5
    workers: int = 1
    random_seed: int = 0
    train_steps: int = 10000
    output_dir: str = "runs"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


# ---------------------------------------------------------------------------
# Wake: solve tasks with the current library and scorer
# ---------------------------------------------------------------------------

@dataclass
class WakeReport:
    results: list  # of (Task, SolveResult), in input task order
    solved: int
    total: int

    @property
    def solve_rate(self) -> float:
        return self.solved / self.total if self.total else 0.0

    def corpus(self) -> dict:
        return {t.name: [r.program] for t, r in self.results if r.solved}


def run_wake(tasks, lib: DSLibrary, scorer, cfg: SearchConfig,
             workers: int = 1) -> WakeReport:
    """Solve each task independently.  Results are collected in task order,
    so the report does not depend on scheduling."""
    def solve_one(task):
        return search(task, lib, scorer, cfg)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(solve_one, tasks))
    else:
        results = [solve_one(t) for t in tasks]
    pairs = list(zip(tasks, results))
    for task, r in pairs:
        if r.solved and not verify_solution(task, r.program, lib):
            raise RuntimeError(
                f"search reported a bad solution for task {task.name!r}")
    return WakeReport(pairs, sum(1 for _, r in pairs if r.solved), len(pairs))


def verify_solution(task, program, lib: DSLibrary,
                    limits=None) -> bool:
    from .lang import EvalError, EvalLimits, canon_value, evaluate

    limits = limits or EvalLimits()
    prims = lib.prims()
    for (inputs, _output), want in zip(task.examples, task.output_sig):
        try:
            got = evaluate(program, dict(inputs), limits, prims)
        except EvalError:
            return False
        if canon_value(got) != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Sleep: mine abstractions, retrain guidance
# ---------------------------------------------------------------------------

@dataclass
class SleepReport:
    library: DSLibrary
    scorer: object
    traces: object
    abstractions: list
    mine_report: str


def run_sleep(corpus, lib: DSLibrary, scorer, tasks_by_name,
              mine_cfg: MineConfig, trace_cfg: TraceGenConfig,
              train_seed: int = 0, train_steps: int = 10000,
              iteration: int = 0) -> SleepReport:
    """Mining first, then warm-started retraining on fresh traces."""
    mined = mine(corpus, lib, tasks_by_name, mine_cfg, iteration)
    lib = mined.library
    if not isinstance(scorer, LinearScorer):
        scorer = LinearScorer()
    for a in mined.abstractions:
        if a.arity > 0:
            scorer = warm_start_new_op(scorer, a.name, a.body)
    traces = generate_traces(lib, trace_cfg)
    scorer = train_scorer(traces, init=scorer, seed=train_seed,
                          max_steps=train_steps)
    return SleepReport(lib, scorer, traces, mined.abstractions,
                       mined.report)


# ---------------------------------------------------------------------------
# The full loop, with on-disk state and resume
# ---------------------------------------------------------------------------

def _iter_dir(output_dir, i):
    return os.path.join(output_dir, f"iter_{i:03d}")


def _iteration_complete(d) -> bool:
    path = os.path.join(d, "report.json")
    if not os.path.exists(path):
        return False
    try:
        with open(path) as fh:
            return json.load(fh).get("complete", False)
    except (OSError, ValueError):
        return False


def save_solutions(results, path) -> None:
    lines = [f"{t.name}: {format_term(r.program)}"
             for t, r in results if r.solved]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_solutions(path, lib: DSLibrary, tasks_by_name) -> dict:
    corpus = {}
    prims = set(lib.op_names())
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln:
                continue
            name, text = ln.split(":", 1)
            name = name.strip()
            inputs = {n for n, _ in tasks_by_name[name].input_types}
            corpus.setdefault(name, []).append(
                parse_term(text.strip(), prims, inputs))
    return corpus


@dataclass
class LoopResult:
    iterations_run: int
    library: DSLibrary
    scorer: object
    solve_counts: list
    best_iteration: int


def wake_sleep_loop(tasks, lib: DSLibrary, output_dir,
                    cfg: RunConfig) -> LoopResult:
    """Alternate solving and library learning, persisting each iteration.

    Already-completed iteration directories are reloaded instead of rerun,
    so an interrupted run continues where it stopped."""
    os.makedirs(output_dir, exist_ok=True)
    tasks_by_name = {t.name: t for t in tasks}
    scorer: object = UniformScorer()
    solve_counts = []
    for i in range(cfg.iterations):
        d = _iter_dir(output_dir, i)
        if _iteration_complete(d):
            lib = load_library(os.path.join(d, "library.txt"))
            scorer = load_scorer(os.path.join(d, "scorer.txt"))
            with open(os.path.join(d, "report.json")) as fh:
                solve_counts.append(json.load(fh)["solved"])
            continue
        os.makedirs(d, exist_ok=True)
        wake = run_wake(tasks, lib, scorer, cfg.search, cfg.workers)
        solve_counts.append(wake.solved)
        save_solutions(wake.results, os.path.join(d, "solutions.txt"))
        sleep = run_sleep(wake.corpus(), lib, scorer, tasks_by_name,
                          cfg.mining, cfg.tracegen, cfg.random_seed,
                          cfg.train_steps, iteration=i)
        lib, scorer = sleep.library, sleep.scorer
        save_library(lib, os.path.join(d, "library.txt"))
        save_scorer(scorer, os.path.join(d, "scorer.txt"))
        save_traces(sleep.traces, os.path.join(d, "traces.txt"))
        report = {
            "iteration": i,
            "solved": wake.solved,
            "total": wake.total,
            "new_abstractions": [a.name for a in sleep.abstractions],
            "library_version": lib.version,
            "mine_report": sleep.mine_report,
            "complete": True,
        }
        with open(os.path.join(d, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    best = max(range(len(solve_counts)),
               key=lambda i: (solve_counts[i], -i)) if solve_counts else 0
    with open(os.path.join(output_dir, "best.json"), "w") as fh:
        json.dump({"best_iteration": best,
                   "solve_counts": solve_counts}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return LoopResult(len(solve_counts), lib, scorer, solve_counts, best)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    label: str
    trials: int
    per_trial_solved: list
    total: int
    solve_rate_mean: float
    solve_rate_low: float
    solve_rate_high: float
    by_weight: dict  # program weight -> solved count (over all trials)
    abstraction_by_weight: dict  # weight -> solutions using a learned op
    abstraction_uses: dict  # learned op name -> occurrences in solutions
    time_curve: list  # (elapsed, cumulative solved), first trial
    candidate_curve: list  # (candidates, cumulative solved), first trial

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "trials": self.trials,
            "per_trial_solved": self.per_trial_solved,
            "total": self.total,
            "solve_rate": {
                "mean": self.solve_rate_mean,
                "ci95_low": self.solve_rate_low,
                "ci95_high": self.solve_rate_high,
            },
            "by_weight": {str(k): v
                          for k, v in sorted(self.by_weight.items())},
            "abstraction_by_weight": {
                str(k): v
                for k, v in sorted(self.abstraction_by_weight.items())},
            "abstraction_uses": dict(sorted(self.abstraction_uses.items())),
            "time_curve": self.time_curve,
            "candidate_curve": self.candidate_curve,
        }

    @classmethod
    def from_json(cls, d: dict) -> "EvalReport":
        return cls(
            label=d["label"],
            trials=d["trials"],
            per_trial_solved=list(d["per_trial_solved"]),
            total=d["total"],
            solve_rate_mean=d["solve_rate"]["mean"],
            solve_rate_low=d["solve_rate"]["ci95_low"],
            solve_rate_high=d["solve_rate"]["ci95_high"],
            by_weight={int(k): v for k, v in d["by_weight"].items()},
            abstraction_by_weight={int(k): v for k, v
                                   in d["abstraction_by_weight"].items()},
            abstraction_uses=dict(d["abstraction_uses"]),
            time_curve=[tuple(x) for x in d["time_curve"]],
            candidate_curve=[tuple(x) for x in d["candidate_curve"]],
        )


def _count_learned_uses(program, lib: DSLibrary, uses: dict):
    for _path, t in subtrees(program):
        if isinstance(t, Apply) and isinstance(t.fn, PrimRef) \
                and lib.has_op(t.fn.name) and lib.op(t.fn.name).is_learned:
            uses[t.fn.name] = uses.get(t.fn.name, 0) + 1


def evaluate(tasks, lib: DSLibrary, scorer, cfg: SearchConfig,
             trials: int = 5, label: str = "run") -> EvalReport:
    """Repeated evaluation runs differing only in search seed."""
    per_trial = []
    by_weight: dict = {}
    abs_by_weight: dict = {}
    uses: dict = {}
    time_curve = []
    cand_curve = []
    for trial in range(trials):
        tcfg = replace(cfg, random_seed=cfg.random_seed + trial)
        wake = run_wake(tasks, lib, scorer, tcfg)
        per_trial.append(wake.solved)
        solved_pairs = [(t, r) for t, r in wake.results if r.solved]
        for t, r in solved_pairs:
            w = term_size(r.program)
            by_weight[w] = by_weight.get(w, 0) + 1
            before = dict(uses)
            _count_learned_uses(r.program, lib, uses)
            if uses != before:
                abs_by_weight[w] = abs_by_weight.get(w, 0) + 1
        if trial == 0:
            done = 0
            for t, r in sorted(solved_pairs, key=lambda p: p[1].elapsed):
                done += 1
                time_curve.append([round(r.elapsed, 6), done])
            done = 0
            for t, r in sorted(solved_pairs,
                               key=lambda p: p[1].candidates_evaluated):
                done += 1
                cand_curve.append([r.candidates_evaluated, done])
    total = len(tasks)
    rates = [s / total for s in per_trial] if total else [0.0] * trials
    if len(rates) >= 2:
        interval = ci95(rates)
        mean, low, high = interval.mean, interval.low, interval.high
    else:
        mean = rates[0] if rates else 0.0
        low = high = mean
    return EvalReport(label, trials, per_trial, total, mean, low, high,
                      by_weight, abs_by_weight, uses, time_curve, cand_curve)


def compare_evals(a: EvalReport, b: EvalReport):
    """t-test on per-trial solve counts of two evaluation runs."""
    return t_test(a.per_trial_solved, b.per_trial_solved)


def save_eval_report(report: EvalReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------

def emit_plot_data(summary_a: EvalReport, summary_b: EvalReport,
                   outdir) -> list:
    """CSV series comparing two evaluation runs; returns paths written.

    Five files: per-length success, per-length abstraction usage, time
    curves, candidate curves, and the significance table."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    def emit(name, header, rows):
        path = os.path.join(outdir, name)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        written.append(path)

    def by_weight_rows(key):
        weights = sorted(set(getattr(summary_a, key))
                         | set(getattr(summary_b, key)))
        return [[w,
                 getattr(summary_a, key).get(w, 0),
                 getattr(summary_b, key).get(w, 0)] for w in weights]

    a, b = summary_a.label, summary_b.label
    emit("success_by_length.csv",
         ["program_weight", f"solved_{a}", f"solved_{b}"],
         by_weight_rows("by_weight"))
    emit("abstraction_usage_by_length.csv",
         ["program_weight", f"with_abstraction_{a}", f"with_abstraction_{b}"],
         by_weight_rows("abstraction_by_weight"))
    emit("time_curve.csv", ["run", "elapsed_seconds", "tasks_solved"],
         [[a, t, n] for t, n in summary_a.time_curve]
         + [[b, t, n] for t, n in summary_b.time_curve])
    emit("candidate_curve.csv", ["run", "candidates_evaluated",
                                 "tasks_solved"],
         [[a, c, n] for c, n in summary_a.candidate_curve]
         + [[b, c, n] for c, n in summary_b.candidate_curve])
    test = compare_evals(summary_a, summary_b)
    emit("significance.csv",
         ["run_a", "run_b", "mean_a", "mean_b", "t_statistic", "p_value",
          "significant_5pct", "degenerate"],
         [[a, b, summary_a.solve_rate_mean, summary_b.solve_rate_mean,
           test.statistic, test.p_value, test.significant, test.degenerate]])
    return written
