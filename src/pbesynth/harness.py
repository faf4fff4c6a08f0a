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
from dataclasses import asdict, dataclass, replace

from .lang import (
    Apply, EvalLimits, PrimRef, format_term, parse_term, subtrees, term_size,
)
from .dsl import DSLibrary, load_library, save_library
from .synthesis import SearchConfig, UniformScorer, eval_outcomes, search
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
        if self.train_steps < 0:
            raise ValueError("train_steps must be >= 0")


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
    """Solve each task independently, and check each solution under the
    search's limits.  Results are collected in task order, so the report
    does not depend on scheduling.  Each result is kept without its store,
    which is dropped as soon as its solution is checked."""
    def solve_one(task):
        r = search(task, lib, scorer, cfg)
        if r.solved and not verify_solution(task, r.program, lib,
                                            cfg.eval_limits):
            raise RuntimeError(
                f"search reported a bad solution for task {task.name!r}")
        return replace(r, store=None)

    if workers > 1:
        # imported here: no other path needs the pool's import cost
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(solve_one, tasks))
    else:
        results = [solve_one(t) for t in tasks]
    pairs = list(zip(tasks, results))
    return WakeReport(pairs, sum(1 for _, r in pairs if r.solved), len(pairs))


def verify_solution(task, program, lib: DSLibrary,
                    limits: EvalLimits = EvalLimits()) -> bool:
    """Whether `program` gives every example's output, by plain
    evaluation."""
    return eval_outcomes(program, task, limits, lib.prims()) == \
        task.output_sig


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
              iteration: int = 0, virtual_clock: bool = False) -> SleepReport:
    """Mining first, then warm-started retraining on fresh traces."""
    mined = mine(corpus, lib, tasks_by_name, mine_cfg, iteration)
    lib = mined.library
    if not isinstance(scorer, LinearScorer):
        scorer = LinearScorer()
    for a in mined.abstractions:
        if a.arity > 0:
            scorer = warm_start_new_op(scorer, a.name, a.body)
    traces = generate_traces(lib, trace_cfg, virtual_clock)
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


def write_json(obj, path) -> None:
    """The one form of every JSON report: indented, keys sorted, and a
    final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_solutions(results, path) -> None:
    lines = [f"{t.name}: {format_term(r.program)}"
             for t, r in results if r.solved]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_solutions(path, lib: DSLibrary, tasks_by_name) -> dict:
    corpus = {}
    prims = set(lib.op_names())
    with open(path) as fh:
        for lineno, ln in enumerate(fh, 1):
            ln = ln.strip()
            if not ln:
                continue
            name, colon, text = ln.partition(":")
            name = name.strip()
            if not colon or name not in tasks_by_name:
                raise ValueError(f"{path}:{lineno}: expected '<task>: "
                                 f"<program>' with a known task, got {ln!r}")
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
        learned_uses: dict = {}
        for _, r in wake.results:
            if r.solved:
                _count_learned_uses(r.program, lib, learned_uses)
        sleep = run_sleep(wake.corpus(), lib, scorer, tasks_by_name,
                          cfg.mining, cfg.tracegen, cfg.random_seed,
                          cfg.train_steps, iteration=i,
                          virtual_clock=cfg.search.virtual_clock)
        lib, scorer = sleep.library, sleep.scorer
        save_library(lib, os.path.join(d, "library.txt"))
        save_scorer(scorer, os.path.join(d, "scorer.txt"))
        save_traces(sleep.traces, os.path.join(d, "traces.txt"))
        write_json({
            "iteration": i,
            "solved": wake.solved,
            "total": wake.total,
            "new_abstractions": [a.name for a in sleep.abstractions],
            "library_version": lib.version,
            "learned_uses": learned_uses,
            "mine_report": sleep.mine_report,
            "complete": True,
        }, os.path.join(d, "report.json"))
    best = max(range(len(solve_counts)),
               key=lambda i: (solve_counts[i], -i)) if solve_counts else 0
    write_json({"best_iteration": best, "solve_counts": solve_counts},
               os.path.join(output_dir, "best.json"))
    return LoopResult(len(solve_counts), lib, scorer, solve_counts, best)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# the two places EvalReport's JSON form differs from its fields: the solve
# rate is one object, and weights are string keys
_SOLVE_RATE = {"solve_rate_mean": "mean", "solve_rate_low": "ci95_low",
               "solve_rate_high": "ci95_high"}
_BY_WEIGHT = ("by_weight", "abstraction_by_weight")


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
        d = asdict(self)
        d["solve_rate"] = {k: d.pop(f) for f, k in _SOLVE_RATE.items()}
        for f in _BY_WEIGHT:
            d[f] = {str(w): n for w, n in d[f].items()}
        return d

    @classmethod
    def from_json(cls, d: dict) -> "EvalReport":
        d = dict(d)
        d.update((f, d["solve_rate"][k]) for f, k in _SOLVE_RATE.items())
        del d["solve_rate"]
        for f in _BY_WEIGHT:
            d[f] = {int(w): n for w, n in d[f].items()}
        return cls(**d)


def _count_learned_uses(program, lib: DSLibrary, uses: dict):
    """Count each applied or first-class reference to a learned operation
    (`subtrees` yields a first-class PrimRef but not an application's head)."""
    for _path, t in subtrees(program):
        ref = t.fn if isinstance(t, Apply) else t
        if isinstance(ref, PrimRef) \
                and lib.has_op(ref.name) and lib.op(ref.name).is_learned:
            uses[ref.name] = uses.get(ref.name, 0) + 1


def evaluate_runs(tasks, lib: DSLibrary, scorer, cfg: SearchConfig,
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
        if trial == 0:  # [x, tasks solved within x], x ascending
            time_curve = [[x, n] for n, x in enumerate(
                sorted(round(r.elapsed, 6) for _, r in solved_pairs), 1)]
            cand_curve = [[x, n] for n, x in enumerate(
                sorted(r.candidates_evaluated for _, r in solved_pairs), 1)]
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
    write_json(report.to_json(), path)


# the JSON types save_eval_report writes (see _check_json)
_EVAL_JSON = {
    "label": str, "trials": int, "per_trial_solved": [int], "total": int,
    "solve_rate": {"mean": float, "ci95_low": float, "ci95_high": float},
    "by_weight": {str: int}, "abstraction_by_weight": {str: int},
    "abstraction_uses": {str: int}, "time_curve": [(float, int)],
    "candidate_curve": [(int, int)]}


def _check_json(v, shape, where: str) -> None:
    """Raise ValueError unless `v` has `shape`: a JSON type (float for any
    number), a dict of each key's shape ({str: s} for any keys), [s] for a
    list of any length, or a tuple of shapes for a list of that length."""
    if type(shape) is list and type(v) is list:
        shape = tuple(shape * len(v))
    if type(shape) is dict and str in shape and type(v) is dict:
        shape = dict.fromkeys(v, shape[str])
    if type(shape) is dict and type(v) is dict:
        if set(v) != set(shape):
            raise ValueError(f"{where}: keys {sorted(v)}, expected "
                             f"{sorted(shape)}")
        for k in v:
            _check_json(v[k], shape[k], f"{where}.{k}")
    elif type(shape) is tuple and type(v) is list and len(v) == len(shape):
        for i, (x, s) in enumerate(zip(v, shape)):
            _check_json(x, s, f"{where}[{i}]")
    elif not (type(v) is shape or (shape is float and type(v) is int)):
        raise ValueError(f"{where}: not what an eval report holds: {v!r}")


def load_eval_report(path) -> EvalReport:
    """An eval report file; ValueError for a missing or extra key, or a
    value of another JSON type than save_eval_report writes."""
    with open(path) as fh:
        try:
            d = json.load(fh)
            _check_json(d, _EVAL_JSON, "report")
            return EvalReport.from_json(d)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------

def emit_plot_data(summary_a: EvalReport, summary_b: EvalReport,
                   outdir) -> list:
    """CSV series comparing two evaluation runs; returns paths written.

    Five files: per-length success, per-length abstraction usage, time
    curves, candidate curves, and the significance table.  Two reports
    the t-test cannot compare leave no file."""
    test = compare_evals(summary_a, summary_b)
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
    emit("significance.csv",
         ["run_a", "run_b", "mean_a", "mean_b", "t_statistic", "p_value",
          "significant_5pct", "degenerate"],
         [[a, b, summary_a.solve_rate_mean, summary_b.solve_rate_mean,
           test.statistic, test.p_value, test.significant, test.degenerate]])
    return written
