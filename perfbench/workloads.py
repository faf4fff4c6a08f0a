"""The benchmark's workloads and end-to-end metrics.

Every search runs on the virtual clock, so the work a workload does is
fixed and wall time is what varies.  The seed only permutes the order in
which tasks are searched; the set of searches, and so the work, is the
same for every seed.  This module imports nothing from the program, so
the benchmark command can list workloads without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Unbounded search with no restarts on the micro domain, 3.5 s/task of
# virtual time.  The motif tasks need about 2,150 candidates, and the wrap
# tasks about 2,600 once fn_0 is learned, so a budget under 3.3 s/task
# would leave mining an empty corpus.  Unsolved tasks spend the whole
# budget, so it sets how long a pass takes.
MICRO_SEARCH = dict(per_task_timeout=3.5, restart_interval=3.5,
                    beam_size=None, max_weight=5, virtual_clock=True,
                    restarts_enabled=False)

# Guided beam search.  Restarts and sampling are on; with the restart
# interval equal to the per-task budget no restart fires inside it.  The
# per-task budget is part of the workload: selection cost per candidate
# grows with store size, so a longer budget measures a slower regime.
BEAM_SEARCH = dict(per_task_timeout=1.0, restart_interval=1.0,
                   beam_size=10, max_weight=8, virtual_clock=True,
                   restarts_enabled=True)

# An episode budget this large never runs out, so trace generation does
# fixed work; the run checks that no episode timed out.
UNTIMED = 1e9

LOOP_ITERATIONS = 2

# Four motif tasks (solved in iteration 1, mined into fn_0) and eight
# tasks that wrap the motif (four become solvable through fn_0 in
# iteration 2).  Over two loops of two iterations that is 48 searches, so
# the latency tail (10 searches beyond it) is p79.
LOOP_TASKS = ("motif_00", "motif_01", "motif_02", "motif_03",
              "wrap_00_0", "wrap_00_1", "wrap_01_0", "wrap_01_1",
              "wrap_02_0", "wrap_02_1", "wrap_03_0", "wrap_03_1")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task_file: str  # under src/pbesynth/data
    library_file: Optional[str]  # None: the bundled default_list_dsl()
    search: dict
    reference_solved: int  # the check fails below this
    task_names: tuple = ()  # empty: every task in the file
    scorer_traces: Optional[dict] = None  # TraceGenConfig of setup training
    loop_traces: Optional[dict] = None  # TraceGenConfig inside the loop
    train_steps: int = 10000


WORKLOADS = {w.name: w for w in (
    Workload(
        "enum_micro",
        "unbounded search: candidate building and evaluation do nearly "
        "all the work; selection, scorer and sampler are never called",
        "micro_tasks.txt", "micro_library.txt", MICRO_SEARCH,
        reference_solved=10),
    Workload(
        "beam_learned",
        "guided beam search with a trained linear scorer, the paper's "
        "mode: scoring and argument selection do most of the work",
        "tasks.txt", None, BEAM_SEARCH, reference_solved=15,
        scorer_traces=dict(max_weight=3, episodes=6,
                           episode_timeout=UNTIMED)),
    Workload(
        "loop_micro",
        "two wake-sleep iterations: mining, rewriting, trace generation, "
        "training, learned-operation calls and artifact writes",
        "micro_tasks.txt", "micro_library.txt", MICRO_SEARCH,
        reference_solved=12, task_names=LOOP_TASKS,
        loop_traces=dict(max_weight=4, episodes=4, per_abstraction_bonus=4.0,
                         episode_timeout=UNTIMED),
        train_steps=2000),
)}

# Small variants for the self-test: same code paths, seconds not minutes.
TINY = {
    "enum_micro": Workload(
        "enum_micro", "tiny", "micro_tasks.txt", "micro_library.txt",
        dict(MICRO_SEARCH, per_task_timeout=2.5, restart_interval=2.5),
        reference_solved=1, task_names=("motif_00", "wrap_00_0")),
    "beam_learned": Workload(
        "beam_learned", "tiny", "tasks.txt", None,
        dict(BEAM_SEARCH, per_task_timeout=0.3, restart_interval=0.3),
        reference_solved=2, task_names=("reverse", "sort", "succ_all"),
        scorer_traces=dict(max_weight=2, episodes=2,
                           episode_timeout=UNTIMED)),
    "loop_micro": Workload(
        "loop_micro", "tiny", "micro_tasks.txt", "micro_library.txt",
        dict(MICRO_SEARCH, per_task_timeout=2.7, restart_interval=2.7),
        reference_solved=5, task_names=("motif_00", "motif_01", "wrap_01_0"),
        loop_traces=dict(max_weight=3, episodes=2, per_abstraction_bonus=4.0,
                         episode_timeout=UNTIMED),
        train_steps=200),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"


# Printed for every workload.  failed_frac is always 0 on working code,
# so it is reported here and through the result's attempted/failed
# counts, but it is not a bounded metric.
END_TO_END = (
    Metric("wall_s", "s", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("candidates_per_s", "1/s", "higher"),
    Metric("task_ms_p50", "ms", "lower"),
    Metric("task_ms_tail", "ms", "lower"),
    Metric("solved", "count", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)
FAILED_FRAC = Metric("failed_frac", "ratio", "lower")
