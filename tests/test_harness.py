"""Wake/sleep orchestration, evaluation, and report emission tests."""

import json
import os

import pytest

from pbesynth.dsl import (
    DSLibrary, LearnedAbstraction, Operation, abstraction_func,
    default_list_dsl,
)
from pbesynth.guidance import TraceGenConfig
from pbesynth.harness import (
    EvalReport, RunConfig, _count_learned_uses, compare_evals,
    emit_plot_data, evaluate_runs, load_eval_report, load_solutions,
    run_sleep, run_wake, save_eval_report, save_solutions, verify_solution,
    wake_sleep_loop,
)
from pbesynth.lang import (
    INT_LIST, EvalLimits, evaluate, format_term, parse_term, parse_type,
)
from pbesynth.librarian import MineConfig
from pbesynth.synthesis import SearchConfig, SolveResult, UniformScorer
from pbesynth.task import Task

FULL = default_list_dsl()
NAMES = set(FULL.op_names())


def sub_dsl(*names):
    return DSLibrary([o for o in FULL.operations if o.name in names],
                     FULL.constants)


def with_learned(lib, name, ty, text):
    """`lib` plus one learned operation `name : ty = text`."""
    body = parse_term(text, set(lib.op_names()))
    op = Operation(name, parse_type(ty), abstraction_func(body, lib.prims()),
                   provenance=LearnedAbstraction(body))
    return DSLibrary(lib.operations + (op,), lib.constants)


SMALL_LIB = sub_dsl("Add", "Head", "Reverse", "Sort")

FAST_SEARCH = SearchConfig(per_task_timeout=5.0, restart_interval=5.0,
                           beam_size=None, restarts_enabled=False,
                           max_weight=4, virtual_clock=True)

FAST_TRACES = TraceGenConfig(episode_timeout=10.0, per_abstraction_bonus=0,
                             max_weight=3, episodes=3, targets_per_episode=3,
                             max_negatives=8, random_seed=1)


def list_task(name, solution_text, inputs_list):
    term = parse_term(solution_text, NAMES)
    exs = tuple(({"xs": list(xs)},
                 evaluate(term, {"xs": list(xs)}, EvalLimits(), FULL.prims()))
                for xs in inputs_list)
    return Task(name, (("xs", INT_LIST),), exs, solution=solution_text)


TASKS = [
    list_task("rev", "(Reverse xs)", [[2, 1, 3], [5, 4]]),
    list_task("srt", "(Sort xs)", [[2, 1, 3], [5, 4]]),
    list_task("inc_head", "(Add (Head xs) 1)", [[2, 1], [7, 0, 3]]),
]

HARD = Task("hard", (("xs", INT_LIST),),
            (({"xs": [1, 2]}, 999), ({"xs": [3]}, -999)))


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(iterations=0)
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    with pytest.raises(ValueError, match="train_steps must be >= 0"):
        RunConfig(train_steps=-5)
    assert RunConfig(train_steps=0).train_steps == 0


# ---------------------------------------------------------------------------
# Wake
# ---------------------------------------------------------------------------

def test_run_wake_solves_and_builds_corpus():
    wake = run_wake(TASKS, SMALL_LIB, UniformScorer(), FAST_SEARCH)
    assert wake.solved == 3 and wake.total == 3
    assert wake.solve_rate == 1.0
    # each search's store is dropped once its solution is checked
    assert all(r.store is None for _, r in wake.results)
    corpus = wake.corpus()
    assert set(corpus) == {"rev", "srt", "inc_head"}
    for name, progs in corpus.items():
        assert len(progs) == 1


def test_run_wake_reports_unsolved():
    wake = run_wake(TASKS + [HARD], SMALL_LIB, UniformScorer(), FAST_SEARCH)
    assert wake.solved == 3 and wake.total == 4
    assert "hard" not in wake.corpus()


def test_run_wake_parallel_matches_serial():
    w1 = run_wake(TASKS, SMALL_LIB, UniformScorer(), FAST_SEARCH, workers=1)
    w2 = run_wake(TASKS, SMALL_LIB, UniformScorer(), FAST_SEARCH, workers=3)
    assert [format_term(r.program) for _, r in w1.results if r.solved] == \
        [format_term(r.program) for _, r in w2.results if r.solved]


def test_verify_solution():
    t = TASKS[0]
    good = parse_term("(Reverse xs)", NAMES)
    bad = parse_term("(Sort xs)", NAMES)
    err = parse_term("(Head (Drop xs 9))", NAMES)  # empty-list domain error
    assert verify_solution(t, good, FULL)
    assert not verify_solution(t, bad, FULL)
    assert not verify_solution(t, err, FULL)


def test_run_wake_verifies_under_the_search_limits(monkeypatch):
    # four nested Maps over 1,000 elements take more than the default
    # 10,000 steps
    program = parse_term("(Map (lam (Add $0 $0)) " * 4 + "xs" + ")" * 4,
                         NAMES)
    limits = EvalLimits(max_steps=1_000_000)
    xs = list(range(1000))
    task = Task("deep", (("xs", INT_LIST),),
                (({"xs": xs}, evaluate(program, {"xs": xs}, limits,
                                       FULL.prims())),))
    assert not verify_solution(task, program, FULL)
    monkeypatch.setattr(
        "pbesynth.harness.search",
        lambda task, lib, scorer, cfg: SolveResult(True, program, 0.0, 1, 0))
    wake = run_wake([task], FULL, UniformScorer(),
                    SearchConfig(eval_limits=limits))
    assert wake.solved == 1


def test_solutions_save_load_round_trip(tmp_path):
    wake = run_wake(TASKS, SMALL_LIB, UniformScorer(), FAST_SEARCH)
    path = tmp_path / "solutions.txt"
    save_solutions(wake.results, path)
    corpus = load_solutions(path, SMALL_LIB, {t.name: t for t in TASKS})
    assert corpus == wake.corpus()


# ---------------------------------------------------------------------------
# Sleep
# ---------------------------------------------------------------------------

def test_run_sleep_learns_abstraction_and_scorer():
    lib = sub_dsl("Add", "Reverse", "ZipWith", "Take", "Sort")
    corpus_texts = {
        "a": "(ZipWith (lam2 (Add $1 $0)) xs (Reverse xs))",
        "b": "(Take (ZipWith (lam2 (Add $1 $0)) xs (Reverse xs)) 2)",
        "c": "(ZipWith (lam2 (Add $1 $0)) (Sort xs) (Reverse (Sort xs)))",
    }
    corpus = {k: [parse_term(v, NAMES)] for k, v in corpus_texts.items()}
    tasks = {k: list_task(k, v, [[1, 2, 3], [4, 0, 5]])
             for k, v in corpus_texts.items()}
    rep = run_sleep(corpus, lib, UniformScorer(), tasks,
                    MineConfig(max_rounds=1), FAST_TRACES, train_steps=300)
    assert len(rep.abstractions) == 1
    assert rep.library.has_op("fn_0")
    assert rep.library.version == lib.version + 1
    assert rep.mine_report
    # scorer was retrained on fresh traces for the extended library
    assert rep.scorer.per_op_parameters


def test_run_sleep_with_nothing_to_mine_keeps_library():
    corpus = {t.name: [parse_term(t.solution, NAMES)] for t in TASKS}
    tasks = {t.name: t for t in TASKS}
    rep = run_sleep(corpus, SMALL_LIB, UniformScorer(), tasks,
                    MineConfig(), FAST_TRACES, train_steps=300)
    assert rep.abstractions == []
    assert rep.library.version == SMALL_LIB.version


# ---------------------------------------------------------------------------
# The loop: persistence and resume
# ---------------------------------------------------------------------------

LOOP_CFG = RunConfig(iterations=2, search=FAST_SEARCH, tracegen=FAST_TRACES,
                     mining=MineConfig(), trials=1, workers=1,
                     random_seed=0, train_steps=300)


def test_wake_sleep_loop_persists_iterations(tmp_path):
    out = str(tmp_path / "run")
    res = wake_sleep_loop(TASKS, SMALL_LIB, out, LOOP_CFG)
    assert res.iterations_run == 2
    assert res.solve_counts == [3, 3]
    assert res.best_iteration == 0
    for i in range(2):
        d = os.path.join(out, f"iter_{i:03d}")
        for name in ("report.json", "library.txt", "scorer.txt",
                     "traces.txt", "solutions.txt"):
            assert os.path.exists(os.path.join(d, name)), name
        with open(os.path.join(d, "report.json")) as fh:
            rep = json.load(fh)
        assert rep["iteration"] == i
        assert rep["solved"] == 3 and rep["total"] == 3
        assert rep["complete"] is True
    with open(os.path.join(out, "best.json")) as fh:
        best = json.load(fh)
    assert best == {"best_iteration": 0, "solve_counts": [3, 3]}


def test_wake_sleep_loop_reports_the_learned_operations_it_used(tmp_path):
    lib = with_learned(SMALL_LIB, "fn_0", "(IntList) -> IntList",
                       "(lam (Reverse (Sort $0)))")
    task = list_task("rev_sort", "(Reverse (Sort xs))", [[2, 1, 3], [5, 4]])
    out = str(tmp_path / "run")
    wake_sleep_loop(TASKS + [task], lib, out,
                    RunConfig(iterations=1, search=FAST_SEARCH,
                              tracegen=FAST_TRACES, trials=1,
                              train_steps=300))
    # fn_0 runs first in each round, so the Reverse round that follows
    # reaches the sorted list through it before the Sort round is reached
    with open(os.path.join(out, "iter_000", "solutions.txt")) as fh:
        solutions = fh.read().splitlines()
    assert "srt: (Reverse (fn_0 xs))" in solutions
    assert "rev_sort: (fn_0 xs)" in solutions
    with open(os.path.join(out, "iter_000", "report.json")) as fh:
        assert json.load(fh)["learned_uses"] == {"fn_0": 2}


def test_wake_sleep_loop_resumes_completed_iterations(tmp_path):
    out = str(tmp_path / "run")
    first = wake_sleep_loop(TASKS, SMALL_LIB, out,
                            RunConfig(iterations=1, search=FAST_SEARCH,
                                      tracegen=FAST_TRACES, trials=1,
                                      train_steps=300))
    marker = os.path.join(out, "iter_000", "report.json")
    before = os.path.getmtime(marker)
    second = wake_sleep_loop(TASKS, SMALL_LIB, out, LOOP_CFG)
    assert os.path.getmtime(marker) == before  # iteration 0 was not rerun
    assert second.iterations_run == 2
    assert second.solve_counts[0] == first.solve_counts[0]


def test_wake_sleep_loop_is_deterministic(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    wake_sleep_loop(TASKS, SMALL_LIB, out_a, LOOP_CFG)
    wake_sleep_loop(TASKS, SMALL_LIB, out_b, LOOP_CFG)
    for i in range(2):
        for name in ("report.json", "library.txt", "scorer.txt",
                     "traces.txt", "solutions.txt"):
            pa = os.path.join(out_a, f"iter_{i:03d}", name)
            pb = os.path.join(out_b, f"iter_{i:03d}", name)
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read(), name


# ---------------------------------------------------------------------------
# Evaluation and plot data
# ---------------------------------------------------------------------------

def test_evaluate_report_contents():
    rep = evaluate_runs(TASKS + [HARD], SMALL_LIB, UniformScorer(),
                        FAST_SEARCH, trials=2, label="base")
    assert rep.label == "base"
    assert rep.per_trial_solved == [3, 3]
    assert rep.total == 4
    assert rep.solve_rate_mean == pytest.approx(0.75)
    assert sum(rep.by_weight.values()) == 6  # 3 solved per trial
    assert rep.abstraction_uses == {}
    assert rep.time_curve[-1][1] == 3
    assert rep.candidate_curve[-1][1] == 3


@pytest.mark.parametrize("text,uses", [
    ("(Map fn_0 xs)", {"fn_0": 1}),
    ("(Map (lam (fn_0 $0)) xs)", {"fn_0": 1}),
    ("(Map fn_0 (Map (lam (fn_0 $0)) xs))", {"fn_0": 2}),
    ("(Filter IsEven xs)", {}),
])
def test_count_learned_uses_counts_first_class_references(text, uses):
    lib = with_learned(FULL, "fn_0", "(Int) -> Int", "(lam (Add $0 1))")
    program = parse_term(text, set(lib.op_names()), {"xs"})
    got = {}
    _count_learned_uses(program, lib, got)
    assert got == uses


def test_eval_report_json_round_trip():
    rep = evaluate_runs(TASKS, SMALL_LIB, UniformScorer(), FAST_SEARCH,
                        trials=2, label="base")
    back = EvalReport.from_json(rep.to_json())
    assert json.dumps(back.to_json(), sort_keys=True) == \
        json.dumps(rep.to_json(), sort_keys=True)


def test_eval_report_file_loads_back_equal(tmp_path):
    rep = evaluate_runs(TASKS, SMALL_LIB, UniformScorer(), FAST_SEARCH,
                        trials=2, label="base")
    path = tmp_path / "eval.json"
    save_eval_report(rep, path)
    assert load_eval_report(path) == rep


@pytest.mark.parametrize("key,value", [
    ("label", None),  # dropped: it used to end in a KeyError
    ("solve_rate", 5),  # it used to end in a TypeError
    ("solve_rate", {"mean": 0.5, "ci95_low": 0.5}),
    ("trials", True), ("per_trial_solved", [1, "2"]),
    ("by_weight", {"3": 1.5}), ("time_curve", [[0.5]]),
    ("candidate_curve", [[1, 2, 3]]), ("extra", 1)])
def test_eval_report_loader_rejects_a_key_or_type_not_written(
        tmp_path, key, value):
    d = evaluate_runs(TASKS, SMALL_LIB, UniformScorer(), FAST_SEARCH,
                      trials=1, label="base").to_json()
    if value is None:
        del d[key]
    else:
        d[key] = value
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match=f"^{path}: report"):
        load_eval_report(path)


def test_compare_identical_evals_is_degenerate_null():
    rep = evaluate_runs(TASKS, SMALL_LIB, UniformScorer(), FAST_SEARCH,
                        trials=3, label="x")
    test = compare_evals(rep, rep)
    assert test.statistic == 0.0
    assert test.p_value == 1.0
    assert not test.significant


def test_emit_plot_data_writes_five_csvs(tmp_path):
    a = evaluate_runs(TASKS + [HARD], SMALL_LIB, UniformScorer(),
                      FAST_SEARCH, trials=2, label="a")
    b = evaluate_runs(TASKS, SMALL_LIB, UniformScorer(), FAST_SEARCH,
                      trials=2, label="b")
    written = emit_plot_data(a, b, str(tmp_path / "plots"))
    assert len(written) == 5
    names = {os.path.basename(p) for p in written}
    assert names == {"success_by_length.csv",
                     "abstraction_usage_by_length.csv",
                     "time_curve.csv", "candidate_curve.csv",
                     "significance.csv"}
    for p in written:
        with open(p) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) >= 1 and "," in lines[0]
