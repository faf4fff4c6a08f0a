"""Artifact loaders against malformed files: every line-level mutation of a
valid file either loads or raises one of the errors the command line
reports with exit 2 or 3, never another exception; and the command line
reports a rejected file in one line."""

import pytest

from pbesynth.cli import ConfigError, build_run_config, main, read_config_file
from pbesynth.dsl import (
    DSLibrary, LearnedAbstraction, Operation, abstraction_func,
    default_list_dsl, load_library, save_library,
)
from pbesynth.guidance import (
    FEATURE_DIM, LinearScorer, TraceGenConfig, generate_traces, load_scorer,
    load_traces, save_scorer, save_traces,
)
from pbesynth.harness import (
    EvalReport, load_eval_report, load_solutions, save_eval_report,
)
from pbesynth.lang import LangError, parse_term, parse_type
from pbesynth.task import TaskFormatError, load_tasks

FULL = default_list_dsl()
SMALL = DSLibrary([o for o in FULL.operations
                   if o.name in ("Add", "Head", "Map", "Reverse", "Take")],
                  FULL.constants)
# characters with a meaning in at least one of the formats
REPLACEMENTS = "():|,;=-> x9["


def _mutations(lines):
    """Each line dropped, duplicated, cut in half, and with its middle
    character replaced by each of REPLACEMENTS (an empty line gets it
    inserted)."""
    for i, ln in enumerate(lines):
        yield f"drop {i}", lines[:i] + lines[i + 1:]
        yield f"duplicate {i}", lines[:i + 1] + lines[i:]
        yield f"truncate {i}", lines[:i] + [ln[:len(ln) // 2]] + lines[i + 1:]
        mid = len(ln) // 2
        for c in REPLACEMENTS:
            if ln[mid:mid + 1] != c:
                yield (f"replace {i}:{mid} by {c!r}",
                       lines[:i] + [ln[:mid] + c + ln[mid + 1:]]
                       + lines[i + 1:])


def _library_file(path):
    body = parse_term("(lam (Map (lam (Add $0 1)) (Reverse $0)))",
                      set(SMALL.op_names()))
    op = Operation("fn_0", parse_type("(IntList) -> IntList"),
                   abstraction_func(body, SMALL.prims()),
                   provenance=LearnedAbstraction(body))
    save_library(DSLibrary(SMALL.operations + (op,), SMALL.constants), path)


def _scorer_file(path):
    save_scorer(LinearScorer({"Add": [0.5] * FEATURE_DIM,
                              "Map": [-1.0] * FEATURE_DIM},
                             {"Map": "warm-started from Add"}), path)


def _traces_file(path):
    save_traces(generate_traces(SMALL, TraceGenConfig(
        max_weight=2, episodes=2, targets_per_episode=2)), path)


TASKS_TEXT = """\
name: rev
inputs: xs:IntList
ex: xs=[2,1,3] -> [3,1,2]
ex: xs=[5,4] -> [4,5]
solution: (Reverse xs)

name: inc_head
inputs: xs:IntList, n:Int
ex: xs=[2,1], n=1 -> 3
"""


def _tasks_file(path):
    with open(path, "w") as fh:
        fh.write(TASKS_TEXT)


def _solutions_file(path):
    with open(path, "w") as fh:
        fh.write("rev: (Reverse xs)\n"
                 "inc_head: (Add (Head xs) n)\n"
                 "rev: (Map (lam (Add $0 0)) (Reverse xs))\n")


def _load_solutions(path, tmp_path):
    tasks_path = str(tmp_path / "solution_tasks.txt")
    _tasks_file(tasks_path)
    by_name = {t.name: t for t in load_tasks(tasks_path)}
    return load_solutions(path, SMALL, by_name)


CONFIG_TEXT = """\
# a run configuration
iterations = 2
workers = 1
per_task_timeout = 0.5
restart_interval = 0.25
beam_size = 4
max_weight = 5
virtual_clock = true
max_eval_steps = 500
episode_timeout = 2.5
tracegen_max_weight = 3
output_dir = runs/a
"""


def _config_file(path):
    with open(path, "w") as fh:
        fh.write(CONFIG_TEXT)


def _eval_file(path):
    save_eval_report(EvalReport("base", 2, [1, 2], 3, 0.5, 0.25, 0.75,
                                {3: 2, 5: 1}, {5: 1}, {"fn_0": 1},
                                [[0.25, 1], [1.5, 2]], [[40, 1], [900, 2]]),
                     path)


LOADERS = {
    "config": (_config_file,
               lambda path, _: build_run_config(read_config_file(path))),
    "eval": (_eval_file, lambda path, _: load_eval_report(path)),
    "library": (_library_file, lambda path, _: load_library(path)),
    "scorer": (_scorer_file, lambda path, _: load_scorer(path)),
    "traces": (_traces_file, lambda path, _: load_traces(path)),
    "tasks": (_tasks_file, lambda path, _: load_tasks(path)),
    "solutions": (_solutions_file, _load_solutions),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_mutated_artifact_loads_or_raises_a_reported_error(kind, tmp_path):
    write, load = LOADERS[kind]
    path = str(tmp_path / f"{kind}.txt")
    write(path)
    load(path, tmp_path)  # the unmutated file loads
    with open(path) as fh:
        lines = fh.read().split("\n")
    for what, mutated in _mutations(lines):
        with open(path, "w") as fh:
            fh.write("\n".join(mutated))
        try:
            load(path, tmp_path)
        except (ConfigError, LangError, ValueError, TaskFormatError):
            pass
        except Exception as e:  # noqa: BLE001 - the failure under test
            pytest.fail(f"{kind} file, {what}: {type(e).__name__}: {e}\n"
                        + "\n".join(mutated))


def _first_rejected(kind, tmp_path):
    """The path of `kind`'s file holding the first of its mutations that
    its loader rejects."""
    write, load = LOADERS[kind]
    path = str(tmp_path / f"{kind}.txt")
    write(path)
    with open(path) as fh:
        lines = fh.read().split("\n")
    for _what, mutated in _mutations(lines):
        with open(path, "w") as fh:
            fh.write("\n".join(mutated))
        try:
            load(path, tmp_path)
        except (ConfigError, LangError, ValueError, TaskFormatError):
            return path
    raise AssertionError(f"every mutation of the {kind} file loads")


# the command reading each kind of file, given that file and valid others
COMMANDS = {
    "config": lambda bad, ok: ["solve", "--tasks", ok["tasks"],
                               "--config", bad],
    "eval": lambda bad, ok: ["report", "--eval-a", bad,
                             "--eval-b", ok["eval"]],
    "library": lambda bad, ok: ["solve", "--tasks", ok["tasks"],
                                "--library", bad],
    "scorer": lambda bad, ok: ["solve", "--tasks", ok["tasks"],
                               "--scorer", bad],
    "tasks": lambda bad, ok: ["solve", "--tasks", bad],
    "traces": lambda bad, ok: ["train", "--traces", bad],
    "solutions": lambda bad, ok: ["mine", "--tasks", ok["tasks"],
                                  "--library", ok["library"],
                                  "--solutions", bad],
}


@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_command_reports_a_rejected_file_in_one_line(kind, tmp_path,
                                                     capsys):
    bad = _first_rejected(kind, tmp_path)
    ok = {"tasks": str(tmp_path / "ok_tasks.txt"),
          "library": str(tmp_path / "ok_library.txt"),
          "eval": str(tmp_path / "ok_eval.json")}
    _eval_file(ok["eval"])
    with open(ok["tasks"], "w") as fh:
        # the tasks the solutions file names
        fh.write(TASKS_TEXT)
    save_library(SMALL, ok["library"])
    capsys.readouterr()
    code = main(COMMANDS[kind](bad, ok) + [
        "--output-dir", str(tmp_path / "out"), "--virtual-clock", "true",
        "--per-task-timeout", "0.05", "--restart-interval", "0.05"])
    err = capsys.readouterr().err
    assert code == (3 if kind == "tasks" else 2), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
