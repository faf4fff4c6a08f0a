"""Artifact loaders against malformed files: every line-level mutation of a
valid file either loads or raises one of the errors the command line
reports with exit 2 or 3, never another exception."""

import pytest

from pbesynth.dsl import (
    DSLibrary, LearnedAbstraction, Operation, abstraction_func,
    default_list_dsl, load_library, save_library,
)
from pbesynth.guidance import (
    FEATURE_DIM, LinearScorer, TraceGenConfig, generate_traces, load_scorer,
    load_traces, save_scorer, save_traces,
)
from pbesynth.harness import load_solutions
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


LOADERS = {
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
        except (LangError, ValueError, TaskFormatError):
            pass
        except Exception as e:  # noqa: BLE001 - the failure under test
            pytest.fail(f"{kind} file, {what}: {type(e).__name__}: {e}\n"
                        + "\n".join(mutated))
