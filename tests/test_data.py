"""Bundled data files: tasks round-trip and reference solutions hold."""

from importlib.resources import files

import pytest

from pbesynth.dsl import (
    default_list_dsl, load_library, save_library, validate_dsl,
)
from pbesynth.harness import verify_solution
from pbesynth.lang import LangError, parse_term, term_size
from pbesynth.task import load_tasks, parse_tasks, save_tasks

DATA = files("pbesynth") / "data"
FULL = default_list_dsl()


def _load(name):
    return load_tasks(str(DATA / name))


@pytest.mark.parametrize("filename", ["tasks.txt", "micro_tasks.txt"])
def test_bundled_tasks_round_trip(filename, tmp_path):
    tasks = _load(filename)
    assert tasks
    out = tmp_path / filename
    save_tasks(tasks, out)
    back = parse_tasks(out.read_text())
    assert back == tasks


@pytest.mark.parametrize("filename,lib_file",
                         [("tasks.txt", None),
                          ("micro_tasks.txt", "micro_library.txt")])
def test_bundled_solutions_are_correct_and_small(filename, lib_file):
    lib = load_library(str(DATA / lib_file)) if lib_file else FULL
    names = set(lib.op_names())
    for task in _load(filename):
        assert task.solution, task.name
        program = parse_term(task.solution, names,
                             {n for n, _ in task.input_types})
        assert verify_solution(task, program, lib), task.name
        assert term_size(program) <= 15, task.name


def test_micro_library_is_a_sub_library():
    micro = load_library(str(DATA / "micro_library.txt"))
    full_ops = {o.name for o in FULL.operations}
    assert {o.name for o in micro.operations} <= full_ops
    assert len(micro.operations) == 8


def test_bundled_libraries_are_valid(tmp_path):
    path = tmp_path / "library.txt"
    save_library(FULL, str(path))
    for lib in (FULL, load_library(str(path)),
                load_library(str(DATA / "micro_library.txt"))):
        assert validate_dsl(lib) == []


# a learned operation whose body does not have its declared type
ILL_TYPED_OP = "op fn_0 : (Int) -> Int = (lam (Reverse $0)) ; iter 0\n"


def test_load_library_rejects_ill_typed_learned_op(tmp_path):
    path = tmp_path / "library.txt"
    save_library(FULL, str(path))
    with open(path, "a") as fh:
        fh.write(ILL_TYPED_OP)
    with pytest.raises(LangError, match="fn_0"):
        load_library(str(path))


def test_bundled_task_names_are_unique():
    for filename in ("tasks.txt", "micro_tasks.txt"):
        tasks = _load(filename)
        names = [t.name for t in tasks]
        assert len(set(names)) == len(names)
