"""Task format tests: value literals, block parsing, file round trip."""

import pytest
from hypothesis import given, strategies as st

from pbesynth.lang import INT, INT_LIST, BOOL
from pbesynth.task import (
    Task, TaskFormatError, format_value, load_tasks, parse_tasks,
    parse_value, save_tasks,
)

SAMPLE = """
name: double_evens
inputs: xs:IntList
ex: xs=[1,2,4] -> [4,8]
ex: xs=[3] -> []
solution: (Map (lam (Add $0 $0)) (Filter IsEven xs))

name: index
inputs: xs:IntList, n:Int
ex: xs=[5,6,7], n=1 -> 6
ex: xs=[2], n=0 -> 2
"""


def test_output_sig_is_computed_once_in_signature_form():
    t0, t1 = parse_tasks(SAMPLE)
    assert t0.output_sig == (("l", (4, 8)), ("l", ()))
    assert t1.output_sig == (("i", 6), ("i", 2))
    assert t0.output_sig is t0.output_sig


def test_parse_value_literals():
    assert parse_value("3") == 3
    assert parse_value("-4") == -4
    assert parse_value("true") is True
    assert parse_value("false") is False
    assert parse_value("[1,2,3]") == [1, 2, 3]
    assert parse_value("[]") == []


def test_parse_value_rejects_garbage():
    with pytest.raises(TaskFormatError):
        parse_value("3.5")
    with pytest.raises(TaskFormatError):
        parse_value("[1,x]")


@given(st.one_of(st.integers(-99, 99), st.booleans(),
                 st.lists(st.integers(-99, 99), max_size=5)))
def test_value_round_trip(v):
    assert parse_value(format_value(v)) == v


def test_parse_tasks_blocks():
    tasks = parse_tasks(SAMPLE)
    assert [t.name for t in tasks] == ["double_evens", "index"]
    t0, t1 = tasks
    assert t0.input_types == (("xs", INT_LIST),)
    assert t0.examples[0] == ({"xs": [1, 2, 4]}, [4, 8])
    assert t0.solution is not None
    assert t1.input_types == (("xs", INT_LIST), ("n", INT))
    assert t1.output_type == INT


def test_task_validates_example_bindings():
    with pytest.raises(TaskFormatError):
        Task("bad", (("xs", INT_LIST),), (({"ys": [1]}, 1),))


def test_task_rejects_mixed_output_types():
    with pytest.raises(TaskFormatError):
        Task("bad", (("n", INT),),
             (({"n": 1}, 1), ({"n": 2}, [2])))


def test_task_requires_examples():
    with pytest.raises(TaskFormatError):
        Task("bad", (("n", INT),), ())


def test_bool_outputs_are_not_ints():
    t = Task("b", (("n", INT),), (({"n": 1}, True),))
    assert t.output_type == BOOL


def test_save_load_round_trip(tmp_path):
    tasks = parse_tasks(SAMPLE)
    p = tmp_path / "tasks.txt"
    save_tasks(tasks, p)
    again = load_tasks(p)
    assert again == tasks
