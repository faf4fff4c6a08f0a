"""Core language tests: parsing, printing, typing, sizes, evaluation."""

import copy
import os
import pickle

import pytest
from hypothesis import given, strategies as st

import pbesynth
from pbesynth.lang import (
    INT, BOOL, INT_LIST, Arrow, BaseTy, Apply, BoundVar, ConstBool, ConstInt,
    ConstList, InputVar, Lam, PrimRef, EvalError, EvalLimits, LangError,
    bind_input_vars, evaluate, format_term, free_input_vars, infer_type,
    invoke_prim, is_closed, is_function_value, max_free_index, parse_term,
    parse_type, subtrees, term_size,
)
from pbesynth.dsl import (
    DSLibrary, LearnedAbstraction, Operation, abstraction_func,
    default_list_dsl, load_library, save_library,
)

LIB = default_list_dsl()
PRIMS = LIB.prims()
NAMES = set(LIB.op_names())
SYMBOLS = LIB.symbol_types()
LIMITS = EvalLimits()


def ev(text, **inputs):
    return evaluate(parse_term(text, NAMES), inputs, LIMITS, PRIMS)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def test_parse_type_bases():
    assert parse_type("Int") == INT
    assert parse_type("Bool") == BOOL
    assert parse_type("IntList") == INT_LIST


def test_base_types_are_one_instance_per_name():
    assert BaseTy("Int") is INT
    assert parse_type("Int") is INT
    assert parse_type("(IntList) -> Bool").params[0] is INT_LIST
    assert copy.deepcopy(parse_type("(Int) -> Bool")).ret is BOOL
    assert pickle.loads(pickle.dumps(INT_LIST)) is INT_LIST


def test_every_type_of_a_loaded_library_is_a_base_instance(tmp_path):
    def bases(ty):
        if isinstance(ty, Arrow):
            return [b for t in (*ty.params, ty.ret) for b in bases(t)]
        return [ty]

    path = tmp_path / "lib.txt"
    save_library(LIB, path)
    micro = os.path.join(os.path.dirname(pbesynth.__file__), "data",
                         "micro_library.txt")
    for lib in (load_library(str(path)), load_library(micro)):
        types = [o.signature for o in lib.operations] + \
            [ty for _, ty in lib.constants]
        found = [b for ty in types for b in bases(ty)]
        assert {INT, BOOL, INT_LIST} <= set(found)
        assert all(any(b is t for t in (INT, BOOL, INT_LIST)) for b in found)


def test_parse_type_arrows():
    f = parse_type("(Int, Int) -> Int")
    assert f == Arrow((INT, INT), INT)
    g = parse_type("((Int) -> Bool, IntList) -> IntList")
    assert g == Arrow((Arrow((INT,), BOOL), INT_LIST), INT_LIST)


def test_parse_type_rejects_garbage():
    with pytest.raises(LangError):
        parse_type("Float")


# ---------------------------------------------------------------------------
# Terms: parse / print round trip
# ---------------------------------------------------------------------------

def test_parse_simple_application():
    t = parse_term("(Add 1 2)", NAMES)
    assert t == Apply(PrimRef("Add"), (ConstInt(1), ConstInt(2)))


def test_parse_lambda_and_bound_var():
    t = parse_term("(Map (lam (Add $0 1)) xs)", NAMES)
    assert isinstance(t.args[0], Lam)
    assert t.args[0].body.args[0] == BoundVar(0)


def test_parse_multi_arity_lambda():
    t = parse_term("(ZipWith (lam2 (Add $1 $0)) xs ys)", NAMES)
    assert t.args[0].arity == 2


def test_parse_list_literal():
    assert parse_term("[1 2 3]", NAMES) == ConstList((1, 2, 3))
    assert parse_term("[]", NAMES) == ConstList(())


def test_parse_rejects_unbound_index():
    with pytest.raises(LangError):
        parse_term("(Add $0 1)", NAMES)


def test_parse_rejects_unknown_symbol_when_inputs_declared():
    with pytest.raises(LangError):
        parse_term("(Add zs 1)", NAMES, input_names={"xs"})


def test_parse_rejects_trailing_input():
    with pytest.raises(LangError):
        parse_term("(Add 1 2) 3", NAMES)


def test_format_round_trip_examples():
    texts = [
        "(Add 1 2)",
        "(Map (lam (Add $0 1)) xs)",
        "(ZipWith (lam2 (Add $1 $0)) xs (Reverse xs))",
        "(Filter IsEven xs)",
        "[0 -1 3]",
        "true",
        "-1",
    ]
    for text in texts:
        t = parse_term(text, NAMES)
        assert parse_term(format_term(t), NAMES) == t


# Random closed terms over a small grammar, then round trip through text.
_atoms = st.one_of(
    st.integers(-9, 9).map(ConstInt),
    st.booleans().map(ConstBool),
    st.just(InputVar("xs")),
    st.lists(st.integers(-5, 5), max_size=3).map(
        lambda v: ConstList(tuple(v))),
)


def _apps(children):
    return st.one_of(
        st.tuples(children, children).map(
            lambda p: Apply(PrimRef("Add"), p)),
        children.map(lambda c: Apply(PrimRef("Reverse"), (c,))),
        st.tuples(children, children).map(
            lambda p: Apply(PrimRef("Take"), p)),
    )


_terms = st.recursive(_atoms, _apps, max_leaves=8)


@given(_terms)
def test_format_parse_round_trip_property(t):
    assert parse_term(format_term(t), NAMES) == t


def _reference_subtrees(t, path=()):
    """(path, subterm) in preorder, skipping an application's operation
    head, written out case by case."""
    yield path, t
    if isinstance(t, Apply):
        if not isinstance(t.fn, PrimRef):
            yield from _reference_subtrees(t.fn, path + (0,))
        for i, a in enumerate(t.args):
            yield from _reference_subtrees(a, path + (i + 1,))
    elif isinstance(t, Lam):
        yield from _reference_subtrees(t.body, path + (0,))


# the round-trip grammar plus lambdas, first-class operations and applied
# non-operation heads; the walk needs no well-typed term
_walked_terms = st.recursive(
    st.one_of(_atoms, st.just(PrimRef("IsEven"))),
    lambda c: st.one_of(
        _apps(c), c.map(lambda b: Lam(1, b)),
        st.tuples(c, c).map(lambda p: Apply(Lam(1, p[0]), (p[1],)))),
    max_leaves=8)


@given(st.one_of(_terms, _walked_terms))
def test_subtrees_matches_reference_walk_property(t):
    assert list(subtrees(t)) == list(_reference_subtrees(t))


def test_subtrees_skips_only_operation_heads():
    t = parse_term("(Filter IsEven (Map (lam (Add $0 1)) xs))", NAMES)
    got = dict(subtrees(t))
    assert got[(1,)] == PrimRef("IsEven")  # an argument, not a head
    assert (0,) not in got and (2, 0) not in got and (2, 1, 0, 0) not in got
    assert got[(2, 2)] == InputVar("xs")


# ---------------------------------------------------------------------------
# Free variables, binding
# ---------------------------------------------------------------------------

def test_free_input_vars():
    t = parse_term("(Add (Head xs) n)", NAMES)
    assert free_input_vars(t) == frozenset({"xs", "n"})


def test_bind_input_vars_builds_lambda():
    body = parse_term("(Add %0i 1)", NAMES)
    lam = bind_input_vars(body, ["%0i"])
    assert isinstance(lam, Lam) and lam.arity == 1
    assert lam.body == Apply(PrimRef("Add"), (BoundVar(0), ConstInt(1)))
    assert is_closed(lam)


def test_bind_input_vars_two_params():
    body = parse_term("(Subtract %1i %0i)", NAMES)
    lam = bind_input_vars(body, ["%0i", "%1i"])
    # %0i is the first parameter, so under (lam2 ...) it is $1
    assert lam.body == Apply(PrimRef("Subtract"), (BoundVar(0), BoundVar(1)))
    f = evaluate(lam, {}, LIMITS, PRIMS)
    assert f(10, 3) == -7


def test_max_free_index():
    t = parse_term("(Map (lam (Add $0 1)) xs)", NAMES)
    assert max_free_index(t) == -1
    assert max_free_index(Apply(PrimRef("Add"), (BoundVar(2), ConstInt(0)))) == 2


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------

def test_term_size_constants_and_inputs():
    assert term_size(ConstInt(3)) == 1
    assert term_size(InputVar("xs")) == 1
    assert term_size(InputVar("%0i")) == 0  # placeholder
    assert term_size(BoundVar(0)) == 0
    assert term_size(PrimRef("Add")) == 0


def test_term_size_applications():
    assert term_size(parse_term("(Add 1 2)", NAMES)) == 3
    assert term_size(parse_term("(Map (lam (Add $0 1)) xs)", NAMES)) == 4
    t = parse_term("(ZipWith (lam2 (Add $1 $0)) xs (Reverse xs))", NAMES)
    assert term_size(t) == 5


def test_term_size_curried_application():
    # applying a non-primitive function costs the function subterm plus args
    inner = parse_term("(Drop xs 1)", NAMES)
    outer = Apply(inner, (ConstInt(0),))
    assert term_size(outer) == term_size(inner) + 1


# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------

def test_infer_type_simple():
    t = parse_term("(Add (Head xs) 1)", NAMES)
    assert infer_type(t, {"xs": INT_LIST}, SYMBOLS) == INT


def test_infer_type_lambda_from_context():
    t = parse_term("(Map (lam (Add $0 1)) xs)", NAMES)
    assert infer_type(t, {"xs": INT_LIST}, SYMBOLS) == INT_LIST


def test_infer_type_leaves_no_cyclic_garbage(cyclic_garbage):
    t = parse_term("(Map (lam (Add $0 1)) xs)", NAMES)
    assert cyclic_garbage(
        lambda: infer_type(t, {"xs": INT_LIST}, SYMBOLS)) == []


def test_parsing_leaves_no_cyclic_garbage(cyclic_garbage, tmp_path):
    body = parse_term("(lam (Map (lam (Add $0 1)) (Reverse $0)))", NAMES)
    op = Operation("fn_0", parse_type("(IntList) -> IntList"),
                   abstraction_func(body, PRIMS),
                   provenance=LearnedAbstraction(body))
    path = tmp_path / "lib.txt"
    save_library(DSLibrary(LIB.operations + (op,), LIB.constants), path)
    assert cyclic_garbage(
        lambda: parse_term("(Map (lam (Add $0 1)) xs)", NAMES)) == []
    assert cyclic_garbage(lambda: load_library(path)) == []


def test_infer_type_mismatch():
    t = parse_term("(Add xs 1)", NAMES)
    with pytest.raises(LangError):
        infer_type(t, {"xs": INT_LIST}, SYMBOLS)


def test_infer_type_records_paths():
    t = parse_term("(Add (Head xs) 1)", NAMES)
    rec = {}
    infer_type(t, {"xs": INT_LIST}, SYMBOLS, record=rec)
    assert rec[()] == INT
    assert rec[(1,)] == INT  # (Head xs)
    assert rec[(1, 1)] == INT_LIST  # xs


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_arithmetic_and_lists():
    assert ev("(Add 2 3)") == 5
    assert ev("(Reverse xs)", xs=[1, 2, 3]) == [3, 2, 1]
    assert ev("(Take xs 2)", xs=[5, 6, 7]) == [5, 6]
    assert ev("(Sum xs)", xs=[1, 2, 3]) == 6


def test_evaluate_higher_order():
    assert ev("(Map (lam (Add $0 1)) xs)", xs=[1, 2]) == [2, 3]
    assert ev("(Filter IsEven xs)", xs=[1, 2, 3, 4]) == [2, 4]
    assert ev("(ZipWith (lam2 (Add $1 $0)) xs (Reverse xs))",
              xs=[1, 2, 3]) == [4, 4, 4]
    assert ev("(Scanl1 (lam2 (Add $1 $0)) xs)", xs=[1, 2, 3]) == [1, 3, 6]


def test_evaluate_head_of_empty_is_domain_error():
    with pytest.raises(EvalError) as e:
        ev("(Head xs)", xs=[])
    assert e.value.kind == "domain"


def test_evaluate_step_limit():
    t = parse_term("(Map (lam (Add $0 1)) (Range 0 200))", NAMES)
    with pytest.raises(EvalError) as e:
        evaluate(t, {}, EvalLimits(max_steps=50), PRIMS)
    assert e.value.kind == "steps"


def test_evaluate_int_bound():
    t = parse_term("(Multiply n n)", NAMES)
    with pytest.raises(EvalError) as e:
        evaluate(t, {"n": 2**20}, LIMITS, PRIMS)
    assert e.value.kind == "bounds"


def test_evaluate_list_length_bound():
    t = parse_term("(Concat xs xs)", NAMES)
    big = [0] * 600
    with pytest.raises(EvalError) as e:
        evaluate(t, {"xs": big}, EvalLimits(max_list_len=1000), PRIMS)
    assert e.value.kind == "bounds"


def test_prim_as_value_is_function_value():
    v = ev("(Filter IsEven xs)", xs=[2, 3])
    assert v == [2]
    assert is_function_value(evaluate(PrimRef("IsEven"), {}, LIMITS, PRIMS))
    assert not is_function_value([1])
    assert not is_function_value(True)


def test_invoke_prim_matches_evaluator_semantics():
    assert invoke_prim(PRIMS["Add"], [2, 3], LIMITS, PRIMS) == 5
    with pytest.raises(EvalError):
        invoke_prim(PRIMS["Head"], [[]], LIMITS, PRIMS)


def test_invoke_prim_checks_results_like_the_evaluator():
    tight = EvalLimits(max_int_magnitude=10, max_list_len=3)
    with pytest.raises(EvalError) as e:
        invoke_prim(PRIMS["Add"], [9, 9], tight, PRIMS)
    assert (e.value.kind, str(e.value)) == ("bounds", "integer 18 out of range")
    with pytest.raises(EvalError) as e:
        invoke_prim(PRIMS["Range"], [0, 4], tight, PRIMS)
    assert e.value.kind == "bounds"
    with pytest.raises(EvalError) as e:
        invoke_prim(lambda: [1, True], [], tight, PRIMS)
    assert (e.value.kind, str(e.value)) == \
        ("domain", "lists hold integers only")
    assert invoke_prim(lambda: True, [], tight, PRIMS) is True


# ---------------------------------------------------------------------------
# Learned operations run in the calling evaluator
# ---------------------------------------------------------------------------

def _with_learned(*defs):
    """LIB plus learned operations given as (name, type, body text)."""
    lib = LIB
    for name, ty, text in defs:
        body = parse_term(text, set(lib.op_names()))
        op = Operation(name, parse_type(ty), abstraction_func(body, lib.prims()),
                       provenance=LearnedAbstraction(body))
        lib = DSLibrary(lib.operations + (op,), lib.constants)
    return lib


RANGE_MAP = "(Map (lam (Add $0 1)) (Range 0 $0))"
LEARNED = _with_learned(
    ("fn_0", "(Int) -> IntList", f"(lam {RANGE_MAP})"),
    ("fn_1", "(Int) -> Int", f"(lam (Sum {RANGE_MAP}))"))
LEARNED_NAMES = set(LEARNED.op_names())


def _outcome(text, limits, **inputs):
    try:
        return evaluate(parse_term(text, LEARNED_NAMES), inputs, limits,
                        LEARNED.prims())
    except EvalError as e:
        return ("error", e.kind)


def test_learned_op_runs_under_callers_step_budget():
    small = EvalLimits(max_steps=50)
    inlined = "(Map (lam (Add $0 1)) (Range 0 n))"
    assert _outcome(inlined, small, n=500) == ("error", "steps")
    assert _outcome("(fn_0 n)", small, n=500) == ("error", "steps")
    assert _outcome("(fn_0 n)", LIMITS, n=500) == \
        _outcome(inlined, LIMITS, n=500) == list(range(1, 501))
    with pytest.raises(EvalError) as e:
        invoke_prim(LEARNED.prims()["fn_0"], [500], small, LEARNED.prims())
    assert e.value.kind == "steps"


def test_learned_op_inside_higher_order_primitive_keeps_the_budget():
    inlined = f"(Map (lam (Sum {RANGE_MAP})) xs)"
    for text in ("(Map fn_1 xs)", inlined):
        assert _outcome(text, EvalLimits(max_steps=50), xs=[500]) == \
            ("error", "steps")
        assert _outcome(text, LIMITS, xs=[500, 2]) == [125250, 3]


def test_learned_op_costs_what_its_inlined_body_costs():
    # (fn_0 n) and ((lam body) n) take the same steps, so they fail and
    # succeed under exactly the same budgets
    for steps in range(1, 40):
        limits = EvalLimits(max_steps=steps)
        assert _outcome("(fn_0 n)", limits, n=4) == \
            _outcome(f"((lam {RANGE_MAP}) n)", limits, n=4), steps


def test_learned_op_called_directly_uses_default_limits():
    assert LEARNED.prims()["fn_0"](3) == [1, 2, 3]


@given(st.lists(st.integers(-20, 20), max_size=6),
       st.integers(-3, 6))
def test_take_drop_partition_property(xs, n):
    taken = evaluate(parse_term("(Take xs n)", NAMES),
                     {"xs": xs, "n": n}, LIMITS, PRIMS)
    dropped = evaluate(parse_term("(Drop xs n)", NAMES),
                       {"xs": xs, "n": n}, LIMITS, PRIMS)
    if n >= 0:
        assert taken + dropped == xs
