"""Bottom-up search tests: outcomes, the value store, lifting,
search-vs-exhaustive agreement, and cached argument selection against the
full-sort reference."""

import math
import os
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import pbesynth
import pbesynth.synthesis
from pbesynth.dsl import (
    DSLibrary, LearnedAbstraction, Operation, abstraction_func,
    default_list_dsl, load_library,
)
import pbesynth.guidance
from pbesynth.guidance import (
    FEATURE_DIM, LinearScorer, TraceGenConfig, extract_features,
    generate_traces, train_scorer,
)
from pbesynth.lang import (
    INT, INT_LIST, Apply, Arrow, EvalLimits, PrimRef, bind_input_vars,
    format_term, infer_type, invoke_prim, parse_term, parse_type, term_size,
)
from pbesynth.synthesis import (
    INT_BATTERY, SearchConfig, UniformScorer, ValueEntry, ValueStore,
    _evaluated, _sampler_dists, admissible, arg_term,
    arrow_placeholder_names, beam_select_args, build_entry, eval_outcomes,
    exhaustive_search, init_store, lib_placeholders, make_context,
    placeholder_info, search,
)
from pbesynth.task import Task, load_tasks

FULL = default_list_dsl()
PRIMS = FULL.prims()
NAMES = set(FULL.op_names())
LIMITS = EvalLimits()


def sub_dsl(*names):
    return DSLibrary([o for o in FULL.operations if o.name in names],
                     FULL.constants)


def simple_task(out_by_xs, extra=None):
    examples = tuple(({"xs": list(xs), **(extra or {})}, out)
                     for xs, out in out_by_xs)
    decls = (("xs", INT_LIST),) + tuple(
        (k, INT) for k in (extra or {}))
    return Task("t", decls, examples)


TASK = simple_task([((1, 2, 3), [2, 3, 4]), ((5,), [6])])


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

def test_concrete_signature_distinguishes_semantics():
    t1 = parse_term("(Reverse xs)", NAMES)
    t2 = parse_term("(Sort xs)", NAMES)
    task = simple_task([((2, 1), [0]), ((1, 2), [0])])
    assert eval_outcomes(t1, task, LIMITS, PRIMS) != \
        eval_outcomes(t2, task, LIMITS, PRIMS)


def test_semantically_equal_terms_share_signature():
    t1 = parse_term("(Add (Head xs) 1)", NAMES)
    t2 = parse_term("(Add 1 (Head xs))", NAMES)
    assert eval_outcomes(t1, TASK, LIMITS, PRIMS) == \
        eval_outcomes(t2, TASK, LIMITS, PRIMS)


def test_errors_fold_into_signature():
    t = parse_term("(Head (Drop xs 9))", NAMES)
    assert eval_outcomes(t, TASK, LIMITS, PRIMS) == \
        (("e", "domain"),) * len(TASK.examples)


def test_free_placeholder_signature_uses_battery():
    # one outcome per example x battery row, example-major
    t = parse_term("(Add %0i 1)", NAMES)
    outs = eval_outcomes(t, TASK, LIMITS, PRIMS, free_vars=("%0i",))
    assert outs == tuple(("i", v + 1) for v in INT_BATTERY) * \
        len(TASK.examples)


def test_store_solves_only_with_the_goal_value():
    # the goal is the task's outputs, interned before any seed
    store = init_store(TASK, sub_dsl("Add", "Map"), LIMITS)
    assert store.goal == (INT_LIST, (), (0, 1))
    assert store.outcomes_of((0, 1)) == TASK.output_sig
    assert store.solves(_entry(store, "(Map (lam (Add $0 1)) xs)", 4,
                               INT_LIST))
    assert not store.solves(_entry(store, "(Reverse xs)", 2, INT_LIST))


def test_admissible_requires_one_allowed_set():
    a, b = (ValueEntry(parse_term(n, NAMES), 0, INT, free_vars=(n,), steps=0,
                       ids=()) for n in ("%0i", "%1i"))
    allowed = [frozenset({"%0i"}), frozenset({"%1i"})]
    assert admissible(((a, INT), (a, INT)), allowed)
    assert not admissible(((a, INT), (b, INT)), allowed)
    assert admissible(((a, INT), (b, INT)), [frozenset({"%0i", "%1i"})])
    # a lifted lambda binds its body's placeholders
    assert admissible(((a, INT), (b, Arrow((INT,), INT))), allowed)


# ---------------------------------------------------------------------------
# Value store
# ---------------------------------------------------------------------------

def _entry(store, text, weight, ty):
    t = parse_term(text, NAMES)
    outcomes, steps = _evaluated(t, TASK, LIMITS, PRIMS)
    return ValueEntry(t, weight, ty, steps=steps, ids=store.ids_of(outcomes))


def _stored(store, outcomes, free_vars=(), ty=None):
    """The entry of `store` with these outcomes and free placeholders, and
    type `ty` unless it is None, or None."""
    return next((e for e in store.entries if e.free_vars == free_vars
                 and store.outcomes_of(e.ids) == outcomes
                 and ty in (None, e.ty)), None)


def _values(store):
    """The values `store` holds, decoded: comparable across stores."""
    return {(e.ty, e.free_vars, store.outcomes_of(e.ids))
            for e in store.entries}


def test_store_deduplicates_by_signature():
    store = ValueStore()
    a, new_a, _ = store.add(_entry(store, "(Add (Head xs) 1)", 3, INT))
    b, new_b, improved = store.add(_entry(store, "(Add 1 (Head xs))", 3, INT))
    assert new_a and not new_b and not improved
    assert a is b
    assert len(store.entries) == 1


def test_store_keeps_lighter_term():
    store = ValueStore()
    store.add(_entry(store, "(Add (Head xs) (Subtract 1 0))", 5, INT))
    canon, is_new, improved = store.add(_entry(store, "(Add (Head xs) 1)", 3,
                                               INT))
    assert not is_new and improved
    assert canon.weight == 3
    assert format_term(canon.term) == "(Add (Head xs) 1)"


def test_store_improvement_takes_the_new_terms_steps():
    # a lighter term may take more steps; entries built on the improved
    # entry evaluate its new term
    store = ValueStore()
    heavy = _entry(store, "(Add (Head xs) (Subtract 1 0))", 5, INT)
    heavy.steps = 7
    store.add(heavy)
    light = _entry(store, "(Add (Head xs) 1)", 3, INT)
    light.steps = 9
    canon, _is_new, improved = store.add(light)
    assert improved and canon is heavy and canon.steps == 9


def test_store_keeps_equal_outcomes_of_different_types_apart():
    # an IntList body and an Int body that fail the same way in every
    # context are different values: the lighter Int term must not replace
    # the IntList entry's term
    task = next(t for t in load_tasks(os.path.join(
        os.path.dirname(pbesynth.__file__), "data", "micro_tasks.txt"))
        if t.name == "motif_00")
    store = init_store(task, MICRO_LIB, LIMITS)
    prims = MICRO_LIB.prims()

    def build(name, *args):
        op = MICRO_LIB.op(name)
        return store.add(build_entry(op, tuple(zip(args, op.signature.params)),
                                     task, LIMITS, prims, store))

    def stored(text):
        return next(e for e in store.entries if format_term(e.term) == text)

    xs, ph, nil = stored("xs"), stored("%0i"), stored("[]")
    head = build("Head", nil)[0]
    drop = build("Drop", build("Take", xs, ph)[0], head)[0]
    add, is_new, improved = build("Add", ph, head)
    assert (drop.free_vars, drop.ids) == (add.free_vars, add.ids)
    assert is_new and not improved and add is not drop
    assert (format_term(drop.term), drop.ty) == \
        ("(Drop (Take xs %0i) (Head []))", INT_LIST)
    assert (format_term(add.term), add.ty) == ("(Add %0i (Head []))", INT)


def test_init_store_seeds_inputs_constants_placeholders():
    lib = sub_dsl("Add", "Map")
    store = init_store(TASK, lib, LIMITS)
    texts = {format_term(e.term) for e in store.entries}
    assert "xs" in texts and "0" in texts and "%0i" in texts
    ph = next(e for e in store.entries if format_term(e.term) == "%0i")
    assert ph.weight == 0 and ph.free_vars == ("%0i",)


def test_lib_placeholders_for_map():
    lib = sub_dsl("Add", "Map")
    names, allowed = lib_placeholders(lib)
    assert names == {"%0i": INT}
    assert allowed == [frozenset({"%0i"})]


def test_candidates_for_arrow_position_lifts_bodies():
    lib = sub_dsl("Add", "Map")
    store = init_store(TASK, lib, LIMITS)
    map_op = lib.op("Map")
    fn_param = map_op.signature.params[0]
    cands = store.candidates_for(fn_param)
    # at least the bare placeholder body and the Int constants qualify
    assert any(e.free_vars == ("%0i",) for e in cands)
    assert any(not e.free_vars and e.ty == INT for e in cands)


def test_build_entry_lifts_and_weights():
    lib = sub_dsl("Add", "Map")
    store = init_store(TASK, lib, LIMITS)
    ph = next(e for e in store.entries if format_term(e.term) == "%0i")
    one = next(e for e in store.entries if format_term(e.term) == "1")
    add_op = lib.op("Add")
    body = build_entry(add_op, ((ph, INT), (one, INT)), TASK, LIMITS, PRIMS,
                       store)
    assert body.weight == 2 and body.free_vars == ("%0i",)
    canon_body, _, _ = store.add(body)
    xs = next(e for e in store.entries if format_term(e.term) == "xs")
    map_op = lib.op("Map")
    fn_param = map_op.signature.params[0]
    entry = build_entry(map_op, ((canon_body, fn_param), (xs, INT_LIST)),
                        TASK, LIMITS, PRIMS, store)
    assert format_term(entry.term) == "(Map (lam (Add $0 1)) xs)"
    assert entry.weight == 4
    assert entry.free_vars == ()
    assert store.solves(entry)


def test_build_entry_outcomes_match_full_evaluation():
    lib = sub_dsl("Add", "Map", "Take", "Reverse")
    task = simple_task([((3, 1, 2), [0]), ((0, 5), [0])], extra={"n": 2})
    store = init_store(task, lib, LIMITS)
    xs = next(e for e in store.entries if format_term(e.term) == "xs")
    n = next(e for e in store.entries if format_term(e.term) == "n")
    take = lib.op("Take")
    entry = build_entry(take, ((xs, INT_LIST), (n, INT)), task, LIMITS, PRIMS,
                        store)
    direct = eval_outcomes(entry.term, task, LIMITS, PRIMS)
    assert store.outcomes_of(entry.ids) == direct


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

def test_exhaustive_finds_min_weight_solution():
    lib = sub_dsl("Add", "Map", "Reverse")
    res = exhaustive_search(TASK, lib, max_weight=5)
    assert res.solution is not None
    assert format_term(res.solution.term) == "(Map (lam (Add $0 1)) xs)"
    assert res.solution.weight == 4


def test_exhaustive_store_is_weight_minimal():
    lib = sub_dsl("Add", "Head")
    res = exhaustive_search(TASK, lib, max_weight=4, stop_on_solve=False)
    for e in res.store.entries:
        # no entry admits a strictly lighter equal-value variant later
        assert e.weight <= 4


def test_searches_return_stores_without_their_build_table():
    lib = sub_dsl("Add", "Map", "Reverse")
    ex = exhaustive_search(TASK, lib, max_weight=5, stop_on_solve=False)
    cfg = SearchConfig(per_task_timeout=0.2, restart_interval=0.2,
                       virtual_clock=True, stop_on_solve=False)
    sr = search(TASK, lib, UniformScorer(), cfg)
    for store in (ex.store, sr.store):
        assert len(store) > 20
        assert not store.plans and not store.lifts
        # the intern table stays: ids still decode
        for e in store.entries:
            assert store.outcomes_of(e.ids) == eval_outcomes(
                e.term, TASK, LIMITS, PRIMS, e.free_vars)


def test_exhaustive_respects_timeout_flag():
    lib = sub_dsl("Add", "Subtract", "Map", "ZipWith")
    res = exhaustive_search(TASK, lib, max_weight=9, timeout=0.05,
                            stop_on_solve=False)
    assert res.timed_out


# ---------------------------------------------------------------------------
# Guided search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("interval", [0.0, -1.0])
def test_search_config_rejects_a_restart_interval_of_zero_or_less(interval):
    # a restart would always be due, and a beam round that yields no tuple
    # never ticks the clock, so the search would never end
    with pytest.raises(ValueError, match="restart_interval"):
        SearchConfig(restart_interval=interval, virtual_clock=True)


@pytest.mark.parametrize("beam_size", [0, -3])
def test_search_config_rejects_a_beam_size_below_one(beam_size):
    # an empty beam stalls and a sampling round draws nothing, so the
    # search would give up at once
    with pytest.raises(ValueError, match="beam_size must be >= 1"):
        SearchConfig(beam_size=beam_size)
    assert SearchConfig(beam_size=None).beam_size is None  # unbounded
    assert SearchConfig(beam_size=1).beam_size == 1


@pytest.mark.parametrize("field", ["per_task_timeout", "restart_interval"])
def test_search_config_rejects_nan_budgets(field):
    # every comparison with NaN is false, so a NaN budget never ran out
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        SearchConfig(**{field: float("nan")})


def test_search_solves_trivial_task_from_store_seed():
    lib = sub_dsl("Reverse")
    task = simple_task([((1, 2), [1, 2])])
    cfg = SearchConfig(per_task_timeout=2.0, restart_interval=2.0)
    r = search(task, lib, UniformScorer(), cfg)
    assert r.solved and format_term(r.program) == "xs"


@pytest.mark.parametrize("outputs,want", [([[1, 2], [3]], "xs"),
                                          ([0, 0], "0")])
def test_a_seed_that_solves_is_returned_without_a_candidate(outputs, want):
    # the task's input and the library constant 0 are seeds: both searches
    # return them before building anything
    task = Task("t", (("xs", INT_LIST),),
                tuple(({"xs": xs}, out)
                      for xs, out in zip([[1, 2], [3]], outputs)))
    r = search(task, FULL, UniformScorer(), SearchConfig(virtual_clock=True))
    assert (r.solved, format_term(r.program), r.candidates_evaluated) == \
        (True, want, 0)
    ex = exhaustive_search(task, FULL, max_weight=5)
    assert (format_term(ex.solution.term), ex.candidates) == (want, 0)


def test_search_agrees_with_exhaustive_on_signature_sets():
    lib = sub_dsl("Add", "Subtract", "Head", "Take")
    rng = random.Random(5)
    for i in range(5):
        xs1 = [rng.randint(-3, 6) for _ in range(3)]
        xs2 = [rng.randint(-3, 6) for _ in range(4)]
        task = simple_task([(tuple(xs1), xs1[:2]), (tuple(xs2), xs2[:2])])
        ex = exhaustive_search(task, lib, max_weight=4, stop_on_solve=False)
        cfg = SearchConfig(per_task_timeout=1e9, restart_interval=1e9,
                           beam_size=None, restarts_enabled=False,
                           max_weight=4, stop_on_solve=False)
        sr = search(task, lib, UniformScorer(), cfg)
        assert _values(ex.store) == _values(sr.store)


def test_search_is_deterministic_under_virtual_clock():
    lib = sub_dsl("Add", "Subtract", "Map")
    cfg = SearchConfig(per_task_timeout=0.4, restart_interval=0.2,
                       beam_size=8, max_weight=6, random_seed=11,
                       virtual_clock=True)
    r1 = search(TASK, lib, UniformScorer(), cfg)
    r2 = search(TASK, lib, UniformScorer(), cfg)
    assert r1.solved == r2.solved
    assert r1.candidates_evaluated == r2.candidates_evaluated
    if r1.solved:
        assert format_term(r1.program) == format_term(r2.program)


def test_search_restarts_reseed():
    lib = sub_dsl("Add", "Subtract")
    task = simple_task([((1,), 999), ((2,), -999)])  # unsolvable
    cfg = SearchConfig(per_task_timeout=0.3, restart_interval=0.1,
                       beam_size=4, max_weight=4, virtual_clock=True)
    r = search(task, lib, UniformScorer(), cfg)
    assert not r.solved
    assert r.restarts >= 1


def test_beam_select_args_respects_beam_size():
    lib = sub_dsl("Add")
    store = init_store(TASK, lib, LIMITS)
    op = lib.op("Add")
    tuples = beam_select_args(op, store, UniformScorer(), 3, TASK)
    assert 0 < len(tuples) <= 3


def test_solution_weight_matches_term_size():
    lib = sub_dsl("Add", "Map", "Reverse")
    res = exhaustive_search(TASK, lib, max_weight=5)
    assert res.solution.weight == term_size(res.solution.term)


# ---------------------------------------------------------------------------
# Cached candidate building vs plain evaluation
# ---------------------------------------------------------------------------

def _with_learned(lib, *defs):
    """`lib` plus learned operations given as (name, type, body text)."""
    for name, ty, text in defs:
        body = parse_term(text, set(lib.op_names()))
        op = Operation(name, parse_type(ty), abstraction_func(body, lib.prims()),
                       provenance=LearnedAbstraction(body))
        lib = DSLibrary(lib.operations + (op,), lib.constants)
    return lib


MICRO_LIB = load_library(os.path.join(
    os.path.dirname(pbesynth.__file__), "data", "micro_library.txt"))
# a learned op whose cost grows with its argument (put inside Map below),
# and one that takes a lambda
LEARNED_LIB = _with_learned(
    FULL,
    ("fn_1", "(Int) -> Int", "(lam (Sum (Map (lam (Add $0 1)) (Range 0 $0))))"),
    ("fn_2", "((Int) -> Int, IntList) -> IntList", "(lam2 (Map $1 (Reverse $0)))"))

_small_ints = st.integers(-3, 6)
_small_lists = st.lists(_small_ints, max_size=4)


@st.composite
def _repeating_tasks(draw):
    """Tasks whose `ys` is the same in every example while `xs` and `n`
    vary, so a lambda mapped over `ys` sees the same argument values in
    every example, and gives different results only if it reads `xs` or
    `n`."""
    ys = draw(_small_lists)
    examples = tuple(
        ({"xs": draw(_small_lists), "ys": list(ys), "n": draw(_small_ints)},
         draw(_small_lists))
        for _ in range(draw(st.integers(2, 4))))
    return Task("t", (("xs", INT_LIST), ("ys", INT_LIST), ("n", INT)),
                examples)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cached_build_entry_matches_plain_evaluation(data):
    lib = data.draw(st.sampled_from([MICRO_LIB, LEARNED_LIB]))
    limits = EvalLimits(max_steps=data.draw(st.integers(1, 60)))
    task = data.draw(_repeating_tasks())
    prims = lib.prims()
    # every candidate is built in full, through the store's plans as in
    # one search
    store = _unprobed(init_store(task, lib, limits))
    names = set(lib.op_names())

    def entry(text):
        # by value: an input equal to another in every example is stored
        # once
        t = parse_term(text, names)
        fv = ("%0i",) if text == "%0i" else ()
        return _stored(store, eval_outcomes(t, task, limits, prims, fv), fv)

    def build(name, *args):
        op = lib.op(name)
        tup = tuple(zip(args, op.signature.params))
        e = build_entry(op, tup, task, limits, prims, store)
        plain = eval_outcomes(e.term, task, limits, prims, e.free_vars)
        assert store.outcomes_of(e.ids) == plain, format_term(e.term)
        # `steps` bounds the steps of every evaluation that completes
        assert e.steps >= _evaluated(e.term, task, limits, prims,
                                     e.free_vars)[1]
        return store.add(e)[0]

    # lambda bodies: one reads a task input, one does not, so over `ys`
    # its contexts repeat across examples
    ph, xs, ys = entry("%0i"), entry("xs"), entry("ys")
    bodies = [build("Add", ph, build("Head", xs)), build("Add", ph, entry("1"))]
    if lib is LEARNED_LIB:
        bodies.append(build("fn_1", ph))
    for body in bodies:
        build("Map", body, ys)
        if lib is LEARNED_LIB:
            build("fn_2", body, ys)
    for _ in range(data.draw(st.integers(0, 30))):
        op = data.draw(st.sampled_from(lib.operations))
        tup = tuple((data.draw(st.sampled_from(
            store.candidates_for(pty))), pty)
            for pty in op.signature.params)
        if admissible(tup, store.allowed):
            build(op.name, *(e for e, _ in tup))


class _Misses(dict):
    """A dict whose `get` finds nothing."""

    def get(self, key, default=None):
        return default


def _unprobed(store):
    """`store`, with an id probe that always misses, so build_entry builds
    every candidate in full; ValueStore.add reads the index through
    setdefault, which still finds."""
    store.by_ids = _Misses(store.by_ids)
    return store


def _store_state(store):
    return ([(format_term(e.term), e.weight, e.ty, e.free_vars, e.index,
              e.provenance, store.outcomes_of(e.ids), e.steps)
             for e in store.entries], store.improved)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_probed_store_matches_a_store_fed_full_entries(data):
    """build_entry returns the stored entry for a duplicate at an equal or
    higher weight, and builds no term or entry for it.  Fed to store.add,
    every candidate must give the (entry, is_new, improved) triple a store
    whose probe always misses, fed full entries, gives, and the two stores
    must end the same."""
    lib = data.draw(st.sampled_from([MICRO_LIB, LEARNED_LIB]))
    limits = EvalLimits(max_steps=data.draw(st.integers(1, 60)))
    task = data.draw(_repeating_tasks())
    prims = lib.prims()
    probed = init_store(task, lib, limits)
    ref = _unprobed(init_store(task, lib, limits))
    names = set(lib.op_names())

    def entry(text):
        t = parse_term(text, names)
        fv = ("%0i",) if "%0i" in text else ()
        return _stored(probed, eval_outcomes(t, task, limits, prims, fv), fv)

    def build(name, *args):
        op = lib.op(name)
        tup = tuple(zip(args, op.signature.params))
        twin = tuple((ref.entries[e.index], pty) for e, pty in tup)
        got = build_entry(op, tup, task, limits, prims, probed)
        full = build_entry(op, twin, task, limits, prims, ref)
        if got.index < 0:  # built in full
            assert probed.outcomes_of(got.ids) == \
                eval_outcomes(got.term, task, limits, prims, got.free_vars)
        else:  # a duplicate, at the stored weight or more
            assert probed.entries[got.index] is got
            assert (got.free_vars, probed.outcomes_of(got.ids)) == \
                (full.free_vars, ref.outcomes_of(full.ids))
            assert got.weight <= full.weight
        canon, is_new, improved = probed.add(got)
        want = ref.add(full)
        assert (canon.index, is_new, improved) == \
            (want[0].index, want[1], want[2])
        return canon

    ph, xs, ys = entry("%0i"), entry("xs"), entry("ys")
    one, two = entry("1"), entry("2")
    # x + 2 at weight 4, then at a lower (2), an equal (2) and a higher (4)
    # weight; x + 1 + 1 takes 5 steps, so under fewer only their errors
    # agree
    heavy = build("Add", build("Add", ph, one), one)
    light = build("Add", ph, two)
    assert build("Add", two, ph) is light
    again = build("Add", build("Add", ph, one), one)
    if limits.max_steps >= 5:
        assert light is heavy is again and heavy.weight == 2
    # lambda bodies over `ys`, which is the same in every example
    bodies = [heavy, build("Add", ph, build("Head", xs))]
    if lib is LEARNED_LIB:
        bodies.append(build("fn_1", ph))
    for body in bodies:
        build("Map", body, ys)
        if lib is LEARNED_LIB:
            build("fn_2", body, ys)
    for _round in range(data.draw(st.integers(1, 3))):
        for _ in range(data.draw(st.integers(0, 25))):
            op = data.draw(st.sampled_from(lib.operations))
            tup = tuple((data.draw(st.sampled_from(
                probed.candidates_for(pty))), pty)
                for pty in op.signature.params)
            if admissible(tup, probed.allowed):
                build(op.name, *(e for e, _ in tup))
        assert _store_state(probed) == _store_state(ref)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_store_ids_decode_to_outcomes_and_probe_as_signatures(data):
    """Over random growth rounds, every entry's ids decode through the
    store's intern table to the outcomes of its term, evaluated in full,
    and by_ids holds exactly the entries.  Each candidate's id probe finds
    the stored entry with the type, free placeholders and outcomes of the
    candidate's term."""
    lib = data.draw(st.sampled_from([MICRO_LIB, LEARNED_LIB]))
    limits = EvalLimits(max_steps=data.draw(st.integers(1, 60)))
    task = data.draw(_repeating_tasks())
    prims = lib.prims()
    store = init_store(task, lib, limits)
    for _round in range(data.draw(st.integers(1, 3))):
        for _ in range(data.draw(st.integers(0, 25))):
            op = data.draw(st.sampled_from(lib.operations))
            tup = tuple((data.draw(st.sampled_from(
                store.candidates_for(pty))), pty)
                for pty in op.signature.params)
            if not admissible(tup, store.allowed):
                continue
            term = Apply(PrimRef(op.name),
                         tuple(arg_term(e, pty, store) for e, pty in tup))
            fv = set()
            for e, pty in tup:
                if not isinstance(pty, Arrow):
                    fv.update(e.free_vars)
            fv = tuple(sorted(fv))
            outs = eval_outcomes(term, task, limits, prims, fv)
            got = build_entry(op, tup, task, limits, prims, store)
            stored = _stored(store, outs, fv, op.signature.ret)
            if got.index >= 0:  # the probe's find
                assert got is stored
            else:
                assert (got.free_vars, store.outcomes_of(got.ids)) == \
                    (fv, outs)
                assert stored is None or stored.weight > got.weight
            store.add(got)
        for e in store.entries:
            assert store.outcomes_of(e.ids) == eval_outcomes(
                e.term, task, limits, prims, e.free_vars)
            assert store.by_ids[(e.ty, e.free_vars, e.ids)] is e
        assert len(store.by_ids) == len(store.entries)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grown_store_entries_typecheck_at_their_type(data):
    """After random growth rounds every entry's term typechecks at the
    entry's type.  Under a small step budget most terms run out of steps
    in every context, so entries of different types often have the same
    outcomes."""
    lib = data.draw(st.sampled_from([MICRO_LIB, LEARNED_LIB]))
    limits = EvalLimits(max_steps=data.draw(st.integers(1, 4)))
    task = data.draw(_repeating_tasks())
    prims = lib.prims()
    symbols = lib.symbol_types()
    store = init_store(task, lib, limits)
    for _round in range(data.draw(st.integers(1, 3))):
        for _ in range(data.draw(st.integers(0, 25))):
            op = data.draw(st.sampled_from(lib.operations))
            tup = tuple((data.draw(st.sampled_from(
                store.candidates_for(pty))), pty)
                for pty in op.signature.params)
            if admissible(tup, store.allowed):
                store.add(build_entry(op, tup, task, limits, prims, store))
        for e in store.entries:
            env = dict(task.input_types)
            env.update((n, placeholder_info(n)[1]) for n in e.free_vars)
            infer_type(e.term, env, symbols, expected=e.ty)


def test_search_builds_entries_only_for_new_or_improved_values(monkeypatch):
    """A search builds a ValueEntry only for a seed, a new entry or an
    improvement: each duplicate at an equal or higher weight is found by
    its signature first."""
    built, adds = [], []
    real_add = ValueStore.add

    def entry(*args, **kwargs):
        built.append(args[0])
        return ValueEntry(*args, **kwargs)

    def add(store, e):
        out = real_add(store, e)
        adds.append(out[1] or out[2])
        return out

    monkeypatch.setattr(pbesynth.synthesis, "ValueEntry", entry)
    monkeypatch.setattr(ValueStore, "add", add)
    task = next(t for t in load_tasks(os.path.join(
        os.path.dirname(pbesynth.__file__), "data", "micro_tasks.txt"))
        if t.name == "motif_00")
    seeds = len(init_store(task, MICRO_LIB, LIMITS).entries)
    built.clear()
    adds.clear()
    cfg = SearchConfig(per_task_timeout=3.5, restart_interval=3.5,
                       beam_size=None, max_weight=5, virtual_clock=True,
                       restarts_enabled=False)
    r = search(task, MICRO_LIB, UniformScorer(), cfg)
    assert len(adds) == seeds + r.candidates_evaluated
    assert len(built) == seeds + sum(adds[seeds:])
    # 10 seeds and 824 new or improved entries; without the probe each of
    # the 2,150 candidates built one.  Before the store key held the type,
    # an Int and an IntList value with the same outcomes were one entry:
    # 2,146 candidates and 823 entries.
    assert (r.solved, r.candidates_evaluated, seeds, len(built)) == \
        (True, 2150, 10, 834)


def test_application_table_follows_an_improved_lambda():
    """A lambda's term changes when the store improves its entry in place,
    and the improved term only has to match the old one on the battery;
    so an application that used the old term is not reused."""
    task = simple_task([((7, 2), [0]), ((9,), [0])])
    # the probe would return the stored %0i for (Min %0i 5) below
    store = _unprobed(init_store(task, FULL, LIMITS))

    def build(name, *args):
        op = FULL.op(name)
        e = build_entry(op, tuple(zip(args, op.signature.params)), task,
                        LIMITS, PRIMS, store)
        return e, store.add(e)

    def stored(text):
        return next(e for e in store.entries if format_term(e.term) == text)

    ph, one, two = stored("%0i"), stored("1"), stored("2")
    three = build("Add", two, one)[1][0]
    five = build("Add", two, three)[1][0]
    # (Min %0i 5) is stored as %0i, so it is used as built.
    # (Add 1 (Min %0i 5)) is (Add %0i 1) on the battery, whose largest Int
    # is 5, but not on the elements 7 and 9.
    body, (lam, is_new, _) = build("Add", one, build("Min", ph, five)[0])
    assert is_new and body.weight == 8
    xs = stored("xs")
    first = build("Map", lam, xs)[0]
    assert store.outcomes_of(first.ids) == (("l", (6, 3)), ("l", (6,)))
    better, (canon, _, improved) = build("Add", ph, one)
    assert canon is lam and improved and lam.weight == better.weight == 2
    again = build("Map", lam, xs)[0]
    assert format_term(again.term) == "(Map (lam (Add $0 1)) xs)"
    outcomes = store.outcomes_of(again.ids)
    assert outcomes == eval_outcomes(again.term, task, LIMITS, PRIMS)
    assert outcomes == (("l", (8, 3)), ("l", (10,)))


def test_application_table_pins_primitive_calls(monkeypatch):
    """One table per search applies each operation once per distinct
    argument vector in that search, and lifts each lambda once per (index,
    weight, parameter type): the counts were recorded when the table came
    in (before it, 20,483 and 30,466 primitive calls), when it took the
    lifts (before, 1,061 and 241 lifts) and when a lambda that reads no
    task input stopped being keyed by example (before, 2,099 and 2,499
    calls), and the candidate counts are unchanged.  The search's
    candidate count was 2,146 before the store key held the type."""
    calls, lifts = [], []

    def counting(*args):
        calls.append(args[0])
        return invoke_prim(*args)

    def lifting(term, names):
        lifts.append(term)
        return bind_input_vars(term, names)

    monkeypatch.setattr(pbesynth.synthesis, "invoke_prim", counting)
    monkeypatch.setattr(pbesynth.synthesis, "bind_input_vars", lifting)
    task = next(t for t in load_tasks(os.path.join(
        os.path.dirname(pbesynth.__file__), "data", "micro_tasks.txt"))
        if t.name == "motif_00")
    cfg = SearchConfig(per_task_timeout=3.5, restart_interval=3.5,
                       beam_size=None, max_weight=5, virtual_clock=True,
                       restarts_enabled=False)
    r = search(task, MICRO_LIB, UniformScorer(), cfg)
    assert (r.solved, r.candidates_evaluated, len(calls), len(lifts)) == \
        (True, 2150, 1996, 40)
    calls.clear()
    lifts.clear()
    ex = exhaustive_search(task, MICRO_LIB, max_weight=4, stop_on_solve=False)
    assert (ex.candidates, len(calls), len(lifts)) == (3383, 2434, 31)


@pytest.mark.parametrize("case", ["unbounded search", "beam search",
                                  "exhaustive search", "trace generation"])
def test_finished_search_leaves_no_cyclic_garbage(case, cyclic_garbage):
    """A search, an exhaustive search and trace generation leave nothing in
    reference cycles, so the store a search built is freed by reference
    counting as soon as its caller drops it.  A nested function that calls
    itself holds its own closure cell; on the search path that cycle would
    keep each round's candidate snapshots, and the entries and terms in
    them, alive until the collector next ran."""
    data = os.path.join(os.path.dirname(pbesynth.__file__), "data")
    motif = next(t for t in load_tasks(os.path.join(data, "micro_tasks.txt"))
                 if t.name == "motif_00")
    if case == "unbounded search":
        cfg = SearchConfig(per_task_timeout=3.5, restart_interval=3.5,
                           beam_size=None, max_weight=5, virtual_clock=True,
                           restarts_enabled=False)
        run = partial(search, motif, MICRO_LIB, UniformScorer(), cfg)
    elif case == "beam search":
        task = next(t for t in load_tasks(os.path.join(data, "tasks.txt"))
                    if t.name == "succ_all")
        scorer = train_scorer(generate_traces(
            FULL, TraceGenConfig(max_weight=2, episodes=2)))
        cfg = SearchConfig(per_task_timeout=0.3, restart_interval=0.3,
                           beam_size=10, max_weight=8, virtual_clock=True)
        run = partial(search, task, FULL, scorer, cfg)
    elif case == "exhaustive search":
        run = partial(exhaustive_search, motif, MICRO_LIB, max_weight=4,
                      stop_on_solve=False)
    else:
        run = partial(generate_traces, FULL,
                      TraceGenConfig(max_weight=2, episodes=2))
    assert cyclic_garbage(run) == []


# ---------------------------------------------------------------------------
# Cached argument selection vs the full-sort reference
# ---------------------------------------------------------------------------

def reference_beam_select_args(op, store, scorer, beam_size, task):
    """beam_select_args without the rankings: every beam re-scores every
    candidate, then a full sort and truncate."""
    per_position = []
    for j, pty in enumerate(op.signature.params):
        cands = store.candidates_for(pty)
        if not cands:
            return []
        per_position.append((pty, cands,
                             make_context(task, j, store.values)))
    beams = [((), 0.0, 0, ())]
    for pty, cands, ctx in per_position:
        nxt = []
        for entries, score, wsum, key in beams:
            last = entries[-1][0] if entries else None
            for e in cands:
                s = scorer.score(op.name, e, e is last, ctx)
                nxt.append((entries + ((e, pty),), score + s,
                            wsum + e.weight, key + (e.index,)))
        nxt.sort(key=lambda b: (-b[1], b[2], b[3]))
        beams = nxt[:beam_size]
    out = []
    for entries, _score, _wsum, _key in beams:
        free = set()
        for e, pty in entries:
            if not isinstance(pty, Arrow):
                free |= set(e.free_vars)
        if not free or any(free <= s for s in store.allowed):
            out.append(entries)
    return out


def reference_sampler_dists(op, store, scorer, task):
    dists = []
    for j, pty in enumerate(op.signature.params):
        cands = store.candidates_for(pty)
        if not cands:
            return None
        ctx = make_context(task, j, store.values)
        scores = [scorer.score(op.name, e, False, ctx) for e in cands]
        m = max(scores)
        weights = [math.exp(s - m) for s in scores]
        total = sum(weights)
        dists.append((list(cands), [w / total for w in weights]))
    return dists


DIFF_LIB = sub_dsl("Add", "Subtract", "Head", "Take", "IsEven", "Map",
                   "Filter", "ZipWith")


def _grow(store, data, max_steps=25, ops=DIFF_LIB.operations):
    """Grow a store for TASK by a drawn sequence of applications of `ops`,
    so it holds concrete values, lambda bodies and errors."""
    prims = DIFF_LIB.prims()
    if not ops:
        return store
    for _ in range(data.draw(st.integers(0, max_steps))):
        op = data.draw(st.sampled_from(ops))
        tup = []
        for pty in op.signature.params:
            cands = store.candidates_for(pty)
            tup.append((cands[data.draw(st.integers(0, len(cands) - 1))],
                        pty))
        store.add(build_entry(op, tuple(tup), TASK, LIMITS, prims, store))
    return store


def _improve(store, data):
    """Lower the weight of a drawn entry in place, as ValueStore.add does
    when it finds a lighter term with the same value."""
    heavy = [e for e in store.entries if e.weight > 0]
    if not heavy:
        return
    e = heavy[data.draw(st.integers(0, len(heavy) - 1))]
    lighter = data.draw(st.integers(0, e.weight - 1))
    _canon, is_new, improved = store.add(
        ValueEntry(e.term, lighter, e.ty, e.free_vars, steps=e.steps,
                   ids=e.ids))
    assert improved and not is_new and e.weight == lighter


_coef = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
# magnitudes where adding two different scores can round to the same float
_huge = st.tuples(st.floats(1e15, 1e17), st.booleans()).map(
    lambda t: t[0] if t[1] else -t[0])
_vectors = st.one_of(
    # all zero: every candidate ties, so only weight and index decide
    st.just([0.0] * FEATURE_DIM),
    # small integers: many ties, and the prefix-match feature matters
    st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=FEATURE_DIM,
             max_size=FEATURE_DIM),
    # general floats with a nonzero prefix-match coefficient
    st.tuples(st.lists(_coef, min_size=FEATURE_DIM, max_size=FEATURE_DIM),
              _coef.filter(lambda x: x != 0.0)).map(
        lambda t: t[0][:10] + [t[1]] + t[0][11:]),
    # a huge bias next to small coefficients: beam score + score ties
    # although the scores differ, so the tie-break by weight and index
    # decides
    st.tuples(_huge, st.lists(_coef, min_size=FEATURE_DIM - 1,
                              max_size=FEATURE_DIM - 1)).map(
        lambda t: [t[0]] + t[1]),
    st.lists(st.one_of(_huge, _coef), min_size=FEATURE_DIM,
             max_size=FEATURE_DIM),
)


def _scorers(data):
    names = DIFF_LIB.op_names()
    known = data.draw(st.lists(st.sampled_from(names), unique=True))
    return LinearScorer({n: data.draw(_vectors) for n in known})


def _ids(tuples):
    return [tuple((e.index, pty) for e, pty in tup) for tup in tuples]


def _choices(dists):
    return [list(choices) for choices, _ in dists or ()]


def _dist_ids(dists):
    if dists is None:
        return None
    return [[(e.index, p) for e, p in zip(*d)] for d in dists]


def _assert_selection_matches_reference(store, scorer):
    for op in DIFF_LIB.operations:
        for beam in (1, 3, 10):
            got = beam_select_args(op, store, scorer, beam, TASK)
            want = reference_beam_select_args(op, store, scorer, beam, TASK)
            assert _ids(got) == _ids(want), (op.name, beam)
        assert _dist_ids(_sampler_dists(op, store, scorer, TASK)) == \
            _dist_ids(reference_sampler_dists(op, store, scorer, TASK))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cached_selection_matches_full_sort_reference(data):
    # several grow -> select -> improve rounds on one store, so candidate
    # lists, rankings and cached scores carry over from round to round
    store = init_store(TASK, DIFF_LIB, LIMITS)
    scorer = _scorers(data)
    for _round in range(data.draw(st.integers(1, 4))):
        _grow(store, data, max_steps=12)
        _assert_selection_matches_reference(store, scorer)
        for _ in range(data.draw(st.integers(0, 2))):
            _improve(store, data)
        _assert_selection_matches_reference(store, scorer)


def test_selection_breaks_rounded_score_ties_like_reference():
    # a bias of 1e16 makes beam score + score round to a multiple of 4, so
    # candidates past the first `beam_size` of a ranking tie with them and
    # win on weight or index
    rng = random.Random(3)
    store = init_store(TASK, DIFF_LIB, LIMITS)
    prims = DIFF_LIB.prims()
    for _ in range(40):
        op = rng.choice(DIFF_LIB.operations)
        tup = tuple((rng.choice(store.candidates_for(pty)), pty)
                    for pty in op.signature.params)
        store.add(build_entry(op, tup, TASK, LIMITS, prims, store))
    for _ in range(5):
        scorer = LinearScorer({
            n: [1e16] + [rng.uniform(-3.0, 3.0) for _ in range(FEATURE_DIM - 1)]
            for n in DIFF_LIB.op_names()})
        _assert_selection_matches_reference(store, scorer)


def reference_candidates_for(store, pty):
    """candidates_for as a fresh filter of the store's entries by type."""
    if isinstance(pty, Arrow):
        names = arrow_placeholder_names(pty)
        if names is None:
            return []
        return [e for e in store.by_ty.get(pty.ret, [])
                if set(e.free_vars) <= set(names)]
    return [e for e in store.by_ty.get(pty, [])
            if not e.free_vars or any(set(e.free_vars) <= s
                                      for s in store.allowed)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_incremental_candidates_match_fresh_filter(data):
    params = sorted({pty for op in DIFF_LIB.operations
                     for pty in op.signature.params}, key=repr)
    store = init_store(TASK, DIFF_LIB, LIMITS)
    for _round in range(data.draw(st.integers(1, 4))):
        _grow(store, data, max_steps=10)
        for _ in range(data.draw(st.integers(0, 2))):
            _improve(store, data)
        for pty in params:
            got = store.candidates_for(pty)
            assert got == reference_candidates_for(store, pty)
            assert [e.index for e in got] == sorted(e.index for e in got)


def _plain_score(scorer, name, entry, repeat, position, store):
    """LinearScorer.score without a feature memo, as a dot product."""
    w = scorer.per_op_parameters[name]
    phi = extract_features(entry, repeat,
                           make_context(TASK, position, store.values))
    return sum(a * b for a, b in zip(w, phi))


def _kept_scores(store, scorer):
    """(op name, position, entry, repeat, score) for every score `store`
    keeps for `scorer` under an entry's current weight: each ranking's
    scores as not a repeat and as a repeat."""
    out = []
    for op in DIFF_LIB.operations:
        for j, pty in enumerate(op.signature.params):
            cands = store.candidates_for(pty)
            r = store.ranking(scorer, op.name, j, cands,
                              make_context(TASK, j, store.values,
                                           store.features))
            out += [(op.name, j, e, False, -neg)
                    for neg, _, _, e in r.order]
            out += [(op.name, j, store.entries[i], True, s)
                    for (i, w), s in r.repeats.items()
                    if store.entries[i].weight == w]
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_memoized_scores_equal_plain_feature_products(data):
    """Every score argument selection keeps, computed through a store's
    feature memo, is bit for bit the dot product of freshly extracted
    features; over grow and improve rounds, and with two stores of one
    task whose entries share indices, as after a restart."""
    scorer = _scorers(data)
    stores = [init_store(TASK, DIFF_LIB, LIMITS) for _ in range(2)]
    for _round in range(data.draw(st.integers(1, 3))):
        for store in stores:
            _grow(store, data, max_steps=10)
            for _ in range(data.draw(st.integers(0, 2))):
                _improve(store, data)
        for op in DIFF_LIB.operations:
            for store in stores:
                beam_select_args(op, store, scorer, 3, TASK)
                _sampler_dists(op, store, scorer, TASK)
        for store in stores:
            for name, j, e, last, got in _kept_scores(store, scorer):
                if name not in scorer.per_op_parameters:
                    assert got == 0.0
                    continue
                want = _plain_score(scorer, name, e, last, j, store)
                assert got.hex() == want.hex(), (name, j, e.index, last)
            for (i, w), phi in store.features.items():
                e = store.entries[i]
                if e.weight == w:
                    assert phi == extract_features(
                        e, False, make_context(TASK, 0, store.values))[:10]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reused_sampler_dists_equal_reference(data):
    """Every distribution, over grow and improve rounds, is exactly the
    reference's.  Each round grows the store through a drawn subset of the
    operations, so only the positions of some types gain candidates."""
    store = init_store(TASK, DIFF_LIB, LIMITS)
    scorer = _scorers(data)
    kept = []  # (dists, their choices when built)
    for _round in range(data.draw(st.integers(2, 5))):
        ops = data.draw(st.lists(st.sampled_from(DIFF_LIB.operations),
                                 max_size=2, unique_by=lambda o: o.name))
        _grow(store, data, max_steps=6, ops=ops)
        if data.draw(st.booleans()):
            _improve(store, data)
        # a distribution handed to a sampler keeps its choices as the
        # store grows
        assert all(_choices(d) == built for d, built in kept)
        for op in DIFF_LIB.operations:
            dists = _sampler_dists(op, store, scorer, TASK)
            assert _dist_ids(dists) == \
                _dist_ids(reference_sampler_dists(op, store, scorer, TASK))
            kept.append((dists, _choices(dists)))


def test_guided_search_extracts_features_once_per_scored_entry(monkeypatch):
    """With a trained scorer, a search extracts the features of each
    (index, weight) it scores once, however many operations, positions
    and prefixes score it: 159 calls, where every score used to extract
    them (775 calls)."""
    scorer = train_scorer(generate_traces(
        FULL, TraceGenConfig(max_weight=2, episodes=2)))
    extracted = []

    def counting(candidate, repeat, ctx):
        extracted.append((candidate.index, candidate.weight))
        return extract_features(candidate, repeat, ctx)

    monkeypatch.setattr(pbesynth.guidance, "extract_features", counting)
    task = next(t for t in load_tasks(os.path.join(
        os.path.dirname(pbesynth.__file__), "data", "tasks.txt"))
        if t.name == "succ_all")
    cfg = SearchConfig(per_task_timeout=0.3, restart_interval=0.3,
                       beam_size=10, max_weight=8, virtual_clock=True)
    r = search(task, FULL, scorer, cfg)
    assert (r.solved, r.candidates_evaluated, r.restarts) == (False, 300, 0)
    assert len(extracted) == len(set(extracted)) == 159


def test_rankings_belong_to_one_scorer():
    store = init_store(TASK, DIFF_LIB, LIMITS)
    a, b = LinearScorer({}), LinearScorer({})
    cands = store.candidates_for(INT)
    ctx = make_context(TASK, 0, store.values, store.features)
    r = store.ranking(a, "Add", 0, cands, ctx)
    r.repeats[(0, 1)] = 1.0
    assert store.ranking(a, "Add", 0, cands, ctx) is r
    assert r.repeats == {(0, 1): 1.0}
    fresh = store.ranking(b, "Add", 0, cands, ctx)
    assert fresh is not r and fresh.repeats == {}
    assert [item[2] for item in fresh.order] == [item[2] for item in r.order]


# ---------------------------------------------------------------------------
# Trajectory pin: guided search with a trained scorer
# ---------------------------------------------------------------------------

# (program, candidates_evaluated, final store size) per task, recorded
# before argument selection cached scores; a change to selection that keeps
# these keeps the search trajectory.
PINNED_TRAJECTORY = {
    "reverse": ("(Reverse xs)", 85, 72),
    "sort": ("(Sort xs)", 95, 78),
    "succ_all": (None, 300, 177),
}


def test_guided_search_trajectory_is_pinned():
    scorer = train_scorer(generate_traces(
        FULL, TraceGenConfig(max_weight=2, episodes=2)))
    tasks = {t.name: t for t in load_tasks(os.path.join(
        os.path.dirname(pbesynth.__file__), "data", "tasks.txt"))}
    cfg = SearchConfig(per_task_timeout=0.3, restart_interval=0.3,
                       beam_size=10, max_weight=8, virtual_clock=True)
    got = {}
    for name in PINNED_TRAJECTORY:
        r = search(tasks[name], FULL, scorer, cfg)
        got[name] = (format_term(r.program) if r.solved else None,
                     r.candidates_evaluated, len(r.store.entries))
    assert got == PINNED_TRAJECTORY


# ---------------------------------------------------------------------------
# Trajectory pins: restarts, sampling rounds, searching past a solve
# ---------------------------------------------------------------------------

SMALL_LIB = sub_dsl("Add", "Head", "Map", "Take")
STEP_LIB = sub_dsl("Add", "Sum", "Range", "Map", "Filter", "IsEven")

# (library, trained scorer?, SearchConfig keywords, {task: (solved, program,
# candidates_evaluated, restarts, elapsed, store size)}); every search runs
# on the virtual clock.  Recorded before the beam and the sampling round
# shared one executor, and again when the store key took the entry's type;
# the unbounded cases again when unbounded search stopped restarting.
PINNED_SEARCHES = [
    # restarts, with sampling rounds whenever the beam stalls
    (FULL, False, dict(beam_size=4, restart_interval=0.15,
                       per_task_timeout=0.5, max_weight=6),
     {"reverse": (True, "(Reverse xs)", 37, 0, 0.037, 36),
      "succ_all": (False, None, 457, 2, 0.5, 59)}),
    (FULL, True, dict(beam_size=5, restart_interval=0.2,
                      per_task_timeout=0.5, max_weight=7),
     {"sort": (True, "(Sort xs)", 50, 0, 0.05, 42),
      "succ_all": (False, None, 451, 1, 0.5, 136)}),
    # restarts and sampling rounds on a small library
    (SMALL_LIB, False, dict(beam_size=6, restart_interval=0.25,
                            per_task_timeout=1.0, max_weight=5),
     {"succ_all": (False, None, 314, 3, 1.0, 45),
      "double_all": (True, "(Map (lam (Add $0 $0)) xs)", 69, 0, 0.215, 47)}),
    (SMALL_LIB, False, dict(beam_size=3, restart_interval=0.15,
                            per_task_timeout=1.0, max_weight=3,
                            stop_on_solve=False),
     {"first": (True, "(Head xs)", 200, 6, 1.0, 20),
      "double_all": (True, "(Map (lam (Add $0 $0)) xs)", 200, 6, 1.0, 20)}),
    # a step budget that some candidates run out of
    (STEP_LIB, True, dict(beam_size=10, restart_interval=0.25,
                          per_task_timeout=1.0, max_weight=8,
                          eval_limits=EvalLimits(max_steps=30)),
     {"running_sum": (False, None, 599, 3, 1.0, 62),
      "double_all": (False, None, 617, 3, 1.0, 61)}),
    # unbounded search, which never restarts: it runs to exhaustion or
    # the timeout
    (SMALL_LIB, False, dict(beam_size=None, restart_interval=0.1,
                            per_task_timeout=1.0, max_weight=4,
                            stop_on_solve=False),
     {"succ_all": (True, "(Map (lam (Add $0 1)) xs)", 234, 0, 0.234, 75)}),
    (MICRO_LIB, False, dict(beam_size=None, restart_interval=0.2,
                            per_task_timeout=0.6, max_weight=5),
     {"motif_00": (False, None, 600, 0, 0.6, 315)}),
    # the beam stalls and sampling spends its supports before the timeout
    (SMALL_LIB, False, dict(beam_size=4, restart_interval=5.0,
                            per_task_timeout=5.0, max_weight=3,
                            restarts_enabled=False),
     {"succ_all": (False, None, 80, 0, 3.0700000000000003, 38)}),
]


def test_search_trajectories_are_pinned():
    trained = train_scorer(generate_traces(
        FULL, TraceGenConfig(max_weight=2, episodes=2)))
    data = os.path.join(os.path.dirname(pbesynth.__file__), "data")
    tasks = {t.name: t for f in ("tasks.txt", "micro_tasks.txt")
             for t in load_tasks(os.path.join(data, f))}
    for lib, is_trained, kw, pinned in PINNED_SEARCHES:
        cfg = SearchConfig(virtual_clock=True, **kw)
        scorer = trained if is_trained else UniformScorer()
        got = {}
        for name in pinned:
            r = search(tasks[name], lib, scorer, cfg)
            got[name] = (r.solved,
                         format_term(r.program) if r.solved else None,
                         r.candidates_evaluated, r.restarts, r.elapsed,
                         len(r.store))
        assert got == pinned, kw


@pytest.mark.parametrize("lib,name", [(SMALL_LIB, "succ_all"),
                                      (SMALL_LIB, "double_all"),
                                      (MICRO_LIB, "motif_00")],
                         ids=["succ_all", "double_all", "motif_00"])
def test_unbounded_search_ignores_the_restart_interval(lib, name):
    # nothing in an unbounded search is random, so a restart would only
    # replay the interval before it: succ_all is solved at candidate 109,
    # past a 100-tick interval
    task = {t.name: t for f in ("tasks.txt", "micro_tasks.txt")
            for t in load_tasks(os.path.join(os.path.dirname(
                pbesynth.__file__), "data", f))}[name]
    runs = []
    for interval in (0.1, 1.0):
        r = search(task, lib, UniformScorer(), SearchConfig(
            per_task_timeout=1.0, restart_interval=interval, beam_size=None,
            max_weight=5, virtual_clock=True))
        assert r.restarts == 0
        runs.append((r.solved, r.program, r.candidates_evaluated, r.elapsed,
                     _values(r.store)))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# What every stored entry holds
# ---------------------------------------------------------------------------

# with an IntList placeholder, a body over both %0i and %0l fits no allowed
# set
LIST_ARROW_LIB = _with_learned(
    MICRO_LIB, ("fn_0", "((IntList) -> Int, IntList) -> Int",
                "(lam2 ($1 (Reverse $0)))"))


@pytest.mark.parametrize("lib", [MICRO_LIB, LIST_ARROW_LIB],
                         ids=["micro", "list-arrow"])
def test_every_stored_entry_fits_an_allowed_set_and_knows_its_steps(lib):
    # candidates_for takes every stored entry of a non-arrow type, and
    # _applied reads every argument's steps
    task = {t.name: t for t in load_tasks(os.path.join(
        os.path.dirname(pbesynth.__file__), "data",
        "micro_tasks.txt"))}["wrap_00_0"]
    stores = [search(task, lib, UniformScorer(), SearchConfig(
        per_task_timeout=1.0, restart_interval=1.0, beam_size=beam_size,
        max_weight=5, virtual_clock=True, stop_on_solve=False)).store
              for beam_size in (10, None)]
    stores.append(exhaustive_search(task, lib, 4, stop_on_solve=False).store)
    for store in stores:
        assert any(e.free_vars for e in store.entries)
        for e in store.entries:
            assert type(e.steps) is int
            assert not e.free_vars or \
                any(s.issuperset(e.free_vars) for s in store.allowed)


# ---------------------------------------------------------------------------
# Learned operations first
# ---------------------------------------------------------------------------

MOTIF = "(lam (ZipWith (lam2 (Add $1 $0)) $0 (Reverse $0)))"
# the same function with the arguments swapped: Add commutes
SWAPPED_MOTIF = "(lam (ZipWith (lam2 (Add $0 $1)) (Reverse $0) $0))"
# perfbench's micro search: unbounded, virtual clock, max_weight 5
MICRO_CFG = dict(per_task_timeout=3.5, restart_interval=3.5, max_weight=5,
                 virtual_clock=True, restarts_enabled=False)


def _motif_task():
    return {t.name: t for t in load_tasks(os.path.join(
        os.path.dirname(pbesynth.__file__), "data",
        "micro_tasks.txt"))}["motif_00"]


@pytest.mark.parametrize("beam_size", [None, 10])
def test_search_tries_a_learned_operation_before_the_base_ones(beam_size):
    # in library order the unbounded search spends 2,150 candidates on the
    # base operations and returns the inlined motif
    lib = _with_learned(MICRO_LIB, ("fn_0", "(IntList) -> IntList", MOTIF))
    r = search(_motif_task(), lib, UniformScorer(),
               SearchConfig(beam_size=beam_size, **MICRO_CFG))
    assert (r.solved, format_term(r.program), r.candidates_evaluated) == \
        (True, "(fn_0 xs)", 1)


@pytest.mark.parametrize("beam_size", [None, 10])
@pytest.mark.parametrize("first,second", [("fn_0", "fn_1"),
                                          ("fn_1", "fn_0")])
def test_learned_operations_keep_library_order_among_themselves(
        beam_size, first, second):
    lib = _with_learned(MICRO_LIB,
                        (first, "(IntList) -> IntList", MOTIF),
                        (second, "(IntList) -> IntList", SWAPPED_MOTIF))
    r = search(_motif_task(), lib, UniformScorer(),
               SearchConfig(beam_size=beam_size, **MICRO_CFG))
    assert (format_term(r.program), r.candidates_evaluated) == \
        (f"({first} xs)", 1)
