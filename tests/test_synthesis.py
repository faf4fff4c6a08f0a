"""Bottom-up search tests: signatures, the value store, lifting,
search-vs-exhaustive agreement, and cached argument selection against the
full-sort reference."""

import math
import os
import random

from hypothesis import given, settings, strategies as st

import pbesynth
from pbesynth.dsl import (
    DSLibrary, LearnedAbstraction, Operation, abstraction_func,
    default_list_dsl, load_library,
)
from pbesynth.guidance import (
    FEATURE_DIM, LinearScorer, TraceGenConfig, generate_traces, train_scorer,
)
from pbesynth.lang import (
    INT, INT_LIST, Arrow, ConstInt, EvalError, EvalLimits, format_term,
    parse_term, parse_type, term_size,
)
from pbesynth.synthesis import (
    SearchConfig, UniformScorer, ValueEntry, ValueStore, _evaluated,
    _sampler_dists, admissible, arrow_placeholder_names, beam_select_args,
    build_entry, compute_signature, eval_outcomes,
    exhaustive_search, init_store, lib_placeholders, make_context, search,
    sig_from_outcomes, signature_solves,
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
# Signatures
# ---------------------------------------------------------------------------

def test_concrete_signature_distinguishes_semantics():
    t1 = parse_term("(Reverse xs)", NAMES)
    t2 = parse_term("(Sort xs)", NAMES)
    task = simple_task([((2, 1), [0]), ((1, 2), [0])])
    s1 = compute_signature(t1, task, LIMITS, PRIMS, ty=INT_LIST)
    s2 = compute_signature(t2, task, LIMITS, PRIMS, ty=INT_LIST)
    assert s1 != s2


def test_semantically_equal_terms_share_signature():
    t1 = parse_term("(Add (Head xs) 1)", NAMES)
    t2 = parse_term("(Add 1 (Head xs))", NAMES)
    s1 = compute_signature(t1, TASK, LIMITS, PRIMS, ty=INT)
    s2 = compute_signature(t2, TASK, LIMITS, PRIMS, ty=INT)
    assert s1 == s2


def test_errors_fold_into_signature():
    t = parse_term("(Head (Drop xs 9))", NAMES)
    sig = compute_signature(t, TASK, LIMITS, PRIMS, ty=INT)
    assert sig[0] == "v"
    assert all(o == ("e", "domain") for o in sig[1])


def test_free_placeholder_signature_uses_battery():
    t = parse_term("(Add %0i 1)", NAMES)
    sig = compute_signature(t, TASK, LIMITS, PRIMS, free_vars=("%0i",), ty=INT)
    assert sig[0] == "f" and sig[1] == ("%0i",)
    assert len(sig[2]) == len(TASK.examples)
    assert len(sig[2][0]) == 8


def test_sig_from_outcomes_matches_compute_signature():
    for text in ["(Add (Head xs) 1)", "(Reverse xs)", "(Head (Drop xs 9))"]:
        t = parse_term(text, NAMES)
        outs = eval_outcomes(t, TASK, LIMITS, PRIMS)
        ty = INT_LIST if "Reverse" in text else INT
        assert sig_from_outcomes(t, outs) == \
            compute_signature(t, TASK, LIMITS, PRIMS, ty=ty)


def test_signature_solves():
    t = parse_term("(Map (lam (Add $0 1)) xs)", NAMES)
    sig = compute_signature(t, TASK, LIMITS, PRIMS, ty=INT_LIST)
    assert signature_solves(sig, TASK)
    other = compute_signature(parse_term("(Reverse xs)", NAMES),
                              TASK, LIMITS, PRIMS, ty=INT_LIST)
    assert not signature_solves(other, TASK)


def _at(xs):
    def at(i):
        if not 0 <= i < len(xs):
            raise EvalError("domain", "index out of range")
        return xs[i]
    return at


# Operations returning functions, as in the toy DSL's Loop; the arrow types
# they return take base parameters (At, Adder) or an arrow one (Loop).
_F_I_IL = Arrow((INT,), INT_LIST)
ARROW_LIB = DSLibrary([
    Operation("Len", Arrow((INT_LIST,), INT), len),
    Operation("Call", Arrow((_F_I_IL, INT), INT_LIST), lambda f, x: f(x)),
    Operation("Loop", Arrow((INT_LIST, INT, INT), Arrow((_F_I_IL,), INT_LIST)),
              lambda xs, lo, hi: lambda f: [y for i in range(lo, hi)
                                            for y in f(xs[i])]),
    Operation("At", Arrow((INT_LIST,), Arrow((INT,), INT)), _at),
    Operation("Adder", Arrow((INT,), Arrow((INT,), INT)),
              lambda n: lambda x: x + n),
], [(ConstInt(0), INT), (ConstInt(1), INT)])


def test_arrow_returning_op_signatures_are_pinned():
    """build_entry signatures of arrow-typed results, recorded before
    compute_signature was folded into sig_from_outcomes; a function value
    with an arrow parameter is opaque and named by its term."""
    task = Task("t", (("xs", INT_LIST),),
                (({"xs": [1, 2, 3]}, [1]), ({"xs": [4]}, [4])))
    prims = ARROW_LIB.prims()
    store = init_store(task, ARROW_LIB, LIMITS)
    xs, zero, one, ph = store.entries
    assert ph.free_vars == ("%0i",)

    def build(name, *args):
        op = ARROW_LIB.op(name)
        e = build_entry(op, tuple(zip(args, op.signature.params)), task,
                        LIMITS, prims)
        assert e.outcomes is None or e.ty == INT
        return e

    loop = build("Loop", xs, zero, build("Len", xs))
    assert format_term(loop.term) == "(Loop xs 0 (Len xs))"
    assert loop.outcomes is None
    opaque = ("opaque-arrow", "(Loop xs 0 (Len xs))")
    assert loop.signature == ("c", (opaque, opaque))
    opaque = ("opaque-arrow", "(Loop xs 0 %0i)")
    assert build("Loop", xs, zero, ph).signature == \
        ("f", ("%0i",), ((opaque,) * 8, (opaque,) * 8))

    dom = ("e", "domain")
    assert build("At", xs).signature == (
        "c", ((("i", 1), ("i", 2), ("i", 3)) + (dom,) * 5,
              (("i", 4),) + (dom,) * 7))
    battery = (0, 1, 2, -1, 3, 5, -2, 4)
    plus = [tuple(("i", b + n) for b in battery) for n in battery]
    assert build("Adder", one).signature == ("c", (plus[1], plus[1]))
    assert build("Adder", ph).signature == \
        ("f", ("%0i",), (tuple(plus), tuple(plus)))


def test_opaque_arrow_values_with_different_terms_stay_apart():
    # (Loop xs 0 0) and (Loop xs 0 1) return different functions of a
    # function; neither can be probed on the battery, so each keeps its own
    # entry
    task = Task("t", (("xs", INT_LIST),), (({"xs": [1, 2, 3]}, [1]),))
    store = init_store(task, ARROW_LIB, LIMITS)
    xs, zero, one, _ph = store.entries
    loop = ARROW_LIB.op("Loop")
    built = []
    for hi in (zero, one):
        tup = tuple(zip((xs, zero, hi), loop.signature.params))
        entry, is_new, _ = store.add(build_entry(loop, tup, task, LIMITS,
                                                 ARROW_LIB.prims()))
        assert is_new
        built.append(entry)
    assert [format_term(e.term) for e in built] == \
        ["(Loop xs 0 0)", "(Loop xs 0 1)"]
    assert all(store.entries[e.index] is e for e in built)


def test_admissible_requires_one_allowed_set():
    a, b = (ValueEntry(parse_term(n, NAMES), 0, INT, (n,), free_vars=(n,))
            for n in ("%0i", "%1i"))
    allowed = [frozenset({"%0i"}), frozenset({"%1i"})]
    assert admissible(((a, INT), (a, INT)), allowed)
    assert not admissible(((a, INT), (b, INT)), allowed)
    assert admissible(((a, INT), (b, INT)), [frozenset({"%0i", "%1i"})])
    # a lifted lambda binds its body's placeholders
    assert admissible(((a, INT), (b, Arrow((INT,), INT))), allowed)


# ---------------------------------------------------------------------------
# Value store
# ---------------------------------------------------------------------------

def _entry(text, weight, ty):
    t = parse_term(text, NAMES)
    sig = compute_signature(t, TASK, LIMITS, PRIMS, ty=ty)
    return ValueEntry(t, weight, ty, sig)


def test_store_deduplicates_by_signature():
    store = ValueStore()
    a, new_a, _ = store.add(_entry("(Add (Head xs) 1)", 3, INT))
    b, new_b, improved = store.add(_entry("(Add 1 (Head xs))", 3, INT))
    assert new_a and not new_b and not improved
    assert a is b
    assert len(store.entries) == 1


def test_store_keeps_lighter_term():
    store = ValueStore()
    store.add(_entry("(Add (Head xs) (Subtract 1 0))", 5, INT))
    canon, is_new, improved = store.add(_entry("(Add (Head xs) 1)", 3, INT))
    assert not is_new and improved
    assert canon.weight == 3
    assert format_term(canon.term) == "(Add (Head xs) 1)"


def test_store_improvement_takes_the_new_terms_steps():
    # a lighter term may take more steps; entries built on the improved
    # entry evaluate its new term
    store = ValueStore()
    heavy = _entry("(Add (Head xs) (Subtract 1 0))", 5, INT)
    heavy.steps = 7
    store.add(heavy)
    light = _entry("(Add (Head xs) 1)", 3, INT)
    light.steps = 9
    canon, _is_new, improved = store.add(light)
    assert improved and canon is heavy and canon.steps == 9


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
    cands = store.candidates_for(fn_param, [frozenset({"%0i"})])
    # at least the bare placeholder body and the Int constants qualify
    assert any(e.free_vars == ("%0i",) for e in cands)
    assert any(not e.free_vars and e.ty == INT for e in cands)


def test_build_entry_lifts_and_weights():
    lib = sub_dsl("Add", "Map")
    store = init_store(TASK, lib, LIMITS)
    ph = next(e for e in store.entries if format_term(e.term) == "%0i")
    one = next(e for e in store.entries if format_term(e.term) == "1")
    add_op = lib.op("Add")
    body = build_entry(add_op, ((ph, INT), (one, INT)), TASK, LIMITS, PRIMS)
    assert body.weight == 2 and body.free_vars == ("%0i",)
    canon_body, _, _ = store.add(body)
    xs = next(e for e in store.entries if format_term(e.term) == "xs")
    map_op = lib.op("Map")
    fn_param = map_op.signature.params[0]
    entry = build_entry(map_op, ((canon_body, fn_param), (xs, INT_LIST)),
                        TASK, LIMITS, PRIMS)
    assert format_term(entry.term) == "(Map (lam (Add $0 1)) xs)"
    assert entry.weight == 4
    assert entry.free_vars == ()
    assert signature_solves(entry.signature, TASK)


def test_build_entry_outcomes_match_full_evaluation():
    lib = sub_dsl("Add", "Map", "Take", "Reverse")
    task = simple_task([((3, 1, 2), [0]), ((0, 5), [0])], extra={"n": 2})
    store = init_store(task, lib, LIMITS)
    xs = next(e for e in store.entries if format_term(e.term) == "xs")
    n = next(e for e in store.entries if format_term(e.term) == "n")
    take = lib.op("Take")
    entry = build_entry(take, ((xs, INT_LIST), (n, INT)), task, LIMITS, PRIMS)
    direct = eval_outcomes(entry.term, task, LIMITS, PRIMS)
    assert entry.outcomes == direct
    assert entry.signature == sig_from_outcomes(entry.term, direct)


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
        # no entry admits a strictly lighter equal-signature variant later
        assert e.weight <= 4


def test_exhaustive_respects_timeout_flag():
    lib = sub_dsl("Add", "Subtract", "Map", "ZipWith")
    res = exhaustive_search(TASK, lib, max_weight=9, timeout=0.05,
                            stop_on_solve=False)
    assert res.timed_out


# ---------------------------------------------------------------------------
# Guided search
# ---------------------------------------------------------------------------

def test_search_solves_trivial_task_from_store_seed():
    lib = sub_dsl("Reverse")
    task = simple_task([((1, 2), [1, 2])])
    cfg = SearchConfig(per_task_timeout=2.0, restart_interval=2.0)
    r = search(task, lib, UniformScorer(), cfg)
    assert r.solved and format_term(r.program) == "xs"


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
        assert {e.signature for e in ex.store.entries} == \
            {e.signature for e in sr.store.entries}


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
    tuples = beam_select_args(op, store, UniformScorer(), 3, TASK,
                              lib_placeholders(lib)[1])
    assert 0 < len(tuples) <= 3


def test_solution_weight_matches_term_size():
    lib = sub_dsl("Add", "Map", "Reverse")
    res = exhaustive_search(TASK, lib, max_weight=5)
    assert res.solution.weight == term_size(res.solution.term)


def test_concrete_signature_formats_opaque_terms_only_for_function_values():
    t = parse_term("(Head xs)", NAMES)
    outs = (("i", 1), ("e", "domain"))
    assert sig_from_outcomes(t, outs) == ("v", (("i", 1), ("e", "domain")))
    fn = (("fn", len), ("i", 2))
    assert sig_from_outcomes(t, fn) == \
        ("v", (("opaque", "(Head xs)"), ("i", 2)))


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
    allowed = lib_placeholders(lib)[1]
    store = init_store(task, lib, limits)
    names = set(lib.op_names())

    def entry(text):
        # by signature: an input equal to another in every example is
        # stored once
        t = parse_term(text, names)
        fv = ("%0i",) if text == "%0i" else ()
        return store.get(compute_signature(t, task, limits, prims, fv))

    def build(name, *args):
        op = lib.op(name)
        tup = tuple(zip(args, op.signature.params))
        e = build_entry(op, tup, task, limits, prims)
        plain = eval_outcomes(e.term, task, limits, prims, e.free_vars)
        assert e.outcomes == plain, format_term(e.term)
        assert e.signature == compute_signature(e.term, task, limits, prims,
                                                e.free_vars, e.ty)
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
            store.candidates_for(pty, allowed))), pty)
            for pty in op.signature.params)
        if admissible(tup, allowed):
            build(op.name, *(e for e, _ in tup))


# ---------------------------------------------------------------------------
# Cached argument selection vs the full-sort reference
# ---------------------------------------------------------------------------

def reference_beam_select_args(op, store, scorer, beam_size, task,
                               allowed_sets):
    """beam_select_args without the score cache: every beam prefix re-scores
    every candidate, then a full sort and truncate."""
    per_position = []
    for j, pty in enumerate(op.signature.params):
        cands = store.candidates_for(pty, allowed_sets)
        if not cands:
            return []
        per_position.append((pty, cands, make_context(task, op, j)))
    beams = [((), 0.0, 0, ())]
    for pty, cands, ctx in per_position:
        nxt = []
        for entries, score, wsum, key in beams:
            prefix = tuple(e for e, _ in entries)
            for e in cands:
                s = scorer.score(op.name, prefix, e, ctx)
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
        if not free or any(free <= s for s in allowed_sets):
            out.append(entries)
    return out


def reference_sampler_dists(op, store, scorer, task, allowed):
    dists = []
    for j, pty in enumerate(op.signature.params):
        cands = store.candidates_for(pty, allowed)
        if not cands:
            return None
        ctx = make_context(task, op, j)
        scores = [scorer.score(op.name, (), e, ctx) for e in cands]
        m = max(scores)
        weights = [math.exp(s - m) for s in scores]
        total = sum(weights)
        dists.append([((e, pty), w / total) for e, w in zip(cands, weights)])
    return dists


DIFF_LIB = sub_dsl("Add", "Subtract", "Head", "Take", "IsEven", "Map",
                   "Filter", "ZipWith")
DIFF_ALLOWED = lib_placeholders(DIFF_LIB)[1]


def _grow(store, data, max_steps=25):
    """Grow a store for TASK by a drawn sequence of operation applications,
    so it holds concrete values, lambda bodies and errors."""
    prims = DIFF_LIB.prims()
    for _ in range(data.draw(st.integers(0, max_steps))):
        op = data.draw(st.sampled_from(DIFF_LIB.operations))
        tup = []
        for pty in op.signature.params:
            cands = store.candidates_for(pty, DIFF_ALLOWED)
            tup.append((cands[data.draw(st.integers(0, len(cands) - 1))],
                        pty))
        store.add(build_entry(op, tuple(tup), TASK, LIMITS, prims))
    return store


def _improve(store, data):
    """Lower the weight of a drawn entry in place, as ValueStore.add does
    when it finds a lighter term with the same signature."""
    heavy = [e for e in store.entries if e.weight > 0]
    if not heavy:
        return
    e = heavy[data.draw(st.integers(0, len(heavy) - 1))]
    lighter = data.draw(st.integers(0, e.weight - 1))
    _canon, is_new, improved = store.add(
        ValueEntry(e.term, lighter, e.ty, e.signature, e.free_vars))
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


def _dist_ids(dists):
    if dists is None:
        return None
    return [[(e.index, pty, p) for (e, pty), p in d] for d in dists]


def _assert_selection_matches_reference(store, scorer):
    for op in DIFF_LIB.operations:
        for beam in (1, 3, 10):
            got = beam_select_args(op, store, scorer, beam, TASK,
                                   DIFF_ALLOWED)
            want = reference_beam_select_args(op, store, scorer, beam, TASK,
                                              DIFF_ALLOWED)
            assert _ids(got) == _ids(want), (op.name, beam)
        assert _dist_ids(_sampler_dists(op, store, scorer, TASK,
                                        DIFF_ALLOWED)) == \
            _dist_ids(reference_sampler_dists(op, store, scorer, TASK,
                                              DIFF_ALLOWED))


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
        tup = tuple((rng.choice(store.candidates_for(pty, DIFF_ALLOWED)), pty)
                    for pty in op.signature.params)
        store.add(build_entry(op, tup, TASK, LIMITS, prims))
    for _ in range(5):
        scorer = LinearScorer({
            n: [1e16] + [rng.uniform(-3.0, 3.0) for _ in range(FEATURE_DIM - 1)]
            for n in DIFF_LIB.op_names()})
        _assert_selection_matches_reference(store, scorer)


def reference_candidates_for(store, pty, allowed_sets):
    """candidates_for as a fresh filter of the store's entries by type."""
    out = []
    if isinstance(pty, Arrow):
        names = arrow_placeholder_names(pty)
        out = [e for e in store.of_type(pty) if not e.free_vars]
        if names is not None:
            out += [e for e in store.of_type(pty.ret)
                    if set(e.free_vars) <= set(names)]
        return sorted(out, key=lambda e: e.index)
    return [e for e in store.of_type(pty)
            if not e.free_vars or any(set(e.free_vars) <= s
                                      for s in allowed_sets)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_incremental_candidates_match_fresh_filter(data):
    store = init_store(TASK, DIFF_LIB, LIMITS)
    params = sorted({pty for op in DIFF_LIB.operations
                     for pty in op.signature.params}, key=repr)
    # concrete function values, as an arrow-returning operation would add:
    # an arrow parameter's list then merges two sources
    functions = [(parse_term(text, NAMES), pty) for text, pty in (
        ("(lam $0)", DIFF_LIB.op("Map").signature.params[0]),
        ("IsEven", DIFF_LIB.op("Filter").signature.params[0]),
        ("Add", DIFF_LIB.op("ZipWith").signature.params[0]))]
    for allowed in (DIFF_ALLOWED, []):
        for _round in range(data.draw(st.integers(1, 4))):
            _grow(store, data, max_steps=10)
            for _ in range(data.draw(st.integers(0, 2))):
                term, pty = data.draw(st.sampled_from(functions))
                store.add(ValueEntry(term, 1, pty, ("c", len(store.entries))))
            for _ in range(data.draw(st.integers(0, 2))):
                _improve(store, data)
            for pty in params:
                got = store.candidates_for(pty, allowed)
                assert got == reference_candidates_for(store, pty, allowed)
                assert [e.index for e in got] == \
                    sorted(e.index for e in got)


def test_score_cache_belongs_to_one_scorer():
    store = init_store(TASK, DIFF_LIB, LIMITS)
    a, b = LinearScorer({}), LinearScorer({})
    store.score_cache(a)[("Add", 0, 0, 1, False)] = 1.0
    assert store.score_cache(a) == {("Add", 0, 0, 1, False): 1.0}
    assert store.score_cache(b) == {}


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
