"""End-to-end acceptance tests.

Each test pins an externally checkable property of the toolkit: search
against an exhaustive oracle, the analytic toy-DSL numbers, miner
optimality against brute-force pattern enumeration, rewrite soundness,
filter enforcement, sampler exhaustion and distribution, wake-sleep
improvement on the bundled motif domain, statistics against frozen
reference values, and byte-level determinism.

Thresholds and tolerances here are frozen; see README.md for the
calibration run behind the wake-sleep improvement threshold.
"""

import itertools
import json
import os
import random
import time
from dataclasses import replace
from importlib.resources import files

import pytest
from scipy import stats as sstats

import pbesynth.synthesis
from pbesynth.dsl import DSLibrary, Operation, default_list_dsl, load_library
from pbesynth.guidance import TraceGenConfig
from pbesynth.harness import (
    RunConfig, emit_plot_data, evaluate_runs, load_solutions,
    save_eval_report, verify_solution, wake_sleep_loop,
)
from pbesynth.lang import (
    BOOL, INT, INT_LIST, Arrow, Apply, ConstInt, EvalError, EvalLimits,
    InputVar, PrimRef, evaluate, format_term, parse_term, term_size,
)
from pbesynth.librarian import (
    Abstraction, Hole, MineConfig, annotate_corpus, canonicalize, count_matches,
    finalize, format_pattern, mine, mine_round,
)
from pbesynth.sampling import UniqueSampler
from pbesynth.stats import ci95, t_test
from pbesynth.synthesis import (
    SearchConfig, UniformScorer, exhaustive_search, search,
)
from pbesynth.task import Task, load_tasks

FULL = default_list_dsl()
LIMITS = EvalLimits()

DATA = files("pbesynth") / "data"
MICRO_TASKS = load_tasks(str(DATA / "micro_tasks.txt"))
MICRO_LIB = load_library(str(DATA / "micro_library.txt"))


def sub_dsl(*names):
    return DSLibrary([o for o in FULL.operations if o.name in names],
                     FULL.constants)


def random_term(rng, lib, ty, depth, input_decls):
    """A random well-typed first-order term, or None when stuck."""
    leaves = [InputVar(n) for n, t in input_decls if t == ty]
    leaves += [c for c, t in lib.constants if t == ty]
    ops = [op for op in lib.operations
           if op.signature.ret == ty
           and all(not isinstance(p, Arrow) for p in op.signature.params)]
    if depth <= 0 or not ops or (leaves and rng.random() < 0.35):
        return rng.choice(leaves) if leaves else None
    op = rng.choice(ops)
    args = []
    for pty in op.signature.params:
        a = random_term(rng, lib, pty, depth - 1, input_decls)
        if a is None:
            return None
        args.append(a)
    return Apply(PrimRef(op.name), tuple(args))


# ---------------------------------------------------------------------------
# 1. Search agrees with the exhaustive oracle
# ---------------------------------------------------------------------------

ORACLE_LIB = sub_dsl("Add", "Subtract", "Head", "Take", "Drop", "Reverse")


def _oracle_tasks(n=50, seed=20240601):
    rng = random.Random(seed)
    decls = (("xs", INT_LIST),)
    tasks = []
    for i in range(n):
        inputs = [{"xs": [rng.randint(-4, 9)
                          for _ in range(rng.randint(2, 5))]}
                  for _ in range(2)]
        term = None
        while term is None:
            term = random_term(rng, ORACLE_LIB, rng.choice([INT, INT_LIST]),
                               rng.randint(1, 3), decls)
        examples = []
        for inp in inputs:
            try:
                out = evaluate(term, dict(inp), LIMITS, ORACLE_LIB.prims())
            except EvalError:
                out = 777 + i  # arbitrary, typically unreachable
            if i % 3 == 2 and isinstance(out, int):
                out += 500  # scramble a third of the tasks
            examples.append((inp, out))
        if len({type(o) for _, o in examples}) != 1:
            examples = [(inp, 777 + i) for inp, _ in examples]
        tasks.append(Task(f"oracle_{i:02d}", decls, tuple(examples)))
    return tasks


def test_search_matches_exhaustive_oracle():
    started = time.monotonic()
    tasks = _oracle_tasks()
    assert len(tasks) == 50
    cfg = SearchConfig(per_task_timeout=1e9, restart_interval=1e9,
                       beam_size=None, restarts_enabled=False,
                       max_weight=5, stop_on_solve=False)
    solved_ex, solved_search = set(), set()
    for task in tasks:
        ex = exhaustive_search(task, ORACLE_LIB, max_weight=5,
                               stop_on_solve=False)
        assert not ex.timed_out
        sr = search(task, ORACLE_LIB, UniformScorer(), cfg)
        # every value of both stores: type, free placeholders, outcomes
        ex_values = {(e.ty, e.free_vars, ex.store.outcomes_of(e.ids))
                     for e in ex.store.entries}
        sr_values = {(e.ty, e.free_vars, sr.store.outcomes_of(e.ids))
                     for e in sr.store.entries}
        assert ex_values == sr_values, task.name
        if ex.solution is not None:
            solved_ex.add(task.name)
        if sr.solved:
            solved_search.add(task.name)
    assert solved_ex == solved_search
    assert len(solved_ex) > 0  # the comparison is not vacuous
    assert time.monotonic() - started <= 60.0


# ---------------------------------------------------------------------------
# 2. Toy DSL: syntactic combination count and compression after mining
# ---------------------------------------------------------------------------

def _toy_dsl():
    f_i_il = Arrow((INT,), INT_LIST)
    ops = [
        Operation("IsEven", Arrow((INT,), BOOL), lambda a: a % 2 == 0),
        Operation("Double", Arrow((INT,), INT), lambda a: 2 * a),
        Operation("If", Arrow((BOOL, INT), INT_LIST),
                  lambda b, x: [x] if b else []),
        Operation("Len", Arrow((INT_LIST,), INT), len),
        Operation("Loop", Arrow((INT_LIST, INT, INT), Arrow((f_i_il,),
                                                            INT_LIST)),
                  lambda l, lo, hi: lambda f: [y for i in range(lo, hi)
                                               for y in f(l[i])]),
    ]
    consts = [(ConstInt(n), INT) for n in (0, 1, 2, 3)]
    return DSLibrary(ops, consts)


def test_toy_dsl_combination_count_and_compression():
    started = time.monotonic()
    lib = _toy_dsl()
    names = set(lib.op_names())
    symbols = len(lib.operations) + len(lib.constants)
    assert symbols == 9
    assert 9 ** 8 == 43_046_721

    target = parse_term(
        "((Loop xs 0 (Len xs)) (lam (If (IsEven $0) (Double $0))))", names)
    keep = parse_term(
        "((Loop xs 0 (Len xs)) (lam (If (IsEven $0) $0)))", names)
    assert term_size(target) == 8
    assert evaluate(target, {"xs": [1, 2, 3, 4]}, LIMITS, lib.prims()) == [4, 8]
    assert evaluate(keep, {"xs": [1, 2, 3, 4]}, LIMITS, lib.prims()) == [2, 4]

    corpus = {"double_evens": [target], "keep_evens": [keep]}
    tasks = {
        "double_evens": Task("double_evens", (("xs", INT_LIST),),
                             (({"xs": [1, 2, 3, 4]}, [4, 8]),
                              ({"xs": [5, 6]}, [12]))),
        "keep_evens": Task("keep_evens", (("xs", INT_LIST),),
                           (({"xs": [1, 2, 3, 4]}, [2, 4]),
                            ({"xs": [5, 6]}, [6]))),
    }
    res = mine(corpus, lib, tasks, MineConfig(max_rounds=1))
    assert len(res.abstractions) == 1
    a = res.abstractions[0]
    assert format_pattern(canonicalize(a.pattern)) == "(Loop ?0 0 (Len ?0))"
    assert a.arity == 1

    rewritten = res.corpus["double_evens"][0]
    assert term_size(rewritten) == 5
    prims = res.library.prims()
    for name, t in tasks.items():
        prog = res.corpus[name][0]
        for inputs, out in t.examples:
            assert evaluate(prog, dict(inputs), LIMITS, prims) == out
    assert time.monotonic() - started <= 30.0


# ---------------------------------------------------------------------------
# 3. Miner optimum equals brute-force pattern enumeration
# ---------------------------------------------------------------------------

BRUTE_LIB = sub_dsl("Add", "Subtract", "Head", "Reverse", "Sort", "Take")


def _hole_positions(t, path=()):
    """All positions strictly below the root that may become holes."""
    out = []
    if isinstance(t, Apply):
        if not isinstance(t.fn, PrimRef):
            out.append(path + (0,))
            out.extend(_hole_positions(t.fn, path + (0,)))
        for i, a in enumerate(t.args):
            out.append(path + (i + 1,))
            out.extend(_hole_positions(a, path + (i + 1,)))
    return out


def _subtree_at(t, path):
    for step in path:
        t = t.fn if step == 0 else t.args[step - 1]
    return t


def _replace_at(t, path, rep):
    if not path:
        return rep
    step = path[0]
    if step == 0:
        return Apply(_replace_at(t.fn, path[1:], rep), t.args)
    args = list(t.args)
    args[step - 1] = _replace_at(args[step - 1], path[1:], rep)
    return Apply(t.fn, tuple(args))


def _antichains(positions):
    for r in range(1, len(positions) + 1):
        for subset in itertools.combinations(positions, r):
            if any(a != b and b[:len(a)] == a
                   for a in subset for b in subset):
                continue
            yield subset


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _patterns_of(sub):
    """Every pattern derivable from a concrete subtree: the subtree itself
    (a parameterless candidate), or an antichain of hole positions with
    ids shared among equal subtrees."""
    yield sub
    positions = _hole_positions(sub)
    for chain in _antichains(positions):
        by_shape = {}
        for p in chain:
            by_shape.setdefault(format_term(_subtree_at(sub, p)),
                                []).append(p)
        groupings = [list(_set_partitions(ps)) for ps in by_shape.values()]
        for combo in itertools.product(*groupings):
            pattern = sub
            hole = 0
            for groups in combo:
                for group in groups:
                    for p in group:
                        pattern = _replace_at(pattern, p, Hole(hole))
                    hole += 1
            yield pattern


def _brute_force_best(corpus, lib, tasks, cfg):
    annots = annotate_corpus(corpus, tasks, lib)
    best = 0
    seen = set()
    for task_id in corpus:
        for program in corpus[task_id]:
            subs = [program] + [_subtree_at(program, p)
                                for p in _hole_positions(program)]
            for sub in subs:
                if not isinstance(sub, Apply):
                    continue
                for pattern in _patterns_of(sub):
                    key = format_pattern(canonicalize(pattern))
                    if key in seen:
                        continue
                    seen.add(key)
                    got = finalize(pattern, count_matches(pattern, corpus),
                                   lib, annots, "fx", cfg)
                    if isinstance(got, Abstraction):
                        best = max(best, got.utility.value)
    return best


def _random_corpus(seed):
    rng = random.Random(seed)
    decls = (("xs", INT_LIST),)

    def gen(depth):
        t = None
        while t is None or term_size(t) < 2:
            t = random_term(rng, BRUTE_LIB, rng.choice([INT, INT_LIST]),
                            depth, decls)
        return t

    def wrap(term, ty):
        slots = [(op, i) for op in BRUTE_LIB.operations
                 for i, p in enumerate(op.signature.params) if p == ty]
        op, i = rng.choice(slots)
        args = []
        for k, pty in enumerate(op.signature.params):
            if k == i:
                args.append(term)
            else:
                a = random_term(rng, BRUTE_LIB, pty, 1, decls)
                if a is None:
                    return None, None
                args.append(a)
        return Apply(PrimRef(op.name), tuple(args)), op.signature.ret

    motif = gen(2)
    motif_ty = _term_ty(motif)
    corpus = {}
    tasks = {}
    n = rng.randint(2, 3)
    for j in range(n):
        prog = None
        for _ in range(20):
            if rng.random() < 0.7:
                cand, ty = motif, motif_ty
                for _ in range(rng.randint(0, 2)):
                    nxt, nty = wrap(cand, ty)
                    if nxt is None:
                        break
                    cand, ty = nxt, nty
            else:
                cand = gen(2)
            if term_size(cand) <= 7:
                prog = cand
                break
        if prog is None:
            prog = motif
        name = f"t{j}"
        corpus[name] = [prog]
        tasks[name] = Task(name, decls,
                           (({"xs": [1, 2, 3]}, 0), ({"xs": [4, 0]}, 0)))
    return corpus, tasks


def _term_ty(t):
    from pbesynth.lang import infer_type
    return infer_type(t, {"xs": INT_LIST}, BRUTE_LIB.symbol_types())


def test_miner_matches_brute_force_on_random_corpora():
    started = time.monotonic()
    cfg = MineConfig()
    nonzero = 0
    for seed in range(100):
        corpus, tasks = _random_corpus(seed)
        oracle = _brute_force_best(corpus, BRUTE_LIB, tasks, cfg)
        got = mine_round(corpus, BRUTE_LIB, tasks, "fx", cfg).abstraction
        got = got.utility.value if got else 0
        assert got == oracle, f"seed {seed}: miner {got} oracle {oracle}"
        if oracle > 0:
            nonzero += 1
    assert nonzero >= 20  # the comparison exercises real abstractions
    assert time.monotonic() - started <= 120.0


# ---------------------------------------------------------------------------
# Rigged motif domain: one shared loop run for criteria below
# ---------------------------------------------------------------------------

RIGGED_CFG = RunConfig(
    iterations=2,
    search=SearchConfig(per_task_timeout=5.0, restart_interval=5.0,
                        beam_size=None, restarts_enabled=False, max_weight=5),
    tracegen=TraceGenConfig(episode_timeout=8.0, per_abstraction_bonus=4.0,
                            max_weight=4, episodes=4, targets_per_episode=12,
                            random_seed=0),
    mining=MineConfig(),
    trials=1, workers=1, random_seed=0, train_steps=2000)


@pytest.fixture(scope="module")
def rigged_loop(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("rigged") / "run")
    started = time.monotonic()
    result = wake_sleep_loop(MICRO_TASKS, MICRO_LIB, outdir, RIGGED_CFG)
    return outdir, result, time.monotonic() - started


# ---------------------------------------------------------------------------
# 4. Every mined abstraction rewrites without changing semantics
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_rewrites_preserve_semantics_end_to_end(rigged_loop):
    outdir, result, _ = rigged_loop
    by_name = {t.name: t for t in MICRO_TASKS}
    libraries = [MICRO_LIB,
                 load_library(os.path.join(outdir, "iter_000", "library.txt"))]
    total_abstractions = 0
    checked = 0
    for i in range(result.iterations_run):
        lib = libraries[i]
        corpus = load_solutions(
            os.path.join(outdir, f"iter_{i:03d}", "solutions.txt"),
            lib, by_name)
        res = mine(corpus, lib, by_name, RIGGED_CFG.mining, iteration=i)
        total_abstractions += len(res.abstractions)
        for task_id, programs in res.corpus.items():
            for program in programs:
                checked += 1
                assert verify_solution(by_name[task_id], program,
                                       res.library), task_id
    assert total_abstractions >= 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# 5. Trivial and single-task corpora yield zero abstractions
# ---------------------------------------------------------------------------

def test_no_abstractions_from_trivial_or_single_task_corpora():
    names = set(FULL.op_names())

    def lt(name):
        return Task(name, (("xs", INT_LIST),), (({"xs": [2, 1]}, [1, 2]),))

    trivial = {"a": [parse_term("(Reverse xs)", names)],
               "b": [parse_term("(Sort xs)", names)],
               "c": [parse_term("xs", names)]}
    res = mine(trivial, FULL, {k: lt(k) for k in trivial})
    assert res.abstractions == []

    single = {"only": [parse_term(
        "(Add (Sum (Sort xs)) (Add (Sum (Sort xs)) (Sum (Sort xs))))",
        names)]}
    res = mine(single, FULL, {"only": Task(
        "only", (("xs", INT_LIST),), (({"xs": [2, 1]}, 9),))})
    assert res.abstractions == []

    # shared pattern exists, but replacing it saves no symbols
    no_savings = {
        "a": [parse_term("(Reverse (Sort xs))", names)],
        "b": [parse_term("(Take (Reverse (Sort xs)) 1)", names)]}
    res = mine(no_savings, FULL, {k: lt(k) for k in no_savings})
    assert res.abstractions == []


# ---------------------------------------------------------------------------
# 6. Sampler: exact exhaustion and first-draw distribution
# ---------------------------------------------------------------------------

def test_unique_sampler_exhaustion_and_first_draw_distribution():
    started = time.monotonic()
    rng = random.Random(13)
    dists = [(range(10), [w / 20 for w in [5, 3, 2, 2, 1, 1, 1, 1, 2, 2]]),
             ("abcdefghij", [w / 55 for w in range(1, 11)]),
             (range(10), [0.1] * 10)]
    sampler = UniqueSampler(dists)
    assert sampler.support_size() == 1000
    seen = set()
    while True:
        t = sampler.sample(rng)
        if t is None:
            break
        assert t not in seen
        seen.add(t)
    assert len(seen) == 1000
    assert sampler.exhausted
    assert sampler.sample(rng) is None

    # First draws from fresh states follow the target product distribution.
    first_dists = [("ABC", [0.5, 0.3, 0.2]), ((0, 1, 2), [0.6, 0.25, 0.15])]
    probs = {}
    for (ca, pa) in zip(*first_dists[0]):
        for (cb, pb) in zip(*first_dists[1]):
            probs[(ca, cb)] = pa * pb
    rng = random.Random(97)
    counts = {k: 0 for k in probs}
    draws = 10_000
    for _ in range(draws):
        s = UniqueSampler(first_dists)
        counts[s.sample(rng)] += 1
    keys = sorted(probs)
    chi = sstats.chisquare([counts[k] for k in keys],
                           [draws * probs[k] for k in keys])
    assert chi.pvalue > 0.01
    assert time.monotonic() - started <= 60.0


# ---------------------------------------------------------------------------
# 7. Wake-sleep improvement on the rigged motif domain
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_wake_sleep_improves_on_motif_domain(rigged_loop):
    outdir, result, elapsed = rigged_loop
    assert elapsed <= 900.0
    assert result.iterations_run == 2
    first, second = result.solve_counts
    total = len(MICRO_TASKS)
    assert total == 30
    assert first >= 8  # the base library already solves the direct motifs
    # Frozen threshold (see README.md): +3 tasks and 10% absolute.
    assert second - first >= 3
    assert (second - first) / total >= 0.10
    assert result.library.version > MICRO_LIB.version  # something was learned


# The same comparison on the virtual clock, so that the work, and with it
# the result, does not depend on the host.  Trace generation then counts
# ticks too, and an 8 s budget over 4 episodes (2,000 ticks each) would cut
# episodes that build 3,383-4,309 candidates, so the budget never runs out.
VIRTUAL_RIGGED_CFG = replace(
    RIGGED_CFG,
    search=replace(RIGGED_CFG.search, virtual_clock=True),
    tracegen=replace(RIGGED_CFG.tracegen, episode_timeout=1e9))


@pytest.mark.slow
def test_wake_sleep_improves_on_motif_domain_on_the_virtual_clock(tmp_path):
    outdir = str(tmp_path / "run")
    result = wake_sleep_loop(MICRO_TASKS, MICRO_LIB, outdir,
                             VIRTUAL_RIGGED_CFG)
    first, second = result.solve_counts
    # Frozen thresholds (see README.md): the calibration run solved
    # [10, 28], every motif task as (fn_0 xs).
    assert first >= 8
    assert second >= 25
    with open(os.path.join(outdir, "iter_001", "report.json")) as fh:
        assert json.load(fh)["learned_uses"].get("fn_0", 0) >= 10


# ---------------------------------------------------------------------------
# 8. Statistics match frozen reference values
# ---------------------------------------------------------------------------

TOL = 1e-9


def test_statistics_match_frozen_reference():
    # Reference values computed once with an independent statistics
    # package and frozen here.
    a = [2.1, 3.4, 1.9, 4.2, 3.3, 2.6]
    b = [2.8, 3.9, 4.4, 2.9, 3.7, 4.1]
    r = t_test(a, b)
    assert r.df == 10
    assert abs(r.statistic - (-1.6103626554872443)) <= TOL
    assert abs(r.p_value - 0.13839628866282602) <= TOL
    ci = ci95(a)
    assert abs(ci.mean - 2.9166666666666674) <= TOL
    assert abs(ci.half_width - 0.918281171131897) <= TOL
    assert abs(ci.low - 1.9983854955347704) <= TOL
    assert abs(ci.high - 3.8349478377985644) <= TOL

    c = [10, 12, 9, 11]
    d = [13, 15, 14, 16, 12]
    r2 = t_test(c, d)
    assert abs(r2.statistic - (-3.5642255405212087)) <= TOL
    assert abs(r2.p_value - 0.009167452294336178) <= TOL
    assert r2.significant
    ci2 = ci95(c)
    assert abs(ci2.mean - 10.5) <= TOL
    assert abs(ci2.half_width - 2.054260256760879) <= TOL

    same = [4.0, 4.0, 4.0, 4.0]
    r3 = t_test(same, same)
    assert r3.statistic == 0.0
    assert r3.p_value == 1.0
    assert not r3.significant
    ci3 = ci95(same)
    assert ci3.half_width == 0.0
    assert ci3.low == ci3.high == ci3.mean == 4.0


# ---------------------------------------------------------------------------
# 9. Same-seed runs are byte-identical
# ---------------------------------------------------------------------------

DET_CFG = RunConfig(
    iterations=2,
    search=SearchConfig(per_task_timeout=5.0, restart_interval=5.0,
                        beam_size=None, restarts_enabled=False, max_weight=5,
                        virtual_clock=True),
    tracegen=TraceGenConfig(episode_timeout=9.0, per_abstraction_bonus=3.0,
                            max_weight=3, episodes=3, targets_per_episode=4,
                            random_seed=0),
    mining=MineConfig(),
    trials=2, workers=1, random_seed=0, train_steps=500)

DET_TASKS = [t for t in MICRO_TASKS
             if t.name in ("motif_00", "motif_01", "motif_02",
                           "wrap_00_0", "wrap_03_0", "wrap_07_0")]


def _one_det_run(outdir):
    wake_sleep_loop(DET_TASKS, MICRO_LIB, outdir, DET_CFG)
    rep_a = evaluate_runs(DET_TASKS, MICRO_LIB, UniformScorer(),
                          DET_CFG.search, trials=2, label="base")
    rep_b = evaluate_runs(DET_TASKS, MICRO_LIB, UniformScorer(),
                          DET_CFG.search, trials=2, label="again")
    save_eval_report(rep_a, os.path.join(outdir, "eval_base.json"))
    save_eval_report(rep_b, os.path.join(outdir, "eval_again.json"))
    return emit_plot_data(rep_a, rep_b, os.path.join(outdir, "plots"))


@pytest.mark.slow
def test_same_seed_loop_runs_are_byte_identical(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    plots_a = _one_det_run(out_a)
    plots_b = _one_det_run(out_b)

    relpaths = ["best.json", "eval_base.json", "eval_again.json"]
    for i in range(DET_CFG.iterations):
        for name in ("report.json", "library.txt", "scorer.txt",
                     "traces.txt", "solutions.txt"):
            relpaths.append(os.path.join(f"iter_{i:03d}", name))
    relpaths += [os.path.join("plots", os.path.basename(p)) for p in plots_a]
    assert [os.path.basename(p) for p in plots_a] == \
        [os.path.basename(p) for p in plots_b]
    for rel in relpaths:
        with open(os.path.join(out_a, rel), "rb") as fa:
            da = fa.read()
        with open(os.path.join(out_b, rel), "rb") as fb:
            db = fb.read()
        assert da == db, rel
    with open(os.path.join(out_a, "best.json")) as fh:
        assert json.load(fh)["solve_counts"]  # reports are non-trivial


class _JumpingTime:
    """A stand-in for the time module whose clock jumps 100 s per read."""

    def __init__(self):
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return 100.0 * self.reads


def test_virtual_loop_does_not_depend_on_the_host_clock(tmp_path,
                                                        monkeypatch):
    # on the virtual clock neither the search nor trace generation reads
    # the host's clock, so a host clock that races changes no file
    cfg = replace(DET_CFG, iterations=1)
    tasks = DET_TASKS[:3]
    wake_sleep_loop(tasks, MICRO_LIB, str(tmp_path / "a"), cfg)
    racing = _JumpingTime()
    monkeypatch.setattr(pbesynth.synthesis, "time", racing)
    wake_sleep_loop(tasks, MICRO_LIB, str(tmp_path / "b"), cfg)
    for name in ("traces.txt", "scorer.txt", "report.json"):
        rel = os.path.join("iter_000", name)
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes(), rel
    assert racing.reads == 0
