"""Abstraction mining tests: matching, utility, filters, rewriting."""

import pytest

from pbesynth.dsl import (
    DSLibrary, Operation, default_list_dsl, extend_with_abstraction,
)
from pbesynth.lang import (
    INT, INT_LIST, Arrow, Apply, ConstBool, ConstInt, EvalLimits, InputVar,
    evaluate, parse_term, subtrees, term_size,
)
from pbesynth.librarian import (
    Abstraction, Hole, MineConfig, Rejection, annotate_corpus, canonicalize,
    count_matches, deoverlap, finalize, format_pattern, mine,
    next_abstraction_name, non_hole_size, nonvariable_expressions,
    rewrite_program, utility, _expansions,
)
from pbesynth.task import Task

FULL = default_list_dsl()
NAMES = set(FULL.op_names())
LIMITS = EvalLimits()


def p(text):
    """Parse a pattern: ?N tokens become holes."""
    t = parse_term(text.replace("?", "HOLE"), NAMES)

    def conv(t):
        if isinstance(t, InputVar) and t.name.startswith("HOLE"):
            return Hole(int(t.name[4:]))
        if isinstance(t, Apply):
            return Apply(conv(t.fn), tuple(conv(a) for a in t.args))
        return t
    return conv(t)


def list_task(name, pairs):
    return Task(name, (("xs", INT_LIST),),
                tuple(({"xs": list(i)}, o) for i, o in pairs))


# ---------------------------------------------------------------------------
# Pattern helpers
# ---------------------------------------------------------------------------

def test_format_pattern():
    assert format_pattern(p("(Add ?0 1)")) == "(Add ?0 1)"
    assert format_pattern(Hole(2)) == "?2"


def test_format_pattern_prints_a_lambda_as_a_term():
    text = "(ZipWith (lam2 (Add $1 $0)) ?0 (Reverse ?0))"
    assert format_pattern(p(text)) == text


def test_expansions_keep_an_int_and_a_bool_apart():
    # a hole binding 1 in one program and true in another is refined to
    # each of them: equal hashes do not make the subtrees one shape
    corpus = {"a": [parse_term("(Filter (lam true) xs)", NAMES)],
              "b": [parse_term("(Take xs 1)", NAMES)]}
    matches = count_matches(Hole(0), corpus)
    leaves = [new for new, _, opened in _expansions(Hole(0), matches, 0, 1)
              if not opened]
    assert ConstInt(1) in leaves and ConstBool(True) in leaves


def test_non_hole_size():
    assert non_hole_size(p("(Add ?0 1)")) == 2
    assert non_hole_size(p("(ZipWith (lam2 (Add $1 $0)) ?0 (Reverse ?0))")) == 3
    assert non_hole_size(Hole(0)) == 0


def test_nonvariable_expressions():
    assert nonvariable_expressions(p("(Add ?0 ?1)")) == 1
    assert nonvariable_expressions(p("(Add xs 1)")) == 2
    assert nonvariable_expressions(Hole(0)) == 0


def test_canonicalize_renumbers_holes():
    a = p("(Add ?3 (Reverse ?7))")
    b = p("(Add ?0 (Reverse ?1))")
    assert canonicalize(a) == canonicalize(b)


# ---------------------------------------------------------------------------
# Matching, with an independent naive oracle
# ---------------------------------------------------------------------------

def naive_match(pattern, sub, bindings):
    if isinstance(pattern, Hole):
        if pattern.id in bindings:
            return bindings[pattern.id] == sub
        bindings[pattern.id] = sub
        return True
    if isinstance(pattern, Apply):
        return (isinstance(sub, Apply)
                and len(pattern.args) == len(sub.args)
                and naive_match(pattern.fn, sub.fn, bindings)
                and all(naive_match(q, a, bindings)
                        for q, a in zip(pattern.args, sub.args)))
    return pattern == sub


def naive_count(pattern, corpus):
    n = 0
    for task_id in sorted(corpus):
        for program in corpus[task_id]:
            for _, sub in subtrees(program):
                if naive_match(pattern, sub, {}):
                    n += 1
    return n


CORPUS_TERMS = {
    "a": [parse_term("(Add (Head xs) (Add (Head xs) 1))", NAMES)],
    "b": [parse_term("(Add (Head ys) 1)", NAMES)],
    "c": [parse_term("(Map (lam (Add $0 1)) (Reverse xs))", NAMES)],
}

PATTERNS = [
    p("(Add ?0 1)"),
    p("(Add ?0 ?1)"),
    p("(Add ?0 ?0)"),
    p("(Head ?0)"),
    p("(Reverse ?0)"),
    Hole(0),
    p("(Add (Head ?0) ?1)"),
]


@pytest.mark.parametrize("pattern", PATTERNS,
                         ids=[format_pattern(q) for q in PATTERNS])
def test_count_matches_agrees_with_naive_matcher(pattern):
    assert len(count_matches(pattern, CORPUS_TERMS)) == \
        naive_count(pattern, CORPUS_TERMS)


def test_repeated_hole_requires_equal_bindings():
    corpus = {"a": [parse_term("(Add (Head xs) (Head xs))", NAMES)],
              "b": [parse_term("(Add (Head xs) 1)", NAMES)]}
    ms = count_matches(p("(Add ?0 ?0)"), corpus)
    assert len(ms) == 1 and ms[0].task_id == "a"


def test_match_binding_contents():
    ms = count_matches(p("(Add ?0 1)"), {"b": CORPUS_TERMS["b"]})
    assert len(ms) == 1
    assert ms[0].binding(0) == parse_term("(Head ys)", NAMES)


def test_deoverlap_prefers_outermost():
    t = parse_term("(Reverse (Reverse (Reverse xs)))", NAMES)
    ms = count_matches(p("(Reverse ?0)"), {"a": [t]})
    assert len(ms) == 3
    kept = deoverlap(ms)
    assert len(kept) == 1 and kept[0].path == ()


def test_deoverlap_keeps_disjoint_matches():
    t = parse_term("(Add (Reverse xs) (Reverse ys))", NAMES)
    # not type-correct, but matching is syntactic
    ms = deoverlap(count_matches(p("(Reverse ?0)"), {"a": [t]}))
    assert len(ms) == 2


# ---------------------------------------------------------------------------
# Utility
# ---------------------------------------------------------------------------

def test_utility_formula():
    corpus = {"a": [parse_term("(ZipWith (lam2 (Add $1 $0)) xs (Reverse xs))",
                               NAMES)],
              "b": [parse_term("(ZipWith (lam2 (Add $1 $0)) ys (Reverse ys))",
                               NAMES)]}
    pat = p("(ZipWith (lam2 (Add $1 $0)) ?0 (Reverse ?0))")
    rep = utility(pat, count_matches(pat, corpus))
    assert rep.matches == 2 and rep.distinct_tasks == 2
    assert rep.body_size == 3 and rep.arity == 1
    assert rep.value == 2 * (3 - 1 - 1)


def test_utility_of_bare_variable_pattern_is_zero():
    corpus = {"a": [parse_term("(Reverse xs)", NAMES)],
              "b": [parse_term("(Reverse ys)", NAMES)]}
    pat = p("(Reverse ?0)")
    rep = utility(pat, count_matches(pat, corpus))
    assert rep.value == 0  # saves nothing: 1 symbol replaced by 1 + 1 arg


# ---------------------------------------------------------------------------
# Finalization filters
# ---------------------------------------------------------------------------

def _fin(pattern, corpus, tasks, cfg=MineConfig()):
    ms = count_matches(pattern, corpus)
    annots = annotate_corpus(corpus, tasks, FULL)
    return finalize(pattern, ms, FULL, annots, "fn_0", cfg)


def test_finalize_rejects_single_task():
    t = parse_term("(Add (Sum xs) (Add (Sum xs) 1))", NAMES)
    corpus = {"a": [t]}
    tasks = {"a": list_task("a", [((1, 2), 1)])}
    got = _fin(p("(Add (Sum ?0) ?1)"), corpus, tasks)
    assert isinstance(got, Rejection) and got.reason == "single-task"


def test_finalize_rejects_trivial_single_expression():
    corpus = {"a": [parse_term("(Reverse xs)", NAMES)],
              "b": [parse_term("(Reverse (Sort xs))", NAMES)]}
    tasks = {k: list_task(k, [((1, 2), [2, 1])]) for k in corpus}
    got = _fin(p("(Reverse ?0)"), corpus, tasks)
    assert isinstance(got, Rejection)
    assert got.reason in ("trivial", "no-compression")


def test_finalize_rejects_input_capture():
    t = parse_term("(ZipWith (lam2 (Add $1 $0)) xs (Reverse xs))", NAMES)
    corpus = {"a": [t], "b": [t]}
    tasks = {k: list_task(k, [((1, 2), [3, 3])]) for k in corpus}
    got = _fin(t, corpus, tasks)  # the whole program, no holes
    assert isinstance(got, Rejection)


def test_finalize_rejects_unshared_pattern():
    corpus = {"a": [parse_term("(Add (Sum xs) (Sum xs))", NAMES)],
              "b": [parse_term("(Concat (Reverse xs) (Reverse xs))", NAMES)]}
    tasks = {"a": list_task("a", [((1, 2), 6)]),
             "b": list_task("b", [((1, 2), [2, 1, 1, 2])])}
    pat = p("(Add ?0 ?0)")
    ms = count_matches(pat, corpus)
    assert len(ms) == 1  # Concat is not Add; only task a matches
    got = _fin(pat, corpus, tasks)
    assert isinstance(got, Rejection) and got.reason == "single-task"


def test_finalize_accepts_shared_motif():
    corpus = {"a": [parse_term("(ZipWith (lam2 (Add $1 $0)) xs (Reverse xs))",
                               NAMES)],
              "b": [parse_term("(ZipWith (lam2 (Add $1 $0)) (Sort xs) "
                               "(Reverse (Sort xs)))", NAMES)]}
    tasks = {k: list_task(k, [((1, 2), [3, 3])]) for k in corpus}
    got = _fin(p("(ZipWith (lam2 (Add $1 $0)) ?0 (Reverse ?0))"),
               corpus, tasks)
    assert isinstance(got, Abstraction)
    assert got.arity == 1
    assert got.signature == Arrow((INT_LIST,), INT_LIST)


def test_finalize_accepts_closed_constant():
    corpus = {"a": [parse_term("(Take xs (Add 2 2))", NAMES)],
              "b": [parse_term("(Drop xs (Add 2 2))", NAMES)]}
    tasks = {"a": list_task("a", [((1, 2, 3, 4, 5), [1, 2, 3, 4])]),
             "b": list_task("b", [((1, 2, 3, 4, 5), [5])])}
    got = _fin(p("(Add 2 2)"), corpus, tasks)
    assert isinstance(got, Abstraction)
    assert got.arity == 0 and got.signature == INT


# ---------------------------------------------------------------------------
# Mining end to end
# ---------------------------------------------------------------------------

def _mini_arith_dsl():
    i2 = Arrow((INT, INT), INT)
    ops = [
        Operation("Add", i2, lambda a, b: a + b),
        Operation("Subtract", i2, lambda a, b: a - b),
        Operation("Multiply", i2, lambda a, b: a * b),
        Operation("Square", Arrow((INT,), INT), lambda a: a * a),
    ]
    consts = [(ConstInt(n), INT) for n in (1, 2, 3, 4)]
    return DSLibrary(ops, consts)


def test_partial_abstraction_match_count():
    # two programs sharing an Add(3, _) head: the partial pattern has exactly
    # one match in each
    lib = _mini_arith_dsl()
    names = set(lib.op_names())
    f1 = parse_term("(Add 3 (Subtract (Multiply 2 3) 1))", names)
    f2 = parse_term("(Add 3 (Subtract (Add 1 2) (Square 4)))", names)
    corpus = {"f1": [f1], "f2": [f2]}
    assert len(count_matches(p("(Add 3 ?0)"), corpus)) == 2
    assert len(count_matches(p("(Add 3 (Subtract ?0 ?1))"), corpus)) == 2


def test_mine_rejects_shared_head_without_compression():
    # Add(3, Subtract(_, _)) recurs across both tasks, but replacing three
    # symbols with an application plus two arguments saves nothing, so the
    # miner keeps the library unchanged.
    lib = _mini_arith_dsl()
    names = set(lib.op_names())
    f1 = parse_term("(Add 3 (Subtract (Multiply 2 3) 1))", names)
    f2 = parse_term("(Add 3 (Subtract (Add 1 2) (Square 4)))", names)
    corpus = {"f1": [f1], "f2": [f2]}
    tasks = {"f1": Task("f1", (("x", INT),), (({"x": 0}, 8),)),
             "f2": Task("f2", (("x", INT),), (({"x": 0}, -10),))}
    pat = p("(Add 3 (Subtract ?0 ?1))")
    rep = utility(pat, count_matches(pat, corpus))
    assert rep.matches == 2 and rep.body_size == 3 and rep.arity == 2
    assert rep.value == 0
    res = mine(corpus, lib, tasks, MineConfig(max_rounds=1))
    assert res.abstractions == []


MOTIF_TEXTS = {
    "a": "(ZipWith (lam2 (Add $1 $0)) xs (Reverse xs))",
    "b": "(Take (ZipWith (lam2 (Add $1 $0)) xs (Reverse xs)) 2)",
    "c": "(ZipWith (lam2 (Add $1 $0)) (Sort xs) (Reverse (Sort xs)))",
}


def _motif_corpus():
    """(corpus, tasks): three programs that share an inlined motif, each
    the solution of its own task."""
    corpus = {k: [parse_term(v, NAMES)] for k, v in MOTIF_TEXTS.items()}
    tasks = {}
    for k, (term,) in corpus.items():
        exs = []
        for xs in ([1, 2, 3], [4, 0, 5, 2]):
            exs.append(({"xs": list(xs)},
                        evaluate(term, {"xs": list(xs)}, LIMITS, FULL.prims())))
        tasks[k] = Task(k, (("xs", INT_LIST),), tuple(exs))
    return corpus, tasks


def test_mine_motif_and_rewrite_preserves_semantics():
    corpus, tasks = _motif_corpus()
    res = mine(corpus, FULL, tasks, MineConfig(max_rounds=1))
    assert len(res.abstractions) == 1
    a = res.abstractions[0]
    assert format_pattern(canonicalize(a.pattern)) == \
        "(ZipWith (lam2 (Add $1 $0)) ?0 (Reverse ?0))"
    new_lib = res.library
    prims = new_lib.prims()
    for k in corpus:
        rewritten = res.corpus[k][0]
        original = corpus[k][0]
        assert term_size(rewritten) < term_size(original)
        for inputs, out in tasks[k].examples:
            assert evaluate(rewritten, dict(inputs), LIMITS, prims) == out


def test_mine_leaves_no_cyclic_garbage(cyclic_garbage):
    corpus, tasks = _motif_corpus()
    assert cyclic_garbage(lambda: mine(corpus, FULL, tasks)) == []


def test_mine_does_not_learn_a_learned_operation_again():
    # the corpus inlines fn_0's body instead of calling fn_0
    corpus, tasks = _motif_corpus()
    lib = mine(corpus, FULL, tasks, MineConfig(max_rounds=1)).library
    fn_0 = lib.op("fn_0").provenance.body
    res = mine(corpus, lib, tasks)
    assert [op.name for op in res.library.operations
            if op.is_learned and op.provenance.body == fn_0] == ["fn_0"]
    assert "'duplicate-abstraction': 1" in res.report
    pat = p("(ZipWith (lam2 (Add $1 $0)) ?0 (Reverse ?0))")
    assert finalize(pat, count_matches(pat, corpus), lib,
                    annotate_corpus(corpus, tasks, lib), "fn_1") == \
        Rejection("duplicate-abstraction", "fn_0")


def test_mine_returns_nothing_for_trivial_corpus():
    corpus = {"a": [parse_term("(Reverse xs)", NAMES)],
              "b": [parse_term("(Sort xs)", NAMES)],
              "c": [parse_term("xs", NAMES)]}
    tasks = {k: list_task(k, [((1, 2), [2, 1])]) for k in corpus}
    res = mine(corpus, FULL, tasks)
    assert res.abstractions == []


def test_mine_returns_nothing_for_single_task_pattern():
    t = parse_term("(Add (Sum xs) (Add (Sum xs) (Sum xs)))", NAMES)
    corpus = {"a": [t]}
    tasks = {"a": list_task("a", [((1, 2), 9)])}
    res = mine(corpus, FULL, tasks)
    assert res.abstractions == []


def test_mine_rejects_pattern_equal_to_existing_constant():
    # (Filter IsEven []) is the value [], already a library constant;
    # extending the library with it used to raise "duplicate constant []"
    corpus = {"a": [parse_term("(Reverse (Filter IsEven []))", NAMES)],
              "b": [parse_term("(Sort (Filter IsEven []))", NAMES)]}
    tasks = {k: list_task(k, [((1, 2), [])]) for k in corpus}
    pat = p("(Filter IsEven [])")
    got = finalize(pat, count_matches(pat, corpus), FULL,
                   annotate_corpus(corpus, tasks, FULL), "fn_0")
    assert got == Rejection("duplicate-constant", "[]")
    res = mine(corpus, FULL, tasks)
    assert res.abstractions == []
    assert "'duplicate-constant': 1" in res.report
    assert res.library.constants == FULL.constants


def test_mine_keeps_a_constant_as_its_literal():
    corpus = {"a": [parse_term("(Take xs (Add 2 2))", NAMES)],
              "b": [parse_term("(Drop xs (Add 2 2))", NAMES)]}
    tasks = {"a": list_task("a", [((1, 2, 3, 4, 5), [1, 2, 3, 4])]),
             "b": list_task("b", [((1, 2, 3, 4, 5), [5])])}
    res = mine(corpus, FULL, tasks)
    assert [a.name for a in res.abstractions] == ["fn_0"]
    assert res.abstractions[0].body == ConstInt(4)
    assert res.corpus == {"a": [parse_term("(Take xs 4)", NAMES)],
                          "b": [parse_term("(Drop xs 4)", NAMES)]}
    assert res.library.constants == FULL.constants + ((ConstInt(4), INT),)


def test_rewrite_program_counts_and_saves():
    a = Abstraction(
        "fn_0", 1, Arrow((INT_LIST,), INT_LIST),
        None, p("(ZipWith (lam2 (Add $1 $0)) ?0 (Reverse ?0))"),
        None, ("a",))
    t = parse_term("(Take (ZipWith (lam2 (Add $1 $0)) xs (Reverse xs)) 2)",
                   NAMES)
    out, sites, saved = rewrite_program(t, a)
    assert sites == 1 and saved == 3
    assert term_size(out) == term_size(t) - 3


def test_next_abstraction_name_skips_taken():
    assert next_abstraction_name(FULL) == "fn_0"


def test_extend_with_abstraction_executes():
    corpus = {"a": [parse_term("(ZipWith (lam2 (Add $1 $0)) xs (Reverse xs))",
                               NAMES)],
              "b": [parse_term("(ZipWith (lam2 (Add $1 $0)) (Sort xs) "
                               "(Reverse (Sort xs)))", NAMES)]}
    tasks = {k: list_task(k, [((1, 2), [3, 3])]) for k in corpus}
    got = _fin(p("(ZipWith (lam2 (Add $1 $0)) ?0 (Reverse ?0))"),
               corpus, tasks)
    lib2 = extend_with_abstraction(FULL, got)
    prog = parse_term("(fn_0 xs)", set(lib2.op_names()))
    assert evaluate(prog, {"xs": [1, 2, 3]}, LIMITS, lib2.prims()) == [4, 4, 4]
