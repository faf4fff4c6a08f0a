"""Scorer, trace generation, and training tests."""

import hashlib
import math

import pytest

from pbesynth.dsl import DSLibrary, default_list_dsl
from pbesynth.guidance import (
    FEATURE_DIM, LinearScorer, TraceDataset, TraceGenConfig, TraceStep,
    extract_features, generate_traces, load_scorer, load_traces, save_scorer,
    save_traces, train_scorer, warm_start_new_op,
)
from pbesynth.lang import INT, INT_LIST, EvalLimits, parse_term
from pbesynth.synthesis import init_store, make_context
from pbesynth.task import Task

FULL = default_list_dsl()
NAMES = set(FULL.op_names())
LIMITS = EvalLimits()

TASK = Task("t", (("xs", INT_LIST),),
            (({"xs": [1, 2, 3]}, [2, 3, 4]), ({"xs": [5]}, [6])))


def sub_dsl(*names):
    return DSLibrary([o for o in FULL.operations if o.name in names],
                     FULL.constants)


def test_trace_file_is_pinned(tmp_path):
    # every feature vector of a small trace set, byte for byte
    data = generate_traces(FULL, TraceGenConfig(max_weight=3, episodes=3,
                                                episode_timeout=1e9))
    path = tmp_path / "traces.txt"
    save_traces(data, path)
    assert (len(data.episodes), len(data.steps)) == (36, 86)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "a581addbb144afd657372c04eea2a78b111a7b2c4d74cc3e48a797172b6faa5d"


def test_trained_parameters_are_pinned():
    # every trained parameter, bit for bit: Add, Scanl1 and Subtract train
    # (1,920, 2,880 and 1,600 updates at the default max_steps)
    data = generate_traces(FULL, TraceGenConfig(max_weight=3, episodes=3,
                                                episode_timeout=1e9))
    pins = {
        200: "09af79694fcc44cf09c0fa701e5e31311227b33b1376c2ac966247e3708e956a",
        10000: "deeb01311015757e7af612c33abe0a74c3cea362a593152ea2da9260960ec74e",
    }
    for max_steps, pin in pins.items():
        params = train_scorer(data, max_steps=max_steps).per_op_parameters
        text = "".join(f"{op} {' '.join(map(float.hex, w))}\n"
                       for op, w in sorted(params.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == pin, max_steps


def _ctx_and_entries():
    lib = sub_dsl("Add", "Map")
    store = init_store(TASK, lib, LIMITS)
    ctx = make_context(TASK, 0, store.values)
    return ctx, store.entries


# ---------------------------------------------------------------------------
# Features and scoring
# ---------------------------------------------------------------------------

def test_feature_vector_shape_and_bias():
    ctx, entries = _ctx_and_entries()
    for e in entries:
        phi = extract_features(e, False, ctx)
        assert len(phi) == FEATURE_DIM
        assert phi[0] == 1.0
        assert all(isinstance(x, float) for x in phi)


def test_feature_type_onehot_and_weight():
    ctx, entries = _ctx_and_entries()
    one = next(e for e in entries if e.ty == INT and not e.free_vars)
    phi = extract_features(one, False, ctx)
    assert phi[2] == 1.0 and phi[3] == 0.0 and phi[4] == 0.0
    assert phi[1] == min(one.weight, 10) / 10.0


def test_unknown_op_scores_zero():
    ctx, entries = _ctx_and_entries()
    s = LinearScorer({})
    assert s.score("Add", entries[0], False, ctx) == 0.0


def test_known_op_scores_dot_product():
    ctx, entries = _ctx_and_entries()
    w = [0.5] * FEATURE_DIM
    s = LinearScorer({"Add": w})
    e = entries[0]
    phi = extract_features(e, False, ctx)
    assert s.score("Add", e, False, ctx) == pytest.approx(
        sum(a * b for a, b in zip(w, phi)))


def test_scorer_copy_is_independent():
    s = LinearScorer({"Add": [1.0] * FEATURE_DIM})
    c = s.copy()
    c.per_op_parameters["Add"][0] = 99.0
    assert s.per_op_parameters["Add"][0] == 1.0


def test_warm_start_copies_outermost_op_parameters():
    s = LinearScorer({"Map": [2.0] * FEATURE_DIM})
    body = parse_term("(lam (Map (lam (Add $0 1)) $0))", NAMES)
    out = warm_start_new_op(s, "fn_0", body)
    assert out.per_op_parameters["fn_0"] == [2.0] * FEATURE_DIM
    assert "warm-started from Map" in out.training_report["fn_0"]


def test_warm_start_falls_back_to_neutral():
    s = LinearScorer({})
    body = parse_term("(lam $0)", NAMES)
    out = warm_start_new_op(s, "fn_0", body)
    assert "fn_0" not in out.per_op_parameters
    assert "neutral" in out.training_report["fn_0"]


# ---------------------------------------------------------------------------
# Trace generation
# ---------------------------------------------------------------------------

SMALL_TRACE_CFG = TraceGenConfig(episode_timeout=20.0, per_abstraction_bonus=0,
                                 max_weight=4, episodes=3,
                                 targets_per_episode=4, max_negatives=8,
                                 random_seed=7)


@pytest.mark.parametrize("field", ["episode_timeout",
                                   "per_abstraction_bonus"])
def test_trace_gen_config_rejects_nan_budgets(field):
    # every comparison with NaN is false, so a NaN timeout never ran out
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        TraceGenConfig(**{field: float("nan")})


@pytest.mark.parametrize("field,value,least", [
    ("max_weight", 0, 1), ("episodes", -2, 0), ("targets_per_episode", -1, 0),
    ("max_negatives", -1, 0), ("examples_per_episode", 0, 1),
    ("episode_timeout", -1.0, 0), ("per_abstraction_bonus", -0.5, 0)])
def test_trace_gen_config_rejects_counts_below_their_least(field, value,
                                                            least):
    # each used to end in a sampling or task error, or in no traces
    with pytest.raises(ValueError, match=f"^{field} must be >= {least}$"):
        TraceGenConfig(**{field: value})
    TraceGenConfig(**{field: least})


def test_generate_traces_produces_episodes_and_steps():
    lib = sub_dsl("Add", "Subtract", "Head", "Reverse")
    data = generate_traces(lib, SMALL_TRACE_CFG)
    assert data.library_version == lib.version
    assert len(data.episodes) > 0
    assert len(data.steps) > 0
    for ep in data.episodes:
        # replayed target really produces the recorded outputs
        term = parse_term(ep.task.solution, set(lib.op_names()))
        from pbesynth.lang import evaluate
        for inputs, out in ep.task.examples:
            assert evaluate(term, dict(inputs), LIMITS, lib.prims()) == out


def test_generate_traces_is_deterministic():
    lib = sub_dsl("Add", "Subtract", "Head", "Reverse")
    d1 = generate_traces(lib, SMALL_TRACE_CFG)
    d2 = generate_traces(lib, SMALL_TRACE_CFG)
    assert [e.task.solution for e in d1.episodes] == \
        [e.task.solution for e in d2.episodes]
    assert d1.steps == d2.steps


def test_trace_steps_reference_real_operations():
    lib = sub_dsl("Add", "Subtract", "Head", "Reverse")
    data = generate_traces(lib, SMALL_TRACE_CFG)
    for s in data.steps:
        assert lib.has_op(s.op_name)
        assert len(s.positive) == FEATURE_DIM
        assert all(len(n) == FEATURE_DIM for n in s.negatives)
        assert len(s.negatives) <= SMALL_TRACE_CFG.max_negatives


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _rigged_dataset(n_steps=40):
    """Positives carry a 1.0 in the exact-output-match slot, negatives 0.0."""
    pos = [0.0] * FEATURE_DIM
    pos[0] = 1.0
    pos[6] = 1.0
    neg = [0.0] * FEATURE_DIM
    neg[0] = 1.0
    data = TraceDataset(1)
    for i in range(n_steps):
        data.steps.append(TraceStep(0, "Add", 0, tuple(pos),
                                    (tuple(neg), tuple(neg))))
    return data


def test_training_learns_rigged_preference():
    trained = train_scorer(_rigged_dataset(), seed=3, max_steps=2000)
    w = trained.per_op_parameters["Add"]
    pos = [0.0] * FEATURE_DIM
    pos[0] = 1.0
    pos[6] = 1.0
    neg = [0.0] * FEATURE_DIM
    neg[0] = 1.0
    s_pos = sum(a * b for a, b in zip(w, pos))
    s_neg = sum(a * b for a, b in zip(w, neg))
    assert s_pos > s_neg


def test_training_is_deterministic():
    lib = sub_dsl("Add", "Subtract", "Head", "Reverse")
    data = generate_traces(lib, SMALL_TRACE_CFG)
    s1 = train_scorer(data, seed=5, max_steps=500)
    s2 = train_scorer(data, seed=5, max_steps=500)
    assert s1.per_op_parameters == s2.per_op_parameters


def test_training_ranks_positives_highly_on_training_steps():
    lib = sub_dsl("Add", "Subtract", "Head", "Reverse")
    data = generate_traces(lib, SMALL_TRACE_CFG)
    trained = train_scorer(data, seed=0, max_steps=4000)
    wins = total = 0
    for s in data.steps:
        w = trained.per_op_parameters.get(s.op_name)
        if w is None or not s.negatives:
            continue
        sp = sum(a * b for a, b in zip(w, s.positive))
        for n in s.negatives:
            total += 1
            if sp >= sum(a * b for a, b in zip(w, n)):
                wins += 1
    assert total > 0
    assert wins / total >= 0.7


def test_sparse_ops_keep_initial_parameters():
    data = TraceDataset(1)
    pos = tuple([1.0] + [0.0] * (FEATURE_DIM - 1))
    neg = tuple([0.0] * FEATURE_DIM)
    for i in range(3):  # below MIN_STEPS_PER_OP
        data.steps.append(TraceStep(0, "Rare", 0, pos, (neg,)))
    init = LinearScorer({"Rare": [7.0] * FEATURE_DIM})
    out = train_scorer(data, init=init)
    assert out.per_op_parameters["Rare"] == [7.0] * FEATURE_DIM
    assert "kept initial parameters" in out.training_report["Rare"]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_scorer_save_load_round_trip(tmp_path):
    s = LinearScorer({"Add": [0.25, -1.5] + [0.0] * (FEATURE_DIM - 2),
                      "Map": [math.pi] * FEATURE_DIM},
                     {"Add": "trained on 12 pairs"})
    path = tmp_path / "scorer.txt"
    save_scorer(s, path)
    back = load_scorer(path)
    assert back.per_op_parameters == s.per_op_parameters
    assert back.training_report == s.training_report


def test_load_scorer_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a scorer\n")
    with pytest.raises(ValueError):
        load_scorer(path)


def test_load_scorer_rejects_short_vector(tmp_path):
    path = tmp_path / "scorer.txt"
    path.write_text(f"format: pbesynth-scorer 1\ndim: {FEATURE_DIM}\n"
                    "op Add : 1.0 2.0\n")
    with pytest.raises(ValueError, match="length 2"):
        load_scorer(path)


def _saved_trace_lines(tmp_path):
    data = generate_traces(sub_dsl("Add", "Head"), SMALL_TRACE_CFG)
    assert data.episodes and data.steps
    path = tmp_path / "traces.txt"
    save_traces(data, path)
    return path, path.read_text().splitlines()


def test_load_traces_rejects_truncated_file(tmp_path):
    path, lines = _saved_trace_lines(tmp_path)
    path.write_text(lines[0] + "\n")
    with pytest.raises(ValueError, match="truncated"):
        load_traces(path)


def test_load_traces_reads_header_lines_by_name(tmp_path):
    path, lines = _saved_trace_lines(tmp_path)
    # without its version line, the first episode line would be skipped
    path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match="library-version"):
        load_traces(path)


def test_load_traces_checks_declared_counts(tmp_path):
    path, lines = _saved_trace_lines(tmp_path)
    path.write_text("\n".join(lines[:-1]) + "\n")  # one step line lost
    with pytest.raises(ValueError, match="declares"):
        load_traces(path)


def test_load_traces_rejects_short_vector(tmp_path):
    path, lines = _saved_trace_lines(tmp_path)
    head, positive, negatives = lines[-1].split("|")
    short = ",".join(positive.split(",")[:-1])
    path.write_text("\n".join(lines[:-1] + [f"{head}|{short}|{negatives}"])
                    + "\n")
    with pytest.raises(ValueError, match="length"):
        load_traces(path)


def test_traces_save_load_round_trip(tmp_path):
    lib = sub_dsl("Add", "Subtract", "Head", "Reverse")
    data = generate_traces(lib, SMALL_TRACE_CFG)
    path = tmp_path / "traces.txt"
    save_traces(data, path)
    back = load_traces(path)
    assert back.library_version == data.library_version
    assert len(back.episodes) == len(data.episodes)
    assert [e.task.solution for e in back.episodes] == \
        [e.task.solution for e in data.episodes]
    assert [tuple(s.positive) for s in back.steps] == \
        [tuple(s.positive) for s in data.steps]
    assert [s.negatives for s in back.steps] == \
        [s.negatives for s in data.steps]
