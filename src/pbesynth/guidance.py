"""Learned guidance for the search: a per-operation linear ranking model,
search-trace generation from random programs, and pairwise training.

Traces come from running the exhaustive enumerator on randomly generated
inputs, picking reachable values as targets, and replaying how each target
was built.  Every argument choice along the way becomes one trace step:
the chosen store entry is the positive, a sample of the other
type-compatible entries are the negatives.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add, mul, sub

from .lang import (
    INT, BOOL, INT_LIST, Apply, Lam, PrimRef, EvalLimits, format_term,
    runtime_value,
)
from .dsl import DSLibrary
from .task import (
    Task, TaskFormatError, format_value, parse_decls, parse_example,
)
from .synthesis import ScoreContext, exhaustive_search, make_context

FEATURE_DIM = 12


def extract_features(candidate, repeat, ctx: ScoreContext):
    """Feature vector for scoring `candidate` at one argument position.

    `repeat` tells whether the candidate is the entry chosen at the
    previous position.  Features 0-9 depend only on the candidate entry
    (its outcomes, which `ctx.values` decodes, type, free placeholders and
    weight) and the task's outputs; 10 and 11 are the choice features
    (_choice_features).
    A lambda body's outcome features are 0."""
    n = 0
    eq = contained = samelen = errs = 0
    if not candidate.free_vars:
        n = len(candidate.ids)
        for out, target in zip(map(ctx.values.__getitem__, candidate.ids),
                               ctx.output_sig):
            if out == target:
                eq += 1
            if out[0] == "e":
                errs += 1
            if target[0] == "l":
                tvals = target[1]
                if out[0] == "i" and out[1] in tvals:
                    contained += 1
                elif out[0] == "l":
                    if len(out[1]) == len(tvals):
                        samelen += 1
                    if all(x in tvals for x in out[1]):
                        contained += 1
    inv = 1.0 / n if n else 0.0
    return [
        1.0,
        min(candidate.weight, 10) / 10.0,
        1.0 if candidate.ty == INT else 0.0,
        1.0 if candidate.ty == BOOL else 0.0,
        1.0 if candidate.ty == INT_LIST else 0.0,
        1.0 if candidate.free_vars else 0.0,
        eq * inv,
        contained * inv,
        samelen * inv,
        errs * inv,
    ] + _choice_features(repeat, ctx)


ENTRY_FEATURES = 10  # features 0-9: of the entry and the task alone


def _choice_features(repeat, ctx: ScoreContext):
    """Features 10 and 11: is the candidate a repeat of the previous
    position's choice, and the position."""
    return [1.0 if repeat else 0.0, min(ctx.position, 4) / 4.0]


def _zeros():
    return [0.0] * FEATURE_DIM


class LinearScorer:
    """Per-operation linear model over argument features.

    Unknown operations score 0 for every candidate, matching the uniform
    scorer, so an untrained model degrades gracefully.

    Scorer contract (see synthesis.UniformScorer): a score is a pure
    function of the operation, `ctx.position`, the candidate entry, the
    task and `repeat`, which enters as feature 10.  Argument selection
    caches scores on that basis, so the parameters must not change while
    a search uses the scorer.

    Features 0-9 do not depend on the operation or the position, so a
    store keeps them once per entry: when `ctx.features` is a store's
    feature memo (ValueStore.features), `score` reads them there under the
    entry's (index, weight), and computes them with extract_features only
    on a miss.  With `ctx.features` None every call extracts the features.
    Either way the score is the same float: the same products, added in
    the same order."""

    def __init__(self, per_op_parameters=None, training_report=None):
        self.per_op_parameters = dict(per_op_parameters or {})
        self.training_report = dict(training_report or {})

    def score(self, op_name, candidate, repeat, ctx) -> float:
        w = self.per_op_parameters.get(op_name)
        if w is None:
            return 0.0
        memo = ctx.features
        if memo is None:
            phi = extract_features(candidate, repeat, ctx)
        else:
            key = (candidate.index, candidate.weight)
            phi = memo.get(key)
            if phi is None:
                phi = memo[key] = extract_features(
                    candidate, False, ctx)[:ENTRY_FEATURES]
            phi = phi + _choice_features(repeat, ctx)
        return sum(map(mul, w, phi))

    def copy(self) -> "LinearScorer":
        return LinearScorer({k: list(v) for k, v in self.per_op_parameters.items()},
                            dict(self.training_report))


def warm_start_new_op(scorer: LinearScorer, op_name: str, body) -> LinearScorer:
    """Give a newly added operation the parameters of the outermost operation
    of its body.  Falls back to neutral (and says so in the report) when the
    body has no known outermost operation."""
    out = scorer.copy()
    root = body
    while isinstance(root, Lam):
        root = root.body
    while isinstance(root, Apply):
        root = root.fn
    src = root.name if isinstance(root, PrimRef) else None
    if src is not None and src in out.per_op_parameters:
        out.per_op_parameters[op_name] = list(out.per_op_parameters[src])
        out.training_report[op_name] = f"warm-started from {src}"
    else:
        out.training_report[op_name] = "warm start unavailable, neutral init"
    return out


# ---------------------------------------------------------------------------
# Trace generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceGenConfig:
    episode_timeout: float = 1000.0
    per_abstraction_bonus: float = 100.0
    max_weight: int = 15
    episodes: int = 20
    targets_per_episode: int = 12
    max_negatives: int = 32
    examples_per_episode: int = 3
    random_seed: int = 0
    eval_limits: EvalLimits = EvalLimits()

    def __post_init__(self):
        for name in ("episode_timeout", "per_abstraction_bonus"):
            if math.isnan(getattr(self, name)):
                # an episode's timeout would be NaN, and never reached
                raise ValueError(f"{name} must be a number, not NaN")
        # a budget below 0 would stop every episode at its first tuple
        for name, least in (("episode_timeout", 0),
                            ("per_abstraction_bonus", 0), ("max_weight", 1),
                            ("episodes", 0), ("targets_per_episode", 0),
                            ("max_negatives", 0), ("examples_per_episode", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")

    def effective_timeout(self, lib: DSLibrary) -> float:
        learned = sum(1 for op in lib.operations if op.is_learned)
        return self.episode_timeout + self.per_abstraction_bonus * learned


@dataclass(frozen=True)
class TraceEpisode:
    index: int
    task: Task  # inputs, the target's outputs, and the target as solution


@dataclass(frozen=True)
class TraceStep:
    episode: int
    op_name: str
    position: int
    positive: tuple  # feature vector
    negatives: tuple  # of feature vectors


@dataclass
class TraceDataset:
    library_version: int
    episodes: list = field(default_factory=list)
    steps: list = field(default_factory=list)


_TEMPLATES = [
    (("xs", INT_LIST),),
    (("xs", INT_LIST), ("n", INT)),
    (("xs", INT_LIST), ("ys", INT_LIST)),
]


def _random_inputs(decls, rng: random.Random):
    out = {}
    for name, ty in decls:
        if ty == INT_LIST:
            out[name] = [rng.randint(-5, 9) for _ in range(rng.randint(3, 8))]
        elif ty == INT:
            out[name] = rng.randint(-3, 6)
        else:
            out[name] = rng.random() < 0.5
    return out


def _outputs(entry, store):
    """The per-example values of an entry of `store`, or None if it is a
    lambda body or any example errored."""
    if entry.free_vars:
        return None
    outs = store.outcomes_of(entry.ids)
    if any(o[0] == "e" for o in outs):
        return None
    return [runtime_value(o) for o in outs]


def generate_traces(lib: DSLibrary, cfg: TraceGenConfig,
                    virtual_clock: bool = False) -> TraceDataset:
    """Run seeded random episodes and replay reachable values as targets;
    each episode's budget runs on a clock of the given mode."""
    data = TraceDataset(lib.version)
    per_episode = cfg.effective_timeout(lib) / max(cfg.episodes, 1)
    for ep in range(cfg.episodes):
        rng = random.Random(cfg.random_seed * 1000003 + ep)
        decls = _TEMPLATES[ep % len(_TEMPLATES)]
        examples = tuple(
            (_random_inputs(decls, rng), 0)
            for _ in range(cfg.examples_per_episode))
        probe = Task(f"episode-{ep}", decls, examples)
        store = exhaustive_search(probe, lib, cfg.max_weight,
                                  timeout=per_episode,
                                  limits=cfg.eval_limits,
                                  stop_on_solve=False,
                                  virtual_clock=virtual_clock).store
        built = [e for e in store.entries if e.provenance is not None
                 and _outputs(e, store) is not None]
        rng.shuffle(built)
        for target in built[:cfg.targets_per_episode]:
            outs = _outputs(target, store)
            task = Task(f"trace-{len(data.episodes)}", decls,
                        tuple((inp, out) for (inp, _), out
                              in zip(examples, outs)),
                        solution=format_term(target.term))
            ep_idx = len(data.episodes)
            data.episodes.append(TraceEpisode(ep_idx, task))
            _emit_steps(data, ep_idx, target, store, lib, task, rng,
                        cfg.max_negatives)
        # one store at a time: the next episode's search builds its own
        del store, built
    return data


def _emit_steps(data, ep_idx, entry, store, lib, task, rng, max_negatives):
    op_name, choices = entry.provenance
    op = lib.op(op_name)
    chosen = [store.entries[idx] for idx in choices]
    for pos, (pty, pick) in enumerate(zip(op.signature.params, chosen)):
        # the store's table, but not its feature memo: `task` is not the
        # store's task
        ctx = make_context(task, pos, store.values)
        last = chosen[pos - 1] if pos > 0 else None
        positive = tuple(extract_features(pick, last is pick, ctx))
        pool = [e for e in store.candidates_for(pty)
                if e.index != pick.index]
        if len(pool) > max_negatives:
            pool = rng.sample(pool, max_negatives)
        negatives = tuple(tuple(extract_features(e, last is e, ctx))
                          for e in pool)
        data.steps.append(TraceStep(ep_idx, op_name, pos, positive, negatives))
    for child in chosen:
        if child.provenance is not None:
            _emit_steps(data, ep_idx, child, store, lib, task, rng,
                        max_negatives)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

MIN_STEPS_PER_OP = 10


def train_scorer(data: TraceDataset, init: LinearScorer = None,
                 seed: int = 0, max_steps: int = 10000) -> LinearScorer:
    """Pairwise logistic ranking: each trace step contributes (positive,
    negative) feature pairs for its operation.  Deterministic for a fixed
    seed.  Operations seen in fewer than MIN_STEPS_PER_OP steps keep their
    initial parameters; the scorer's training_report says which."""
    init_params = init.per_op_parameters if init is not None else {}
    by_op = {}
    step_counts = {}
    for s in data.steps:
        step_counts[s.op_name] = step_counts.get(s.op_name, 0) + 1
        pairs = by_op.setdefault(s.op_name, [])
        for neg in s.negatives:
            pairs.append((s.positive, neg))
    params = {}
    report = {}
    for op_name in sorted(by_op):
        w = list(init_params.get(op_name, _zeros()))
        if step_counts[op_name] < MIN_STEPS_PER_OP:
            params[op_name] = w
            report[op_name] = (f"only {step_counts[op_name]} trace steps, "
                               "kept initial parameters")
            continue
        pairs = by_op[op_name]
        rng = random.Random(seed * 1000003 + zlib.crc32(op_name.encode()))
        n_updates = min(max_steps, 5 * len(pairs))
        for step in range(n_updates):
            d = tuple(map(sub, *pairs[rng.randrange(len(pairs))]))
            margin = reduce(add, map(mul, w, d))  # same bits on any Python
            if margin > 30:
                continue
            g = 1.0 / (1.0 + math.exp(margin))  # sigmoid(-margin)
            lr = 0.5 / (1.0 + step / 2000.0)
            w = list(map(add, w, map(mul, repeat(lr * g), d)))
        params[op_name] = w
        report[op_name] = f"trained on {len(pairs)} pairs, {n_updates} updates"
    for op_name, w in init_params.items():
        if op_name not in params:
            params[op_name] = list(w)
    return LinearScorer(params, report)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_SCORER_FORMAT = "pbesynth-scorer 1"
_TRACE_FORMAT = "pbesynth-traces 1"


def save_scorer(scorer: LinearScorer, path) -> None:
    lines = [f"format: {_SCORER_FORMAT}", f"dim: {FEATURE_DIM}"]
    for op_name in sorted(scorer.per_op_parameters):
        vec = " ".join(repr(x) for x in scorer.per_op_parameters[op_name])
        lines.append(f"op {op_name} : {vec}")
    for op_name in sorted(scorer.training_report):
        lines.append(f"note {op_name} : {scorer.training_report[op_name]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_scorer(path) -> LinearScorer:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != f"format: {_SCORER_FORMAT}":
        raise ValueError(f"not a scorer file: {path}")
    if lines[1:2] != [f"dim: {FEATURE_DIM}"]:
        raise ValueError("scorer feature dimension mismatch")
    params = {}
    report = {}
    for ln in lines[2:]:
        if ln.startswith("op "):
            head, vec = ln[3:].split(":", 1)
            params[head.strip()] = list(_parse_vec(vec.split()))
        elif ln.startswith("note "):
            head, note = ln[5:].split(":", 1)
            report[head.strip()] = note.strip()
        else:
            raise ValueError(f"malformed scorer line: {ln!r}")
    return LinearScorer(params, report)


def _fmt_vec(v):
    return ",".join(repr(x) for x in v)


def _parse_vec(items) -> tuple:
    """A feature vector from its numbers' texts; empty texts are skipped."""
    vec = tuple(float(x) for x in items if x)
    if len(vec) != FEATURE_DIM:
        raise ValueError(f"feature vector of length {len(vec)}, expected "
                         f"{FEATURE_DIM}")
    return vec


def save_traces(data: TraceDataset, path) -> None:
    lines = [f"format: {_TRACE_FORMAT}",
             f"library-version: {data.library_version}",
             f"episodes: {len(data.episodes)}",
             f"steps: {len(data.steps)}"]
    for ep in data.episodes:
        t = ep.task
        decls = ",".join(f"{n}:{ty!r}" for n, ty in t.input_types)
        exs = ";".join(
            ",".join(f"{n}={format_value(inp[n])}" for n, _ in t.input_types)
            + "->" + format_value(out)
            for inp, out in t.examples)
        lines.append(f"episode {ep.index} | {decls} | {exs} | {t.solution}")
    for s in data.steps:
        negs = ";".join(_fmt_vec(n) for n in s.negatives)
        lines.append(f"step {s.episode} {s.op_name} {s.position} | "
                     f"{_fmt_vec(s.positive)} | {negs}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_traces(path) -> TraceDataset:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != f"format: {_TRACE_FORMAT}":
        raise ValueError(f"not a trace file: {path}")
    if len(lines) < 4:
        raise ValueError(f"truncated trace file: {path}")
    header = {}
    for key, ln in zip(("library-version", "episodes", "steps"), lines[1:]):
        name, _, value = ln.partition(":")
        if name != key:
            raise ValueError(f"expected a {key!r} line, got {ln!r}")
        header[key] = int(value)
    data = TraceDataset(header["library-version"])
    for ln in lines[4:]:
        if ln.startswith("episode "):
            head, decls, exs, term = [p.strip() for p in ln.split("|")]
            if len(head.split()) != 2:
                raise ValueError(f"malformed trace line: {ln!r}")
            idx = int(head.split()[1])
            try:
                task = Task(f"trace-{idx}", parse_decls(decls),
                            tuple(parse_example(ex) for ex in exs.split(";")),
                            solution=term)
            except TaskFormatError as e:
                # a trace file is not a tasks file: exit 2, not 3
                raise ValueError(f"{path}: {e} in trace line {ln!r}") from None
            data.episodes.append(TraceEpisode(idx, task))
        elif ln.startswith("step "):
            head, pos_text, neg_text = [p.strip() for p in ln.split("|")]
            _, ep, op_name, position = head.split()
            negs = tuple(_parse_vec(t.split(","))
                         for t in neg_text.split(";") if t)
            data.steps.append(TraceStep(int(ep), op_name, int(position),
                                        _parse_vec(pos_text.split(",")),
                                        negs))
        else:
            raise ValueError(f"malformed trace line: {ln!r}")
    held = (len(data.episodes), len(data.steps))
    if held != (header["episodes"], header["steps"]):
        raise ValueError(f"{path} declares {header['episodes']} episodes and "
                         f"{header['steps']} steps, but holds {held[0]} and "
                         f"{held[1]}")
    return data
