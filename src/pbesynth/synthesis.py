"""Execution-guided bottom-up search over a value store.

Every explored subprogram becomes a ValueEntry keyed by its value: its
type, its free placeholders, and its outcome in every context (per-example
outputs, with errors folded in) as ids of the store's intern table.  A
candidate solves the task when that value is the task's outputs.  The store
holds no function values: lambda-typed arguments are built by *lifting*.
The store holds bodies over reserved placeholder variables (``%0i`` = first
Int parameter, ``%1i``, ``%0l``, ...), and a body whose free placeholders
fit an operation's arrow parameter is wrapped in a Lam at
argument-construction time.  Placeholder occurrences and bound variables
carry zero weight, so a lifted lambda weighs exactly its body.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import chain, islice, product, repeat
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .lang import (
    INT, BOOL, INT_LIST, Arrow, Ty, Term, Apply, InputVar, PrimRef, Closure,
    EvalError, EvalLimits, Evaluator, LearnedOp, bind_input_vars,
    canon_value, evaluate, free_input_vars, invoke_prim, runtime_value,
    term_size,
)
from .dsl import DSLibrary, Operation
from .sampling import UniqueSampler
from .task import Task

# ---------------------------------------------------------------------------
# Canonical battery: the placeholder values a lambda body is evaluated on
# ---------------------------------------------------------------------------

INT_BATTERY = (0, 1, 2, -1, 3, 5, -2, 4)
LIST_BATTERY = ((), (1,), (2, 1), (0, -1, 3))
BOOL_BATTERY = (True, False)
BATTERY_ROWS = 8

_TY_ABBREV = {INT: "i", BOOL: "b", INT_LIST: "l"}
_ABBREV_TY = {a: ty for ty, a in _TY_ABBREV.items()}


def _battery_value(ty: Ty, row: int, position: int):
    if ty == INT:
        return INT_BATTERY[(row + 3 * position) % len(INT_BATTERY)]
    if ty == INT_LIST:
        return list(LIST_BATTERY[(row + 3 * position) % len(LIST_BATTERY)])
    if ty == BOOL:
        return BOOL_BATTERY[(row + position) % 2]
    raise ValueError(f"no battery for type {ty!r}")


def placeholder_name(position: int, ty: Ty) -> str:
    return f"%{position}{_TY_ABBREV[ty]}"


def placeholder_info(name: str):
    """Inverse of placeholder_name."""
    return int(name[1:-1]), _ABBREV_TY[name[-1]]


def lib_placeholders(lib: DSLibrary):
    """Placeholder variables demanded by the library's arrow parameters.

    Returns (name -> Ty map, list of frozensets of names usable together).
    Arrow parameters whose own parameters are arrows are skipped: no body
    is lifted for those, so they have no candidates.
    """
    names: Dict[str, Ty] = {}
    allowed = set()
    for op in lib.operations:
        for pty in op.signature.params:
            group = isinstance(pty, Arrow) and arrow_placeholder_names(pty)
            if group:
                names.update(zip(group, pty.params))
                allowed.add(frozenset(group))
    return names, sorted(allowed, key=sorted)


def arrow_placeholder_names(arrow: Arrow) -> Optional[list]:
    if any(isinstance(q, Arrow) for q in arrow.params):
        return None
    return [placeholder_name(j, q) for j, q in enumerate(arrow.params)]


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------
#
# An outcome is what a term gives in one evaluation context: its value in
# lang.canon_value's form (("i", v), ("b", v) or ("l", tuple)), or
# ("e", kind) for an EvalError.  The contexts are the task's examples, or
# for a term with free placeholders example x battery row, example-major.
# A store keeps a term's outcomes as ids of its intern table
# (ValueStore.intern); they are the term's value, and the store holds no
# function values (see init_store).

_tag = itemgetter(0)


def _evaluated(term: Term, task: Task, limits: EvalLimits, prims,
               free_vars: Tuple[str, ...] = ()):
    """(eval_outcomes(...), steps): the outcomes, and the most steps an
    evaluation that did not run out of steps took (see ValueEntry.steps)."""
    most = 0
    outs = []
    var_info = [(n,) + placeholder_info(n) for n in free_vars]
    for inputs, _ in task.examples:
        for row in range(BATTERY_ROWS if free_vars else 1):
            bindings = dict(inputs)
            for n, pos, pty in var_info:
                bindings[n] = _battery_value(pty, row, pos)
            ev = Evaluator(prims, bindings, limits)
            try:
                outs.append(canon_value(evaluate(term, bindings, limits,
                                                 prims, ev)))
            except EvalError as e:
                outs.append(("e", e.kind))
                if e.kind == "steps":
                    continue
            most = max(most, ev.steps)
    return tuple(outs), most


def eval_outcomes(term: Term, task: Task, limits: EvalLimits, prims,
                  free_vars: Tuple[str, ...] = ()):
    """A term's outcome in each context: one per example, or one per
    example x battery row when the term has free placeholders."""
    return _evaluated(term, task, limits, prims, free_vars)[0]


# ---------------------------------------------------------------------------
# Value store
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ValueEntry:
    term: Term
    weight: int
    ty: Ty
    free_vars: Tuple[str, ...] = ()  # sorted
    index: int = -1
    provenance: Optional[tuple] = None  # (op_name, (entry_idx, ...))
    # at least the steps `term` takes in any context whose evaluation does
    # not run out of steps
    steps: int = field(kw_only=True)
    # the outcomes (see eval_outcomes) as ids of the intern table of the
    # store the entry is built for (ValueStore.intern): the entry's value
    ids: tuple = field(kw_only=True)
    # whether every example's ids are those of example 0; and `ids` with
    # each repeated once per battery row (see _applied, which fills it)
    invariant: bool = field(default=False, init=False, repr=False,
                            compare=False)
    spread: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        ids = self.ids
        k = BATTERY_ROWS if self.free_vars else 1
        self.invariant = ids[:k] * (len(ids) // k) == ids


class ValueStore:
    """Entries deduplicated by value, append-only: `add` appends a new value
    or lowers an existing entry's weight in place, and logs the index of
    every entry it improves in `improved`.

    A value is an entry's (type, free placeholders, ids), the ids being its
    outcomes in every context as ids of the store's intern table, which
    gives every outcome met a small int id.  The type is part of it: terms
    of different types can fail the same way in every context, and one
    must not stand in for the other.  `by_ids` indexes the entries by
    value.  Ids, and so the build table, mean something only against this
    store's table.  `goal` is the value that solves the store's task
    (init_store).

    `allowed` lists the placeholder sets usable together in one term: those
    of the library the store searches (lib_placeholders).

    The store also owns build_entry's build table: a _Plan per operation
    name, and lifted lambdas (arg_term).  A search releases it before it
    returns the store (release_build_table)."""

    def __init__(self, allowed=()):
        self.allowed = list(allowed)
        self.by_ids: Dict[tuple, ValueEntry] = {}
        self.goal: Optional[tuple] = None
        self.interned: Dict[tuple, int] = {}  # outcome -> id
        self.values: List[tuple] = []  # id -> outcome
        self.plans: Dict[str, _Plan] = {}
        # (entry index, entry weight, parameter type) -> (lambda, closed)
        self.lifts: Dict[tuple, tuple] = {}
        self.entries: List[ValueEntry] = []  # insertion order; index == position
        self.by_ty: Dict[Ty, List[ValueEntry]] = {}
        self.improved: List[int] = []  # indices add() improved, in order
        # arrow type -> [list, how much of its source list (candidates_for)
        # seen]
        self._cands: Dict[Ty, list] = {}
        self._scorer = None
        self._rankings: Dict[tuple, _Ranking] = {}
        # a scorer's per-entry features, keyed by (entry index, entry
        # weight); any scorer may fill it (see ScoreContext.features)
        self.features: Dict[tuple, list] = {}

    def __len__(self):
        return len(self.entries)

    def release_build_table(self):
        """Drop the build table.  The entries and the intern table stay, so
        ids still stand for outcomes one to one, and a later build_entry
        starts a new table."""
        self.plans.clear()
        self.lifts.clear()

    def intern(self, outcome) -> int:
        """The id of `outcome` in this store's intern table."""
        values = self.values
        i = self.interned.setdefault(outcome, len(values))
        if i == len(values):
            values.append(outcome)
        return i

    def ids_of(self, outcomes) -> tuple:
        """The ids of outcomes (see eval_outcomes)."""
        return tuple(map(self.intern, outcomes))

    def outcomes_of(self, ids) -> tuple:
        """Inverse of ids_of."""
        return tuple(map(self.values.__getitem__, ids))

    def solves(self, entry: ValueEntry) -> bool:
        """Whether `entry` holds the goal value."""
        return (entry.ty, entry.free_vars, entry.ids) == self.goal

    def add(self, entry: ValueEntry):
        """Insert or improve.  Returns (canonical_entry, is_new, improved).

        Duplicate values are never appended, so `entries` holds exactly the
        live canonical entries, in insertion order."""
        if 0 <= entry.index < len(self.entries) and \
                self.entries[entry.index] is entry:
            # this store's entry for its value, which build_entry returns
            # for a duplicate
            return entry, False, False
        old = self.by_ids.setdefault((entry.ty, entry.free_vars, entry.ids),
                                     entry)
        if old is entry:
            entry.index = len(self.entries)
            self.entries.append(entry)
            self.by_ty.setdefault(entry.ty, []).append(entry)
            return entry, True, False
        if entry.weight < old.weight:
            old.term = entry.term
            old.weight = entry.weight
            old.provenance = entry.provenance
            old.steps = entry.steps
            self.improved.append(old.index)
            return old, False, True
        return old, False, False

    def candidates_for(self, pty: Ty):
        """Entries usable at a parameter of type `pty`, in insertion order.

        Those are the entries of type `pty`, whose list in `by_ty` is
        returned itself, or for an arrow parameter the bodies of its result
        type that it can lift (arg_term), whose one list per type is
        extended on each call from the entries `by_ty` gained since the
        last one.  The lists are shared, so callers must not mutate them."""
        if not isinstance(pty, Arrow):
            # an entry's placeholders fit an allowed set: a seed's by
            # lib_placeholders, a built entry's by admissible
            return self.by_ty.setdefault(pty, [])
        state = self._cands.get(pty)
        if state is None:
            state = self._cands[pty] = [[], 0]
        out, seen = state
        names = arrow_placeholder_names(pty)
        if names is not None:
            nameset = frozenset(names)
            bodies = self.by_ty.get(pty.ret, ())
            state[1] = len(bodies)
            out += [e for e in bodies[seen:]
                    if nameset.issuperset(e.free_vars)]
        return out

    def ranking(self, scorer, name: str, position: int, cands,
                ctx: "ScoreContext") -> "_Ranking":
        """`cands`, the candidates of operation `name` at `position`, as
        (-score, weight, index, entry) tuples in ascending order, each scored
        once, as not a repeat of the last choice.  The ranking is kept
        between calls: entries new to `cands` are inserted, and entries
        `add` improved since are re-scored, since the weight is a feature.
        A different scorer starts empty rankings."""
        if scorer is not self._scorer:
            self._scorer = scorer
            self._rankings = {}
        r = self._rankings.get((name, position))
        if r is None or r.cands is not cands:
            r = self._rankings[(name, position)] = _Ranking(cands)
        order, keys = r.order, r.keys
        seen = r.seen
        score = scorer.score

        def insert(e):
            keys[e.index] = item = (-score(name, e, False, ctx), e.weight,
                                    e.index, e)
            insort(order, item)

        # an entry improved twice since the last call is re-scored once
        for i in dict.fromkeys(self.improved[r.logged:]):
            old = keys.get(i)
            if old is not None:
                del order[bisect_left(order, old)]
                insert(old[3])
        r.logged = len(self.improved)
        if len(cands) > seen:
            for e in cands[seen:]:
                insert(e)
            r.seen = len(cands)
        return r


class _Ranking:
    """ValueStore.ranking's state for one (operation, position)."""

    __slots__ = ("cands", "seen", "logged", "order", "keys", "repeats")

    def __init__(self, cands):
        self.cands = cands  # the shared candidates_for list it follows
        self.seen = 0  # how much of `cands` is in `order`
        self.logged = 0  # how much of ValueStore.improved is applied
        self.order: List[tuple] = []
        self.keys: Dict[int, tuple] = {}  # entry index -> its tuple in order
        # (entry index, entry weight) -> the entry's score as a repeat of
        # the last choice (see _beam)
        self.repeats: Dict[tuple, float] = {}


def arg_term(entry: ValueEntry, pty: Ty, store: ValueStore) -> Term:
    """The term actually placed at an argument position of type `pty`."""
    if not isinstance(pty, Arrow):
        return entry.term
    return _lifted(entry, pty, store)[0]


def _lifted(entry: ValueEntry, pty: Arrow, store: ValueStore):
    """(lambda, closed): the store entry `entry`, a body, lifted to a lambda
    of type `pty`, and whether the lambda reads no task input.  It is kept
    in `store.lifts` under the entry's (index, weight) and `pty`: within one
    store those fix the term, as in _applied."""
    key = (entry.index, entry.weight, pty)
    lifted = store.lifts.get(key)
    if lifted is None:
        lam = bind_input_vars(entry.term, arrow_placeholder_names(pty))
        lifted = store.lifts[key] = (lam, not free_input_vars(lam))
    return lifted


def admissible(tup, allowed_sets) -> bool:
    """Whether the free placeholders of an argument tuple of (entry,
    parameter type) pairs all fit one allowed set.  A lifted lambda binds
    its body's placeholders, so only non-arrow arguments contribute."""
    free = set()
    for e, pty in tup:
        if e.free_vars and not isinstance(pty, Arrow):
            free.update(e.free_vars)
    if not free:
        return True
    for s in allowed_sets:
        if free <= s:
            return True
    return False


def init_store(task: Task, lib: DSLibrary, limits: EvalLimits) -> ValueStore:
    """Seed a store with task inputs, library constants, and the lambda-body
    placeholders the library's arrow parameters call for.  The store's goal
    is the task's outputs, interned before any seed.

    The store holds no function values: a lambda is only ever an argument,
    lifted from a stored body.  A library with an operation that returns a
    function raises ValueError."""
    returning = [op.name for op in lib.operations
                 if isinstance(op.signature.ret, Arrow)]
    if returning:
        raise ValueError("cannot search a library with operations that "
                         "return a function: " + ", ".join(returning))
    prims = lib.prims()
    names, allowed = lib_placeholders(lib)
    store = ValueStore(allowed)
    store.goal = (task.output_type, (), store.ids_of(task.output_sig))

    def seed(t, weight, ty, free_vars=()):
        outs, steps = _evaluated(t, task, limits, prims, free_vars)
        store.add(ValueEntry(t, weight, ty, free_vars=free_vars, steps=steps,
                             ids=store.ids_of(outs)))

    for name, ty in task.input_types:
        t = InputVar(name)
        seed(t, term_size(t), ty)
    for literal, ty in lib.constants:
        seed(literal, term_size(literal), ty)
    for name in sorted(names):
        seed(InputVar(name), 0, names[name], (name,))
    return store


# ---------------------------------------------------------------------------
# Scoring context and argument selection
# ---------------------------------------------------------------------------

@dataclass
class ScoreContext:
    """What a scorer sees of an argument position besides the operation,
    the candidate and whether it repeats the last choice: the position,
    the task's outputs, and the intern table of the store the candidates
    come from (ValueStore.values), which decodes their ids.  `features`
    is that store's feature memo (ValueStore.features), where a scorer may
    keep what it computes from an entry and the task alone under the
    entry's (index, weight); None when the task is not the store's."""
    position: int
    output_sig: tuple  # Task.output_sig
    values: list
    features: Optional[dict] = None


def make_context(task: Task, position: int, values: list,
                 features: Optional[dict] = None) -> ScoreContext:
    return ScoreContext(position, task.output_sig, values, features)


class UniformScorer:
    """Scores every type-compatible candidate equally.

    Scorer contract: `score(op_name, candidate, repeat, ctx)` is a pure
    function of the operation, `ctx.position`, the candidate entry (its
    outcomes, type, free placeholders and weight), the task, and `repeat`:
    whether the candidate is the entry chosen at the previous position.
    Argument selection relies on this to score each pair at most twice
    per store, once for each `repeat` (ValueStore.ranking and _beam).  A
    store serves one task, so a scorer may keep what depends only on an
    entry and the task in the store's feature memo (ScoreContext.features)."""

    def score(self, op_name, candidate, repeat, ctx) -> float:
        return 0.0


def _ranked_positions(op: Operation, store: ValueStore, scorer, task: Task):
    """Per parameter of `op`, (type, context, ranking of its candidates)
    (ValueStore.ranking), or None when a parameter has no candidate."""
    params = op.signature.params
    lists = []
    for pty in params:
        cands = store.candidates_for(pty)
        if not cands:
            return None
        lists.append(cands)
    out = []
    for j, (pty, cands) in enumerate(zip(params, lists)):
        ctx = make_context(task, j, store.values, store.features)
        out.append((pty, ctx, store.ranking(scorer, op.name, j, cands, ctx)))
    return out


def beam_select_args(op: Operation, store: ValueStore, scorer,
                     beam_size: int, task: Task) -> List[tuple]:
    """Up to `beam_size` type-compatible argument tuples, best cumulative
    score first.

    Positions fill left to right, each candidate scored as a repeat of the
    previous position's choice or not.  Ties break by (lower total weight,
    earlier insertion order).

    By the scorer contract (see UniformScorer) each position's ranking
    keeps every score the selection needs: each candidate's as not a
    repeat, and as a repeat under (entry index, entry weight), the weight
    because ValueStore.add lowers it in place.  Each kept value is the
    float the scorer returned, so the tuples are exactly those of scoring
    every beam's extensions."""
    positions = _ranked_positions(op, store, scorer, task)
    if positions is None:
        return []
    return [entries
            for entries in _beam(op.name, positions, scorer, beam_size)
            if admissible(entries, store.allowed)]


def _beam(name, positions, scorer, beam_size):
    """The `beam_size` best entry tuples under the key (-score, total
    weight, index-key), filling `positions` (_ranked_positions) left to
    right.

    Each position's ranking orders its candidates by (-s, weight, index);
    a beam's extensions order by (-(beam score + s), weight, index).  Only
    the extensions that can be among a beam's best `beam_size` (see
    _contenders), plus its own last choice scored as a repeat, enter the
    heap, so the survivors are the same as from scoring every extension."""
    beams = [((), 0.0, 0, ())]  # (entries, score, weight, index-key)
    for pty, ctx, ranking in positions:
        scored = []
        for b, (entries, score, wsum, key) in enumerate(beams):
            last = entries[-1][0] if entries else None
            # (key, index) orders as key + (index,): the keys of one
            # position have equal length.  It is unique per tuple, so
            # comparisons never reach the beam number or the entry.
            for total, (_neg, w, i, e) in _contenders(ranking.order, last,
                                                      score, beam_size):
                scored.append((-total, wsum + w, key, i, b, e))
            if last is not None and last.index in ranking.keys:
                repeats, k = ranking.repeats, (last.index, last.weight)
                s = repeats.get(k)
                if s is None:
                    s = repeats[k] = scorer.score(name, last, True, ctx)
                scored.append((-(score + s), wsum + last.weight, key,
                               last.index, b, last))
        beams = [(beams[b][0] + ((e, pty),), -neg, w, key + (i,))
                 for neg, w, key, i, b, e
                 in heapq.nsmallest(beam_size, scored)]
    return [entries for entries, _score, _wsum, _key in beams]


def _contenders(order, last, score, beam_size):
    """(beam score + s, ranking item) for each item of a ranking `order`
    that can be among the `beam_size` best extensions of a beam with score
    `score`, other than its last choice `last`.

    Those are the first `beam_size` items, and after them the items whose
    beam score + s rounds to the same float as the last of those: float
    addition can tie different scores, and a tie falls to weight and index.
    Items with the same s are already in (weight, index) order, so past the
    first `beam_size` of one such group the rest of it is skipped."""
    out = []
    taken = in_group = 0
    group = cutoff = None
    pos, n = 0, len(order)
    while pos < n:
        item = order[pos]
        pos += 1
        neg = item[0]
        if item[3] is last:
            continue
        total = score - neg
        if taken < beam_size:
            taken += 1
            cutoff = total
        elif total != cutoff:
            break
        if neg != group:
            group, in_group = neg, 0
        elif in_group == beam_size:
            pos = bisect_right(order, (neg, math.inf), pos)
            continue
        in_group += 1
        out.append((total, item))
    return out


# ---------------------------------------------------------------------------
# Executing one candidate tuple
# ---------------------------------------------------------------------------

class _Plan:
    """What build_entry needs of one operation, the same for every
    candidate of a store; the store keeps one under the operation's name
    (ValueStore.plans)."""

    __slots__ = ("ref", "fn", "learned", "arrows", "ret", "memos")

    def __init__(self, op: Operation, prims):
        self.ref = PrimRef(op.name)
        self.fn = prims[op.name]
        self.learned = type(self.fn) is LearnedOp
        self.arrows = tuple(isinstance(p, Arrow) for p in op.signature.params)
        self.ret = op.signature.ret
        # _applied's applications, per tuple of the lambda arguments'
        # (index, weight)
        self.memos: Dict[tuple, dict] = {}


def build_entry(op: Operation, arg_entries, task: Task, limits: EvalLimits,
                prims, store: ValueStore) -> ValueEntry:
    """Construct the value for op(args), an entry for `store`, whose
    entries the arguments must be or have been built for.

    The result is computed from the arguments' ids, applying the operation
    once per distinct argument vector over the contexts (see _applied).
    The store's plans record those applications, so within one store an
    application made for an earlier candidate is not made again, nor a
    lambda lifted again (arg_term).  This relies on a contract: a
    primitive is a pure function of its argument values, and a learned
    operation's body is closed.  Each application runs on a fresh step
    budget and the memo keeps the steps it took, so the outcomes are those
    plain evaluation gives the term, step errors included.  Where the
    arguments and the application might run out of steps together, the
    term is evaluated in full.

    The result is looked up by its value in `store.by_ids` before its term
    is built.  If the stored entry weighs no more than the candidate,
    store.add would keep it and drop the candidate, so it is returned and
    no entry is built.  store.add(stored entry) gives (stored entry, False,
    False), as store.add(candidate) would."""
    plan = store.plans.get(op.name)
    if plan is None:
        plan = store.plans[op.name] = _Plan(op, prims)
    weight = 1
    fv = ()
    for (e, _pty), arrow in zip(arg_entries, plan.arrows):
        weight += e.weight
        # a lifted lambda binds its body's placeholders (see admissible)
        if e.free_vars and not arrow and e.free_vars != fv:
            fv = tuple(sorted(set(fv).union(e.free_vars))) if fv \
                else e.free_vars
    term = None
    found = _applied(plan, arg_entries, task, limits, prims, bool(fv), store)
    if found is None:
        term = _term(plan, arg_entries, store)
        outcomes, steps = _evaluated(term, task, limits, prims, fv)
        ids = store.ids_of(outcomes)
    else:
        ids, steps = found
    old = store.by_ids.get((plan.ret, fv, ids))
    if old is not None and old.weight <= weight:
        return old
    if term is None:
        term = _term(plan, arg_entries, store)
    return ValueEntry(term, weight, plan.ret, free_vars=fv,
                      provenance=(op.name,
                                  tuple(e.index for e, _ in arg_entries)),
                      steps=steps, ids=ids)


def _term(plan: _Plan, arg_entries, store: ValueStore) -> Apply:
    return Apply(plan.ref, tuple([arg_term(e, pty, store)
                                  for e, pty in arg_entries]))


def _applied(plan: _Plan, arg_entries, task: Task, limits: EvalLimits,
             prims, rows: bool, store: ValueStore):
    """(ids, steps) of applying the planned operation to the argument
    entries, from their ids, or None when the term must be evaluated in
    full: when the arguments and the application might run out of steps
    together.

    The contexts are the examples, or example x battery row when `rows`.
    Each context's argument vector is one key: an argument's id in that
    context, or for a lifted lambda the context's example index, since its
    body may read task inputs, or 0 if it reads none.  The operation is
    applied once per key not yet in `plan.memos[lambdas]`, where `lambdas`
    holds the (index, weight) of each lambda argument in order, through
    invoke_prim, in an evaluator of its own when a lambda or a learned
    operation takes steps.  The memo maps the key to (result id, steps of
    the application), or, for a primitive applied to base values only,
    which takes no steps, to the result id; the id is spread back over the
    contexts with that key.  The lambda entries must be store entries: the
    store replaces an improved entry's term in place, and the new term only
    has to match the old one on the battery, so the weight is part of the
    key.

    If every argument has the same ids in each example as in example 0
    (ValueEntry.invariant), and no lambda reads a task input, every context's
    key is that of the same context of example 0, so the operation is
    applied over example 0's contexts only and their result stands for
    every example.

    The outcomes are those of evaluating the term (eval_outcomes) because:
    - by build_entry's contract only a lambda argument depends on the
      example, and only if it reads a task input; within one store a
      lambda's (index, weight) fixes its term;
    - the first error among the arguments, in order, is the outcome; an
      argument or an application that runs out of steps on its own also
      does in the term;
    - otherwise a context takes one step for the Apply node, one per lambda
      argument, the steps of the other arguments and those of the
      application.  If the arguments' `steps` and the longest application
      among this call's keys fit the limit together, no context runs out
      of steps; if they may not, None."""
    n = len(task.examples)
    cols, lams, lam_ids = [], [], []
    ex_at = None  # position of the first lambda argument reading an input
    invariant = True
    bound = 1  # steps before the application, in any context
    for (e, pty), arrow in zip(arg_entries, plan.arrows):
        if arrow:
            lam, closed = _lifted(e, pty, store)
            if closed:
                cols.append(repeat(0))
            else:
                if ex_at is None:
                    ex_at = len(lams)
                invariant = False
                cols.append(_spread(range(n)) if rows else range(n))
            lams.append(lam)
            lam_ids.append((e.index, e.weight))
            bound += 1
            continue
        ids = e.ids
        if not e.invariant:
            invariant = False
        if rows and not e.free_vars:
            if e.spread is None:
                e.spread = tuple(_spread(ids))
            ids = e.spread
        cols.append(ids)
        lams.append(None)
        bound += e.steps
    if bound > limits.max_steps:
        return None
    bare = not lam_ids and not plan.learned
    lam_ids = tuple(lam_ids)
    memo = plan.memos.get(lam_ids)
    if memo is None:
        memo = plan.memos[lam_ids] = {}
    # example 0's contexts, or all of them
    contexts = (BATTERY_ROWS if rows else 1) * (1 if invariant else n)
    keys = list(islice(zip(*cols), contexts))
    hits = list(map(memo.get, keys))
    if None in hits:
        for j, hit in enumerate(hits):
            if hit is None:
                key = keys[j]
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = _apply(plan.fn, key, lams, bare, ex_at,
                                             task, limits, prims, store)
                hits[j] = hit
    if bare:
        steps, ids = bound, tuple(hits)
    else:
        steps = bound + max(map(itemgetter(1), hits), default=0)
        if steps > limits.max_steps:
            return None
        ids = tuple(map(_tag, hits))
    return (ids * n if invariant else ids), steps


def _apply(fn, key, lams, bare, ex_at, task: Task, limits: EvalLimits,
           prims, store: ValueStore):
    """_applied's memo entry for `key`: the id of the outcome of applying
    `fn` to the key's arguments, with the steps the application took unless
    `bare`."""
    values, intern = store.values, store.intern
    for k, lam in zip(key, lams):
        if lam is None and values[k][0] == "e":
            return k if bare else (k, 0)
    if bare:
        # no evaluator needed: a primitive of base values takes no steps
        try:
            return intern(canon_value(invoke_prim(
                fn, [runtime_value(values[k]) for k in key], limits, prims)))
        except EvalError as err:
            return intern(("e", err.kind))
    ev = Evaluator(prims, task.examples[0 if ex_at is None else key[ex_at]][0],
                   limits)
    args = [runtime_value(values[k]) if lam is None else Closure(lam, [], ev)
            for k, lam in zip(key, lams)]
    try:
        o = canon_value(invoke_prim(fn, args, limits, prims, ev))
    except EvalError as err:
        if err.kind == "steps":
            return intern(("e", "steps")), 0
        o = ("e", err.kind)
    return intern(o), ev.steps


def _spread(per_example):
    """Each item repeated once per battery row, as a column over the
    contexts (example x row)."""
    return chain.from_iterable(map(repeat, per_example,
                                   repeat(BATTERY_ROWS)))


# ---------------------------------------------------------------------------
# Exhaustive bottom-up enumeration (training-data generator and test oracle)
# ---------------------------------------------------------------------------

def _partitions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _partitions(total - first, parts - 1):
            yield (first,) + rest


class _Clock:
    """A search's clock: wall time, or a virtual clock that advances 1 ms
    per considered tuple and never reads the host's."""

    QUANTUM = 0.001

    def __init__(self, virtual: bool):
        self.virtual = virtual
        self.ticks = 0
        self.start = 0.0 if virtual else time.monotonic()

    def tick(self) -> float:
        """Count one considered tuple; returns now()."""
        self.ticks += 1
        return self.now()

    def now(self) -> float:
        if self.virtual:
            return self.ticks * self.QUANTUM
        return time.monotonic() - self.start


@dataclass
class ExhaustiveResult:
    store: ValueStore
    solution: Optional[ValueEntry]
    candidates: int
    timed_out: bool = False


def exhaustive_search(task: Task, lib: DSLibrary, max_weight: int,
                      timeout: float = math.inf,
                      limits: EvalLimits = EvalLimits(),
                      stop_on_solve: bool = True,
                      virtual_clock: bool = False) -> ExhaustiveResult:
    """Enumerate all semantically distinct values of weight <= max_weight,
    nondecreasing in weight, deduplicating by value (ValueStore), until a
    _Clock of the given mode, ticked per considered tuple, passes `timeout`."""
    prims = lib.prims()
    store = init_store(task, lib, limits)
    solution = store.by_ids.get(store.goal)  # a seed
    candidates = 0

    def result(timed_out=False):
        store.release_build_table()
        return ExhaustiveResult(store, solution, candidates, timed_out)

    if solution is not None and stop_on_solve:
        return result()
    clock = _Clock(virtual_clock)
    for w in range(1, max_weight + 1):
        # (entry, type) pairs per parameter type and entry weight.  A
        # candidate of this level weighs w, and add lowers an entry's weight
        # only to w, so the buckets of weights below w, the ones this level
        # reads, stay as they are until the next.
        buckets: Dict[Ty, Dict[int, list]] = {}
        for op in lib.operations:
            params = op.signature.params
            for pty in params:
                if pty not in buckets:
                    by_weight = buckets[pty] = {}
                    for e in store.candidates_for(pty):
                        by_weight.setdefault(e.weight, []).append((e, pty))
            for split in _partitions(w - 1, len(params)):
                lists = [buckets[pty].get(pw, ())
                         for pty, pw in zip(params, split)]
                for tup in product(*lists):
                    if clock.tick() > timeout:
                        return result(timed_out=True)
                    if not admissible(tup, store.allowed):
                        continue
                    entry = build_entry(op, tup, task, limits, prims, store)
                    candidates += 1
                    canon, is_new, _ = store.add(entry)
                    if is_new and store.solves(canon):
                        solution = canon
                        if stop_on_solve:
                            return result()
    return result()


# ---------------------------------------------------------------------------
# Guided search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    per_task_timeout: float = 100.0
    restart_interval: float = 10.0
    beam_size: Optional[int] = 10
    max_weight: int = 15
    eval_limits: EvalLimits = EvalLimits()
    random_seed: int = 0
    stop_on_solve: bool = True
    virtual_clock: bool = False
    restarts_enabled: bool = True

    def __post_init__(self):
        for name in ("per_task_timeout", "restart_interval"):
            if math.isnan(getattr(self, name)):
                # every comparison with NaN is false: no budget would end
                raise ValueError(f"{name} must be a number, not NaN")
        if self.restart_interval <= 0:
            # a restart would always be due, and a round that yields no
            # tuple never ticks the clock
            raise ValueError("restart_interval must be > 0")
        if self.restart_interval > self.per_task_timeout:
            raise ValueError("restart_interval must be <= per_task_timeout")
        if self.max_weight < 1:
            raise ValueError("max_weight must be >= 1")
        if self.beam_size is not None and self.beam_size < 1:
            # an empty beam stalls, and a sampling round draws nothing, so
            # the search would end at once (None is the unbounded search)
            raise ValueError("beam_size must be >= 1")


@dataclass
class SolveResult:
    solved: bool
    program: Optional[Term]
    elapsed: float
    candidates_evaluated: int
    restarts: int
    store: Optional[ValueStore] = None


def search(task: Task, lib: DSLibrary, scorer, cfg: SearchConfig) -> SolveResult:
    """Round-robin over operations, learned ones first (each group in library
    order): beam-selected argument tuples first, a unique-sampling round
    whenever the beam stalls, periodic restarts of a beam search, and
    deduplication by value (ValueStore) throughout.

    Both rounds are tuple sources that one executor, `run`, drains."""
    prims = lib.prims()
    ops = sorted(lib.operations, key=lambda op: not op.is_learned)
    clock = _Clock(cfg.virtual_clock)
    candidates = 0
    restarts = 0
    last_restart = 0.0
    # nothing but the sampler is random: an unbounded restart would replay
    restart_every = cfg.restart_interval \
        if cfg.restarts_enabled and cfg.beam_size is not None else math.inf
    rng = random.Random(cfg.random_seed)
    store = init_store(task, lib, cfg.eval_limits)
    solution = store.by_ids.get(store.goal)  # a seed
    executed: Dict[str, set] = {op.name: set() for op in ops}
    samplers: Dict[str, UniqueSampler] = {}
    # unbounded beam only: per op, how much of the store and of its
    # improvement log its full product has already crossed
    seen = dict.fromkeys(executed, (0, 0))
    sampled_any = False

    def finished():
        return (solution is not None and cfg.stop_on_solve) or \
            clock.now() >= cfg.per_task_timeout

    def restart_due():
        return clock.now() - last_restart >= restart_every

    def beam_round():
        for op in ops:
            if cfg.beam_size is None:
                done, logged = seen[op.name]
                tuples = _fresh_product(op, store, done,
                                        set(store.improved[logged:]),
                                        cfg.max_weight)
                seen[op.name] = (len(store.entries), len(store.improved))
            else:
                tuples = beam_select_args(op, store, scorer, cfg.beam_size,
                                          task)
            for tup in tuples:
                key = _executed_key(tup)
                if key not in executed[op.name]:
                    yield op, tup, key

    def sampling_round():
        nonlocal sampled_any
        sampled_any = False
        for op in ops:
            sampler = samplers.get(op.name)
            if sampler is None:
                dists = _sampler_dists(op, store, scorer, task)
                if dists is None:
                    continue
                sampler = samplers[op.name] = UniqueSampler(dists)
            for _ in range(cfg.beam_size):
                drawn = sampler.sample(rng)
                if drawn is None:
                    break
                tup = tuple(zip(drawn, op.signature.params))
                if admissible(tup, store.allowed):
                    sampled_any = True
                    yield op, tup, _executed_key(tup)
                else:
                    clock.tick()

    def run(tuples, until_restart):
        """Execute `tuples` until a solve (under stop_on_solve), the
        timeout or, if `until_restart`, a due restart.  Every tuple ticks
        the clock.  Returns whether any added or improved an entry."""
        nonlocal candidates, solution
        progress = False
        # finished() and restart_due() on the tick's reading of the clock
        interval = restart_every if until_restart else math.inf
        for op, tup, key in tuples:
            now = clock.tick()
            done = executed[op.name]
            if key not in done:
                done.add(key)
                if 1 + sum(e.weight for e, _ in tup) <= cfg.max_weight:
                    entry = build_entry(op, tup, task, cfg.eval_limits,
                                        prims, store)
                    candidates += 1
                    canon, is_new, improved = store.add(entry)
                    if is_new and solution is None and store.solves(canon):
                        solution = canon
                    progress = progress or is_new or improved
            if (solution is not None and cfg.stop_on_solve) or \
                    now >= cfg.per_task_timeout or \
                    now - last_restart >= interval:
                break
        return progress

    while not finished():
        if restart_due():
            restarts += 1
            last_restart = clock.now()
            rng = random.Random(cfg.random_seed + restarts)
            store = init_store(task, lib, cfg.eval_limits)
            executed = {op.name: set() for op in ops}
            samplers.clear()
        if run(beam_round(), True) or restart_due() or finished():
            continue
        if cfg.beam_size is None:
            # the unbounded beam already covers the full cross product, so a
            # stalled round means the space under max_weight is exhausted
            break
        # Beam stalled: one unique-sampling round to break out.
        if run(sampling_round(), False):
            samplers.clear()  # store changed; supports are stale
        elif not sampled_any:
            # no beam progress and sampling supports are spent: the space
            # under max_weight is exhausted (restarts, if any, ran above)
            break

    store.release_build_table()
    solved = solution is not None
    return SolveResult(solved, solution.term if solved else None, clock.now(),
                       candidates, restarts, store)


def _fresh_product(op: Operation, store: ValueStore, seen: int,
                   improved: set, max_weight: int):
    """Type-compatible argument tuples within the weight budget that earlier
    rounds have not covered: each must use an entry newer than `seen` or one
    whose weight improved.  Candidate lists are snapshotted eagerly;
    iteration is lazy and weight-pruned (lists sorted by weight)."""
    lists = []
    for pty in op.signature.params:
        cands = store.candidates_for(pty)
        if not cands:
            return iter(())
        lists.append(sorted(((e, pty) for e in cands),
                            key=lambda c: (c[0].weight, c[0].index)))
    return _fresh_tuples(lists, 0, [], max_weight - 1, False, seen, improved,
                         store.allowed)


def _fresh_tuples(lists, j, acc, budget, fresh, seen, improved, allowed):
    """_fresh_product's tuples that extend the prefix `acc` from position
    `j` on, within the weight left in `budget`; `fresh` tells whether the
    prefix already uses a new or improved entry."""
    last = j == len(lists) - 1
    for pair in lists[j]:
        e = pair[0]
        if e.weight > budget:
            break
        acc.append(pair)
        now_fresh = fresh or e.index >= seen or e.index in improved
        if not last:
            yield from _fresh_tuples(lists, j + 1, acc, budget - e.weight,
                                     now_fresh, seen, improved, allowed)
        elif now_fresh and admissible(acc, allowed):
            yield tuple(acc)
        acc.pop()


def _executed_key(tup) -> tuple:
    """An argument tuple's key among its operation's executed tuples:
    (index0, weight0, index1, weight1, ...).  The parameter's type and the
    entry's fix how the entry is placed, so index and weight identify the
    term within one operation."""
    key = []
    for e, _ in tup:
        key.append(e.index)
        key.append(e.weight)
    return tuple(key)


def _sampler_dists(op: Operation, store: ValueStore, scorer, task: Task):
    """Per position, a copy of its (growing) candidate list and their
    softmax over the no-repeat scores that its ranking holds."""
    positions = _ranked_positions(op, store, scorer, task)
    if positions is None:
        return None
    dists = []
    for _pty, _ctx, r in positions:
        cands = r.cands
        scores = [-r.keys[e.index][0] for e in cands]
        m = max(scores)
        weights = [math.exp(s - m) for s in scores]
        total = sum(weights)
        dists.append((cands[:], [w / total for w in weights]))
    return dists
