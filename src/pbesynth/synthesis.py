"""Execution-guided bottom-up search over a value store.

Every explored subprogram becomes a ValueEntry keyed by its semantic
signature (per-example outputs, with errors folded in).  Lambda-typed
arguments are built by *lifting*: the store holds bodies over reserved
placeholder variables (``%0i`` = first Int parameter, ``%1i``, ``%0l``, ...),
and a body whose free placeholders fit an operation's arrow parameter is
wrapped in a Lam at argument-construction time.  Placeholder occurrences and
bound variables carry zero weight, so a lifted lambda weighs exactly its
body.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .lang import (
    INT, BOOL, INT_LIST, Arrow, Ty, Term, Apply, InputVar, PrimRef,
    EvalError, EvalLimits, bind_input_vars, evaluate, format_term,
    invoke_prim, is_function_value, term_size,
)
from .dsl import DSLibrary, Operation
from .sampling import UniqueSampler
from .task import Task

# ---------------------------------------------------------------------------
# Canonical battery for fingerprinting function-valued programs
# ---------------------------------------------------------------------------

INT_BATTERY = (0, 1, 2, -1, 3, 5, -2, 4)
LIST_BATTERY = ((), (1,), (2, 1), (0, -1, 3))
BOOL_BATTERY = (True, False)
BATTERY_ROWS = 8

_TY_ABBREV = {INT: "i", BOOL: "b", INT_LIST: "l"}


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
    code = name[-1]
    ty = {"i": INT, "b": BOOL, "l": INT_LIST}[code]
    return int(name[1:-1]), ty


def lib_placeholders(lib: DSLibrary):
    """Placeholder variables demanded by the library's arrow parameters.

    Returns (name -> Ty map, list of frozensets of names usable together).
    Arrow parameters whose own parameters are arrows are skipped (no lifting
    for those; concrete closure values still apply).
    """
    names: Dict[str, Ty] = {}
    allowed = set()
    for op in lib.operations:
        for pty in op.signature.params:
            if isinstance(pty, Arrow):
                if any(isinstance(q, Arrow) for q in pty.params):
                    continue
                group = []
                for j, q in enumerate(pty.params):
                    n = placeholder_name(j, q)
                    names[n] = q
                    group.append(n)
                allowed.add(frozenset(group))
    return names, sorted(allowed, key=sorted)


def arrow_placeholder_names(arrow: Arrow) -> Optional[list]:
    if any(isinstance(q, Arrow) for q in arrow.params):
        return None
    return [placeholder_name(j, q) for j, q in enumerate(arrow.params)]


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

def canon_value(v):
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, int):
        return ("i", v)
    if isinstance(v, list):
        return ("l", tuple(v))
    return ("opaque",)


def _probe_closure(clos, arrow: Arrow):
    outcomes = []
    for row in range(BATTERY_ROWS):
        try:
            args = [_battery_value(q, row, j) for j, q in enumerate(arrow.params)]
        except ValueError:
            return ("opaque-arrow",)
        try:
            v = clos(*args)
            outcomes.append(canon_value(v))
        except EvalError as e:
            outcomes.append(("e", e.kind))
    return tuple(outcomes)


def _eval_once(term: Term, bindings, limits: EvalLimits, prims):
    """One evaluation outcome: ("ok", value), ("fn", value), or ("e", kind)."""
    try:
        v = evaluate(term, bindings, limits, prims)
        return ("fn", v) if is_function_value(v) else ("ok", v)
    except EvalError as e:
        return ("e", e.kind)


def eval_outcomes(term: Term, task: Task, limits: EvalLimits, prims,
                  free_vars: Tuple[str, ...] = ()):
    """Raw per-context outcomes of a term: one outcome per example, or per
    example x battery row when the term has free placeholders."""
    if free_vars:
        var_info = [(n,) + placeholder_info(n) for n in free_vars]
        outs = []
        for inputs, _ in task.examples:
            rows = []
            for row in range(BATTERY_ROWS):
                bindings = dict(inputs)
                for n, pos, pty in var_info:
                    bindings[n] = _battery_value(pty, row, pos)
                rows.append(_eval_once(term, bindings, limits, prims))
            outs.append(tuple(rows))
        return tuple(outs)
    return tuple(_eval_once(term, dict(inputs), limits, prims)
                 for inputs, _ in task.examples)


def sig_from_outcomes(term: Term, outcomes,
                      free_vars: Tuple[str, ...] = (),
                      ty: Optional[Ty] = None):
    """The semantic signature a term of type `ty` gets from its raw outcomes
    (see eval_outcomes).

    Base values and errors stand for themselves.  A function value of an
    arrow-typed term is fingerprinted by its outputs on the canonical
    battery; any other function value is opaque.  Terms with free
    placeholders are tagged "f", other arrow-typed terms "c", the rest
    "v"."""
    arrow = isinstance(ty, Arrow)

    def c(o, opaque):
        if o[0] == "ok":
            return canon_value(o[1])
        if o[0] == "fn":
            return _probe_closure(o[1], ty) if arrow else opaque
        return o

    if free_vars:
        return ("f", tuple(sorted(free_vars)),
                tuple(tuple(c(o, ("opaque",)) for o in row)
                      for row in outcomes))
    # the opaque fallback names the term; format it only if some outcome
    # needs it
    opaque = ("opaque", format_term(term)) \
        if not arrow and any(o[0] == "fn" for o in outcomes) else None
    return ("c" if arrow else "v", tuple(c(o, opaque) for o in outcomes))


def compute_signature(term: Term, task: Task, limits: EvalLimits, prims,
                      free_vars: Tuple[str, ...] = (),
                      ty: Optional[Ty] = None):
    """Semantic signature of a term on the task's examples."""
    return sig_from_outcomes(
        term, eval_outcomes(term, task, limits, prims, free_vars),
        free_vars, ty)


def signature_solves(sig, task: Task) -> bool:
    if not sig or sig[0] != "v":
        return False
    return sig[1] == tuple(canon_value(o) for o in task.outputs)


# ---------------------------------------------------------------------------
# Value store
# ---------------------------------------------------------------------------

@dataclass
class ValueEntry:
    term: Term
    weight: int
    ty: Ty
    signature: tuple
    free_vars: Tuple[str, ...] = ()
    index: int = -1
    provenance: Optional[tuple] = None  # (op_name, ((entry_idx, kind), ...))
    outcomes: Optional[tuple] = None  # raw per-context values, see eval_outcomes

    @property
    def is_lambda(self) -> bool:
        return bool(self.free_vars) or isinstance(self.ty, Arrow)


class ValueStore:
    """Signature-deduplicated entries, append-only: `add` appends a new
    signature or lowers an existing entry's weight in place, and logs the
    index of every entry it improves in `improved`."""

    def __init__(self):
        self.by_sig: Dict[tuple, ValueEntry] = {}
        self.entries: List[ValueEntry] = []  # insertion order; index == position
        self.by_ty: Dict[Ty, List[ValueEntry]] = {}
        self.improved: List[int] = []  # indices add() improved, in order
        # (type, allowed sets) -> [list, by_ty[type] seen, by_ty[ret] seen]
        self._cands: Dict[tuple, list] = {}
        self._scorer = None
        self._scores: Dict[tuple, float] = {}
        self._rankings: Dict[tuple, _Ranking] = {}

    def __len__(self):
        return len(self.by_sig)

    def get(self, sig):
        return self.by_sig.get(sig)

    def add(self, entry: ValueEntry):
        """Insert or improve.  Returns (canonical_entry, is_new, improved).

        Duplicate-signature entries are never appended, so `entries` holds
        exactly the live canonical entries, in insertion order."""
        old = self.by_sig.get(entry.signature)
        if old is None:
            entry.index = len(self.entries)
            self.entries.append(entry)
            self.by_sig[entry.signature] = entry
            self.by_ty.setdefault(entry.ty, []).append(entry)
            return entry, True, False
        if entry.weight < old.weight:
            old.term = entry.term
            old.weight = entry.weight
            old.provenance = entry.provenance
            self.improved.append(old.index)
            return old, False, True
        return old, False, False

    def of_type(self, ty: Ty):
        return self.by_ty.get(ty, [])

    def candidates_for(self, pty: Ty, allowed_sets):
        """Entries usable at a parameter of type `pty`, in insertion order.

        One list per (type, allowed sets) is extended on each call from the
        entries `by_ty` gained since the last one; the list is shared, so
        callers must not mutate it.  For an arrow parameter the new entries
        of its two sources all come after every old one, so sorting just
        them by index keeps the whole list in insertion order."""
        key = (pty, tuple(allowed_sets))
        state = self._cands.get(key)
        if state is None:
            state = self._cands[key] = [[], 0, 0]
        out, seen, seen_ret = state
        same = self.by_ty.get(pty, ())
        state[1] = len(same)
        if isinstance(pty, Arrow):
            new = [e for e in same[seen:] if not e.free_vars]
            names = arrow_placeholder_names(pty)
            if names is not None:
                nameset = frozenset(names)
                bodies = self.by_ty.get(pty.ret, ())
                state[2] = len(bodies)
                new += [e for e in bodies[seen_ret:]
                        if nameset.issuperset(e.free_vars)]
                new.sort(key=_entry_index)
            out += new
        else:
            out += [e for e in same[seen:] if not e.free_vars or any(
                s.issuperset(e.free_vars) for s in allowed_sets)]
        return out

    def score_cache(self, scorer) -> Dict[tuple, float]:
        """The scores `scorer` gave this store's entries, keyed by (op name,
        position, entry index, entry weight, is-last-choice); see
        beam_select_args.  A different scorer starts an empty cache, and
        empty rankings."""
        if scorer is not self._scorer:
            self._scorer = scorer
            self._scores = {}
            self._rankings = {}
        return self._scores

    def cached_score(self, scorer, name: str, position: int,
                     entry: ValueEntry, ctx: "ScoreContext",
                     chosen=None) -> float:
        """`scorer`'s score for `entry` at `position` of operation `name`,
        through the score cache.  `chosen` is None for an entry scored as
        not the last choice, which the scorer sees with an empty prefix;
        otherwise it holds the (entry, type) pairs chosen so far, ending in
        `entry`, and the prefix is built from it only on a miss."""
        cache = self._scores if scorer is self._scorer \
            else self.score_cache(scorer)
        k = (name, position, entry.index, entry.weight, chosen is not None)
        s = cache.get(k)
        if s is None:
            prefix = () if chosen is None else tuple(e for e, _ in chosen)
            s = cache[k] = scorer.score(name, prefix, entry, ctx)
        return s

    def ranking(self, scorer, name: str, position: int, cands,
                ctx: "ScoreContext") -> "_Ranking":
        """`cands`, the candidates of operation `name` at `position`, as
        (-score, weight, index, entry) tuples in ascending order, each scored
        as not the last choice.  The ranking is kept between calls: entries
        new to `cands` are inserted, and entries `add` improved since are
        re-keyed, since their weight is part of the score key."""
        self.score_cache(scorer)
        r = self._rankings.get((name, position))
        if r is None or r.cands is not cands:
            r = self._rankings[(name, position)] = _Ranking(cands)
        order, keys = r.order, r.keys

        def insert(e):
            s = self.cached_score(scorer, name, position, e, ctx)
            keys[e.index] = item = (-s, e.weight, e.index, e)
            insort(order, item)

        for i in self.improved[r.logged:]:
            old = keys.get(i)
            if old is not None:
                del order[bisect_left(order, old)]
                insert(old[3])
        r.logged = len(self.improved)
        for e in cands[r.seen:]:
            insert(e)
        r.seen = len(cands)
        return r


def _entry_index(e: ValueEntry) -> int:
    return e.index


class _Ranking:
    """ValueStore.ranking's state for one (operation, position)."""

    __slots__ = ("cands", "seen", "logged", "order", "keys")

    def __init__(self, cands):
        self.cands = cands  # the shared candidates_for list it follows
        self.seen = 0  # how much of `cands` is in `order`
        self.logged = 0  # how much of ValueStore.improved is applied
        self.order: List[tuple] = []
        self.keys: Dict[int, tuple] = {}  # entry index -> its tuple in order


def arg_term(entry: ValueEntry, pty: Ty) -> Term:
    """The term actually placed at an argument position of type `pty`."""
    if isinstance(pty, Arrow) and entry.ty != pty:
        names = arrow_placeholder_names(pty)
        return bind_input_vars(entry.term, names)
    return entry.term


def arg_free_vars(tup) -> set:
    """Free placeholders of an argument tuple of (entry, parameter type)
    pairs.  A lifted lambda binds its body's placeholders, so only
    non-arrow arguments contribute."""
    free = set()
    for e, pty in tup:
        if not isinstance(pty, Arrow):
            free.update(e.free_vars)
    return free


def admissible(tup, allowed_sets) -> bool:
    """Whether the tuple's free placeholders all fit one allowed set."""
    free = arg_free_vars(tup)
    return not free or any(free <= s for s in allowed_sets)


def _arg_kind(entry: ValueEntry, pty: Ty) -> str:
    if isinstance(pty, Arrow) and entry.ty != pty:
        return "lift"
    return "plain"


def init_store(task: Task, lib: DSLibrary, limits: EvalLimits) -> ValueStore:
    """Seed a store with task inputs, library constants, and the lambda-body
    placeholders the library's arrow parameters call for."""
    prims = lib.prims()
    store = ValueStore()
    for name, ty in task.input_types:
        t = InputVar(name)
        outs = eval_outcomes(t, task, limits, prims)
        store.add(ValueEntry(t, term_size(t), ty,
                             sig_from_outcomes(t, outs, (), ty), outcomes=outs))
    for literal, ty in lib.constants:
        outs = eval_outcomes(literal, task, limits, prims)
        store.add(ValueEntry(literal, term_size(literal), ty,
                             sig_from_outcomes(literal, outs, (), ty),
                             outcomes=outs))
    names, _allowed = lib_placeholders(lib)
    for name in sorted(names):
        ty = names[name]
        t = InputVar(name)
        outs = eval_outcomes(t, task, limits, prims, free_vars=(name,))
        store.add(ValueEntry(t, 0, ty,
                             sig_from_outcomes(t, outs, (name,), ty),
                             free_vars=(name,), outcomes=outs))
    return store


# ---------------------------------------------------------------------------
# Scoring context and argument selection
# ---------------------------------------------------------------------------

@dataclass
class ScoreContext:
    task: Task
    op_name: str
    position: int
    output_sig: tuple


def make_context(task: Task, op: Operation, position: int) -> ScoreContext:
    return ScoreContext(task, op.name, position,
                        tuple(canon_value(o) for o in task.outputs))


class UniformScorer:
    """Scores every type-compatible candidate equally.

    Scorer contract: `score(op_name, prefix, candidate, ctx)` is a pure
    function of the operation, `ctx.position`, the candidate entry (its
    signature, type, free placeholders and weight) and the task, and it
    sees the chosen `prefix` only as "is `prefix[-1]` this candidate?".
    Argument selection relies on this to score each pair once per store
    (ValueStore.cached_score)."""

    per_op_parameters: dict = {}

    def score(self, op_name, prefix, candidate, ctx) -> float:
        return 0.0


def beam_select_args(op: Operation, store: ValueStore, scorer, beam_size,
                     task: Task, allowed_sets) -> List[tuple]:
    """Up to `beam_size` type-compatible argument tuples, best cumulative
    score first; `beam_size=None` means unbounded (full cross product).

    Positions fill left to right, the scorer seeing the chosen prefix.
    Ties break by (lower total weight, earlier insertion order).

    By the scorer contract (see UniformScorer) a score depends on the
    prefix only through "is `prefix[-1]` this entry?", so scores are cached
    in the store under (op name, position, entry index, entry weight,
    is-last-choice).  The weight is part of the key because ValueStore.add
    lowers it in place.  Each cached value is the float the scorer
    returned, so the tuples are exactly those of scoring every prefix."""
    params = op.signature.params
    per_position = []
    for j, pty in enumerate(params):
        cands = store.candidates_for(pty, allowed_sets)
        if not cands:
            return []
        per_position.append((pty, cands, make_context(task, op, j)))
    if beam_size is None:
        beams = itertools.product(*[[(e, pty) for e in cands]
                                    for pty, cands, _ctx in per_position])
    else:
        beams = _beam(op.name, per_position, store, scorer, beam_size)
    return [entries for entries in beams if admissible(entries, allowed_sets)]


def _beam(name, per_position, store, scorer, beam_size):
    """The `beam_size` best entry tuples under the key (-score, total
    weight, index-key), filling positions left to right.

    Each position's ranking orders its candidates by (-s, weight, index);
    a beam's extensions order by (-(beam score + s), weight, index).  Only
    the extensions that can be among a beam's best `beam_size` (see
    _contenders), plus its own last choice scored as such, enter the heap,
    so the survivors are the same as from scoring every extension."""
    beams = [((), 0.0, 0, ())]  # (entries, score, weight, index-key)
    for j, (pty, cands, ctx) in enumerate(per_position):
        ranking = store.ranking(scorer, name, j, cands, ctx)
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
                s = store.cached_score(scorer, name, j, last, ctx, entries)
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

class _LiftedClosure:
    """A lambda value built from a stored body with free placeholders."""

    __slots__ = ("body", "names", "inputs", "limits", "prims")

    def __init__(self, body, names, inputs, limits, prims):
        self.body = body
        self.names = names
        self.inputs = inputs
        self.limits = limits
        self.prims = prims

    def __call__(self, *args):
        if len(args) != len(self.names):
            raise EvalError("domain",
                            f"closure expects {len(self.names)} args")
        bindings = dict(self.inputs)
        for n, v in zip(self.names, args):
            bindings[n] = v
        return evaluate(self.body, bindings, self.limits, self.prims)


def build_entry(op: Operation, arg_entries, task: Task, limits: EvalLimits,
                prims) -> ValueEntry:
    """Construct (and semantically fingerprint) the value for op(args).

    Base-typed results combine the arguments' cached outcomes instead of
    re-evaluating the whole term; arrow-typed results fall back to full
    evaluation with battery probing."""
    terms = []
    weight = 1
    kinds = []
    for e, pty in arg_entries:
        terms.append(arg_term(e, pty))
        kinds.append((e.index, _arg_kind(e, pty)))
        weight += e.weight
    term = Apply(PrimRef(op.name), tuple(terms))
    ret = op.signature.ret
    fv = tuple(sorted(arg_free_vars(arg_entries)))
    if isinstance(ret, Arrow):
        # no cached outcomes: they would keep closures in the store
        sig = compute_signature(term, task, limits, prims, fv, ret)
        return ValueEntry(term, weight, ret, sig, free_vars=fv,
                          provenance=(op.name, tuple(kinds)))
    plan = []  # per argument: how to produce its value in each context
    cached = True
    for e, pty in arg_entries:
        if isinstance(pty, Arrow):
            if e.ty == pty:
                plan.append(("term", e.term, None))
            else:
                plan.append(("lift", e.term,
                             tuple(arrow_placeholder_names(pty))))
        elif e.outcomes is None:
            cached = False
            break
        elif e.free_vars:
            plan.append(("rows", e.outcomes, None))
        else:
            plan.append(("flat", e.outcomes, None))
    if cached:
        fn = prims[op.name]
        rows = range(BATTERY_ROWS) if fv else (0,)
        outs = []
        for i, (inputs, _out) in enumerate(task.examples):
            per_row = []
            for r in rows:
                res = None
                args = []
                for kind, data, names in plan:
                    if kind == "flat":
                        o = data[i]
                    elif kind == "rows":
                        o = data[i][r]
                    elif kind == "lift":
                        args.append(_LiftedClosure(data, names, inputs,
                                                   limits, prims))
                        continue
                    else:
                        o = _eval_once(data, dict(inputs), limits, prims)
                    if o[0] == "e":
                        res = o
                        break
                    v = o[1]
                    args.append(list(v) if type(v) is list else v)
                if res is None:
                    try:
                        v = invoke_prim(fn, args, limits, prims)
                        res = ("fn", v) if is_function_value(v) else ("ok", v)
                    except EvalError as err:
                        res = ("e", err.kind)
                per_row.append(res)
            outs.append(tuple(per_row) if fv else per_row[0])
        outcomes = tuple(outs)
    else:
        outcomes = eval_outcomes(term, task, limits, prims, fv)
    sig = sig_from_outcomes(term, outcomes, fv, ret)
    return ValueEntry(term, weight, ret, sig, free_vars=fv,
                      provenance=(op.name, tuple(kinds)), outcomes=outcomes)


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


@dataclass
class ExhaustiveResult:
    store: ValueStore
    solution: Optional[ValueEntry]
    candidates: int
    timed_out: bool = False


def exhaustive_search(task: Task, lib: DSLibrary, max_weight: int,
                      timeout: Optional[float] = None,
                      limits: EvalLimits = EvalLimits(),
                      stop_on_solve: bool = True) -> ExhaustiveResult:
    """Enumerate all semantically distinct values of weight <= max_weight,
    nondecreasing in weight, deduplicating by signature."""
    prims = lib.prims()
    _names, allowed = lib_placeholders(lib)
    store = init_store(task, lib, limits)
    solution = None
    for e in store.entries:
        if signature_solves(e.signature, task):
            solution = e
            if stop_on_solve:
                return ExhaustiveResult(store, solution, 0)
    start = time.monotonic()
    candidates = 0

    def by_weight(pty, allowed_sets, w):
        return [e for e in store.candidates_for(pty, allowed_sets)
                if e.weight == w]

    for w in range(1, max_weight + 1):
        for op in lib.operations:
            params = op.signature.params
            for split in _partitions(w - 1, len(params)):
                lists = [by_weight(pty, allowed, pw)
                         for pty, pw in zip(params, split)]
                if any(not l for l in lists):
                    continue
                stack = [()]
                for pty, cand in zip(params, lists):
                    stack = [pre + ((e, pty),) for pre in stack for e in cand]
                for tup in stack:
                    if timeout is not None and \
                            time.monotonic() - start > timeout:
                        return ExhaustiveResult(store, solution, candidates,
                                                timed_out=True)
                    if not admissible(tup, allowed):
                        continue
                    entry = build_entry(op, tup, task, limits, prims)
                    candidates += 1
                    _canon, is_new, _imp = store.add(entry)
                    if is_new and signature_solves(entry.signature, task):
                        solution = solution or _canon
                        if stop_on_solve:
                            return ExhaustiveResult(store, solution, candidates)
    return ExhaustiveResult(store, solution, candidates)


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
    virtual_seconds_per_candidate: float = 0.001
    restarts_enabled: bool = True

    def __post_init__(self):
        if self.restart_interval > self.per_task_timeout:
            raise ValueError("restart_interval must be <= per_task_timeout")
        if self.max_weight < 1:
            raise ValueError("max_weight must be >= 1")


@dataclass
class SolveResult:
    solved: bool
    program: Optional[Term]
    elapsed: float
    candidates_evaluated: int
    restarts: int
    store: Optional[ValueStore] = None


class _Clock:
    """Wall clock, or a deterministic clock advancing per candidate."""

    def __init__(self, virtual: bool, quantum: float):
        self.virtual = virtual
        self.quantum = quantum
        self.ticks = 0
        self.start = time.monotonic()

    def tick(self):
        self.ticks += 1

    def now(self) -> float:
        if self.virtual:
            return self.ticks * self.quantum
        return time.monotonic() - self.start


def search(task: Task, lib: DSLibrary, scorer, cfg: SearchConfig) -> SolveResult:
    """Round-robin over operations: beam-selected argument tuples first, a
    unique-sampling round whenever the beam stalls, periodic restarts, and
    signature-based deduplication throughout."""
    prims = lib.prims()
    _names, allowed = lib_placeholders(lib)
    clock = _Clock(cfg.virtual_clock, cfg.virtual_seconds_per_candidate)
    candidates = 0
    restarts = 0
    rng = random.Random(cfg.random_seed)
    store = init_store(task, lib, cfg.eval_limits)
    executed: Dict[str, set] = {op.name: set() for op in lib.operations}
    samplers: Dict[str, UniqueSampler] = {}
    last_restart = 0.0
    solution: Optional[ValueEntry] = None
    # Incremental full-product state (unbounded beam only): per op, how much
    # of the store and of its improvement log it has already crossed.
    seen_len: Dict[str, int] = {op.name: 0 for op in lib.operations}
    seen_improved: Dict[str, int] = {op.name: 0 for op in lib.operations}

    for e in store.entries:
        if signature_solves(e.signature, task):
            solution = e
            if cfg.stop_on_solve:
                return SolveResult(True, e.term, clock.now(), 0, 0, store)
            break

    def tuple_key(tup):
        return tuple((e.index, _arg_kind(e, pty), e.weight) for e, pty in tup)

    def out_of_time():
        return clock.now() >= cfg.per_task_timeout

    def restart_due():
        return cfg.restarts_enabled and \
            clock.now() - last_restart >= cfg.restart_interval

    def maybe_restart():
        nonlocal store, executed, samplers, restarts, last_restart, rng
        if restart_due() and not out_of_time():
            restarts += 1
            last_restart = clock.now()
            rng = random.Random(cfg.random_seed + restarts)
            store = init_store(task, lib, cfg.eval_limits)
            executed = {op.name: set() for op in lib.operations}
            samplers.clear()
            for op in lib.operations:
                seen_len[op.name] = 0
                seen_improved[op.name] = 0
            return True
        return False

    def execute(op, tup):
        """Returns (is_new, improved) after executing one argument tuple.

        Ticks the clock for every considered tuple (including duplicates),
        so virtual time always advances."""
        nonlocal candidates, solution
        clock.tick()
        key = tuple_key(tup)
        if key in executed[op.name]:
            return False, False
        executed[op.name].add(key)
        weight = 1 + sum(e.weight for e, _ in tup)
        if weight > cfg.max_weight:
            return False, False
        entry = build_entry(op, tup, task, cfg.eval_limits, prims)
        candidates += 1
        canon, is_new, improved = store.add(entry)
        if is_new and solution is None and \
                signature_solves(canon.signature, task):
            solution = canon
        return is_new, improved

    while not out_of_time():
        if maybe_restart():
            continue
        progress = False
        for op in lib.operations:
            if cfg.beam_size is None:
                tuples = _fresh_product(
                    op, store, allowed, seen_len[op.name],
                    set(store.improved[seen_improved[op.name]:]),
                    cfg.max_weight)
                seen_len[op.name] = len(store.entries)
                seen_improved[op.name] = len(store.improved)
            else:
                tuples = beam_select_args(op, store, scorer, cfg.beam_size,
                                          task, allowed)
            for tup in tuples:
                if tuple_key(tup) in executed[op.name]:
                    continue
                is_new, improved = execute(op, tup)
                progress = progress or is_new or improved
                if solution is not None and cfg.stop_on_solve:
                    return SolveResult(True, solution.term, clock.now(),
                                       candidates, restarts, store)
                if out_of_time() or restart_due():
                    break
            else:
                continue
            break
        if out_of_time():
            break
        if restart_due() or progress:
            continue
        if cfg.beam_size is None:
            # the unbounded beam already covers the full cross product, so a
            # stalled round means the space under max_weight is exhausted
            break
        # Beam stalled: one unique-sampling round to break out.
        sampled_any = False
        for op in lib.operations:
            state = samplers.get(op.name)
            if state is None:
                dists = _sampler_dists(op, store, scorer, task, allowed)
                if dists is None:
                    continue
                state = UniqueSampler(dists)
                samplers[op.name] = state
            for _ in range(cfg.beam_size):
                tup = state.sample(rng)
                if tup is None:
                    break
                tup = tuple(tup)
                if not admissible(tup, allowed):
                    clock.tick()
                    continue
                sampled_any = True
                is_new, improved = execute(op, tup)
                progress = progress or is_new or improved
                if solution is not None and cfg.stop_on_solve:
                    return SolveResult(True, solution.term, clock.now(),
                                       candidates, restarts, store)
                if out_of_time():
                    break
            if out_of_time():
                break
        if progress:
            samplers.clear()  # store changed; supports are stale
            continue
        if not sampled_any:
            # no beam progress and sampling supports are spent: the space
            # under max_weight is exhausted (restarts, if any, ran above)
            break

    solved = solution is not None
    return SolveResult(solved, solution.term if solved else None, clock.now(),
                       candidates, restarts, store)


def _fresh_product(op: Operation, store: ValueStore, allowed, seen: int,
                   improved: set, max_weight: int):
    """Type-compatible argument tuples within the weight budget that earlier
    rounds have not covered: each must use an entry newer than `seen` or one
    whose weight improved.  Candidate lists are snapshotted eagerly;
    iteration is lazy and weight-pruned (lists sorted by weight)."""
    lists = []
    for pty in op.signature.params:
        cands = store.candidates_for(pty, allowed)
        if not cands:
            return iter(())
        lists.append(sorted(((e, pty) for e in cands),
                            key=lambda c: (c[0].weight, c[0].index)))
    budget = max_weight - 1
    k = len(lists)

    def rec(j, acc, wsum, fresh):
        if j == k:
            if fresh and admissible(acc, allowed):
                yield tuple(acc)
            return
        for e, pty in lists[j]:
            if wsum + e.weight > budget:
                break
            acc.append((e, pty))
            yield from rec(j + 1, acc, wsum + e.weight,
                           fresh or e.index >= seen or e.index in improved)
            acc.pop()

    return rec(0, [], 0, False)


def _sampler_dists(op: Operation, store: ValueStore, scorer, task: Task,
                   allowed):
    """Per position, a softmax over the scores of its candidates with an
    empty prefix, read through the store's score cache (see
    beam_select_args)."""
    dists = []
    for j, pty in enumerate(op.signature.params):
        cands = store.candidates_for(pty, allowed)
        if not cands:
            return None
        ctx = make_context(task, op, j)
        scores = [store.cached_score(scorer, op.name, j, e, ctx)
                  for e in cands]
        m = max(scores)
        weights = [math.exp(s - m) for s in scores]
        total = sum(weights)
        dists.append([((e, pty), w / total) for e, w in zip(cands, weights)])
    return dists
