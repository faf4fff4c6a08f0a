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
import math
import random
import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import chain, product, repeat
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .lang import (
    INT, BOOL, INT_LIST, Arrow, Ty, Term, Apply, InputVar, PrimRef, Closure,
    EvalError, EvalLimits, Evaluator, LearnedOp, bind_input_vars,
    canon_value, evaluate, format_term, invoke_prim, runtime_value, term_size,
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
    Arrow parameters whose own parameters are arrows are skipped (no lifting
    for those; concrete closure values still apply).
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
# Outcomes and signatures
# ---------------------------------------------------------------------------
#
# An outcome is what a term gives in one evaluation context: its value in
# lang.canon_value's form (("i", v), ("b", v), ("l", tuple), or ("fn", v)
# for a function value), or ("e", kind) for an EvalError.  A signature holds
# the outcomes as they are and replaces only function values.

_tag = itemgetter(0)


def _probe_closure(clos, arrow: Arrow, term: Term):
    outcomes = []
    for row in range(BATTERY_ROWS):
        try:
            args = [_battery_value(q, row, j) for j, q in enumerate(arrow.params)]
        except ValueError:
            # no battery for an arrow parameter: opaque, named by the term
            return ("opaque-arrow", format_term(term))
        try:
            o = canon_value(clos(*args))
            outcomes.append(("opaque",) if o[0] == "fn" else o)
        except EvalError as e:
            outcomes.append(("e", e.kind))
    return tuple(outcomes)


def _evaluated(term: Term, task: Task, limits: EvalLimits, prims,
               free_vars: Tuple[str, ...] = ()):
    """(eval_outcomes(...), steps): the outcomes, and the most steps an
    evaluation that did not run out of steps took (see ValueEntry.steps)."""
    most = 0

    def once(bindings):
        nonlocal most
        ev = Evaluator(prims, bindings, limits)
        try:
            o = canon_value(evaluate(term, bindings, limits, prims, ev))
        except EvalError as e:
            if e.kind == "steps":
                return ("e", "steps")
            o = ("e", e.kind)
        most = max(most, ev.steps)
        return o

    if free_vars:
        var_info = [(n,) + placeholder_info(n) for n in free_vars]
        outs = []
        for inputs, _ in task.examples:
            rows = []
            for row in range(BATTERY_ROWS):
                bindings = dict(inputs)
                for n, pos, pty in var_info:
                    bindings[n] = _battery_value(pty, row, pos)
                rows.append(once(bindings))
            outs.append(tuple(rows))
        return tuple(outs), most
    return tuple(once(dict(inputs)) for inputs, _ in task.examples), most


def eval_outcomes(term: Term, task: Task, limits: EvalLimits, prims,
                  free_vars: Tuple[str, ...] = ()):
    """Per-context outcomes of a term: one outcome per example, or per
    example x battery row when the term has free placeholders."""
    return _evaluated(term, task, limits, prims, free_vars)[0]


def sig_from_outcomes(term: Term, outcomes,
                      free_vars: Tuple[str, ...] = (),
                      ty: Optional[Ty] = None):
    """The semantic signature a term of type `ty` gets from its outcomes
    (see eval_outcomes).

    Values and errors stand for themselves, so unless an outcome is a
    function value the signature holds `outcomes` itself.  A function value
    of an arrow-typed term is fingerprinted by its outputs on the canonical
    battery; any other function value is opaque.  Terms with free
    placeholders are tagged "f", other arrow-typed terms "c", the rest
    "v"."""
    arrow = isinstance(ty, Arrow)
    free_vars = tuple(sorted(free_vars))
    sig = _plain_sig(outcomes, free_vars, "c" if arrow else "v")
    if sig is not None:
        return sig

    def c(o, opaque):
        if o[0] != "fn":
            return o
        return _probe_closure(o[1], ty, term) if arrow else opaque

    if free_vars:
        return ("f", free_vars, tuple(tuple(c(o, ("opaque",)) for o in row)
                                      for row in outcomes))
    # the opaque fallback names the term
    opaque = None if arrow else ("opaque", format_term(term))
    return ("c" if arrow else "v", tuple(c(o, opaque) for o in outcomes))


def _plain_sig(outcomes, free_vars: Tuple[str, ...], kind: str):
    """sig_from_outcomes's signature, `kind` being "c" or "v", when no
    outcome is a function value, else None.  `free_vars` must be sorted."""
    if free_vars:
        if "fn" in map(_tag, chain.from_iterable(outcomes)):
            return None
        return ("f", free_vars, outcomes)
    if "fn" in map(_tag, outcomes):
        return None
    return (kind, outcomes)


def compute_signature(term: Term, task: Task, limits: EvalLimits, prims,
                      free_vars: Tuple[str, ...] = (),
                      ty: Optional[Ty] = None):
    """Semantic signature of a term on the task's examples."""
    return sig_from_outcomes(
        term, eval_outcomes(term, task, limits, prims, free_vars),
        free_vars, ty)


def signature_solves(sig, task: Task) -> bool:
    return bool(sig) and sig[0] == "v" and sig[1] == task.output_sig


# ---------------------------------------------------------------------------
# Value store
# ---------------------------------------------------------------------------

@dataclass
class ValueEntry:
    term: Term
    weight: int
    ty: Ty
    signature: tuple
    free_vars: Tuple[str, ...] = ()  # sorted
    index: int = -1
    provenance: Optional[tuple] = None  # (op_name, (entry_idx, ...))
    outcomes: Optional[tuple] = None  # per-context outcomes, see eval_outcomes
    # at least the steps `term` takes in any context whose evaluation does
    # not run out of steps; None if unknown
    steps: Optional[int] = None

    @property
    def is_lambda(self) -> bool:
        return bool(self.free_vars) or isinstance(self.ty, Arrow)


class ValueStore:
    """Signature-deduplicated entries, append-only: `add` appends a new
    signature or lowers an existing entry's weight in place, and logs the
    index of every entry it improves in `improved`.

    `allowed` lists the placeholder sets usable together in one term: those
    of the library the store searches (lib_placeholders)."""

    def __init__(self, allowed=()):
        self.allowed = list(allowed)
        self.by_sig: Dict[tuple, ValueEntry] = {}
        self.entries: List[ValueEntry] = []  # insertion order; index == position
        self.by_ty: Dict[Ty, List[ValueEntry]] = {}
        self.improved: List[int] = []  # indices add() improved, in order
        # type -> [list, by_ty[type] seen, by_ty[ret] seen]
        self._cands: Dict[Ty, list] = {}
        self._scorer = None
        self._scores: Dict[tuple, float] = {}
        self._rankings: Dict[tuple, _Ranking] = {}
        # a scorer's per-entry features, keyed by (entry index, entry
        # weight); any scorer may fill it (see ScoreContext.features)
        self.features: Dict[tuple, list] = {}

    def __len__(self):
        return len(self.by_sig)

    def get(self, sig):
        return self.by_sig.get(sig)

    def add(self, entry: ValueEntry):
        """Insert or improve.  Returns (canonical_entry, is_new, improved).

        Duplicate-signature entries are never appended, so `entries` holds
        exactly the live canonical entries, in insertion order."""
        if 0 <= entry.index < len(self.entries) and \
                self.entries[entry.index] is entry:
            # this store's entry for its signature, which build_entry
            # returns for a duplicate
            return entry, False, False
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
            old.steps = entry.steps
            self.improved.append(old.index)
            return old, False, True
        return old, False, False

    def of_type(self, ty: Ty):
        return self.by_ty.get(ty, [])

    def candidates_for(self, pty: Ty):
        """Entries usable at a parameter of type `pty`, in insertion order.

        One list per type is extended on each call from the entries `by_ty`
        gained since the last one; the list is shared, so callers must not
        mutate it.  For an arrow parameter the new entries of its two
        sources all come after every old one, so sorting just them by index
        keeps the whole list in insertion order."""
        state = self._cands.get(pty)
        if state is None:
            state = self._cands[pty] = [[], 0, 0]
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
                s.issuperset(e.free_vars) for s in self.allowed)]
        return out

    def score_cache(self, scorer) -> Dict[tuple, float]:
        """The scores `scorer` gave this store's entries as the last choice
        (last_choice_score), keyed by (op name, position, entry index, entry
        weight); the rankings hold the other scores.  A different scorer
        starts an empty cache, and empty rankings."""
        if scorer is not self._scorer:
            self._scorer = scorer
            self._scores = {}
            self._rankings = {}
        return self._scores

    def last_choice_score(self, scorer, name: str, position: int, chosen,
                          ctx: "ScoreContext") -> float:
        """`scorer`'s score at `position` of operation `name` for the entry
        chosen last, `chosen` being the (entry, type) pairs chosen so far,
        through the score cache: the prefix is built only on a miss."""
        cache = self._scores if scorer is self._scorer \
            else self.score_cache(scorer)
        entry = chosen[-1][0]
        k = (name, position, entry.index, entry.weight)
        s = cache.get(k)
        if s is None:
            s = cache[k] = scorer.score(name, tuple(e for e, _ in chosen),
                                        entry, ctx)
        return s

    def ranking(self, scorer, name: str, position: int, cands,
                ctx: "ScoreContext") -> "_Ranking":
        """`cands`, the candidates of operation `name` at `position`, as
        (-score, weight, index, entry) tuples in ascending order, each scored
        once, as not the last choice (an empty prefix).  The ranking is kept
        between calls: entries new to `cands` are inserted, and entries
        `add` improved since are re-scored, since the weight is a feature.
        Either drops the ranking's sampling distribution (see
        _sampler_dists)."""
        self.score_cache(scorer)
        r = self._rankings.get((name, position))
        if r is None or r.cands is not cands:
            r = self._rankings[(name, position)] = _Ranking(cands)
        order, keys = r.order, r.keys
        seen = r.seen
        score = scorer.score

        def insert(e):
            keys[e.index] = item = (-score(name, (), e, ctx), e.weight,
                                    e.index, e)
            insort(order, item)

        # an entry improved twice since the last call is re-scored once
        for i in dict.fromkeys(self.improved[r.logged:]):
            old = keys.get(i)
            if old is not None:
                del order[bisect_left(order, old)]
                insert(old[3])
                r.dist = None
        r.logged = len(self.improved)
        if len(cands) > seen:
            for e in cands[seen:]:
                insert(e)
            r.seen = len(cands)
            r.dist = None
        return r


def _entry_index(e: ValueEntry) -> int:
    return e.index


class _Ranking:
    """ValueStore.ranking's state for one (operation, position)."""

    __slots__ = ("cands", "seen", "logged", "order", "keys", "pairs",
                 "dist")

    def __init__(self, cands):
        self.cands = cands  # the shared candidates_for list it follows
        self.seen = 0  # how much of `cands` is in `order`
        self.logged = 0  # how much of ValueStore.improved is applied
        self.order: List[tuple] = []
        self.keys: Dict[int, tuple] = {}  # entry index -> its tuple in order
        self.pairs: List[tuple] = []  # (entry, parameter type) per candidate
        # _sampler_dists's distribution over `cands`, None when stale
        self.dist: Optional[list] = None


def arg_term(entry: ValueEntry, pty: Ty, table: dict) -> Term:
    """The term actually placed at an argument position of type `pty`.

    A lifted lambda is kept in build_entry's `table` under the entry's
    (index, weight) and `pty`: within one store those fix the term, as in
    _applied."""
    if not isinstance(pty, Arrow) or entry.ty == pty:
        return entry.term
    key = (entry.index, entry.weight, pty)
    lam = table.get(key)
    if lam is None:
        lam = table[key] = bind_input_vars(entry.term,
                                           arrow_placeholder_names(pty))
    return lam


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
    placeholders the library's arrow parameters call for."""
    prims = lib.prims()
    names, allowed = lib_placeholders(lib)
    store = ValueStore(allowed)

    def seed(t, weight, ty, free_vars=()):
        outs, steps = _evaluated(t, task, limits, prims, free_vars)
        store.add(ValueEntry(t, weight, ty,
                             sig_from_outcomes(t, outs, free_vars, ty),
                             free_vars=free_vars, outcomes=outs, steps=steps))

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
    """What a scorer sees of an argument position besides the operation
    and the candidate: the position and the task's outputs.  `features` is
    the feature memo of the store the candidates come from
    (ValueStore.features), where a scorer may keep what it computes from
    an entry and the task alone under the entry's (index, weight); None
    outside a store."""
    position: int
    output_sig: tuple  # Task.output_sig
    features: Optional[dict] = None


def make_context(task: Task, position: int,
                 features: Optional[dict] = None) -> ScoreContext:
    return ScoreContext(position, task.output_sig, features)


class UniformScorer:
    """Scores every type-compatible candidate equally.

    Scorer contract: `score(op_name, prefix, candidate, ctx)` is a pure
    function of the operation, `ctx.position`, the candidate entry (its
    signature, type, free placeholders and weight) and the task, and it
    sees the chosen `prefix` only as "is `prefix[-1]` this candidate?".
    Argument selection relies on this to score each pair once per store
    (ValueStore.ranking and last_choice_score).  A store serves one task,
    so a scorer may keep what depends only on an entry and the task in the
    store's feature memo (ScoreContext.features)."""

    def score(self, op_name, prefix, candidate, ctx) -> float:
        return 0.0


def beam_select_args(op: Operation, store: ValueStore, scorer,
                     beam_size: int, task: Task) -> List[tuple]:
    """Up to `beam_size` type-compatible argument tuples, best cumulative
    score first.

    Positions fill left to right, the scorer seeing the chosen prefix.
    Ties break by (lower total weight, earlier insertion order).

    By the scorer contract (see UniformScorer) a score depends on the
    prefix only through "is `prefix[-1]` this entry?", so the store keeps
    each entry's score at a position twice at most: with an empty prefix
    in the position's ranking, and as the last choice in its score cache
    under (op name, position, entry index, entry weight).  The weight is
    part of the key because ValueStore.add lowers it in place.  Each kept
    value is the float the scorer returned, so the tuples are exactly
    those of scoring every prefix."""
    params = op.signature.params
    per_position = []
    for j, pty in enumerate(params):
        cands = store.candidates_for(pty)
        if not cands:
            return []
        per_position.append((pty, cands,
                             make_context(task, j, store.features)))
    return [entries
            for entries in _beam(op.name, per_position, store, scorer,
                                 beam_size)
            if admissible(entries, store.allowed)]


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
                s = store.last_choice_score(scorer, name, j, entries, ctx)
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
    candidate of a search; its table keeps one under the operation's
    name."""

    __slots__ = ("ref", "fn", "learned", "arrows", "ret", "arrow_ret",
                 "memos")

    def __init__(self, op: Operation, prims):
        self.ref = PrimRef(op.name)
        self.fn = prims[op.name]
        self.learned = type(self.fn) is LearnedOp
        self.arrows = tuple(isinstance(p, Arrow) for p in op.signature.params)
        self.ret = op.signature.ret
        self.arrow_ret = isinstance(self.ret, Arrow)
        # _applied's applications, per tuple of the lambda arguments'
        # (index, weight)
        self.memos: Dict[tuple, dict] = {}


def build_entry(op: Operation, arg_entries, task: Task, limits: EvalLimits,
                prims, table: Optional[dict] = None,
                store: Optional[ValueStore] = None) -> ValueEntry:
    """Construct (and semantically fingerprint) the value for op(args).

    A base-typed result is computed from the arguments' stored outcomes,
    applying the operation once per distinct argument vector over the
    contexts (see _applied).  `table` records those applications, and the
    operation's _Plan; a search passes one table for as long as it keeps
    its store, so an application made for an earlier candidate is not made
    again, nor a lambda lifted again (arg_term).  Without a table they are
    shared within this call only.  The table relies on a contract: a
    primitive is a pure function of its argument values, and a learned
    operation's body is closed.  Each application runs on a fresh step
    budget and the table keeps the steps it took, so the outcomes are
    those plain evaluation gives the term, step errors included.  Where the
    arguments and the application might run out of steps together, and for
    an arrow-typed result or an argument with no stored outcomes (a
    concrete function value), the term is evaluated in full; an arrow-typed
    result is then probed on the battery.

    `store` is the store the entry is for.  A base-typed result none of
    whose outcomes is a function value gets its signature before its term:
    if `store` already holds that signature at the candidate's weight or
    less, store.add would keep the stored entry and drop the candidate, so
    the stored entry is returned and no term or entry is built.
    store.add(stored entry) gives (stored entry, False, False), as
    store.add(candidate) would."""
    if table is None:
        table = {}
    plan = table.get(op.name)
    if plan is None:
        plan = table[op.name] = _Plan(op, prims)
    weight = 1
    fv = ()
    for (e, _pty), arrow in zip(arg_entries, plan.arrows):
        weight += e.weight
        # a lifted lambda binds its body's placeholders (see admissible)
        if e.free_vars and not arrow and e.free_vars != fv:
            fv = tuple(sorted(set(fv).union(e.free_vars))) if fv \
                else e.free_vars
    ret = plan.ret
    term = outcomes = steps = None
    if plan.arrow_ret:
        # no stored outcomes: they would keep closures in the store
        term = _term(plan, arg_entries, table)
        sig = compute_signature(term, task, limits, prims, fv, ret)
    else:
        found = _applied(plan, arg_entries, task, limits, prims, bool(fv),
                         table)
        if found is None:
            term = _term(plan, arg_entries, table)
            found = _evaluated(term, task, limits, prims, fv)
        outcomes, steps = found
        sig = _plain_sig(outcomes, fv, "v")
        if sig is not None and store is not None:
            old = store.by_sig.get(sig)
            if old is not None and old.weight <= weight:
                return old
        if term is None:
            term = _term(plan, arg_entries, table)
        if sig is None:
            sig = sig_from_outcomes(term, outcomes, fv, ret)
    return ValueEntry(term, weight, ret, sig, free_vars=fv,
                      provenance=(op.name,
                                  tuple(e.index for e, _ in arg_entries)),
                      outcomes=outcomes, steps=steps)


def _term(plan: _Plan, arg_entries, table: dict) -> Apply:
    return Apply(plan.ref, tuple([arg_term(e, pty, table)
                                  for e, pty in arg_entries]))


def _applied(plan: _Plan, arg_entries, task: Task, limits: EvalLimits,
             prims, rows: bool, table: dict):
    """(outcomes, steps) of applying the planned operation to the argument
    entries, from their stored outcomes, or None when the term must be
    evaluated in full.

    The contexts are the examples, or example x battery row when `rows`.
    Each context's argument vector is one key: an argument's stored outcome
    in that context, or for a lifted lambda the context's example index,
    since its body may read task inputs.  The operation is applied once per
    key not yet in `plan.memos[lambdas]`, where `lambdas` holds the
    (index, weight) of each lambda argument in order, through invoke_prim,
    in an evaluator of its own when a lambda or a learned operation takes
    steps.  The memo maps the key to (outcome, steps of the application),
    or, for a primitive applied to base values only, which takes no steps,
    to the outcome; the outcome is spread back over the contexts with that
    key.  The lambda entries must be store entries: the store replaces an
    improved entry's term in place, and the new term only has to match the
    old one on the battery, so the weight is part of the key.

    If every argument has the same outcomes (or rows) in each example as in
    example 0, every context's key is that of the same context of example
    0, so the operation is applied over example 0's contexts only and their
    result stands for every example.  A lambda argument's keys are the
    example indices, which differ.

    The outcomes are those of evaluating the term (eval_outcomes) because:
    - by build_entry's contract only a lambda argument depends on the
      example, and within one store a lambda's (index, weight) fixes its
      term;
    - the first error among the arguments, in order, is the outcome; an
      argument or an application that runs out of steps on its own also
      does in the term;
    - otherwise a context takes one step for the Apply node, one per lambda
      argument, the steps of the other arguments and those of the
      application.  If the arguments' `steps` and the longest application
      among this call's keys fit the limit together, no context runs out
      of steps; if they may not, None."""
    n = len(task.examples)
    # per argument: its outcome (or rows) in each example, or for a lambda
    # the example indices
    per, lams, lam_ids = [], [], []
    lam_at = None  # position of the first lambda argument
    bound = 1  # steps before the application, in any context
    for (e, pty), arrow in zip(arg_entries, plan.arrows):
        if arrow:
            if e.ty == pty:
                return None  # a concrete function value
            if lam_at is None:
                lam_at = len(lams)
            per.append(range(n))
            lams.append(arg_term(e, pty, table))
            lam_ids.append((e.index, e.weight))
            bound += 1
            continue
        if e.outcomes is None or e.steps is None:
            return None
        per.append(e.outcomes)
        lams.append(None)
        bound += e.steps
    if bound > limits.max_steps:
        return None
    invariant = n > 1 and all(p.count(p[0]) == n for p in per)
    if invariant:
        per = [p[:1] for p in per]
    if rows:
        cols = [chain.from_iterable(p) if lam is None and e.free_vars
                else _spread(p)
                for p, (e, _), lam in zip(per, arg_entries, lams)]
    else:
        cols = per
    fn = plan.fn
    bare = lam_at is None and not plan.learned
    if bare:
        # no evaluator needed: a primitive of base values takes no steps
        def apply(key):
            args = []
            for o in key:
                if o[0] == "e":
                    return o
                args.append(runtime_value(o))
            try:
                return canon_value(invoke_prim(fn, args, limits, prims))
            except EvalError as err:
                return ("e", err.kind)
    else:
        def apply(key):
            for o, lam in zip(key, lams):
                if lam is None and o[0] == "e":
                    return o, 0
            i = 0 if lam_at is None else key[lam_at]
            ev = Evaluator(prims, task.examples[i][0], limits)
            args = [runtime_value(o) if lam is None else Closure(lam, [], ev)
                    for o, lam in zip(key, lams)]
            try:
                o = canon_value(invoke_prim(fn, args, limits, prims, ev))
            except EvalError as err:
                if err.kind == "steps":
                    return ("e", "steps"), 0
                o = ("e", err.kind)
            return o, ev.steps

    lam_ids = tuple(lam_ids)
    memo = plan.memos.get(lam_ids)
    if memo is None:
        memo = plan.memos[lam_ids] = {}
    get = memo.get
    # a hit is a non-empty tuple, so `or` applies only on a miss
    hits = [get(key) or memo.setdefault(key, apply(key))
            for key in zip(*cols)]
    if bare:
        steps, outs = bound, hits
    else:
        steps = bound + max(map(itemgetter(1), hits), default=0)
        if steps > limits.max_steps:
            return None
        outs = map(_tag, hits)
    outs = tuple(zip(*[iter(outs)] * BATTERY_ROWS)) if rows else tuple(outs)
    return (outs * n if invariant else outs), steps


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
    store = init_store(task, lib, limits)
    table: dict = {}  # build_entry's applications, for this store only
    solution = _first_solution(store, task)
    candidates = 0
    if solution is not None and stop_on_solve:
        return ExhaustiveResult(store, solution, candidates)
    start = time.monotonic()
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
                    if timeout is not None and \
                            time.monotonic() - start > timeout:
                        return ExhaustiveResult(store, solution, candidates,
                                                timed_out=True)
                    if not admissible(tup, store.allowed):
                        continue
                    entry = build_entry(op, tup, task, limits, prims,
                                        table, store)
                    candidates += 1
                    canon, is_new, _ = store.add(entry)
                    if is_new and signature_solves(canon.signature, task):
                        solution = canon
                        if stop_on_solve:
                            return ExhaustiveResult(store, solution,
                                                    candidates)
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


class _Clock:
    """Wall clock, or a deterministic clock advancing 1 ms per considered
    candidate."""

    QUANTUM = 0.001

    def __init__(self, virtual: bool):
        self.virtual = virtual
        self.ticks = 0
        self.start = time.monotonic()

    def tick(self) -> float:
        """Count one candidate; returns now()."""
        self.ticks += 1
        return self.now()

    def now(self) -> float:
        if self.virtual:
            return self.ticks * self.QUANTUM
        return time.monotonic() - self.start


def search(task: Task, lib: DSLibrary, scorer, cfg: SearchConfig) -> SolveResult:
    """Round-robin over operations: beam-selected argument tuples first, a
    unique-sampling round whenever the beam stalls, periodic restarts, and
    signature-based deduplication throughout.

    Both rounds are tuple sources that one executor, `run`, drains."""
    prims = lib.prims()
    ops = lib.operations
    clock = _Clock(cfg.virtual_clock)
    candidates = 0
    restarts = 0
    last_restart = 0.0
    rng = random.Random(cfg.random_seed)
    store = init_store(task, lib, cfg.eval_limits)
    table: dict = {}  # build_entry's applications, for this store only
    solution = _first_solution(store, task)
    executed: Dict[str, set] = {op.name: set() for op in ops}
    samplers: Dict[str, UniqueSampler] = {}
    # unbounded beam only: per op, how much of the store and of its
    # improvement log its full product has already crossed
    seen = dict.fromkeys(executed, (0, 0))
    sampled_any = False

    def tuple_key(tup):
        # the parameter's type and the entry's fix how the entry is placed,
        # so (index, weight) pairs identify the term within one operation
        return tuple([(e.index, e.weight) for e, _ in tup])

    def finished():
        return (solution is not None and cfg.stop_on_solve) or \
            clock.now() >= cfg.per_task_timeout

    def restart_due():
        return cfg.restarts_enabled and \
            clock.now() - last_restart >= cfg.restart_interval

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
                key = tuple_key(tup)
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
                tup = sampler.sample(rng)
                if tup is None:
                    break
                if admissible(tup, store.allowed):
                    sampled_any = True
                    yield op, tup, tuple_key(tup)
                else:
                    clock.tick()

    def run(tuples, until_restart):
        """Execute `tuples` until a solve (under stop_on_solve), the
        timeout or, if `until_restart`, a due restart.  Every tuple ticks
        the clock.  Returns whether any added or improved an entry."""
        nonlocal candidates, solution
        progress = False
        # finished() and restart_due() on the tick's reading of the clock
        interval = cfg.restart_interval \
            if until_restart and cfg.restarts_enabled else math.inf
        for op, tup, key in tuples:
            now = clock.tick()
            done = executed[op.name]
            if key not in done:
                done.add(key)
                if 1 + sum(e.weight for e, _ in tup) <= cfg.max_weight:
                    entry = build_entry(op, tup, task, cfg.eval_limits,
                                        prims, table, store)
                    candidates += 1
                    canon, is_new, improved = store.add(entry)
                    if is_new and solution is None and \
                            signature_solves(canon.signature, task):
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
            table = {}
            executed = {op.name: set() for op in ops}
            samplers.clear()
            seen = dict.fromkeys(executed, (0, 0))
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

    solved = solution is not None
    return SolveResult(solved, solution.term if solved else None, clock.now(),
                       candidates, restarts, store)


def _first_solution(store: ValueStore, task: Task) -> Optional[ValueEntry]:
    """The first entry of `store` that solves `task`, or None."""
    return next((e for e in store.entries
                 if signature_solves(e.signature, task)), None)


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
    budget = max_weight - 1
    k = len(lists)
    allowed = store.allowed

    def rec(j, acc, wsum, fresh):
        last = j == k - 1
        for pair in lists[j]:
            e = pair[0]
            if wsum + e.weight > budget:
                break
            acc.append(pair)
            now_fresh = fresh or e.index >= seen or e.index in improved
            if not last:
                yield from rec(j + 1, acc, wsum + e.weight, now_fresh)
            elif now_fresh and admissible(acc, allowed):
                yield tuple(acc)
            acc.pop()

    return rec(0, [], 0, False)


def _sampler_dists(op: Operation, store: ValueStore, scorer, task: Task):
    """Per position, a softmax over the scores of its candidates with an
    empty prefix, as the position's ranking holds them (ValueStore.ranking).
    A ranking keeps its distribution until the ranking changes, so a
    position whose candidates and their weights are as they were reuses
    the list it gave last time; callers must not mutate it."""
    dists = []
    for j, pty in enumerate(op.signature.params):
        cands = store.candidates_for(pty)
        if not cands:
            return None
        r = store.ranking(scorer, op.name, j, cands,
                          make_context(task, j, store.features))
        if r.dist is None:
            pairs = r.pairs
            pairs += [(e, pty) for e in cands[len(pairs):]]
            keys = r.keys
            scores = [-keys[e.index][0] for e in cands]
            m = max(scores)
            weights = [math.exp(s - m) for s in scores]
            total = sum(weights)
            r.dist = [(pair, w / total) for pair, w in zip(pairs, weights)]
        dists.append(r.dist)
    return dists
