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
    canon_value, evaluate, format_term, invoke_prim, term_size,
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

    def c(o, opaque):
        if o[0] != "fn":
            return o
        return _probe_closure(o[1], ty, term) if arrow else opaque

    if free_vars:
        if "fn" in map(_tag, chain.from_iterable(outcomes)):
            outcomes = tuple(tuple(c(o, ("opaque",)) for o in row)
                             for row in outcomes)
        return ("f", tuple(sorted(free_vars)), outcomes)
    if "fn" in map(_tag, outcomes):
        # the opaque fallback names the term
        opaque = None if arrow else ("opaque", format_term(term))
        outcomes = tuple(c(o, opaque) for o in outcomes)
    return ("c" if arrow else "v", outcomes)


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
    free_vars: Tuple[str, ...] = ()
    index: int = -1
    provenance: Optional[tuple] = None  # (op_name, ((entry_idx, kind), ...))
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
            old.steps = entry.steps
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
    names, _allowed = lib_placeholders(lib)
    for name in sorted(names):
        seed(InputVar(name), 0, names[name], (name,))
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
    return ScoreContext(task, op.name, position, task.output_sig)


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
        beams = product(*[[(e, pty) for e in cands]
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

def build_entry(op: Operation, arg_entries, task: Task, limits: EvalLimits,
                prims) -> ValueEntry:
    """Construct (and semantically fingerprint) the value for op(args).

    A base-typed result is computed from the arguments' stored outcomes,
    applying the operation once per distinct argument vector over the
    contexts (see _applied).  The memo relies on a contract: a primitive is
    a pure function of its argument values, and a learned operation's body
    is closed.  Each application runs on a fresh step budget and reports
    the steps it took, so the outcomes are those plain evaluation gives
    the term, step errors included.  Where the arguments and the
    application might run out of steps together, and for an arrow-typed
    result or an argument with no stored outcomes (a concrete function
    value), the term is evaluated in full; an arrow-typed result is then
    probed on the battery."""
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
    provenance = (op.name, tuple(kinds))
    if isinstance(ret, Arrow):
        # no stored outcomes: they would keep closures in the store
        sig = compute_signature(term, task, limits, prims, fv, ret)
        return ValueEntry(term, weight, ret, sig, free_vars=fv,
                          provenance=provenance)
    found = _applied(prims[op.name], arg_entries, terms, task, limits, prims,
                     bool(fv))
    if found is None:
        found = _evaluated(term, task, limits, prims, fv)
    outcomes, steps = found
    return ValueEntry(term, weight, ret,
                      sig_from_outcomes(term, outcomes, fv, ret),
                      free_vars=fv, provenance=provenance, outcomes=outcomes,
                      steps=steps)


def _applied(fn, arg_entries, terms, task: Task, limits: EvalLimits, prims,
             rows: bool):
    """(outcomes, steps) of applying `fn` to the argument entries, from
    their stored outcomes, or None when the term must be evaluated in full.

    The contexts are the examples, or example x battery row when `rows`.
    Each context's argument vector is one key: an argument's stored outcome
    in that context, or for a lifted lambda the context's example index,
    since its body may read task inputs.  The operation is applied once per
    distinct key through invoke_prim, in an evaluator of its own when a
    lambda or a learned operation takes steps, and the outcome is spread
    back over the contexts with that key.

    The outcomes are those of evaluating the term (eval_outcomes) because:
    - by build_entry's contract only a lambda argument depends on the
      example;
    - the first error among the arguments, in order, is the outcome; an
      argument or an application that runs out of steps on its own also
      does in the term;
    - otherwise a context takes one step for the Apply node, one per lambda
      argument, the steps of the other arguments and those of the
      application.  If the arguments' `steps` and the longest application
      fit the limit together, no context runs out of steps; if they may
      not, None."""
    examples = range(len(task.examples))
    cols, lams = [], []
    lam_at = None  # position of the first lambda argument
    bound = 1  # steps before the application, in any context
    for (e, pty), t in zip(arg_entries, terms):
        if isinstance(pty, Arrow):
            if e.ty == pty:
                return None  # a concrete function value
            if lam_at is None:
                lam_at = len(lams)
            cols.append(_spread(examples) if rows else examples)
            lams.append(t)
            bound += 1
            continue
        if e.outcomes is None or e.steps is None:
            return None
        lams.append(None)
        bound += e.steps
        if e.free_vars:
            cols.append(chain.from_iterable(e.outcomes))
        elif rows:
            cols.append(_spread(e.outcomes))
        else:
            cols.append(e.outcomes)
    if bound > limits.max_steps:
        return None
    longest = 0
    if lam_at is None and type(fn) is not LearnedOp:
        # no evaluator needed: a primitive of base values takes no steps
        def apply(key):
            args = []
            for o in key:
                if o[0] == "e":
                    return o
                args.append(_runtime_value(o))
            try:
                return canon_value(invoke_prim(fn, args, limits, prims))
            except EvalError as err:
                return ("e", err.kind)
    else:
        def apply(key):
            nonlocal longest
            for o, lam in zip(key, lams):
                if lam is None and o[0] == "e":
                    return o
            i = 0 if lam_at is None else key[lam_at]
            ev = Evaluator(prims, task.examples[i][0], limits)
            args = [_runtime_value(o) if lam is None else Closure(lam, [], ev)
                    for o, lam in zip(key, lams)]
            try:
                o = canon_value(invoke_prim(fn, args, limits, prims, ev))
            except EvalError as err:
                if err.kind == "steps":
                    return ("e", "steps")
                o = ("e", err.kind)
            if ev.steps > longest:
                longest = ev.steps
            return o

    memo = {}
    outs = []
    for key in zip(*cols):
        o = memo.get(key)
        if o is None:
            o = memo[key] = apply(key)
        outs.append(o)
    if bound + longest > limits.max_steps:
        return None
    if rows:
        return tuple(zip(*[iter(outs)] * BATTERY_ROWS)), bound + longest
    return tuple(outs), bound + longest


def _spread(per_example):
    """Each item repeated once per battery row, as a column over the
    contexts (example x row)."""
    return chain.from_iterable(map(repeat, per_example,
                                   repeat(BATTERY_ROWS)))


def _runtime_value(o):
    """The argument value a stored (non-error) outcome stands for; a list
    is rebuilt, so a primitive never shares one with the store."""
    v = o[1]
    return list(v) if type(v) is tuple else v


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
