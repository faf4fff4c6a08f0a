"""Abstraction mining: find reusable patterns in solved programs and turn
them into new library operations.

A pattern is a term with numbered holes.  Matching walks every subtree of
every corpus program; a hole binds any subtree (repeated holes must bind
syntactically equal subtrees), but holes never sit inside a lambda body of
the pattern itself, so bindings may mention bound variables of the
surrounding program and rewriting in place stays sound.

Search is best-first from the empty pattern (one hole), expanding the
lowest-numbered open hole with the shapes actually observed among its
bindings.  An upper bound on the value of any refinement lets us prune.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .lang import (
    Arrow, Ty, Term, Apply, BoundVar, ConstBool, ConstInt, ConstList,
    EvalError, InputVar, Lam, PrimRef, format_term, free_input_vars,
    infer_type, max_free_index, replace_at, subterm_at, subtrees, term_size,
)
from .dsl import DSLibrary, extend_with_abstraction, zero_arity_literal


@dataclass(frozen=True)
class Hole:
    """A pattern variable; equal ids must bind equal subtrees."""
    id: int


def hole_occurrences(p) -> List[Tuple[int, tuple]]:
    """(hole id, path) for every hole occurrence, preorder."""
    return [(t.id, path) for path, t in subtrees(p) if isinstance(t, Hole)]


def pattern_holes(p) -> List[int]:
    """Hole ids in first-occurrence (preorder) order."""
    return list(dict.fromkeys(h for h, _path in hole_occurrences(p)))


def _map_holes(p, f):
    """`p` with every hole `h` replaced by `f(h)`.  Holes never sit under a
    pattern lambda, so lambdas are kept whole."""
    if isinstance(p, Hole):
        return f(p)
    if isinstance(p, Apply):
        return Apply(_map_holes(p.fn, f),
                     tuple(_map_holes(a, f) for a in p.args))
    return p


def canonicalize(p):
    """Renumber holes by first occurrence so equal patterns compare equal."""
    remap = {h: i for i, h in enumerate(pattern_holes(p))}
    return _map_holes(p, lambda h: Hole(remap[h.id]))


def format_pattern(p) -> str:
    """A pattern as text, a hole as ``?id``.  Holes never sit under a
    pattern lambda, so lambdas are printed as terms."""
    if isinstance(p, Hole):
        return f"?{p.id}"
    if isinstance(p, Apply):
        return "(" + " ".join(map(format_pattern, (p.fn,) + p.args)) + ")"
    return format_term(p)


def _node_count(p, leaves) -> int:
    """Nodes of `p` on term_size's scale: applications of an operation and
    instances of `leaves`; holes, bound variables and bare heads count
    zero."""
    return sum(isinstance(s, leaves)
               or isinstance(s, Apply) and isinstance(s.fn, PrimRef)
               for _, s in subtrees(p))


def non_hole_size(p) -> int:
    """Pattern weight with holes counting zero (same scale as term_size)."""
    return _node_count(p, (ConstInt, ConstBool, ConstList, InputVar))


def nonvariable_expressions(p) -> int:
    """How many nodes are expressions rather than variables or holes."""
    return _node_count(p, (ConstInt, ConstBool, ConstList))


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Match:
    task_id: str
    program_idx: int
    path: tuple
    bindings: tuple  # of (hole id, Term), sorted by id

    def binding(self, hole_id: int) -> Term:
        return dict(self.bindings)[hole_id]


def _match_at(pattern, sub, bindings: dict) -> bool:
    if isinstance(pattern, Hole):
        prev = bindings.get(pattern.id)
        if prev is None:
            bindings[pattern.id] = sub
            return True
        return prev == sub
    if isinstance(pattern, Apply):
        if not isinstance(sub, Apply) or len(pattern.args) != len(sub.args):
            return False
        if not _match_at(pattern.fn, sub.fn, bindings):
            return False
        return all(_match_at(p, a, bindings)
                   for p, a in zip(pattern.args, sub.args))
    if isinstance(pattern, Lam):
        return isinstance(sub, Lam) and pattern == sub
    return pattern == sub


def count_matches(pattern, corpus: Dict[str, list]) -> List[Match]:
    """All matches of `pattern` in `corpus` (task id -> list of programs)."""
    out = []
    for task_id in sorted(corpus):
        for idx, program in enumerate(corpus[task_id]):
            for path, sub in subtrees(program):
                bindings: dict = {}
                if _match_at(pattern, sub, bindings):
                    out.append(Match(task_id, idx, path,
                                     tuple(sorted(bindings.items()))))
    return out


def deoverlap(matches: List[Match]) -> List[Match]:
    """Keep a non-nested subset per program, preferring outermost matches."""
    out = []
    by_prog: Dict[tuple, List[tuple]] = {}
    for m in sorted(matches, key=lambda m: (m.task_id, m.program_idx, m.path)):
        taken = by_prog.setdefault((m.task_id, m.program_idx), [])
        if any(m.path[:len(p)] == p for p in taken):
            continue
        taken.append(m.path)
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# Utility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UtilityReport:
    value: int
    matches: int
    distinct_tasks: int
    body_size: int
    arity: int


def utility(pattern, matches: List[Match]) -> UtilityReport:
    """Compression value: one application replaces each use of the body, so
    every match saves the body weight minus the application head and the
    cost of passing each parameter."""
    used = deoverlap(matches)
    m = len(used)
    s = non_hole_size(pattern)
    a = len(pattern_holes(pattern))
    value = m * max(0, s - 1 - a)
    return UtilityReport(value, m, len({u.task_id for u in used}), s, a)


# ---------------------------------------------------------------------------
# Finalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Abstraction:
    name: str
    arity: int
    signature: object  # Arrow for arity >= 1, a base Ty for arity 0
    body: Term  # Lam of `arity`, or for arity 0 the pattern's literal
    pattern: object
    utility: UtilityReport
    tasks: tuple
    iteration: int = 0


@dataclass(frozen=True)
class Rejection:
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class MineConfig:
    max_arity: int = 3
    max_rounds: int = 3
    min_tasks: int = 2
    min_nonvariable: int = 2
    max_visited: int = 50000

    def __post_init__(self):
        # max_rounds=0 mines nothing: the loop without library learning
        for name, least in (("max_arity", 0), ("max_rounds", 0),
                            ("min_tasks", 1), ("min_nonvariable", 0),
                            ("max_visited", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")


def finalize(pattern, matches, lib: DSLibrary, annots, name: str,
             cfg: MineConfig = MineConfig(), iteration: int = 0):
    """Turn a pattern into an Abstraction, or a Rejection explaining why the
    pattern is unusable.  `annots` maps (task id, program idx) to the
    program's path -> type table."""
    used = deoverlap(matches)
    rep = utility(pattern, matches)
    if rep.distinct_tasks < cfg.min_tasks:
        return Rejection("single-task",
                         f"occurs in {rep.distinct_tasks} task(s)")
    if nonvariable_expressions(pattern) < cfg.min_nonvariable:
        return Rejection("trivial",
                         f"{nonvariable_expressions(pattern)} non-variable "
                         "expression(s)")
    if rep.value <= 0:
        return Rejection("no-compression", f"value {rep.value}")
    order = pattern_holes(pattern)
    if len(order) > cfg.max_arity:
        return Rejection("arity", f"{len(order)} parameters")
    occs = hole_occurrences(pattern)
    param_tys: Dict[int, Ty] = {}
    result_ty: Optional[Ty] = None
    for m in used:
        table = annots[(m.task_id, m.program_idx)]
        rty = table.get(m.path)
        if result_ty is None:
            result_ty = rty
        elif rty != result_ty:
            return Rejection("inconsistent-types",
                             f"result {result_ty!r} vs {rty!r}")
        for hid, rel in occs:
            ty = table.get(m.path + rel)
            if ty is None:
                return Rejection("inconsistent-types", "untyped binding site")
            if param_tys.setdefault(hid, ty) != ty:
                return Rejection(
                    "inconsistent-types",
                    f"parameter {hid} used at {param_tys[hid]!r} and {ty!r}")
    if result_ty is None:
        return Rejection("no-matches", "")
    arity = len(order)
    if arity == 0:
        if isinstance(result_ty, Arrow):
            return Rejection("inconsistent-types",
                             "parameterless pattern of function type")
        if max_free_index(pattern) >= 0:
            return Rejection("ill-typed",
                             "parameterless pattern has free bound variables")
        if free_input_vars(pattern):
            return Rejection("ill-typed",
                             "parameterless pattern captures task inputs")
        try:
            literal = zero_arity_literal(pattern, lib)
        except EvalError as e:
            return Rejection("not-a-constant", f"evaluation error {e.kind}")
        if literal is None:
            return Rejection("not-a-constant", "value has no literal form")
        if (literal, result_ty) in lib.constants:
            return Rejection("duplicate-constant", format_term(literal))
        return Abstraction(name, 0, result_ty, literal, pattern, rep,
                           tuple(sorted({m.task_id for m in used})), iteration)
    remap = {h: i for i, h in enumerate(order)}
    body_core = _map_holes(pattern,
                           lambda h: BoundVar(arity - 1 - remap[h.id]))
    body = Lam(arity, body_core)
    sig = Arrow(tuple(param_tys[h] for h in order), result_ty)
    try:
        infer_type(body, {}, lib.symbol_types(), expected=sig)
    except Exception as e:  # noqa: BLE001 - report, do not crash the miner
        return Rejection("ill-typed", str(e))
    for op in lib.operations:
        if op.is_learned and op.provenance.body == body:
            return Rejection("duplicate-abstraction", op.name)
    return Abstraction(name, arity, sig, body, pattern, rep,
                       tuple(sorted({m.task_id for m in used})), iteration)


def annotate_corpus(corpus, tasks, lib: DSLibrary):
    """Type table (path -> Ty) for every corpus program."""
    symbols = lib.symbol_types()
    annots = {}
    for task_id, programs in corpus.items():
        input_types = dict(tasks[task_id].input_types)
        for idx, program in enumerate(programs):
            table: dict = {}
            infer_type(program, input_types, symbols, record=table)
            annots[(task_id, idx)] = table
    return annots


# ---------------------------------------------------------------------------
# Best-first mining
# ---------------------------------------------------------------------------

def _binding_roots(matches, hole_id):
    """One subtree bound by `hole_id` per distinct shape, in corpus order:
    an application's shape is its operation name (None for any other head)
    and arity, and any other subtree is its own shape.  A task input is
    left out: only a hole can generalize it."""
    roots = {}
    for m in matches:
        b = m.binding(hole_id)
        if isinstance(b, Apply):
            head = b.fn.name if isinstance(b.fn, PrimRef) else None
            roots.setdefault((head, len(b.args)), b)
        elif not isinstance(b, InputVar):
            roots.setdefault(b, b)
    return list(roots.values())


def _replace_hole(pattern, hole_id, replacement):
    return _map_holes(pattern,
                      lambda h: replacement if h.id == hole_id else h)


def _expansions(pattern, matches, hole_id, next_hole):
    """Candidate refinements of one open hole.

    Yields (new pattern, next fresh hole id, ids of newly opened holes)."""
    out = []
    for hid in pattern_holes(pattern):
        if hid != hole_id:
            out.append((_replace_hole(pattern, hole_id, Hole(hid)),
                        next_hole, ()))
    for b in _binding_roots(matches, hole_id):
        if isinstance(b, Apply):
            # an operation stays; any other head becomes a hole as well
            op = isinstance(b.fn, PrimRef)
            n = len(b.args) if op else len(b.args) + 1
            fresh = tuple(Hole(next_hole + i) for i in range(n))
            rep = Apply(b.fn, fresh) if op else Apply(fresh[0], fresh[1:])
            out.append((_replace_hole(pattern, hole_id, rep),
                        next_hole + len(fresh), tuple(h.id for h in fresh)))
        else:  # substitute the concrete subtree
            out.append((_replace_hole(pattern, hole_id, b), next_hole, ()))
    return out


@dataclass
class MineRound:
    abstraction: Optional[Abstraction]
    visited: int
    pruned: int
    rejections: dict


def mine_round(corpus, lib: DSLibrary, tasks, name: str,
               cfg: MineConfig = MineConfig(),
               iteration: int = 0) -> MineRound:
    """One best-first pass: the highest-value acceptable abstraction."""
    annots = annotate_corpus(corpus, tasks, lib)
    rejections: Dict[str, int] = {}
    best: Optional[Abstraction] = None
    visited = 0
    pruned = 0
    seen = set()
    counter = 0

    def push(queue, pattern, matches, open_holes, next_hole):
        nonlocal counter
        order = pattern_holes(pattern)
        remap = {h: i for i, h in enumerate(order)}
        key = (canonicalize(pattern),
               tuple(sorted(remap[h] for h in open_holes if h in remap)))
        if key in seen:
            return
        seen.add(key)
        ub = _bound(pattern, matches)
        counter += 1
        heapq.heappush(queue, (-ub, counter, pattern, matches, open_holes,
                               next_hole))

    def _bound(pattern, matches):
        used = deoverlap(matches)
        if not used:
            return 0
        sizes = [term_size(subterm_at(corpus[m.task_id][m.program_idx],
                                      m.path)) for m in used]
        return len(used) * max(0, max(sizes) - 1)

    queue: list = []
    root = Hole(0)
    push(queue, root, count_matches(root, corpus), (0,), 1)
    while queue and visited < cfg.max_visited:
        neg_ub, _, pattern, matches, open_holes, next_hole = \
            heapq.heappop(queue)
        if best is not None and -neg_ub <= best.utility.value:
            pruned += 1
            continue
        visited += 1
        total_holes = len(pattern_holes(pattern))
        if not isinstance(pattern, Hole) and total_holes <= cfg.max_arity:
            rep = utility(pattern, matches)
            if best is None or rep.value > best.utility.value:
                got = finalize(pattern, matches, lib, annots, name, cfg,
                               iteration)
                if isinstance(got, Abstraction):
                    best = got
                else:
                    rejections[got.reason] = rejections.get(got.reason, 0) + 1
        if not open_holes:
            continue
        frozen = [h for h in pattern_holes(pattern) if h not in open_holes]
        if len(frozen) > cfg.max_arity:
            continue  # frozen holes stay parameters in every refinement
        hid, rest = open_holes[0], open_holes[1:]
        for new_pat, new_next, opened in _expansions(pattern, matches, hid,
                                                     next_hole):
            sub = count_matches(new_pat, corpus)
            if not sub:
                continue
            push(queue, new_pat, sub, rest + opened, new_next)
        # keeping the hole open as a parameter
        push(queue, pattern, matches, rest, next_hole)
    return MineRound(best, visited, pruned, rejections)


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------

def rewrite_program(program: Term, abstraction: Abstraction):
    """Replace every (outermost, non-overlapping) occurrence of the
    abstraction's pattern, by its literal when it has no parameters.
    Returns (new program, sites rewritten, weight saved)."""
    matches = deoverlap(count_matches(abstraction.pattern, {"_": [program]}))
    if not matches:
        return program, 0, 0
    order = pattern_holes(abstraction.pattern)
    saved = 0
    out = program
    for m in sorted(matches, key=lambda m: m.path, reverse=True):
        site = subterm_at(out, m.path)
        rep = abstraction.body if abstraction.arity == 0 else Apply(
            PrimRef(abstraction.name), tuple(m.binding(h) for h in order))
        saved += term_size(site) - term_size(rep)
        out = replace_at(out, m.path, rep)
    return out, len(matches), saved


def rewrite_corpus(corpus, abstraction: Abstraction):
    """Rewrite every program; returns (corpus, total sites, total saved)."""
    out = {}
    sites = 0
    saved = 0
    for task_id, programs in corpus.items():
        new_programs = []
        for p in programs:
            q, n, s = rewrite_program(p, abstraction)
            new_programs.append(q)
            sites += n
            saved += s
        out[task_id] = new_programs
    return out, sites, saved


# ---------------------------------------------------------------------------
# Multi-round driver
# ---------------------------------------------------------------------------

@dataclass
class MineResult:
    abstractions: list
    library: DSLibrary
    corpus: dict
    report: str


def next_abstraction_name(lib: DSLibrary) -> str:
    n = 0
    while lib.has_op(f"fn_{n}"):
        n += 1
    return f"fn_{n}"


def mine(corpus, lib: DSLibrary, tasks, cfg: MineConfig = MineConfig(),
         iteration: int = 0) -> MineResult:
    """Repeatedly extract the best abstraction and rewrite the corpus with
    it, extending the library as we go, until nothing of value remains or
    max_rounds is hit."""
    corpus = {k: list(v) for k, v in corpus.items()}
    found = []
    lines = []
    for round_no in range(cfg.max_rounds):
        name = next_abstraction_name(lib)
        res = mine_round(corpus, lib, tasks, name, cfg, iteration)
        lines.append(f"round {round_no}: visited {res.visited}, "
                     f"pruned {res.pruned}, rejected {res.rejections}")
        if res.abstraction is None:
            lines.append(f"round {round_no}: no abstraction worth keeping")
            break
        a = res.abstraction
        lib = extend_with_abstraction(lib, a, iteration)
        corpus, sites, saved = rewrite_corpus(corpus, a)
        found.append(a)
        lines.append(
            f"round {round_no}: kept {a.name} arity {a.arity} "
            f"value {a.utility.value} ({a.utility.matches} matches in "
            f"{a.utility.distinct_tasks} tasks), rewrote {sites} sites, "
            f"saved weight {saved}")
        lines.append(f"  {a.name} = {format_pattern(a.pattern)}")
    return MineResult(found, lib, corpus, "\n".join(lines))
