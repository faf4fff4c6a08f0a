"""Typed lambda-calculus core: types, terms, parser, printer, typechecker, evaluator.

Terms use de Bruijn indices for lambda-bound variables and allow a single
lambda to introduce several variables at once (no currying).  Within a
multi-variable lambda, ``$0`` refers to the *last* parameter, so
``(lam2 body)`` applied to ``(x, y)`` binds ``$1 = x`` and ``$0 = y`` --
consistent with the curried reading ``(lam (lam body)) x y``.

Identifiers starting with ``%`` are reserved for internal lambda-body
placeholders used by the bottom-up search; they behave like input variables
but carry zero weight.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Union


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BaseTy:
    name: str

    def __new__(cls, name: str):
        # one instance per name, so equality and hashing are identity's
        return _BASE_TYPES.setdefault(name, super().__new__(cls))

    def __reduce__(self):  # copies and unpickling get the one instance
        return BaseTy, (self.name,)

    def __repr__(self) -> str:
        return self.name


# Arrow types key the value store and the search's tables, so each caches
# the hash a frozen dataclass would compute on every lookup.

@dataclass(frozen=True)
class Arrow:
    params: tuple
    ret: "Ty"

    def __post_init__(self):
        if len(self.params) < 1:
            raise ValueError("Arrow needs at least one parameter")
        object.__setattr__(self, "_hash", hash((self.params, self.ret)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self.params)
        return f"({inner}) -> {self.ret!r}"


Ty = Union[BaseTy, Arrow]

_BASE_TYPES = {}  # name -> its one BaseTy
INT = BaseTy("Int")
BOOL = BaseTy("Bool")
INT_LIST = BaseTy("IntList")


def parse_type(text: str) -> Ty:
    """Parse a type written as ``Int``, ``IntList`` or ``(T1, T2) -> R``."""
    ty, rest = _parse_type_inner(text.strip())
    if rest.strip():
        raise LangError(f"trailing input in type: {rest!r}")
    return ty


def _parse_type_inner(text: str):
    text = text.lstrip()
    if text.startswith("("):
        depth = 0
        for i, c in enumerate(text):
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    break
        else:
            raise LangError(f"unbalanced parens in type: {text!r}")
        inner = text[1:i]
        rest = text[i + 1:].lstrip()
        if not rest.startswith("->"):
            raise LangError(f"expected '->' in type: {text!r}")
        params = tuple(parse_type(p) for p in split_top(inner))
        ret, rest = _parse_type_inner(rest[2:])
        return Arrow(params, ret), rest
    for name in sorted(_BASE_TYPES, key=len, reverse=True):
        if text.startswith(name):
            return _BASE_TYPES[name], text[len(name):]
    raise LangError(f"cannot parse type: {text!r}")


def split_top(text: str):
    """The parts of `text` between its commas outside parentheses and
    brackets, stripped, empty parts dropped."""
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return [p for p in (s.strip() for s in parts) if p]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundVar:
    index: int


@dataclass(frozen=True)
class InputVar:
    name: str


@dataclass(frozen=True)
class ConstInt:
    value: int


@dataclass(frozen=True)
class ConstBool:
    value: bool


@dataclass(frozen=True)
class ConstList:
    values: tuple


@dataclass(frozen=True)
class PrimRef:
    name: str


@dataclass(frozen=True)
class Apply:
    fn: "Term"
    args: tuple


@dataclass(frozen=True)
class Lam:
    arity: int
    body: "Term"

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("Lam arity must be >= 1")


Term = Union[BoundVar, InputVar, ConstInt, ConstBool, ConstList, PrimRef, Apply, Lam]


def children(t: Term):
    """Child terms in path order (Apply: fn then args; Lam: body)."""
    if isinstance(t, Apply):
        return (t.fn,) + t.args
    if isinstance(t, Lam):
        return (t.body,)
    return ()


def replace_child(t: Term, i: int, new: Term) -> Term:
    if isinstance(t, Apply):
        if i == 0:
            return Apply(new, t.args)
        return Apply(t.fn, t.args[:i - 1] + (new,) + t.args[i:])
    if isinstance(t, Lam) and i == 0:
        return Lam(t.arity, new)
    raise IndexError(f"no child {i} in {t!r}")


def subterm_at(t: Term, path) -> Term:
    for i in path:
        t = children(t)[i]
    return t


def replace_at(t: Term, path, new: Term) -> Term:
    if not path:
        return new
    i = path[0]
    return replace_child(t, i, replace_at(children(t)[i], path[1:], new))


def subtrees(t: Term, path=()) -> Iterator:
    """Yield (path, subterm) pairs in preorder, skipping an application's
    operation head (a PrimRef at child 0); paths still count it."""
    yield path, t
    for i, c in enumerate(children(t)):
        if i or not (isinstance(c, PrimRef) and isinstance(t, Apply)):
            yield from subtrees(c, path + (i,))


def max_free_index(t: Term, depth: int = 0) -> int:
    """Largest de Bruijn index free in t (relative to its root), or -1."""
    if isinstance(t, BoundVar):
        return t.index - depth if t.index >= depth else -1
    if isinstance(t, Lam):
        return max_free_index(t.body, depth + t.arity)
    best = -1
    for c in children(t):
        best = max(best, max_free_index(c, depth))
    return best


def is_closed(t: Term) -> bool:
    return max_free_index(t) < 0


def free_input_vars(t: Term) -> frozenset:
    return frozenset(s.name for _, s in subtrees(t) if isinstance(s, InputVar))


def bind_input_vars(body: Term, params) -> Lam:
    """Wrap `body` in a Lam binding the named input variables.

    `params` lists the parameter names first-to-last; name j becomes index
    ``arity-1-j`` at the top level (deeper under nested lambdas).
    """
    return Lam(len(params), _bind(body, 0, params))


def _bind(t: Term, depth: int, params) -> Term:
    if isinstance(t, InputVar) and t.name in params:
        return BoundVar(depth + (len(params) - 1 - params.index(t.name)))
    if isinstance(t, Lam):
        return Lam(t.arity, _bind(t.body, depth + t.arity, params))
    if isinstance(t, Apply):
        return Apply(_bind(t.fn, depth, params),
                     tuple(_bind(a, depth, params) for a in t.args))
    return t


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class LangError(Exception):
    """Parse or type error."""


class EvalError(Exception):
    """Recoverable evaluation failure.  `kind` is one of
    'steps', 'bounds', 'domain', 'unknown'."""

    def __init__(self, kind: str, message: str = ""):
        super().__init__(message or kind)
        self.kind = kind


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def format_term(t: Term) -> str:
    if isinstance(t, BoundVar):
        return f"${t.index}"
    if isinstance(t, InputVar):
        return t.name
    if isinstance(t, ConstInt):
        return str(t.value)
    if isinstance(t, ConstBool):
        return "true" if t.value else "false"
    if isinstance(t, ConstList):
        return "[" + " ".join(str(v) for v in t.values) + "]"
    if isinstance(t, PrimRef):
        return t.name
    if isinstance(t, Lam):
        kw = "lam" if t.arity == 1 else f"lam{t.arity}"
        return f"({kw} {format_term(t.body)})"
    if isinstance(t, Apply):
        parts = [format_term(t.fn)] + [format_term(a) for a in t.args]
        return "(" + " ".join(parts) + ")"
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_DELIMS = "()[]"


def _tokenize(text: str):
    """Yield (token, byte_offset) pairs.  Commas count as whitespace."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace() or c == ",":
            i += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _DELIMS:
            yield c, i
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _DELIMS + ",;":
            j += 1
        yield text[i:j], i
        i = j


# what parse_term parses: (token, offset) pairs, the text's length, and
# its arguments
_Source = namedtuple("_Source", "tokens end primitives input_names")


def parse_term(text: str, primitives, input_names=None) -> Term:
    """Parse one S-expression into a Term.

    `primitives` is a collection of known operation names.  Other symbols
    become input variables; when `input_names` is given, symbols outside it
    raise an unknown-symbol error.  The result must be closed (every ``$i``
    under enough binders).
    """
    src = _Source(list(_tokenize(text)), len(text), primitives, input_names)
    term, pos = _parse(src, 0)
    if pos != len(src.tokens):
        raise LangError(f"offset {src.tokens[pos][1]}: trailing input")
    if not is_closed(term):
        raise LangError(f"unbound index ${max_free_index(term)} in {text!r}")
    return term


def _token(src: _Source, pos: int):
    if pos >= len(src.tokens):
        raise LangError(f"offset {src.end}: unexpected end of input")
    return src.tokens[pos]


def _parse(src: _Source, pos: int):
    """(the term starting at token `pos`, the position after it)."""
    tok, off = _token(src, pos)
    if tok == "(":
        head, hoff = _token(src, pos + 1)
        if head == "lam" or (head.startswith("lam") and head[3:].isdigit()):
            arity = 1 if head == "lam" else int(head[3:])
            if arity < 1:
                raise LangError(f"offset {hoff}: lambda arity must be >= 1")
            body, pos = _parse(src, pos + 2)
            close, coff = _token(src, pos)
            if close != ")":
                raise LangError(f"offset {coff}: expected ')'")
            return Lam(arity, body), pos + 1
        fn, pos = _parse(src, pos + 1)  # the head is itself a term
        args = []
        while _token(src, pos)[0] != ")":
            arg, pos = _parse(src, pos)
            args.append(arg)
        if not args:
            raise LangError(
                f"offset {off}: application needs at least one argument")
        return Apply(fn, tuple(args)), pos + 1
    if tok == "[":
        values = []
        while True:
            pos += 1
            tok, off = _token(src, pos)
            if tok == "]":
                return ConstList(tuple(values)), pos + 1
            try:
                values.append(int(tok))
            except ValueError:
                raise LangError(f"offset {off}: expected integer in list "
                                f"literal, got {tok!r}") from None
    if tok in ")]":
        raise LangError(f"offset {off}: unexpected {tok!r}")
    return _atom(src, tok, off), pos + 1


def _atom(src: _Source, tok: str, off: int) -> Term:
    if tok.startswith("$"):
        if not tok[1:].isdigit():
            raise LangError(f"offset {off}: bad bound-variable token {tok!r}")
        return BoundVar(int(tok[1:]))
    if tok == "true":
        return ConstBool(True)
    if tok == "false":
        return ConstBool(False)
    try:
        return ConstInt(int(tok))
    except ValueError:
        pass
    if tok in src.primitives:
        return PrimRef(tok)
    if src.input_names is not None and tok not in src.input_names \
            and not tok.startswith("%"):
        raise LangError(f"offset {off}: unknown symbol {tok!r}")
    return InputVar(tok)


# ---------------------------------------------------------------------------
# Type inference / checking
# ---------------------------------------------------------------------------

def infer_type(t: Term, input_types: Mapping[str, Ty], symbols: Mapping[str, Ty],
               expected: Optional[Ty] = None,
               record: Optional[dict] = None) -> Ty:
    """Infer the type of a closed term, checking Apply arguments positionally.

    Lambda parameter types come from the expected type when available and are
    otherwise filled in at first constrained use (e.g. ``+`` forces Int).
    When `record` is a dict, it is filled with path -> Ty for every subtree.
    """
    return _check(t, expected, (), [], input_types, symbols, record)


def _check(t: Term, expected: Optional[Ty], path, env: list,
           input_types: Mapping[str, Ty], symbols: Mapping[str, Ty],
           record: Optional[dict]) -> Ty:
    """infer_type of the subterm `t` at `path`; `env` holds the bound
    variables' types innermost-first, a slot None until constrained."""
    if isinstance(t, BoundVar):
        if t.index >= len(env):
            raise LangError(f"unbound index ${t.index}")
        if env[t.index] is None:
            if expected is None:
                raise LangError(f"cannot determine type of ${t.index}")
            env[t.index] = expected
        got = env[t.index]
    elif isinstance(t, InputVar):
        if t.name not in input_types:
            raise LangError(f"unknown variable {t.name!r}")
        got = input_types[t.name]
    elif isinstance(t, ConstInt):
        got = INT
    elif isinstance(t, ConstBool):
        got = BOOL
    elif isinstance(t, ConstList):
        got = INT_LIST
    elif isinstance(t, PrimRef):
        if t.name not in symbols:
            raise LangError(f"unknown operation {t.name!r}")
        got = symbols[t.name]
    elif isinstance(t, Apply):
        fty = _check(t.fn, None, path + (0,), env, input_types, symbols,
                     record)
        if not isinstance(fty, Arrow):
            raise LangError(f"applying non-function of type {fty!r}")
        if len(t.args) != len(fty.params):
            raise LangError(f"arity mismatch: {format_term(t.fn)} takes "
                            f"{len(fty.params)} args, got {len(t.args)}")
        for i, (arg, pty) in enumerate(zip(t.args, fty.params)):
            _check(arg, pty, path + (i + 1,), env, input_types, symbols,
                   record)
        got = fty.ret
    elif isinstance(t, Lam):
        if expected is not None:
            if not isinstance(expected, Arrow) or len(expected.params) != t.arity:
                raise LangError(
                    f"lambda of arity {t.arity} where {expected!r} expected")
            for p in reversed(expected.params):
                env.insert(0, p)
            _check(t.body, expected.ret, path + (0,), env, input_types,
                   symbols, record)
            del env[:t.arity]
            if record is not None:
                record[path] = expected
            return expected
        for _ in range(t.arity):
            env.insert(0, None)
        body_ty = _check(t.body, None, path + (0,), env, input_types, symbols,
                         record)
        slots = env[:t.arity]
        del env[:t.arity]
        if any(s is None for s in slots):
            raise LangError("cannot infer lambda parameter types")
        got = Arrow(tuple(reversed(slots)), body_ty)
    else:
        raise LangError(f"not a term: {t!r}")
    if expected is not None and got != expected:
        raise LangError(f"type mismatch at {format_term(t)}: expected "
                        f"{expected!r}, got {got!r}")
    if record is not None:
        record[path] = got
    return got


# ---------------------------------------------------------------------------
# Size metric
# ---------------------------------------------------------------------------

def term_size(t: Term) -> int:
    """Program weight: +1 per primitive application, +1 per constant or task
    input variable.  Lambdas, bound variables, placeholders (``%``-names) and
    applications of non-primitive function values cost nothing themselves."""
    if isinstance(t, (ConstInt, ConstBool, ConstList)):
        return 1
    if isinstance(t, InputVar):
        return 0 if t.name.startswith("%") else 1
    if isinstance(t, (BoundVar, PrimRef)):
        return 0
    if isinstance(t, Lam):
        return term_size(t.body)
    if isinstance(t, Apply):
        head = 1 if isinstance(t.fn, PrimRef) else term_size(t.fn)
        return head + sum(term_size(a) for a in t.args)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalLimits:
    max_steps: int = 10_000
    max_int_magnitude: int = 2**31 - 1
    max_list_len: int = 1024

    def __post_init__(self):
        if min(self.max_steps, self.max_int_magnitude, self.max_list_len) <= 0:
            raise ValueError("EvalLimits fields must be positive")


Value = Union[int, bool, list, "Closure"]


class Closure:
    """A lambda value; calling it runs the body through the owning evaluator."""

    __slots__ = ("lam", "env", "_ev")

    def __init__(self, lam: Lam, env, ev):
        self.lam = lam
        self.env = env
        self._ev = ev

    def __call__(self, *args):
        if len(args) != self.lam.arity:
            raise EvalError("domain", f"closure expects {self.lam.arity} args")
        return self._ev.eval(self.lam.body, list(reversed(args)) + self.env)


class _PrimValue:
    """A primitive operation used as a first-class function value."""

    __slots__ = ("fn", "_ev")

    def __init__(self, fn, ev):
        self.fn = fn
        self._ev = ev

    def __call__(self, *args):
        self._ev._tick()
        return check_value(self._ev._invoke(self.fn, args), self._ev.limits)


class LearnedOp:
    """The executable semantics of a learned operation: its body lambda.

    An evaluator that invokes it (directly, as a first-class value, or
    through invoke_prim) runs the body itself, so the caller's limits, step
    budget and primitives cover the body as if it were inlined.  Called as
    a plain function, outside any evaluation, it runs under default limits
    over `prims`."""

    __slots__ = ("body", "prims")

    def __init__(self, body: Lam, prims: Mapping[str, Callable]):
        self.body = body
        self.prims = prims

    def __call__(self, *args):
        return invoke_prim(self, args, EvalLimits(), self.prims)


def is_function_value(v) -> bool:
    return callable(v) and not isinstance(v, (bool, int, list))


def check_value(v: Value, lim: EvalLimits) -> Value:
    """`v` if it is a legal runtime value within `lim`, else EvalError."""
    t = type(v)
    if t is bool:
        return v
    if t is int:
        if abs(v) > lim.max_int_magnitude:
            raise EvalError("bounds", f"integer {v} out of range")
        return v
    if t is list:
        if len(v) > lim.max_list_len:
            raise EvalError("bounds", f"list of length {len(v)} too long")
        for x in v:
            if type(x) is not int:
                raise EvalError("domain", "lists hold integers only")
            if abs(x) > lim.max_int_magnitude:
                raise EvalError("bounds", f"integer {x} out of range")
        return v
    if is_function_value(v):
        return v
    raise EvalError("domain", f"bad runtime value {v!r}")


def canon_value(v: Value) -> tuple:
    """A checked runtime value in the form an outcome takes, which a value
    store interns: ("i", int), ("b", bool), ("l", tuple of ints), or
    ("fn", v) for a function value, which is kept as it is."""
    t = type(v)
    if t is int:
        return ("i", v)
    if t is list:
        return ("l", tuple(v))
    if t is bool:
        return ("b", v)
    return ("fn", v)


def runtime_value(o) -> Value:
    """The runtime value a value outcome (see canon_value) stands for; a
    list is rebuilt, so its user never shares one with the store."""
    v = o[1]
    return list(v) if type(v) is tuple else v


def _call_prim(fn, args):
    """Apply a primitive's Python function, turning its Python errors into
    domain errors."""
    try:
        return fn(*args)
    except EvalError:
        raise
    except (ZeroDivisionError, IndexError, ValueError, OverflowError) as e:
        raise EvalError("domain", str(e)) from None


class Evaluator:
    """Evaluates terms over fixed inputs on one step budget: `steps` counts
    every step taken so far, by its evaluations and by calls of the Closures
    it made."""

    def __init__(self, prims: Mapping[str, Callable], inputs: Mapping[str, Value],
                 limits: EvalLimits):
        self.prims = prims
        self.inputs = inputs
        self.limits = limits
        self.steps = 0

    def _tick(self):
        self.steps += 1
        if self.steps > self.limits.max_steps:
            raise EvalError("steps", "step limit exceeded")

    def eval(self, t: Term, env) -> Value:
        self._tick()
        if isinstance(t, BoundVar):
            if t.index >= len(env):
                raise EvalError("unknown", f"unbound index ${t.index}")
            return env[t.index]
        if isinstance(t, InputVar):
            if t.name not in self.inputs:
                raise EvalError("unknown", f"no binding for {t.name!r}")
            return self.inputs[t.name]
        if isinstance(t, ConstInt):
            return t.value
        if isinstance(t, ConstBool):
            return t.value
        if isinstance(t, ConstList):
            return list(t.values)
        if isinstance(t, Lam):
            return Closure(t, env, self)
        if isinstance(t, PrimRef):
            # first-class use, e.g. (Filter IsEven xs)
            fn = self.prims.get(t.name)
            if fn is None:
                raise EvalError("unknown", f"unknown operation {t.name!r}")
            return _PrimValue(fn, self)
        if isinstance(t, Apply):
            args = [self.eval(a, env) for a in t.args]
            if isinstance(t.fn, PrimRef):
                fn = self.prims.get(t.fn.name)
                if fn is None:
                    raise EvalError("unknown", f"unknown operation {t.fn.name!r}")
                return check_value(self._invoke(fn, args), self.limits)
            fv = self.eval(t.fn, env)
            if not is_function_value(fv):
                raise EvalError("domain", "applying a non-function value")
            return check_value(fv(*args), self.limits)
        raise EvalError("unknown", f"not a term: {t!r}")

    def _invoke(self, fn, args):
        if type(fn) is LearnedOp:
            # evaluated as the inlined ((lam body) args) would be
            return self.eval(fn.body, [])(*args)
        return _call_prim(fn, args)


def evaluate(t: Term, inputs: Mapping[str, Value], limits: EvalLimits,
             prims: Mapping[str, Callable], ev: Optional[Evaluator] = None
             ) -> Value:
    """Call-by-value evaluation.  Raises EvalError on step/bound/domain
    failures; never crashes on well-formed terms.  `ev`, a fresh
    Evaluator(prims, inputs, limits), runs the evaluation when given, so
    the caller can read the steps it took from `ev.steps`."""
    if ev is None:
        ev = Evaluator(prims, inputs, limits)
    return check_value(ev.eval(t, []), limits)


def invoke_prim(fn: Callable, args, limits: EvalLimits,
                prims: Mapping[str, Callable],
                ev: Optional[Evaluator] = None) -> Value:
    """Apply one operation to already-evaluated argument values, with the
    same error conversion and result checking as the evaluator.

    With `ev` the call runs in that evaluator, as an Apply node applies its
    operation once its arguments are evaluated: a learned operation's body
    and the Closures `ev` made tick `ev.steps`, under its budget.  Without
    it, only a learned operation needs an evaluator (and a step budget) of
    its own; a primitive takes no steps."""
    if ev is None:
        if type(fn) is not LearnedOp:
            return check_value(_call_prim(fn, args), limits)
        ev = Evaluator(prims, {}, limits)
    return check_value(ev._invoke(fn, args), limits)
