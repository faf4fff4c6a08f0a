"""Operation registry: the evolving language of primitives, constants and
learned abstractions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .lang import (
    INT, BOOL, INT_LIST, Arrow, Term, Lam, ConstInt, ConstBool, ConstList,
    EvalLimits, EvalError, LangError, LearnedOp, evaluate, format_term,
    infer_type, parse_term, parse_type,
)


@dataclass(frozen=True)
class LearnedAbstraction:
    """Provenance record for an operation mined from solved programs."""
    body: Term  # a Lam of the operation's arity
    iteration_found: int = 0


@dataclass(frozen=True)
class Operation:
    name: str
    signature: Arrow
    func: Callable
    provenance: object = "primitive"  # "primitive" | LearnedAbstraction

    @property
    def arity(self) -> int:
        return len(self.signature.params)

    @property
    def is_learned(self) -> bool:
        return isinstance(self.provenance, LearnedAbstraction)


@dataclass(frozen=True)
class DSLibrary:
    operations: tuple
    constants: tuple  # of (literal Term, Ty)
    version: int = 0

    def __post_init__(self):
        object.__setattr__(self, "operations", tuple(self.operations))
        object.__setattr__(self, "constants", tuple(self.constants))

    def op(self, name: str) -> Operation:
        for o in self.operations:
            if o.name == name:
                return o
        raise KeyError(name)

    def has_op(self, name: str) -> bool:
        return any(o.name == name for o in self.operations)

    def symbol_types(self) -> dict:
        return {o.name: o.signature for o in self.operations}

    def prims(self) -> dict:
        return {o.name: o.func for o in self.operations}

    def op_names(self):
        return [o.name for o in self.operations]


# ---------------------------------------------------------------------------
# The bundled integer-list DSL
# ---------------------------------------------------------------------------

_LIST_CAP = 1024  # defensive cap for constructors like Range


def _access(xs, i):
    if i < 0 or i >= len(xs):
        raise EvalError("domain", f"index {i} out of range")
    return xs[i]


def _range(a, b):
    if b - a > _LIST_CAP:
        raise EvalError("bounds", f"range of {b - a} elements too long")
    return list(range(a, b))


def _scanl1(f, xs):
    out = []
    acc = None
    for i, x in enumerate(xs):
        acc = x if i == 0 else f(acc, x)
        out.append(acc)
    return out


def _count(p, xs):
    n = 0
    for x in xs:
        if p(x):
            n += 1
    return n


_INT2 = Arrow((INT, INT), INT)
_F_II = Arrow((INT,), INT)
_F_IB = Arrow((INT,), BOOL)
_F_III = Arrow((INT, INT), INT)

_PRIMITIVES = [
    ("Add", _INT2, lambda a, b: a + b),
    ("Subtract", _INT2, lambda a, b: a - b),
    ("Multiply", _INT2, lambda a, b: a * b),
    ("Min", _INT2, min),
    ("Max", _INT2, max),
    ("Head", Arrow((INT_LIST,), INT), lambda xs: _access(xs, 0)),
    ("Last", Arrow((INT_LIST,), INT), lambda xs: _access(xs, len(xs) - 1)),
    ("Take", Arrow((INT_LIST, INT), INT_LIST), lambda xs, n: xs[:n]),
    ("Drop", Arrow((INT_LIST, INT), INT_LIST), lambda xs, n: xs[n:]),
    ("Access", Arrow((INT_LIST, INT), INT), _access),
    ("Reverse", Arrow((INT_LIST,), INT_LIST), lambda xs: xs[::-1]),
    ("Sort", Arrow((INT_LIST,), INT_LIST), sorted),
    ("Sum", Arrow((INT_LIST,), INT), sum),
    ("Length", Arrow((INT_LIST,), INT), len),
    ("Append", Arrow((INT_LIST, INT), INT_LIST), lambda xs, x: xs + [x]),
    ("Concat", Arrow((INT_LIST, INT_LIST), INT_LIST), lambda xs, ys: xs + ys),
    ("Range", Arrow((INT, INT), INT_LIST), _range),
    ("IsEven", _F_IB, lambda x: x % 2 == 0),
    ("IsPositive", Arrow((INT,), BOOL), lambda x: x > 0),
    ("Map", Arrow((_F_II, INT_LIST), INT_LIST), lambda f, xs: [f(x) for x in xs]),
    ("Filter", Arrow((_F_IB, INT_LIST), INT_LIST),
     lambda p, xs: [x for x in xs if p(x)]),
    ("Count", Arrow((_F_IB, INT_LIST), INT), _count),
    ("ZipWith", Arrow((_F_III, INT_LIST, INT_LIST), INT_LIST),
     lambda f, xs, ys: [f(a, b) for a, b in zip(xs, ys)]),
    ("Scanl1", Arrow((_F_III, INT_LIST), INT_LIST), _scanl1),
]

_DEFAULT_CONSTANTS = [
    (ConstInt(0), INT),
    (ConstInt(1), INT),
    (ConstInt(2), INT),
    (ConstInt(-1), INT),
    (ConstBool(True), BOOL),
    (ConstBool(False), BOOL),
    (ConstList(()), INT_LIST),
]


def default_list_dsl() -> DSLibrary:
    """The bundled integer-list DSL: first-order list/arithmetic operations,
    higher-order Map/Filter/Count/ZipWith/Scanl1, and small constants."""
    ops = tuple(Operation(n, sig, fn) for n, sig, fn in _PRIMITIVES)
    return DSLibrary(ops, tuple(_DEFAULT_CONSTANTS), version=0)


# ---------------------------------------------------------------------------
# Extension with mined abstractions
# ---------------------------------------------------------------------------

def abstraction_func(body: Lam, prims: dict) -> LearnedOp:
    """Executable semantics for a learned abstraction: apply its body lambda.

    The evaluator that invokes the operation runs the body itself, under
    its own limits, step budget and primitives (see lang.LearnedOp)."""
    return LearnedOp(body, prims)


def extend_with_abstraction(lib: DSLibrary, abstraction,
                            iteration: int = 0) -> DSLibrary:
    """Return a new library (version + 1) containing the abstraction as an
    operation, or as a literal constant when it has no parameters."""
    name = abstraction.name
    if lib.has_op(name):
        raise LangError(f"operation name collision: {name!r}")
    body = abstraction.body
    sig = abstraction.signature
    if abstraction.arity == 0:
        literal = zero_arity_literal(body, lib)
        if literal is None:
            raise LangError("zero-arity abstraction does not evaluate to a "
                            "literal constant")
        if any(c == (literal, sig) for c in lib.constants):
            raise LangError(f"duplicate constant {format_term(literal)}")
        return DSLibrary(lib.operations, lib.constants + ((literal, sig),),
                         lib.version + 1)
    if not isinstance(body, Lam) or body.arity != len(sig.params):
        raise LangError("abstraction body must be a lambda of its arity")
    # body must typecheck at the declared signature
    infer_type(body, {}, lib.symbol_types(), expected=sig)
    op = Operation(name, sig, abstraction_func(body, lib.prims()),
                   provenance=LearnedAbstraction(body, iteration))
    return DSLibrary(lib.operations + (op,), lib.constants, lib.version + 1)


def zero_arity_literal(body: Term, lib: DSLibrary) -> Optional[Term]:
    """The literal constant a zero-arity abstraction with this body adds to
    `lib`, or None when its value has no literal form.  Evaluation errors
    propagate."""
    return _value_to_literal(evaluate(body, {}, EvalLimits(), lib.prims()))


def _value_to_literal(value) -> Optional[Term]:
    if isinstance(value, bool):
        return ConstBool(value)
    if isinstance(value, int):
        return ConstInt(value)
    if isinstance(value, list):
        return ConstList(tuple(value))
    return None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_dsl(lib: DSLibrary):
    """Return a list of violation strings; empty means the library is sound."""
    violations = []
    seen = set()
    for op in lib.operations:
        if op.name in seen:
            violations.append(f"duplicate operation name {op.name!r}")
        seen.add(op.name)
        if not isinstance(op.signature, Arrow):
            violations.append(f"operation {op.name!r} lacks an arrow signature")
        if not callable(op.func):
            violations.append(f"operation {op.name!r} has no executable semantics")
        if op.is_learned:
            body = op.provenance.body
            try:
                infer_type(body, {}, lib.symbol_types(), expected=op.signature)
            except LangError as e:
                violations.append(f"abstraction {op.name!r} body ill-typed: {e}")
    seen_consts = set()
    for literal, ty in lib.constants:
        key = (literal, ty)
        if key in seen_consts:
            violations.append(f"duplicate constant {format_term(literal)}")
        seen_consts.add(key)
        try:
            got = infer_type(literal, {}, lib.symbol_types())
        except LangError as e:
            violations.append(f"constant {format_term(literal)} ill-typed: {e}")
            continue
        if got != ty:
            violations.append(
                f"constant {format_term(literal)} declared {ty!r} but is {got!r}")
    return violations


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_FORMAT_ID = "pbesynth-lib 1"


def save_library(lib: DSLibrary, path) -> None:
    lines = [f"format: {_FORMAT_ID}", f"version: {lib.version}"]
    for literal, ty in lib.constants:
        lines.append(f"const {format_term(literal)} : {ty!r}")
    for op in lib.operations:
        if op.is_learned:
            body = format_term(op.provenance.body)
            it = op.provenance.iteration_found
            lines.append(f"op {op.name} : {op.signature!r} = {body} ; iter {it}")
        else:
            lines.append(f"op {op.name} : {op.signature!r} = primitive")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_library(path) -> DSLibrary:
    """Load a library file.  Primitive semantics are resolved by name against
    the bundled list DSL's primitives.  A library that validate_dsl finds
    unsound raises LangError."""
    registry = {n: (sig, fn) for n, sig, fn in _PRIMITIVES}
    with open(path) as fh:
        raw = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in raw if ln.strip()]
    if not lines or not lines[0].startswith("format:"):
        raise LangError("malformed library file: missing format header")
    if lines[0].split(":", 1)[1].strip() != _FORMAT_ID:
        raise LangError(f"unsupported library format: {lines[0]!r}")
    if len(lines) < 2 or not lines[1].startswith("version:"):
        raise LangError("malformed library file: missing version")
    version = int(lines[1].split(":", 1)[1])
    constants = []
    ops = []
    learned_specs = []
    for ln in lines[2:]:
        if ln.startswith("const "):
            body, tytext = ln[len("const "):].rsplit(":", 1)
            ty = parse_type(tytext)
            literal = parse_term(body.strip(), primitives=(), input_names=())
            constants.append((literal, ty))
        elif ln.startswith("op "):
            head, rhs = ln[len("op "):].split("=", 1)
            name, tytext = head.split(":", 1)
            name = name.strip()
            sig = parse_type(tytext)
            rhs = rhs.split(";")[0].strip()
            iteration = 0
            if ";" in ln and "iter" in ln.rsplit(";", 1)[1]:
                iteration = int(ln.rsplit("iter", 1)[1])
            if rhs == "primitive":
                if name not in registry:
                    raise LangError(f"unknown primitive {name!r}")
                reg_sig, fn = registry[name]
                if reg_sig != sig:
                    raise LangError(f"primitive {name!r} signature mismatch")
                ops.append(Operation(name, sig, fn))
            else:
                learned_specs.append((name, sig, rhs, iteration))
        else:
            raise LangError(f"malformed library line: {ln!r}")
    lib = DSLibrary(tuple(ops), tuple(constants), version=0)
    # learned ops may reference earlier learned ops; add in file order
    for name, sig, body_text, iteration in learned_specs:
        body = parse_term(body_text, primitives=set(lib.op_names()), input_names=())
        op = Operation(name, sig, abstraction_func(body, lib.prims()),
                       provenance=LearnedAbstraction(body, iteration))
        lib = DSLibrary(lib.operations + (op,), lib.constants, lib.version)
    violations = validate_dsl(lib)
    if violations:
        raise LangError(f"invalid library {path}: " + "; ".join(violations))
    return DSLibrary(lib.operations, lib.constants, version)
