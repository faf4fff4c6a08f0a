"""Tasks: named input/output example sets, plus the task file format.

Task files are plain text.  One block per task, blocks separated by blank
lines, ``#`` starts a comment line::

    name: double-evens
    inputs: xs:IntList
    ex: xs=[1,2,3,4] -> [4,8]
    ex: xs=[2,5] -> [4]
    solution: (Map (lam (Multiply $0 2)) (Filter IsEven xs))

Values are integer literals, ``true``/``false``, or ``[1,2,3]`` lists.
The ``solution`` line is optional reference metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .lang import INT, BOOL, INT_LIST, LangError, Ty, canon_value, parse_type


class TaskFormatError(Exception):
    pass


@dataclass(frozen=True)
class Task:
    name: str
    input_types: tuple  # of (name, Ty), declaration order
    examples: tuple  # of (inputs: dict name->value, output)
    solution: Optional[str] = None

    def __post_init__(self):
        if not self.examples:
            raise TaskFormatError(f"task {self.name!r} has no examples")
        declared = {n for n, _ in self.input_types}
        for inputs, _ in self.examples:
            if set(inputs) != declared:
                raise TaskFormatError(
                    f"task {self.name!r}: example binds {sorted(inputs)}, "
                    f"declared {sorted(declared)}")
        out_tys = {value_type(o) for _, o in self.examples}
        if len(out_tys) != 1:
            raise TaskFormatError(f"task {self.name!r}: outputs mix types")

    @property
    def input_type_map(self) -> dict:
        return dict(self.input_types)

    @property
    def output_type(self) -> Ty:
        return value_type(self.examples[0][1])

    @property
    def outputs(self):
        return tuple(o for _, o in self.examples)

    @cached_property
    def output_sig(self) -> tuple:
        """The outputs in signature form (lang.canon_value): a value
        signature ("v", outcomes) solves the task when its outcomes equal
        this."""
        return tuple(canon_value(o) for o in self.outputs)


def value_type(v) -> Ty:
    if isinstance(v, bool):
        return BOOL
    if isinstance(v, int):
        return INT
    if isinstance(v, list):
        return INT_LIST
    raise TaskFormatError(f"unsupported value {v!r}")


def parse_value(text: str):
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].replace(",", " ").split()
        try:
            return [int(x) for x in inner]
        except ValueError:
            raise TaskFormatError(f"bad list literal {text!r}") from None
    try:
        return int(text)
    except ValueError:
        raise TaskFormatError(f"bad value literal {text!r}") from None


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[" + ",".join(str(x) for x in v) + "]"
    return str(v)


def _split_commas(text: str):
    """Split on top-level commas (not inside brackets)."""
    parts, depth, cur = [], 0, []
    for c in text:
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_tasks(text: str):
    """Parse every task block in `text`."""
    tasks = []
    block: list = []
    for raw in text.splitlines() + [""]:
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            block.append(line.strip())
        elif block:
            tasks.append(_parse_block(block))
            block = []
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise TaskFormatError("duplicate task names in file")
    return tasks


def _parse_block(lines) -> Task:
    name = None
    input_types = []
    examples = []
    solution = None
    for ln in lines:
        if ":" not in ln:
            raise TaskFormatError(f"bad task line {ln!r}")
        key, rest = ln.split(":", 1)
        key = key.strip()
        rest = rest.strip()
        if key == "name":
            name = rest
        elif key == "inputs":
            for decl in _split_commas(rest):
                if ":" not in decl:
                    raise TaskFormatError(f"bad input declaration {decl!r}")
                vname, tytext = decl.split(":", 1)
                try:
                    ty = parse_type(tytext)
                except LangError as e:
                    raise TaskFormatError(str(e)) from None
                input_types.append((vname.strip(), ty))
        elif key == "ex":
            if "->" not in rest:
                raise TaskFormatError(f"example missing '->': {ln!r}")
            left, right = rest.rsplit("->", 1)
            inputs = {}
            for binding in _split_commas(left):
                if "=" not in binding:
                    raise TaskFormatError(f"bad binding {binding!r}")
                vname, vtext = binding.split("=", 1)
                inputs[vname.strip()] = parse_value(vtext)
            examples.append((inputs, parse_value(right)))
        elif key == "solution":
            solution = rest
        else:
            raise TaskFormatError(f"unknown task field {key!r}")
    if name is None:
        raise TaskFormatError("task block without a name")
    task = Task(name, tuple(input_types), tuple(examples), solution)
    for (vname, ty) in input_types:
        for inputs, _ in examples:
            if value_type(inputs[vname]) != ty:
                raise TaskFormatError(
                    f"task {name!r}: input {vname!r} not of declared type {ty!r}")
    return task


def load_tasks(path):
    with open(path) as fh:
        return parse_tasks(fh.read())


def save_tasks(tasks, path) -> None:
    blocks = []
    for t in tasks:
        lines = [f"name: {t.name}"]
        decls = ", ".join(f"{n}:{ty!r}" for n, ty in t.input_types)
        lines.append(f"inputs: {decls}")
        for inputs, output in t.examples:
            left = ", ".join(f"{n}={format_value(inputs[n])}"
                             for n, _ in t.input_types)
            lines.append(f"ex: {left} -> {format_value(output)}")
        if t.solution:
            lines.append(f"solution: {t.solution}")
        blocks.append("\n".join(lines))
    with open(path, "w") as fh:
        fh.write("\n\n".join(blocks) + "\n")
