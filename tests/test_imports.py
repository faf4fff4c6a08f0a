"""The runtime stays stdlib-only: the package imports nothing else."""

import ast
import sys
from pathlib import Path

import pbesynth

SRC = Path(pbesynth.__file__).parent


def _absolute_imports(path):
    """(line, top-level module name) of each absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 5
    outside = [f"{p.relative_to(SRC)}:{line}: {name}"
               for p in modules for line, name in _absolute_imports(p)
               if name not in sys.stdlib_module_names]
    assert outside == []
