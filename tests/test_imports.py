"""The runtime stays stdlib-only: the package imports nothing else; one
clock reads the host's time; and the thread pool is imported only where
it is made."""

import ast
import os
import subprocess
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


def _time_uses(node, cls=None):
    """The enclosing class's name, or None, of each import of the time
    module and each use of the name `time` under `node`."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, ast.Name) and node.id == "time" or \
            isinstance(node, ast.Import) and \
            any(a.name == "time" for a in node.names) or \
            isinstance(node, ast.ImportFrom) and node.module == "time":
        yield cls
    for child in ast.iter_child_nodes(node):
        yield from _time_uses(child, cls)


def test_only_the_search_clock_reads_the_time():
    # a virtual-clock run reads no host clock: every reading is in
    # synthesis._Clock, and the one use outside it is the import
    places = [(str(p.relative_to(SRC)), cls)
              for p in sorted(SRC.rglob("*.py"))
              for cls in _time_uses(ast.parse(p.read_text()))]
    assert places.count(("synthesis.py", None)) == 1
    assert set(places) == {("synthesis.py", None), ("synthesis.py", "_Clock")}


def test_importing_the_harness_does_not_import_the_thread_pool():
    # run_wake imports concurrent.futures only for workers > 1, so a run
    # that never asks for the pool does not pay for its import
    probe = ("import sys, pbesynth.harness; "
             "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout == "False\n"
