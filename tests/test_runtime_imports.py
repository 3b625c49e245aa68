"""The runtime stays numpy-only: every module of the package imports only
itself, the standard library and numpy (test and benchmark tools such as
pytest, hypothesis, networkx or scipy must never become runtime needs)."""

import ast
import sys
from pathlib import Path

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
SOURCES = sorted((Path(__file__).parents[1] / "src" / "pathsage").glob("*.py"))


def _imports(tree):
    """-> (line, top-level module) of every absolute import in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_are_relative_stdlib_or_numpy():
    assert len(SOURCES) > 10
    bad = [f"{path.name}:{line}: {module}"
           for path in SOURCES
           for line, module in _imports(ast.parse(path.read_text(), str(path)))
           if module not in ALLOWED]
    assert not bad, bad
