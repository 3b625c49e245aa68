"""Every top-level function and class of the package, and every method, is
used somewhere in the package other than where it is defined: code that
only the tests call belongs in `tests/`, and code nothing calls goes.

The check is by name, over the AST of `src/pathsage`: a definition counts
as used when any module there names it (a bare name or an attribute)
outside the definition's own lines. Exempt are dunders, which Python calls;
`_Parser.error`, the override argparse calls; and the names the benchmark's
tracer binds (`perfbench/tracer.py`'s `_TARGETS` and `AUTOGRAD_OPS`), which
read from the tracer so that the exemptions shrink as it stops binding
them."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "pathsage").glob("*.py"))
CALLED_BY_ARGPARSE = {("_Parser", "error")}

sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402


def _definitions(tree):
    """-> (first line, last line, owner class or None, name) of each
    top-level function and class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.end_lineno, None, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((item.lineno, item.end_lineno, node.name, item.name)
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _uses(tree):
    """-> (line, name) of every bare name and attribute in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def test_every_definition_is_used_in_the_package():
    assert len(SOURCES) > 10
    pinned = set(tracer.AUTOGRAD_OPS) | {attr for bindings in tracer._TARGETS.values()
                                         for _, attr in bindings}
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    uses = {}  # name -> every (module, line) that names it
    for module, tree in trees.items():
        for line, name in _uses(tree):
            uses.setdefault(name, set()).add((module, line))

    def used_elsewhere(module, first, last, name):
        return any(m != module or not first <= line <= last
                   for m, line in uses.get(name, ()))

    unused = [f"{module}:{first}: {owner + '.' if owner else ''}{name}"
              for module, tree in trees.items()
              for first, last, owner, name in _definitions(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and (owner, name) not in CALLED_BY_ARGPARSE and name not in pinned
              and not used_elsewhere(module, first, last, name)]
    assert not unused, unused
