"""Every private helper of the library has a caller.

A private name (one leading underscore) defined at module or class level in
``src/copz`` must occur at least twice across the package: where it is
defined, and once where it is used.  Imports do not count as uses, so a
helper imported but never called still fails.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "copz"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(body):
    """Names a module or class body binds: functions, classes and assignment targets."""
    for node in body:
        if isinstance(node, _DEFS):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _occurrences(tree):
    """Every identifier in the tree, defined or used, imports left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, _DEFS):
            yield node.name


def test_every_private_name_is_used():
    counts = Counter()
    private = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        counts.update(_occurrences(tree))
        bodies = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        for body in bodies:
            for name in _defined(body):
                if _is_private(name):
                    private.setdefault(name, path.name)
    assert private, "no private names found: the source path is wrong"
    unused = sorted(f"{where}: {name}" for name, where in private.items() if counts[name] < 2)
    assert not unused, unused
