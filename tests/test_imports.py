"""The package's modules import one another without a cycle."""

import ast
from pathlib import Path

import gramrec

PACKAGE = Path(gramrec.__file__).parent


def _package_imports() -> dict[str, set[str]]:
    """Module name -> the package modules it imports with ``from .x import``
    or ``from . import x``, wherever the statement stands, inside
    functions and ``TYPE_CHECKING`` blocks included."""
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    graph = {}
    for name, path in modules.items():
        edges = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                edges |= {t.split(".")[0] for t in targets} & modules.keys()
        graph[name] = edges - {name}
    return graph


def test_package_imports_are_acyclic():
    graph = _package_imports()
    assert graph["weighting"] >= {"solver"}  # the scan sees imports
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(f"import cycle: {' -> '.join(path[path.index(name):] + [name])}")
        if name not in done:
            path.append(name)
            for target in sorted(graph[name]):
                visit(target)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)
