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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reaches(source: str) -> list[str]:
    """The private names of other package modules that ``source`` takes:
    ``from .x import _name`` (or ``from gramrec.x import _name``), and
    ``x._name`` for a module ``x`` bound by ``from . import x``."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "gramrec"):
            if node.module in (None, "gramrec"):
                modules |= {a.asname or a.name for a in node.names}
            else:
                found += [f"from {node.module} import {a.name}" for a in node.names
                          if _private(a.name)]
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)]
    return found


def test_no_module_takes_another_modules_private_names():
    # the scan sees both ways in
    assert _private_reaches("from . import packed\nfrom .data import a, _b\npacked._blocks(g)\n"
                            "packed.size(3)\nfrom .files import __doc__\n") == [
        "from data import _b", "packed._blocks"]
    reaches = {path.stem: _private_reaches(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in reaches.items() if found} == {}
