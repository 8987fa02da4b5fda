"""The benchmark's view of the API: every gramrec name that perfbench/ uses
must exist, so that removing or renaming a function cannot silently break
the benchmark or its per-layer tracing (``--trace 1``)."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _gramrec_imports():
    """(file, module, name) for each gramrec import in perfbench/*.py, read
    from the source with ast so no benchmark code runs; name is None for a
    plain ``import gramrec.x``."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gramrec":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "gramrec"]
    return sorted(set(found), key=str)


IMPORTS = _gramrec_imports()


def test_perfbench_imports_gramrec():
    assert {f for f, _, _ in IMPORTS} >= {"run.py", "trace_child.py"}


@pytest.mark.parametrize("source,module,name", IMPORTS,
                         ids=[f"{f}:{m}.{n or '*'}" for f, m, n in IMPORTS])
def test_perfbench_import_resolves(source, module, name):
    mod = importlib.import_module(module)
    if name is not None:
        assert hasattr(mod, name), f"{source} imports {name} from {module}"


def test_traced_functions_resolve():
    sys.path.insert(0, str(BENCH))
    try:
        import trace_child
    finally:
        sys.path.remove(str(BENCH))
    missing = [f"{layer}.{fname}" for layer, names in trace_child.TRACED.items()
               for fname in names if not callable(getattr(trace_child.MODULES[layer], fname, None))]
    assert not missing, f"traced names missing from gramrec: {missing}"
