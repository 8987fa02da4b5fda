"""The benchmark's view of the API: every gramrec name that perfbench/ uses
must exist, so that removing or renaming a function cannot silently break
the benchmark or its per-layer tracing (``--trace 1``)."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


# Collects every gramrec command line run.py builds: the pipeline of each
# workload, and the recommend and popularity-baseline calls its gates make
# (through a runner that records the argv and reports a failed command).
_COLLECT_ARGV = """
import json, sys, types
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
import gramrec.solver

argvs = []
for wl in run.WORKLOADS.values():
    argvs += run.pipeline(wl, 1, Path("raw.csv"), Path("in"), Path("out")).values()

class Recorder:
    def run(self, step, argv, log_dir, trace=None):
        argvs.append(argv)
        return run.CmdResult(step, 1, 0.0, 0.0, 0, Path("out") / step)

# recommend_gate reads the model file to pick a history; a stand-in does
model = types.SimpleNamespace(n_items=3)
gramrec.solver.load_model = lambda path: (model, ["a", "b", "c"])
run.recommend_gate(run.Gates(), Recorder(), Path("out"), "model.ease", False)
run.baseline_gate(run.Gates(), Recorder(), Path("out"), 1, 0.5)
print(json.dumps(argvs))
"""


def test_benchmark_command_lines_parse():
    # importing run.py sets the BLAS thread variables, so it runs apart
    res = subprocess.run([sys.executable, "-c", _COLLECT_ARGV, str(BENCH)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    argvs = json.loads(res.stdout)
    assert {argv[0] for argv in argvs[:-2]} >= {"ingest", "split", "train", "evaluate"}
    assert argvs[-2][0] == "recommend" and "--baseline" in argvs[-1]

    from gramrec.cli import build_parser

    parser = build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the benchmark's command line does not parse: {argv}")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Spans of each traced command run.py can trace, on a small timestamped
    log: a ``train`` grid, ``train-sparse``, ``evaluate`` of the sparse model
    and ``evaluate --time-intervals 2`` of the grid's dense model."""
    from conftest import run_cli

    tmp = tmp_path_factory.mktemp("traced")
    r = np.random.default_rng(3)
    rows = [f"u{u},i{i},1.0,{int(r.integers(0, 1000))}"
            for u in range(40) for i in sorted(r.choice(12, 5, replace=False))]
    data = tmp / "data.csv"
    data.write_text("user,item,value,timestamp\n" + "\n".join(rows) + "\n", encoding="utf-8")
    split = tmp / "split"
    res = run_cli(["split", "--data", str(data), "--output-dir", str(split),
                   "--n-val", "8", "--n-test", "8"])
    assert res.returncode == 0, res.stderr

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(BENCH.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    common = ["--data", str(data), "--split-dir", str(split)]
    commands = {
        "train": ["train", *common, "--lambda-grid", "1,10", "--output", str(tmp / "m.ease")],
        "train-sparse": ["train-sparse", *common, "--lambda", "1", "--threshold", "0.05",
                         "--output", str(tmp / "m.easp")],
        "evaluate": ["evaluate", *common, "--model", str(tmp / "m.easp")],
        "evaluate-time": ["evaluate", *common, "--model", str(tmp / "m.ease"),
                          "--time-intervals", "2"],
    }
    spans = {}
    for name, argv in commands.items():
        spans_path = tmp / f"{name}.json"
        res = subprocess.run(
            [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), "--", *argv],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        spans[name] = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    return spans


def test_traced_train_grid_spans(traced):
    """run.py reads the spans of a traced ``train``: ``gram.x_nnz`` indexes
    the first ``gram.build_gram`` span, and ``solver.invert_regularized_s``
    and the GFLOP/s rate add up ``solver.invert_regularized`` spans.  A
    grid that builds G for each lambda must still make them, inside
    ``cli.cmd_train``, and through the module globals the tracer patches."""
    spans = traced["train"]

    def under_train(span) -> bool:
        while span["parent"] is not None:
            span = spans[span["parent"]]
            if span["name"] == "cli.cmd_train":
                return True
        return False

    for name in ("gram.build_gram", "solver.invert_regularized", "solver.solve_zero_diag"):
        found = [s for s in spans if s["name"] == name]
        assert found and all(map(under_train, found)), name
    assert [s["x_nnz"] for s in spans if s["name"] == "gram.build_gram"][0] > 0
    assert all(s["n_items"] == 12 for s in spans if s["name"] == "solver.invert_regularized")
    grid = [s for s in spans if s["name"] == "evaluation.grid_search_lambda"]
    assert len(grid) == 1 and grid[0]["grid_points"] == 2


def test_traced_sparse_solves_nest_under_train_sparse(traced):
    """run.py reads the ``sparse.solve_blocks`` and ``sparse.aggregate_blocks``
    spans, and ``solver.invert_gflop_per_s`` and ``sparse.block_flop_computed``
    count one ``solver.invert_regularized`` span per block of
    ``sparse.block_partition``.  The blocks may be solved as the aggregation
    reads them, but each solve must still be one such span, inside
    ``sparse.train_sparse``."""
    spans = traced["train-sparse"]

    def under_train_sparse(span) -> bool:
        while span["parent"] is not None:
            span = spans[span["parent"]]
            if span["name"] == "sparse.train_sparse":
                return True
        return False

    names = [s["name"] for s in spans]
    assert "sparse.solve_blocks" in names and "sparse.aggregate_blocks" in names
    blocks = [s for s in spans if s["name"] == "sparse.block_partition"]
    inverts = [s for s in spans if s["name"] == "solver.invert_regularized"]
    assert len(blocks) == 1 and len(inverts) == blocks[0]["n_blocks"]
    assert all(map(under_train_sparse, inverts))


def test_every_traced_count_is_recorded(traced):
    """Each ``ATTRS`` entry reads the result of the function it names; a
    change to what that function returns would end ``--trace 1`` runs with
    an exception, so every entry must record its counts in some command."""
    sys.path.insert(0, str(BENCH))
    try:
        import trace_child
    finally:
        sys.path.remove(str(BENCH))
    base = {"name", "parent", "start", "end", "maxrss_kb"}
    every = [s for spans in traced.values() for s in spans]
    for name in trace_child.ATTRS:
        found = [s for s in every if s["name"] == name]
        assert found and all(set(s) > base for s in found), name

    sparse = {s["name"]: s for s in traced["train-sparse"]}
    assert sparse["sparse.threshold_pattern"]["pattern_nnz"] >= 12
    blocks = sparse["sparse.block_partition"]
    assert 1 <= blocks["n_blocks"] <= 12 and 1 <= blocks["max_block_items"] <= 12
    assert blocks["block_items"] >= 12 and blocks["block_flop"] >= blocks["block_items"]
    plain = {s["name"]: s for s in traced["evaluate"]}["evaluation.evaluate_model"]
    timed = {s["name"]: s for s in traced["evaluate-time"]}["evaluation.evaluate_time_aware"]
    for report in (plain, timed):
        assert report["users"] + report["skipped"] == 8 and report["users"] > 0
    assert timed["heldout_events"] == timed["users"]  # one of five events held out per user


def test_traced_train_on_ingested_data_records_one_load(tmp_path):
    """``data.rows_per_s`` divides the ``events`` of each non-ingest
    ``data.load_interactions`` span by its time; a load that reads the
    event container ``ingest`` wrote must still be one such span, counting
    every row of the canonical CSV."""
    from conftest import run_cli

    r = np.random.default_rng(4)
    rows = [f"u{u},i{i},{int(r.integers(1, 6))},{int(r.integers(0, 1000))}"
            for u in range(40) for i in r.choice(12, 5, replace=False)]
    raw = tmp_path / "raw.csv"
    raw.write_text("user,item,value,timestamp\n" + "\n".join(rows) + "\n", encoding="utf-8")
    data, split = tmp_path / "data.csv", tmp_path / "split"
    for argv in (["ingest", "--input", str(raw), "--output", str(data)],
                 ["split", "--data", str(data), "--output-dir", str(split),
                  "--n-val", "8", "--n-test", "8"]):
        res = run_cli(argv)
        assert res.returncode == 0, res.stderr
    assert (tmp_path / "data.csv.events").is_file()
    n_rows = len(data.read_text(encoding="utf-8").splitlines()) - 1

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(BENCH.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    spans_path = tmp_path / "train.json"
    res = subprocess.run(
        [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), "--", "train",
         "--data", str(data), "--split-dir", str(split), "--lambda", "1",
         "--output", str(tmp_path / "m.ease")],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    loads = [s for s in spans if s["name"] == "data.load_interactions"]
    assert len(loads) == 1 and loads[0]["events"] == n_rows == 200


def test_model_file_bytes_the_benchmark_reads_and_edits(tmp_path):
    """``run.py`` reads n from bytes 8-16 of ``model.ease``, and
    ``test_perfbench.py`` adds 0.5 to its second-to-last float64 and expects
    the stationarity gate, which loads the file unverified and reads
    ``model.b``, to see B change off the diagonal."""
    from conftest import binary_matrix
    from gramrec import DataError, build_gram, load_model, save_model, solve_zero_diag

    n = 7
    model = solve_zero_diag(build_gram(binary_matrix(np.random.default_rng(2), 30, n)), 5.0)
    path = tmp_path / "model.ease"
    save_model(path, model)
    raw = bytearray(path.read_bytes())
    assert int(np.frombuffer(raw[8:16], "<u8")[0]) == n
    weight = np.frombuffer(raw[-16:-8], "<f8")[0]
    raw[-16:-8] = np.float64(weight + 0.5).astype("<f8").tobytes()
    path.write_bytes(bytes(raw))
    b = load_model(path)[0].b
    changed = np.argwhere(b != model.b)
    assert len(changed) and np.all(changed[:, 0] != changed[:, 1])
    assert np.all(np.diag(b) == 0.0)
    with pytest.raises(DataError, match="sha256"):
        load_model(path, verify=True)
