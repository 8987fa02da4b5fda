"""Benchmark of the gramrec CLI pipeline, end to end and per layer.

    python3 perfbench/run.py --workload wide-dense --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is taken from ./src.
The benchmark generates the workload's raw log from the seed (untimed),
then runs the pipeline once

    ingest -> split -> train -> train-sparse -> rescale -> evaluate
           -> evaluate --time-intervals

each command in its own child process with one BLAS thread.  Until about
--seconds have passed it then times more samples of each timed unit
(UNITS: ingest + split, train, train-sparse, and both evaluate runs) on
the first pass's inputs, always the unit with the least time measured so
far, so that every end-to-end time rests on about the same measured time.
A unit's time is its commands' CPU time (user + system, from os.wait4),
which unlike wall time does not grow while another tenant of a shared
host holds the core, scaled by host_probe() to a reference host speed;
it reports medians over the samples.  It checks the first pass's outputs
(see gates_for()) and that every run of a command wrote the same bytes;
every failed command or gate counts in `failed`.

--trace 0 reports the end-to-end metrics, measured outside the children
with tracing off.  --trace 1 also runs one pass through trace_child.py, which
records a span around every layer call, and reports the per-layer metrics,
the tracing overhead against the untraced samples and each layer's share
of each end-to-end time.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, named and with units as in BENCHMARK.json.  A record with
provenance, every sample and the spans is written to .perfbench/results/.
Without ./src/gramrec the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
# One process at a time runs, with one BLAS thread: a command's CPU time is
# then its own work, without the spin-waiting of idle BLAS threads, and does
# not grow when another tenant takes a core.
THREAD_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402  (thread settings must precede the import)

sys.path.insert(0, str(HERE))
from generate import GenParams, generate, write_csv  # noqa: E402

COMMAND_TIMEOUT_S = 150
MIN_SAMPLES = 2  # per unit; the byte-determinism gate compares them
BASELINE_SAMPLES = 5
PROBE_REF_S = 0.05  # CPU time of host_probe() on the reference host
RESIDUAL_TOL = 1e-8  # stationarity residual, relative to max |G|
RECOMMEND_TOP_K = 10


@dataclass(frozen=True)
class Workload:
    gen: GenParams
    ingest: tuple[str, ...]  # ingest options beyond the column mapping
    holdout: int  # validation users = test users = holdout
    train: tuple[str, ...]
    sparse: tuple[str, ...]
    intervals: int


def option(options: tuple[str, ...], flag: str) -> float | None:
    """The value of a command-line flag in an option tuple, if present."""
    return float(options[options.index(flag) + 1]) if flag in options else None


# Why each workload is there is stated in BENCHMARK.json; the measured share
# of each layer per command is in README.md.
WORKLOADS = {
    "wide-dense": Workload(
        gen=GenParams(n_users=5000, n_items=2000, events_per_user=14, n_communities=40,
                      community_items=(25, 250), overlap=0.3, in_community=0.9,
                      community_pop_exponent=1.0),
        ingest=("--min-user-events", "3"),
        holdout=1500,
        train=("--lambda-grid", "300"),
        sparse=("--lambda", "300", "--threshold", "0.03", "--n-max", "300"),
        intervals=4,
    ),
    "tall-ratings": Workload(
        gen=GenParams(n_users=20000, n_items=250, events_per_user=12, n_communities=12,
                      community_items=(5, 40), ratings=True, duplicate_rate=0.1),
        ingest=("--value-col", "rating", "--min-value", "3.5", "--dedup", "keep_max",
                "--min-user-events", "5", "--binarize"),
        holdout=2000,
        train=("--lambda-grid", "100,400,1600"),
        sparse=("--lambda", "200", "--threshold", "0.1", "--n-max", "100"),
        intervals=8,
    ),
}


def smoke(wl: Workload) -> Workload:
    """The same workload at a size that runs in a few seconds."""
    gen = replace(wl.gen, n_users=400, n_items=min(wl.gen.n_items, 120),
                  n_communities=min(wl.gen.n_communities, 8),
                  community_items=(4, min(wl.gen.community_items[1], 30)))
    return replace(wl, gen=gen, holdout=40)


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class CmdResult:
    step: str
    code: int
    wall_s: float
    cpu_s: float  # user + system time of the child
    maxrss_kb: int
    stdout: Path


class Runner:
    """Starts one child at a time from the checkout root, through spawner.py,
    and returns its exit code, wall time, CPU time and peak RSS."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def run(self, step: str, argv: list[str], log_dir: Path, trace: Path | None = None) -> CmdResult:
        if trace is None:
            cmd = [sys.executable, "-m", "gramrec", *argv]
        else:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(trace), "--", *argv]
        return self.spawn(step, cmd, log_dir)

    def spawn(self, step: str, cmd: list[str], log_dir: Path) -> CmdResult:
        out = log_dir / f"{step}.out"
        request = {"cmd": cmd, "cwd": str(self.root), "env": self.env, "stdout": str(out),
                   "stderr": str(log_dir / f"{step}.err"), "timeout": COMMAND_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        return CmdResult(step, reply["code"], reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"], out)


def pipeline(wl: Workload, seed: int, raw: Path, src: Path, out: Path) -> dict[str, list[str]]:
    """The workload's commands in order, step name -> argv.  Each reads the
    canonical data, split and dense model from directory src and writes its
    output into directory out; src == out chains them."""
    data = ["--data", str(src / "data.csv"), "--split-dir", str(src / "split"), "--seed", str(seed)]
    return {
        "ingest": ["ingest", "--input", str(raw), "--output", str(out / "data.csv"),
                   "--user-col", "userId", "--item-col", "movieId", "--time-col", "timestamp",
                   *wl.ingest],
        "split": ["split", "--data", str(src / "data.csv"), "--output-dir", str(out / "split"),
                  "--n-val", str(wl.holdout), "--n-test", str(wl.holdout), "--seed", str(seed)],
        "train": ["train", *data, *wl.train, "--output", str(out / "model.ease")],
        "train-sparse": ["train-sparse", *data, "--binarize", *wl.sparse,
                         "--output", str(out / "model.easp")],
        "rescale": ["rescale", *data, "--model", str(src / "model.ease"), "--mode", "remove-pop",
                    "--output", str(out / "model.rescaled")],
        "evaluate": ["evaluate", *data, "--model", str(src / "model.ease"),
                     "--report-json", str(out / "report.json")],
        "evaluate-time": ["evaluate", *data, "--model", str(src / "model.ease"),
                          "--time-intervals", str(wl.intervals),
                          "--report-json", str(out / "report_time.json")],
    }


# What each step writes; every sample of a step must write the same bytes.
OUTPUTS = {"ingest": "data.csv", "split": "split", "train": "model.ease",
           "train-sparse": "model.easp", "rescale": "model.rescaled",
           "evaluate": "report.json", "evaluate-time": "report_time.json"}

# The timed units: end-to-end time metric -> the steps it times together.
# `rescale` is left out: start-up and parsing are most of its time, which
# the other units measure, and every unit less leaves more samples for the
# rest of the window.
UNITS = {
    "setup_s": ("ingest", "split"),
    "train_s": ("train",),
    "train_sparse_s": ("train-sparse",),
    "evaluate_s": ("evaluate", "evaluate-time"),  # both evaluation protocols
}
UNTIMED = [s for s in OUTPUTS if not any(s in steps for steps in UNITS.values())]


def output_digest(path: Path) -> str:
    """sha256 of a file, or of a directory's files in name order."""
    h = hashlib.sha256()
    for f in sorted(path.iterdir()) if path.is_dir() else [path]:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Correctness gates (in this process, untimed)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_keys(path: Path) -> list[str]:
    return [k for k in path.read_text().splitlines() if k]


def _train_matrix(d: Path, item_keys: list[str]):
    """Training-user rows of the canonical CSV, parsed here independently of
    gramrec, with columns in the model's item order."""
    import scipy.sparse as sp

    train = {k: i for i, k in enumerate(_read_keys(d / "split" / "train_users.txt"))}
    item_pos = {k: i for i, k in enumerate(item_keys)}
    rows, cols, vals = [], [], []
    with (d / "data.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        u, i, v = header.index("user"), header.index("item"), header.index("value")
        for row in reader:
            r = train.get(row[u])
            if r is not None:
                rows.append(r)
                cols.append(item_pos[row[i]])
                vals.append(float(row[v]))
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(train), len(item_keys)))


class Gates:
    """Named pass/fail checks; each failure counts once in `failed`."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def dense_model_gates(gates: Gates, d: Path) -> dict:
    """diag(B) == 0 exactly, and the zero-diagonal stationarity condition
    ((G + lam I) B - G)_ij = 0 for i != j, on every column."""
    from gramrec.errors import GramrecError
    from gramrec.solver import load_model

    try:
        model, keys = load_model(d / "model.ease")
    except GramrecError as exc:
        gates.check("dense_model_loads", False, str(exc))
        return {}
    b = model.b
    gates.check("dense_diag_zero", bool(np.all(np.diag(b) == 0.0)))
    x = _train_matrix(d, keys)
    g = (x.T @ x).toarray()
    r = np.asarray(x.T @ (x @ b)) + model.lam * b - g
    np.fill_diagonal(r, 0.0)
    residual = float(np.max(np.abs(r)) / max(np.max(np.abs(g)), 1.0))
    gates.check("dense_stationarity", residual < RESIDUAL_TOL, f"residual {residual:.3e}")
    return {"residual": residual, "x": x, "g": g}


def sparse_model_gates(gates: Gates, d: Path, x, g, theta: float) -> None:
    """Stored weights: zero diagonal, some off-diagonal mass, and every
    off-diagonal position passes the correlation threshold, with the
    correlations recomputed here from the binarized training rows."""
    from gramrec.errors import GramrecError
    from gramrec.sparse import load_sparse_model

    try:
        model, _ = load_sparse_model(d / "model.easp")
    except GramrecError as exc:
        gates.check("sparse_model_loads", False, str(exc))
        return
    v = model.values.tocoo()
    diag = v.row == v.col
    gates.check("sparse_diag_zero", bool(np.all(v.data[diag] == 0.0)))
    gates.check("sparse_has_offdiag", bool(np.any(v.data[~diag] != 0.0)),
                f"{int(np.count_nonzero(v.data[~diag]))} off-diagonal non-zeros")
    if not np.all(x.data == 1.0):
        x = x.copy()
        x.data[:] = 1.0
        g = (x.T @ x).toarray()
    n = x.shape[0]
    colsum = np.asarray(x.sum(axis=0)).ravel()
    r, c = v.row[~diag], v.col[~diag]
    g_rc = g[r, c]
    m = colsum / n
    s = np.sqrt(np.maximum(colsum / n - m * m, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        cor = (g_rc / n - m[r] * m[c]) / (s[r] * s[c])
    on_pattern = np.abs(cor) >= theta * (1.0 - 1e-9)
    gates.check("sparse_on_pattern", bool(np.all(on_pattern)),
                f"{int(np.count_nonzero(~on_pattern))} weights below the threshold")


def report_gates(gates: Gates, d: Path, name: str) -> dict:
    doc = json.loads((d / name).read_text())
    n_test = len(_read_keys(d / "split" / "test_users.txt"))
    gates.check(f"{name}:user_count", doc["n_users"] + doc["n_skipped"] == n_test,
                f"{doc['n_users']} + {doc['n_skipped']} vs {n_test}")
    means = [m["mean"] for m in doc["metrics"].values()]
    gates.check(f"{name}:metric_range", all(0.0 <= x <= 1.0 for x in means))
    return {k: m["mean"] for k, m in doc["metrics"].items()}


def recommend_gate(gates: Gates, runner: Runner, d: Path, model_file: str, trace: bool) -> None:
    """One `recommend` call must print the in-process ranking of
    load_model / load_sparse_model plus score_histories."""
    import scipy.sparse as sp

    from gramrec.evaluation import score_histories
    from gramrec.solver import load_model
    from gramrec.sparse import load_sparse_model

    loader = load_model if model_file.endswith(".ease") else load_sparse_model
    model, keys = loader(d / model_file)
    history = sorted(range(0, model.n_items, max(1, model.n_items // 5)))[:5]
    step = f"recommend-{model_file}"
    argv = ["recommend", "--model", str(d / model_file),
            "--history", ",".join(keys[i] for i in history), "--top-k", str(RECOMMEND_TOP_K)]
    res = runner.run(step, argv, d, d / f"{step}.spans.json" if trace else None)
    if not gates.check(f"{step}:exit", res.code == 0, f"exit code {res.code}"):
        return
    xin = sp.csr_matrix((np.ones(len(history)), history, [0, len(history)]),
                        shape=(1, model.n_items))
    scores = score_histories(model, xin)[0]
    scores[history] = -np.inf
    ranked = np.argsort(-scores, kind="stable")[:RECOMMEND_TOP_K]
    expected = "".join(f"{r + 1}\t{keys[i]}\t{float(scores[i])!r}\n" for r, i in enumerate(ranked))
    gates.check(f"{step}:matches_in_process", res.stdout.read_text() == expected)


def sparse_quality(d: Path, seed: int) -> float:
    """ndcg@100 of the sparse model on the test users, by gramrec's own
    evaluation with the CLI's defaults."""
    from gramrec import evaluate_model, load_interactions, load_split_files, to_user_item_matrix
    from gramrec.sparse import load_sparse_model

    iset = load_interactions(d / "data.csv")
    split = load_split_files(d / "split", iset.user_index, seed=seed)
    model, _ = load_sparse_model(d / "model.easp")
    report = evaluate_model(model, to_user_item_matrix(iset), split)
    return report.metrics["ndcg@100"][0]


def gates_for(runner: Runner, wl: Workload, seed: int, d: Path, trace: bool) -> tuple[Gates, dict]:
    """Every gate on the first pass's outputs; returns values the metrics use.

    A gate that raises, say on a missing or unreadable output, fails
    instead of ending the benchmark."""
    gates = Gates()
    values = {}

    def guarded(name, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - any error in an output fails its gate
            traceback.print_exc()
            gates.check(name, False, f"{type(exc).__name__}: {exc}")
            return None

    dense = guarded("dense_gates", dense_model_gates, gates, d) or {}
    if "x" in dense:
        values["residual"] = dense["residual"]
        theta = option(wl.sparse, "--threshold")
        guarded("sparse_gates", sparse_model_gates, gates, d, dense["x"], dense["g"], theta)
    report = guarded("report.json", report_gates, gates, d, "report.json")
    if report is not None:
        values["report"] = report
    guarded("report_time.json", report_gates, gates, d, "report_time.json")
    for model_file in ("model.ease", "model.easp"):
        guarded(f"recommend-{model_file}", recommend_gate, gates, runner, d, model_file, trace)
    sparse_ndcg = guarded("sparse_quality", sparse_quality, d, seed)
    if sparse_ndcg is not None:
        values["sparse_ndcg_100"] = sparse_ndcg
    if trace and report is not None:
        guarded("baseline", baseline_gate, gates, runner, d, seed, report["ndcg@100"])
    return gates, values


def baseline_gate(gates: Gates, runner: Runner, d: Path, seed: int, dense_ndcg: float) -> None:
    """The dense model's ndcg@100 beats the popularity baseline's."""
    res = runner.run("evaluate-baseline", [
        "evaluate", "--data", str(d / "data.csv"), "--split-dir", str(d / "split"),
        "--seed", str(seed), "--baseline", "popularity",
        "--report-json", str(d / "report_baseline.json")], d)
    if gates.check("baseline:exit", res.code == 0, f"exit code {res.code}"):
        base = json.loads((d / "report_baseline.json").read_text())["metrics"]["ndcg@100"]["mean"]
        gates.check("dense_beats_popularity", dense_ndcg > base,
                    f"ndcg@100 {dense_ndcg:.5f} vs popularity {base:.5f}")


# ---------------------------------------------------------------------------
# Metrics


def _n2(kb: float, n: int) -> float:
    return kb * 1024.0 / (n * n * 8.0)


_PROBE_A = np.random.default_rng(0).random((250, 250))
_PROBE_B = np.ones(1_000_000)


def host_probe() -> float:
    """CPU time of a fixed mix of BLAS, memory-bound and interpreter work,
    about 50 ms on a 2-core shared VM.

    The cores of a shared host run the same code faster or slower for
    minutes at a time, with what other tenants run beside them.  The run
    times this probe before every sample; each end-to-end time is scaled
    by PROBE_REF_S over the run's median probe, so that it reads in CPU
    seconds of a host on which the probe takes PROBE_REF_S.  The probe is
    the benchmark's own code, so no change to the program moves it."""
    c0 = time.process_time()
    for _ in range(4):
        _PROBE_A @ _PROBE_A
    for _ in range(8):
        (_PROBE_B * 1.5).sum()
    d = {}
    for i in range(60000):
        d[str(i % 3000)] = float(i)
    return time.process_time() - c0


def unit_wall(sample: dict[str, CmdResult]) -> float:
    return sum(c.wall_s for c in sample.values())


def unit_cpu(sample: dict[str, CmdResult]) -> float:
    return sum(c.cpu_s for c in sample.values())


def end_to_end(samples: dict[str, list[dict[str, CmdResult]]], base_kb: float, n: int,
               values: dict, success_rate: float, speed: float) -> dict[str, float]:
    """speed: PROBE_REF_S over the run's median host_probe()."""
    def med(unit, f):
        return statistics.median(f(s) for s in samples[unit])

    def rss(unit, step):
        return med(unit, lambda s: _n2(s[step].maxrss_kb - base_kb, n))

    times = {unit: med(unit, unit_cpu) * speed for unit in UNITS}
    report = values["report"]
    return {
        **times,
        "pipeline_s": sum(times.values()),
        "train_peak_rss_n2": rss("train_s", "train"),
        "train_sparse_peak_rss_n2": rss("train_sparse_s", "train-sparse"),
        "evaluate_peak_rss_n2": rss("evaluate_s", "evaluate"),
        "recall_20": report["recall@20"],
        "recall_50": report["recall@50"],
        "ndcg_100": report["ndcg@100"],
        "sparse_ndcg_100": values["sparse_ndcg_100"],
        "success_rate": success_rate,
    }


def _load_spans(d: Path, steps) -> dict[str, dict]:
    out = {}
    for step in steps:
        path = d / f"{step}.spans.json"
        if path.exists():
            doc = json.loads(path.read_text())
            for s in doc["spans"]:
                s["dur"] = s["end"] - s["start"]
                s["self"] = s["dur"]
            for s in doc["spans"]:
                if s["parent"] is not None:
                    doc["spans"][s["parent"]]["self"] -= s["dur"]
            out[step] = doc
    return out


def self_time_table(traced: dict[str, dict]) -> dict[str, dict[str, float]]:
    """Per command and span name: calls, total and self seconds."""
    table: dict[str, dict[str, float]] = {}
    for step, doc in traced.items():
        for s in doc["spans"]:
            row = table.setdefault(f"{step}/{s['name']}", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s["dur"]
            row["self_s"] += s["self"]
    return table


def outside_spans(doc: dict, wall: float) -> float:
    """A traced command's wall time outside its top-level span: interpreter
    start-up, imports, argument parsing and exit."""
    return wall - sum(s["dur"] for s in doc["spans"] if s["parent"] is None)


def layer_shares(traced: dict[str, dict], walls: dict[str, float]) -> dict[str, dict[str, float]]:
    """Per end-to-end time metric (and per untimed step): the share of its
    traced wall time spent in each layer's own code (span self time, summed
    by module) and outside the spans (`startup`).  The shares add up to 1."""
    shares = {}
    for metric, steps in ({**UNITS, **{s: (s,) for s in UNTIMED}}).items():
        wall = sum(walls[s] for s in steps)
        by_layer = {"startup": sum(outside_spans(traced[s], walls[s]) for s in steps)}
        for step in steps:
            for s in traced[step]["spans"]:
                layer = s["name"].split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + s["self"]
        shares[metric] = {k: v / wall for k, v in by_layer.items()}
    return shares


def dgemm_gflops(n: int, seed: int) -> float:
    """Reference n x n matrix product in this process, same thread count."""
    rng = np.random.default_rng(seed)
    a, b = rng.random((n, n)), rng.random((n, n))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * n ** 3 / statistics.median(times) / 1e9


def per_layer(traced: dict[str, dict], ctx: dict) -> dict[str, float]:
    spans = [(step, s) for step, doc in traced.items() for s in doc["spans"]]
    n = ctx["n_items"]

    def named(name, steps=None):
        return [s for step, s in spans if s["name"] == name and (steps is None or step in steps)]

    def tot(*names, steps=None):
        return sum(s["dur"] for name in names for s in named(name, steps))

    def self_of(*names, steps=None):
        return sum(s["self"] for name in names for s in named(name, steps))

    def peak(names, step):
        base = traced[step]["base_maxrss_kb"]
        return max(_n2(s["maxrss_kb"] - base, n) for name in names for s in named(name, [step]))

    def attr(name, key):
        return sum(s.get(key, 0) for s in named(name))

    loads = named("data.load_interactions")
    ingest_loads = named("data.load_interactions", ["ingest"])
    # ingest parses the raw rows; every other command parses the canonical
    # rows, which its span's event count gives.
    rows = ctx["raw_rows"] * len(ingest_loads) + sum(
        s["events"] for step, s in spans if s["name"] == "data.load_interactions" and step != "ingest")
    eval_users = attr("evaluation.evaluate_model", "users")
    eval_all = eval_users + attr("evaluation.evaluate_model", "skipped")
    blocks = named("sparse.block_partition")[0]
    inverts = named("solver.invert_regularized")
    return {
        "cli.startup_s": ctx["startup_s"],
        "cli.ingest_self_s": self_of("cli.cmd_ingest"),
        "cli.train_self_s": self_of("cli.cmd_train"),
        "cli.evaluate_self_s": self_of("cli.cmd_evaluate", steps=["evaluate", "evaluate-time"]),
        "data.load_interactions_s": tot("data.load_interactions"),
        "data.load_interactions_calls": len(loads),
        "data.rows_per_s": rows / tot("data.load_interactions"),
        "data.dedup_kept_ratio": ingest_loads[0]["events"] / ctx["rows_kept_by_min_value"],
        "data.filter_activity_s": tot("data.filter_activity"),
        "data.to_user_item_matrix_s": tot("data.to_user_item_matrix"),
        "data.split_s": tot("data.split_strong_generalization", "data.save_split_files"),
        "data.load_split_files_s": tot("data.load_split_files"),
        "data.time_intervals_s": tot("data.time_intervals"),
        "gram.build_gram_s": tot("gram.build_gram"),
        "gram.x_nnz": named("gram.build_gram", ["train"])[0]["x_nnz"],
        "gram.peak_rss_n2": max(peak(["gram.build_gram"], step) for step in ("train", "train-sparse")),
        "gram.dense_bytes_computed": attr("gram.build_gram", "dense_bytes"),
        "solver.invert_regularized_s": tot("solver.invert_regularized"),
        "solver.invert_gflop_per_s": sum(float(s["n_items"]) ** 3 for s in inverts)
        / tot("solver.invert_regularized") / 1e9,
        "solver.dgemm_gflop_per_s": ctx["dgemm_gflop_per_s"],
        "solver.zero_diag_s": self_of("solver.solve_zero_diag", "solver.solve_ease"),
        "solver.peak_rss_n2": peak(["solver.invert_regularized", "solver.solve_zero_diag"], "train"),
        "solver.save_model_s": tot("solver.save_model"),
        "solver.load_model_s": tot("solver.load_model"),
        "solver.model_bytes": ctx["model_bytes"],
        "solver.stationarity_residual": ctx["residual"],
        "weighting.popularity_weights_s": tot("weighting.popularity_weights"),
        "weighting.apply_item_rescaling_s": tot("weighting.apply_item_rescaling"),
        "sparse.correlation_from_gram_s": tot("sparse.correlation_from_gram"),
        "sparse.threshold_pattern_s": tot("sparse.threshold_pattern"),
        "sparse.block_partition_s": tot("sparse.block_partition"),
        "sparse.solve_blocks_s": tot("sparse.solve_blocks"),
        "sparse.aggregate_blocks_s": tot("sparse.aggregate_blocks"),
        "sparse.save_sparse_model_s": tot("sparse.save_sparse_model"),
        "sparse.load_sparse_model_s": tot("sparse.load_sparse_model"),
        "sparse.pattern_nnz": attr("sparse.threshold_pattern", "pattern_nnz"),
        "sparse.n_blocks": blocks["n_blocks"],
        "sparse.max_block_items": blocks["max_block_items"],
        "sparse.block_cover_ratio": blocks["block_items"] / n,
        "sparse.block_flop_computed": blocks["block_flop"],
        "sparse.peak_rss_n2": peak([s["name"] for _, s in spans if s["name"].startswith("sparse.")
                                    and s["name"] != "sparse.load_sparse_model"], "train-sparse"),
        "evaluation.evaluate_model_s": tot("evaluation.evaluate_model"),
        "evaluation.users_per_s": eval_all / tot("evaluation.evaluate_model"),
        "evaluation.evaluated_ratio": eval_users / eval_all,
        "evaluation.evaluate_time_aware_s": tot("evaluation.evaluate_time_aware"),
        "evaluation.heldout_events_per_s": attr("evaluation.evaluate_time_aware", "heldout_events")
        / tot("evaluation.evaluate_time_aware"),
        "evaluation.grid_search_lambda_s": tot("evaluation.grid_search_lambda"),
        "evaluation.grid_points": attr("evaluation.grid_search_lambda", "grid_points"),
        "trace.overhead_ratio": ctx["overhead_ratio"],
    }


# ---------------------------------------------------------------------------
# Provenance


def provenance(root: Path, seed: int, input_info: dict) -> dict:
    import scipy

    src = sorted((root / "src" / "gramrec").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()
    commit = None
    if (root / ".git").exists():  # an exported checkout has no history to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "src_sha256": digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"])},
        "nproc": NPROC,
        "mem_total_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "seed": seed,
        "input": input_info,
    }


# ---------------------------------------------------------------------------


def measure(root: Path, wl_name: str, wl: Workload, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    events = generate(wl.gen, seed)
    input_info = write_csv(work / "raw.csv", wl.gen, events, option(wl.ingest, "--min-value"))
    del events
    with Runner(root) as runner:
        return _measure(runner, root, wl_name, wl, seed, seconds, trace, work, input_info)


def _measure(runner: Runner, root: Path, wl_name: str, wl: Workload, seed: int, seconds: float,
             trace: bool, work: Path, input_info: dict) -> dict:
    raw = work / "raw.csv"
    # The peak RSS of a bare `import gramrec.cli` child is the baseline of
    # the *_peak_rss_n2 metrics.
    bare = [runner.spawn("import", [sys.executable, "-c", "import gramrec.cli"], work)
            for _ in range(BASELINE_SAMPLES)]
    base_kb = statistics.median(r.maxrss_kb for r in bare)
    attempted = failed = 0
    digests: dict[str, set[str]] = {step: set() for step in OUTPUTS}

    def run(steps: dict[str, list[str]], out: Path, traced: bool = False) -> dict[str, CmdResult] | None:
        """Runs the steps in order and records their outputs' digests; a
        failed step ends them, and counts with every step it skips."""
        nonlocal attempted, failed
        attempted += len(steps)
        results = {}
        for step, argv in steps.items():
            res = runner.run(step, argv, out, out / f"{step}.spans.json" if traced else None)
            if res.code != 0:
                failed += len(steps) - len(results)
                return None
            results[step] = res
            digests[step].add(output_digest(out / OUTPUTS[step]))
        return results

    # The first pass chains every command; its outputs feed the samples
    # and the gates.  Its times are the first sample of each unit.
    t_start = time.perf_counter()
    first = work / "pass0"
    first.mkdir()
    chain = run(pipeline(wl, seed, raw, first, first), first)
    samples = {unit: [] for unit in UNITS}
    traced_pass = None
    if chain is not None:
        for unit, steps in UNITS.items():
            samples[unit].append({s: chain[s] for s in steps})
        if trace:
            traced_dir = work / "traced"
            traced_dir.mkdir()
            traced_pass = run(pipeline(wl, seed, raw, traced_dir, traced_dir), traced_dir, traced=True)
    complete = chain is not None and (traced_pass is not None or not trace)

    k = 0
    probes = []
    while complete:
        left = seconds - (time.perf_counter() - t_start)
        short = [u for u in samples if len(samples[u]) < MIN_SAMPLES]
        fits = [u for u in samples if statistics.median(map(unit_wall, samples[u])) < left]
        candidates = short or fits
        if not candidates:
            break
        unit = min(candidates, key=lambda u: sum(map(unit_wall, samples[u])))
        probes.append(host_probe())
        d = work / f"sample{k}"
        d.mkdir()
        k += 1
        steps = pipeline(wl, seed, raw, d if unit == "setup_s" else first, d)
        result = run({s: steps[s] for s in UNITS[unit]}, d)
        if result is None:
            complete = False
            break
        samples[unit].append(result)
        shutil.rmtree(d)
    if complete:
        # The untimed steps run once more, so that the byte-determinism
        # gate sees two runs of every command.
        d = work / "repeat"
        d.mkdir()
        steps = pipeline(wl, seed, raw, first, d)
        complete = run({s: steps[s] for s in UNTIMED}, d) is not None

    gates, values = Gates(), {}
    if complete:
        gates, values = gates_for(runner, wl, seed, first, trace)
        for step, seen in digests.items():
            gates.check(f"deterministic:{OUTPUTS[step]}", len(seen) == 1, f"{len(seen)} distinct")
        attempted += len(gates.results)
        failed += gates.failed
    for name, ok, detail in gates.results:
        if not ok:
            print(f"gate failed: {name} {detail}", file=sys.stderr)

    record = {"workload": wl_name, "seed": seed, "trace": int(trace),
              "provenance": provenance(root, seed, input_info),
              "gates": [{"name": n, "ok": ok, "detail": det} for n, ok, det in gates.results],
              "samples": {unit: [{s: dataclasses.asdict(c) | {"stdout": str(c.stdout)}
                                  for s, c in sample.items()} for sample in unit_samples]
                          for unit, unit_samples in samples.items()},
              "baseline_maxrss_kb": [r.maxrss_kb for r in bare],
              "probe_s": probes,
              "attempted": attempted, "failed": failed}
    metrics = None
    if complete and {"residual", "report", "sparse_ndcg_100"} <= values.keys():
        n = int(np.frombuffer((first / "model.ease").read_bytes()[8:16], "<u8")[0])
        speed = PROBE_REF_S / statistics.median(probes)
        e2e = end_to_end(samples, base_kb, n, values, 1.0 - failed / attempted, speed)
        if not trace:
            metrics = e2e
        else:
            traced = _load_spans(traced_dir, list(OUTPUTS))
            traced |= _load_spans(first, ["recommend-model.ease", "recommend-model.easp"])
            ctx = {
                "n_items": n,
                "raw_rows": input_info["rows"],
                "rows_kept_by_min_value": input_info["rows_kept_by_min_value"],
                "startup_s": statistics.median(
                    outside_spans(traced[s], c.wall_s) for s, c in traced_pass.items()),
                "dgemm_gflop_per_s": dgemm_gflops(n, seed),
                "model_bytes": (first / "model.ease").stat().st_size,
                "residual": values["residual"],
                "overhead_ratio": speed * sum(traced_pass[s].cpu_s for steps in UNITS.values()
                                              for s in steps) / e2e["pipeline_s"] - 1.0,
            }
            metrics = per_layer(traced, ctx)
            record["self_time"] = self_time_table(traced)
            record["layer_shares"] = layer_shares(traced, {s: c.wall_s for s, c in traced_pass.items()})
            record["spans"] = traced
    record["metrics"] = metrics
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gramrec" / "cli.py").is_file():
        print(f"error: {root}/src/gramrec not found; run from the root of a gramrec checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import gramrec

    if Path(gramrec.__file__).resolve().parent != (root / "src" / "gramrec").resolve():
        print(f"error: imported gramrec from {gramrec.__file__}, not this checkout", file=sys.stderr)
        return 2

    # BENCHMARK.json names the metrics and their units; the metrics computed
    # here must be exactly those.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: workload {args.workload} is not in BENCHMARK.json", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    if args.scale == "smoke":
        wl = smoke(wl)
    name = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench" / name
    try:
        record = measure(root, args.workload, wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        if work.exists():
            shutil.rmtree(work)
    if record["metrics"] is not None and set(record["metrics"]) != set(units):
        print(f"error: computed metrics differ from BENCHMARK.json: "
              f"{sorted(set(record['metrics']) ^ set(units))}", file=sys.stderr)
        return 2
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(record, indent=1, default=str))

    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    if "self_time" in record:
        print("self time per span (command/span: calls, total s, self s):")
        for key, row in sorted(record["self_time"].items()):
            print(f"  {key:55s} {row['calls']:5d} {row['total_s']:9.4f} {row['self_s']:9.4f}")
        print("share of each end-to-end time spent per layer (traced pass):")
        for metric, shares in record["layer_shares"].items():
            parts = sorted(shares.items(), key=lambda kv: -kv[1])
            print(f"  {metric:16s} " + "  ".join(f"{k} {v:.2f}" for k, v in parts))
    metrics = {}
    if record["metrics"] is not None:
        metrics = {k: {"value": float(v), "unit": units[k]} for k, v in record["metrics"].items()}
    ok = record["failed"] == 0 and record["metrics"] is not None
    print(json.dumps({"correct": ok, "attempted": max(record["attempted"], 1),
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
