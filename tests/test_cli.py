import csv
import filecmp
import gc
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tomllib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import scipy.sparse as sp

from gramrec import (
    DenseModel,
    load_interactions,
    load_model,
    load_sparse_model,
    load_split_files,
    load_weights_csv,
    rank_items,
    save_model,
    score_histories,
    time_intervals,
    time_popularity_weights,
    to_user_item_matrix,
)
import gramrec.cli
from gramrec.cli import main
from gramrec.data import DEFAULT_FOLD_IN, SplitSpec
from gramrec.evaluation import DEFAULT_NDCG_K, DEFAULT_RECALL_KS, evaluate_model, evaluate_time_aware
from gramrec.files import read_container, read_key_csv, write_container
from gramrec.packed import pack
from gramrec.sparse import DEFAULT_N_MAX, threshold_pattern
from gramrec.weighting import DEFAULT_ALPHA

from conftest import (SRC, child_env, evaluate_time_aware_reference, general_solve,
                      invert_regularized_copying, run_cli)


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """One ingested, split, trained pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    r = np.random.default_rng(5)
    rows = []
    for u in range(20):
        items = r.choice(10, size=int(r.integers(4, 9)), replace=False)
        for it in items:
            rows.append((f"u{u:02d}", f"i{it}", int(r.integers(1, 6)), int(r.integers(0, 1000))))
    dup_user, dup_item = rows[0][0], rows[0][1]
    rows.append((dup_user, dup_item, 1, 999))
    rows.append(("u00", "junk", 0.5, 5))

    raw = root / "raw.csv"
    lines = ["user,item,rating,ts"]
    lines += [f"{u},{i},{v},{t}" for u, i, v, t in rows]
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")

    data = root / "data.csv"
    res = run_cli([
        "ingest", "--input", str(raw), "--output", str(data),
        "--user-col", "user", "--item-col", "item", "--value-col", "rating",
        "--time-col", "ts", "--min-value", "1", "--dedup", "keep_max",
    ])
    assert res.returncode == 0, res.stderr

    splits = root / "splits"
    res = run_cli([
        "split", "--data", str(data), "--output-dir", str(splits),
        "--n-val", "4", "--n-test", "6", "--seed", "0",
    ])
    assert res.returncode == 0, res.stderr

    model = root / "model.ease"
    res = run_cli([
        "train", "--data", str(data), "--split-dir", str(splits),
        "--lambda", "2.0", "--output", str(model),
    ])
    assert res.returncode == 0, res.stderr

    pop = root / "pop.csv"
    res = run_cli([
        "popularity", "--data", str(data), "--split-dir", str(splits),
        "--output", str(pop),
    ])
    assert res.returncode == 0, res.stderr

    tiny = root / "tiny.csv"
    tiny_rows = ["user,item,value"]
    for u in "abcdefgh":
        for it in ("x", "y", "z"):
            if (ord(u) + ord(it)) % 3 != 0:
                tiny_rows.append(f"{u},{it},1.0")
    tiny.write_text("\n".join(tiny_rows) + "\n", encoding="utf-8")
    tiny_splits = root / "tiny_splits"
    res = run_cli([
        "split", "--data", str(tiny), "--output-dir", str(tiny_splits),
        "--n-val", "1", "--n-test", "2", "--seed", "0",
    ])
    assert res.returncode == 0, res.stderr

    return {
        "root": root, "raw": raw, "data": data, "splits": splits,
        "model": model, "pop": pop,
        "tiny": tiny, "tiny_splits": tiny_splits,
        "n_raw_rows": len(rows),
    }


def test_ingest_normalizes(workdir):
    text = workdir["data"].read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == "user,item,value,timestamp"
    # one duplicate collapsed, one sub-threshold row dropped
    assert len(lines) - 1 == workdir["n_raw_rows"] - 2
    assert "junk" not in text


def test_split_writes_user_files(workdir):
    names = {p.name for p in workdir["splits"].iterdir()}
    assert names == {"train_users.txt", "validation_users.txt", "test_users.txt"}
    train = (workdir["splits"] / "train_users.txt").read_text().split()
    assert len(train) == 10


def test_train_reports_phases_and_model(workdir, tmp_path):
    res = run_cli([
        "train", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--lambda", "2.0", "--output", str(workdir["root"] / "model_again.ease"),
    ])
    assert res.returncode == 0
    assert "phase gram:" in res.stderr
    assert "phase solve:" in res.stderr
    assert "lambda=2" in res.stderr
    assert filecmp.cmp(workdir["model"], workdir["root"] / "model_again.ease", shallow=False)
    # the bytes of packed G: n(n+1)/2 floats for n items, in both trainers
    n = load_model(workdir["model"])[0].n_items
    sparse = run_cli([
        "train-sparse", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--lambda", "2.0", "--threshold", "0.1", "--output", str(tmp_path / "m.easp"),
    ])
    assert sparse.returncode == 0, sparse.stderr
    for err in (res.stderr, sparse.stderr):
        found = re.search(r"phase gram: .*\((\d+) items, \d+ users, packed G (\d+) bytes\)", err)
        assert found and int(found[1]) == n and int(found[2]) == 8 * n * (n + 1) // 2


def test_train_grid_reports_every_gram_build(workdir, tmp_path):
    # one build per lambda, and one more when the winner is not the last
    res = run_cli([
        "train", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--lambda-grid", "1,10", "--output", str(tmp_path / "m.ease"),
    ])
    assert res.returncode == 0, res.stderr
    n = load_model(workdir["model"])[0].n_items
    builds = re.findall(r"phase gram: .*\(\d+ items, \d+ users, packed G (\d+) bytes\)", res.stderr)
    chosen = float(re.search(r"grid search chose lambda=(\S+)", res.stderr)[1])
    assert len(builds) == 2 + (chosen != 10.0)
    assert all(int(b) == 8 * n * (n + 1) // 2 for b in builds)


def test_evaluate_text_and_json(workdir):
    report = workdir["root"] / "report.json"
    args = [
        "evaluate", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(workdir["model"]), "--report-json", str(report),
    ]
    res = run_cli(args)
    assert res.returncode == 0, res.stderr
    assert "recall@20" in res.stdout
    assert "ndcg@100" in res.stdout
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["config"]["model"] == "dense"
    assert doc["config"]["lambda"] == 2.0
    assert doc["n_users"] + doc["n_skipped"] == 6

    again = run_cli(args)
    assert again.stdout == res.stdout
    assert json.loads(report.read_text(encoding="utf-8")) == doc


def test_evaluate_popularity_baseline(workdir):
    res = run_cli([
        "evaluate", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--baseline", "popularity",
    ])
    assert res.returncode == 0, res.stderr
    assert "recall@20" in res.stdout

    both = run_cli([
        "evaluate", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--baseline", "popularity", "--model", str(workdir["model"]),
    ])
    assert both.returncode == 1
    neither = run_cli([
        "evaluate", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
    ])
    assert neither.returncode == 1


def test_evaluate_time_intervals(workdir):
    res = run_cli([
        "evaluate", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(workdir["model"]), "--time-intervals", "3", "--alpha", "0.5",
    ])
    assert res.returncode == 0, res.stderr
    assert "recall@20" in res.stdout


def test_evaluate_binarized_single_interval_equals_plain(workdir):
    # one interval weights every item by 1, so on the rated log the per-event
    # protocol must score the same binarized histories as the plain one
    base = [
        "evaluate", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(workdir["model"]), "--binarize",
    ]
    plain = run_cli(base)
    timed = run_cli(base + ["--time-intervals", "1"])
    assert plain.returncode == 0 and timed.returncode == 0, timed.stderr
    assert timed.stdout == plain.stdout


def _binarized_log(workdir):
    """The rated log and split as a ``--binarize`` command loads them."""
    iset = load_interactions(workdir["data"])
    ones = replace(iset, values=np.ones(iset.n_events))
    return ones, load_split_files(workdir["splits"], ones.user_index)


def test_binarized_time_weights_count_interactions(workdir, tmp_path):
    out = tmp_path / "w.csv"
    res = run_cli([
        "rescale", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(workdir["model"]), "--binarize", "--mode", "time", "--intervals", "2",
        "--at-time", "500", "--weights-out", str(out),
    ])
    assert res.returncode == 0, res.stderr
    ones, split = _binarized_log(workdir)
    index = time_intervals(ones, 2, split.train_users)
    train_events = np.isin(ones.user_ids, split.train_users)
    np.testing.assert_array_equal(index.pops.sum(axis=0),
                                  np.bincount(ones.item_ids[train_events], minlength=ones.n_items))
    k = int(index.locate([500])[0])
    want = time_popularity_weights(index.pops[k], index.pops.sum(axis=0), 0.5)
    np.testing.assert_array_equal(load_weights_csv(out, ones.item_index).w, want.w)


def test_rescale_at_a_time_beyond_int64_takes_the_last_interval(workdir, tmp_path):
    """``--at-time`` is compared by its value, so 1e30 falls after every boundary."""
    out = tmp_path / "w.csv"
    res = run_cli([
        "rescale", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(workdir["model"]), "--mode", "time", "--intervals", "4",
        "--at-time", "1e30", "--weights-out", str(out),
    ])
    assert res.returncode == 0, res.stderr
    assert "timestamp 1e+30 falls into interval 3 of 4" in res.stderr
    assert "Warning" not in res.stderr


@pytest.mark.parametrize("users", ["test", "validation"])
def test_binarized_time_aware_report_matches_reference(workdir, tmp_path, users):
    # on this log, interval popularity summed from the ratings moves a
    # validation user's ranks at alpha 1
    out = tmp_path / "report.json"
    res = run_cli([
        "evaluate", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(workdir["model"]), "--binarize", "--time-intervals", "2",
        "--alpha", "1.0", "--users", users, "--report-json", str(out),
    ])
    assert res.returncode == 0, res.stderr
    ones, split = _binarized_log(workdir)
    model, _ = load_model(workdir["model"])
    index = time_intervals(ones, 2, split.train_users)
    want = evaluate_time_aware_reference(model, ones, split, index, alpha=1.0, users=users)
    assert out.read_text(encoding="utf-8") == want.to_json()


@pytest.mark.parametrize("argv", [
    ["rescale", "--mode", "time", "--intervals", "2", "--at-time", "500", "--weights-out", "w.csv"],
    ["rescale", "--mode", "remove-pop", "--weights-out", "w.csv"],
    ["evaluate", "--time-intervals", "2"],
], ids=["time", "remove-pop", "evaluate"])
def test_negative_epsilon_exits_1(workdir, tmp_path, argv):
    argv = [str(tmp_path / a) if a == "w.csv" else a for a in argv]
    res = run_cli([*argv, "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
                   "--model", str(workdir["model"]), "--epsilon", "-1000"])
    assert res.returncode == 1
    assert "argument --epsilon: expected a non-negative number" in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize("cutoffs", ["2.5", "0.9", "20,1e400", "20.0"])
def test_evaluate_rejects_fractional_cutoffs(workdir, cutoffs):
    # each entry is parsed as --ndcg-k is, so 20.0 is refused as it is there,
    # and the message names the bad entry
    entry = cutoffs.split(",")[-1]
    res = run_cli([
        "evaluate", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(workdir["model"]), "--recall-ks", cutoffs,
    ])
    assert res.returncode == 1
    assert f"argument --recall-ks: expected an integer, got {entry!r}" in res.stderr


def test_evaluate_model_data_mismatch(workdir):
    res = run_cli([
        "evaluate", "--data", str(workdir["tiny"]), "--split-dir", str(workdir["tiny_splits"]),
        "--model", str(workdir["model"]),
    ])
    assert res.returncode == 2
    assert "items" in res.stderr


def test_train_lambda_grid(workdir, tmp_path):
    out = tmp_path / "grid.ease"
    res = run_cli([
        "train", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--lambda-grid", "0.5,2.0", "--output", str(out),
    ])
    assert res.returncode == 0, res.stderr
    assert "grid lambda=0.5:" in res.stderr
    assert "grid lambda=2:" in res.stderr
    assert "grid search chose lambda=" in res.stderr
    assert out.exists()


@pytest.mark.parametrize("variant", ["zero-diag", "rr"])
def test_train_lambda_grid_saves_searched_model(workdir, tmp_path, variant):
    # the grid trains with the requested variant and its winner is saved as is
    base = [
        "train", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--variant", variant,
    ]
    single, grid = tmp_path / "single.ease", tmp_path / "grid.ease"
    res = run_cli(base + ["--lambda", "2", "--output", str(single)])
    assert res.returncode == 0, res.stderr
    res = run_cli(base + ["--lambda-grid", "2", "--output", str(grid)])
    assert res.returncode == 0, res.stderr
    assert filecmp.cmp(single, grid, shallow=False)


def test_train_lambda_grid_solves_winner_again(workdir, tmp_path):
    # the grid keeps only the last lambda's model; a winner before it is
    # built and solved once more, and must come out as a plain run gives it
    base = ["train", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"])]
    grid = tmp_path / "grid.ease"
    # these rank alike on the workdir data, and ties go to the smallest
    res = run_cli(base + ["--lambda-grid", "1e4,1e6,1e8", "--output", str(grid)])
    assert res.returncode == 0, res.stderr
    chosen = res.stderr.split("grid search chose lambda=")[1].split()[0]
    assert float(chosen) < 1e8
    single = tmp_path / "single.ease"
    res = run_cli(base + ["--lambda", chosen, "--output", str(single)])
    assert res.returncode == 0, res.stderr
    assert filecmp.cmp(single, grid, shallow=False)


def _train_users(workdir) -> list[str]:
    return (workdir["splits"] / "train_users.txt").read_text(encoding="utf-8").split()


def test_train_user_weights(workdir, tmp_path):
    data = ["train", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"])]
    base = data + ["--lambda", "2.0", "--output", str(tmp_path / "m.ease")]
    weights = tmp_path / "w.csv"
    # unit weights for the training users alone give the unweighted model
    weights.write_text("user,weight\n" + "".join(f"{u},1.0\n" for u in _train_users(workdir)),
                       encoding="utf-8")
    res = run_cli(base + ["--user-weights", str(weights)])
    assert res.returncode == 0, res.stderr
    assert filecmp.cmp(tmp_path / "m.ease", workdir["model"], shallow=False)
    res = run_cli(data + ["--lambda-grid", "2,20", "--user-weights", str(weights),
                          "--output", str(tmp_path / "grid.ease")])
    assert res.returncode == 0, res.stderr

    weights.write_text("user,weight\n" + "".join(f"{u},2.0\n" for u in _train_users(workdir)[1:]),
                       encoding="utf-8")
    res = run_cli(base + ["--user-weights", str(weights)])
    assert res.returncode == 2
    assert "1 training users received no weight" in res.stderr

    weights.write_text("item,weight\ni1,1.0\n", encoding="utf-8")
    res = run_cli(base + ["--user-weights", str(weights)])
    assert res.returncode == 2
    assert "user,weight" in res.stderr


def test_option_names_are_not_abbreviated(workdir, tmp_path):
    data = ["--data", str(workdir["data"]), "--split-dir", str(workdir["splits"])]
    res = run_cli(["train-sparse", *data, "--lambda", "2", "--threshold", "0.05",
                   "--n-m", "6", "--output", str(tmp_path / "m.easp")])
    assert res.returncode == 1
    assert "unrecognized arguments: --n-m" in res.stderr
    res = run_cli(["train", *data, "--lambda-g", "1", "--output", str(tmp_path / "m.ease")])
    assert res.returncode == 1
    # the --config pre-parser takes no prefix either: --c names no file to read
    res = run_cli(_evaluate_args(workdir) + ["--c", str(tmp_path / "absent.json")])
    assert res.returncode == 1
    assert "No such file" not in res.stderr


def test_train_usage_errors(workdir, tmp_path):
    base = [
        "train", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--output", str(tmp_path / "m.ease"),
    ]
    assert run_cli(base).returncode == 1  # no lambda at all
    assert run_cli(base + ["--lambda", "1", "--lambda-grid", "1,2"]).returncode == 1
    assert run_cli(base + ["--lambda", "-1"]).returncode == 1
    assert run_cli(base + ["--lambda", "1", "--disjoint", "--center"]).returncode == 1
    assert run_cli(base + ["--lambda", "1", "--variant", "bogus"]).returncode == 1
    assert run_cli(base + ["--lambda", "1", "--save-gram", str(tmp_path / "g")]).returncode == 1

    missing_output = run_cli([
        "train", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--lambda", "1",
    ])
    assert missing_output.returncode == 1
    assert "--output" in missing_output.stderr


def test_train_ease_variant_removed_center_trains(workdir, tmp_path):
    base = [
        "train", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--lambda", "1", "--output", str(tmp_path / "m.ease"),
    ]
    assert run_cli(base + ["--variant", "ease"]).returncode == 1
    res = run_cli(base + ["--center"])
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("options,config,message", [
    (["--exact-expectation"], {}, "--exact-expectation applies only with --disjoint"),
    (["--center"], {"exact_expectation": True}, "--exact-expectation applies only with --disjoint"),
    (["--split-fraction", "0.2"], {}, "--split-fraction applies only with --exact-expectation"),
    (["--disjoint", "--split-fraction", "0.2"], {},
     "--split-fraction applies only with --exact-expectation"),
    ([], {"disjoint": True, "split_fraction": 0.2},
     "--split-fraction applies only with --exact-expectation"),
], ids=["exact-alone", "exact-config", "fraction-alone", "fraction-disjoint", "fraction-config"])
def test_train_refuses_options_it_would_ignore(tmp_path, capsys, options, config, message):
    # checked before the data are read, by flag or by config entry alike
    missing = str(tmp_path / "missing")
    argv = ["train", "--data", missing, "--split-dir", missing, "--lambda", "1",
            "--output", str(tmp_path / "m.ease"), *options]
    if config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.ease").exists()


@pytest.mark.parametrize("variant", ["zero-diag", "rr"])
@pytest.mark.parametrize("option", ["plain", "center", "disjoint", "exact"])
def test_train_options_match_general_oracle(workdir, tmp_path, option, variant):
    """Each training option's model file against the P·C − P·diagMat(γ)
    oracle on its target, written out from the training users' rows."""
    lam, p = 3.0, 0.2
    extra = {"plain": [], "center": ["--center"], "disjoint": ["--binarize", "--disjoint"],
             "exact": ["--binarize", "--disjoint", "--exact-expectation",
                       "--split-fraction", str(p)]}[option]
    out = tmp_path / "m.ease"
    res = run_cli(["train", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
                   "--lambda", str(lam), "--variant", variant, "--output", str(out), *extra])
    assert res.returncode == 0, res.stderr
    model, _ = load_model(out)

    iset = load_interactions(workdir["data"], binarize="--binarize" in extra)
    split = load_split_files(workdir["splits"], iset.user_index)
    matrix = to_user_item_matrix(iset)
    x = matrix.restrict_users(split.train_users).matrix.toarray()
    g = x.T @ x
    c = g.copy()
    if option == "center":
        c = x.T @ (x - x.mean(axis=0))
    elif option in ("disjoint", "exact"):
        np.fill_diagonal(c, 0.0)
    if option == "exact":
        g = (1 - p) ** 2 * g + p * (1 - p) * np.diag(np.diag(g))
        c *= p * (1 - p)
    expected, _ = general_solve(g, c, lam, zero_diag=variant == "zero-diag")
    kappa = p / (1 - p) if option == "exact" else 1.0
    if variant == "zero-diag":
        bound = 1e-10 * max(np.abs(expected).max(), kappa)
    else:  # kappa*(1 - P_jj*(lambda + d_j)) on rr's diagonal cancels as lambda grows
        d = np.diag(g).max() if option in ("disjoint", "exact") else 0.0
        bound = 1e-12 * (np.abs(expected).max()
                         + kappa * (lam + d) * np.abs(invert_regularized_copying(pack(g), lam)).max())
    assert np.abs(model.b - expected).max() <= bound
    assert (model.mu is not None) == (option == "center")
    if option == "center":
        np.testing.assert_allclose(model.mu, x.mean(axis=0), rtol=1e-15)


def test_numeric_failure_exit_code(tmp_path):
    # values are finite but their squares overflow, so the normal equations
    # fail only once the solver looks at the Gram matrix
    data = tmp_path / "big.csv"
    rows = ["user,item,value"]
    for u in "abcde":
        rows.append(f"{u},x,1e300")
        rows.append(f"{u},y,1.0")
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    splits = tmp_path / "splits"
    assert run_cli([
        "split", "--data", str(data), "--output-dir", str(splits),
        "--n-val", "1", "--n-test", "1",
    ]).returncode == 0
    res = run_cli([
        "train", "--data", str(data), "--split-dir", str(splits),
        "--lambda", "1", "--output", str(tmp_path / "m.ease"),
    ])
    assert res.returncode == 3
    assert "non-finite" in res.stderr


def test_data_errors_exit_code(workdir, tmp_path):
    res = run_cli(["ingest", "--input", str(tmp_path / "absent.csv"),
                   "--output", str(tmp_path / "out.csv")])
    assert res.returncode == 2

    res = run_cli([
        "split", "--data", str(workdir["data"]), "--output-dir", str(tmp_path / "s"),
        "--n-val", "100", "--n-test", "100",
    ])
    assert res.returncode == 2


@pytest.mark.parametrize("stamp", ["inf", "1e300"])
def test_ingest_bad_timestamp_exit_code(tmp_path, stamp):
    raw = tmp_path / "raw.csv"
    raw.write_text(f"user,item,value,timestamp\nu1,i1,1,{stamp}\n", encoding="utf-8")
    res = run_cli(["ingest", "--input", str(raw), "--output", str(tmp_path / "out.csv")])
    assert res.returncode == 2
    assert f"line 2: column 'timestamp' is not a timestamp: '{stamp}'" in res.stderr
    assert "Traceback" not in res.stderr


def test_ingest_dedup_error_names_the_pair_by_its_keys(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("user,item,value\nu1,i9,1\nu2,i9,1\nu1,i9,3\n", encoding="utf-8")
    res = run_cli(["ingest", "--input", str(raw), "--output", str(tmp_path / "out.csv"), "--dedup", "error"])
    assert res.returncode == 2
    assert "first duplicated pair: user 'u1', item 'i9'" in res.stderr
    assert "Traceback" not in res.stderr


def test_ingest_reads_utf8_under_c_locale(tmp_path):
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    raw = tmp_path / "raw.csv"
    raw.write_bytes("user,item\nJosé,Müller\n".encode("utf-8"))
    out = tmp_path / "out.csv"
    res = run_cli(["ingest", "--input", str(raw), "--output", str(out)], env=env)
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == "user,item,value\r\nJosé,Müller,1.0\r\n".encode("utf-8")

    raw.write_bytes("user,item\nJosé,x\n".encode("latin-1"))
    res = run_cli(["ingest", "--input", str(raw), "--output", str(out)], env=env)
    assert res.returncode == 2
    assert "not UTF-8" in res.stderr and "Traceback" not in res.stderr


def test_byte_order_mark_is_dropped(workdir, tmp_path, capsys):
    """A UTF-8 byte-order mark, as editors save CSVs as UTF-8 with BOM, is
    no part of the first column's name or the first key: a log ingests to
    the bytes of the plain one, a weights file and a split file load, and a
    config file sets the options of the plain one."""
    bom = b"\xef\xbb\xbf"

    def ingest(raw: bytes, *options) -> bytes:
        (tmp_path / "raw.csv").write_bytes(raw)
        assert main(["ingest", "--input", str(tmp_path / "raw.csv"),
                     "--output", str(tmp_path / "out.csv"), *options]) == 0
        return (tmp_path / "out.csv").read_bytes()

    options = ["--user-col", "user", "--item-col", "item", "--value-col", "rating",
               "--time-col", "ts", "--min-value", "1", "--dedup", "keep_max"]
    assert ingest(bom + workdir["raw"].read_bytes(), *options) == workdir["data"].read_bytes()
    tiny = workdir["tiny"].read_bytes()  # the default columns user, item, value
    assert ingest(bom + tiny) == ingest(tiny)

    splits = tmp_path / "splits"
    shutil.copytree(workdir["splits"], splits)
    train_users = splits / "train_users.txt"
    train_users.write_bytes(bom + train_users.read_bytes())
    model = tmp_path / "m.ease"
    assert main(["train", "--data", str(workdir["data"]), "--split-dir", str(splits),
                 "--lambda", "2.0", "--output", str(model)]) == 0
    assert model.read_bytes() == workdir["model"].read_bytes()

    weights = tmp_path / "w.csv"
    assert main(["rescale", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
                 "--model", str(workdir["model"]), "--weights-out", str(weights)]) == 0
    written = weights.read_bytes()
    capsys.readouterr()
    for text in (written, written.split(b"\n", 1)[1]):  # with and without the kind line
        outputs = []
        for prefix in (b"", bom):
            weights.write_bytes(prefix + text)
            assert main(["recommend", "--model", str(workdir["model"]), "--history", "i0,i1",
                         "--weights", str(weights)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def split(prefix: bytes) -> dict[str, bytes]:
        cfg, out = tmp_path / "cfg.json", tmp_path / f"split{len(prefix)}"
        cfg.write_bytes(prefix + b'{"n_val": 1}')
        assert main(["split", "--data", str(workdir["data"]), "--n-test", "1",
                     "--output-dir", str(out), "--config", str(cfg)]) == 0
        return {f.name: f.read_bytes() for f in out.iterdir()}

    assert split(bom) == split(b"")


@pytest.mark.parametrize("reader", ["split-file", "weights", "popularity"])
def test_non_utf8_input_exit_code(workdir, tmp_path, reader):
    model, data = str(workdir["model"]), str(workdir["data"])
    if reader == "split-file":
        bad = tmp_path / "splits" / "train_users.txt"
        shutil.copytree(workdir["splits"], bad.parent)
        bad.write_bytes(bad.read_bytes() + b"caf\xe9\n")
        argv = ["train", "--data", data, "--split-dir", str(bad.parent), "--lambda", "2.0",
                "--output", str(tmp_path / "m.ease")]
    elif reader == "weights":
        bad = tmp_path / "weights.csv"
        bad.write_bytes(b"item,weight\ni0,1.0\ncaf\xe9,2.0\n")
        argv = ["recommend", "--model", model, "--history", "i0", "--weights", str(bad)]
    else:
        bad = workdir["root"] / "pop_latin1.csv"
        bad.write_bytes(workdir["pop"].read_bytes() + b"caf\xe9,2\n")
        argv = ["recommend", "--model", model, "--history", "", "--popularity", str(bad)]
    res = run_cli(argv)
    assert res.returncode == 2
    assert f"{bad}: not UTF-8 text" in res.stderr
    assert "Traceback" not in res.stderr


def test_usage_errors_exit_code(workdir):
    assert run_cli([]).returncode == 1
    assert run_cli(["train", "--no-such-flag"]).returncode == 1


def test_config_file_merging(workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": str(workdir["data"]),
        "split_dir": str(workdir["splits"]),
        "lambda": 5.0,
        "users": "validation",
    }), encoding="utf-8")

    out = tmp_path / "from_cfg.ease"
    res = run_cli(["train", "--config", str(cfg), "--output", str(out)])
    assert res.returncode == 0, res.stderr
    assert "lambda=5" in res.stderr

    out2 = tmp_path / "override.ease"
    res = run_cli(["train", "--config", str(cfg), "--lambda", "2.0",
                   "--output", str(out2)])
    assert res.returncode == 0, res.stderr
    assert "lambda=2" in res.stderr  # command line wins over the config file
    assert filecmp.cmp(out2, workdir["model"], shallow=False)

    res = run_cli(["evaluate", "--config", str(cfg), "--model", str(workdir["model"])])
    assert res.returncode == 0, res.stderr
    assert "recall@20" in res.stdout


def test_config_file_errors(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    res = run_cli(["evaluate", "--config", str(bad)])
    assert res.returncode == 2
    assert "invalid JSON" in res.stderr

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    res = run_cli(["evaluate", "--config", str(arr)])
    assert res.returncode == 2
    assert "JSON object" in res.stderr


def test_config_file_not_utf8(workdir, tmp_path):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes('{"history": "caf\u00e9"}'.encode("latin-1"))
    res = run_cli(["recommend", "--model", str(workdir["model"]), "--config", str(cfg)])
    assert res.returncode == 2
    assert "invalid JSON config" in res.stderr and "Traceback" not in res.stderr


def test_missing_config_file_is_reported_as_any_missing_input(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    assert main(["popularity", "--data", str(absent), "--output", str(tmp_path / "p.csv")]) == 2
    missing_data = capsys.readouterr().err
    assert main(["popularity", "--data", "d.csv", "--output", str(tmp_path / "p.csv"),
                 "--config", str(absent)]) == 2
    assert capsys.readouterr().err == missing_data
    assert missing_data == f"error: [Errno 2] No such file or directory: '{absent}'\n"


@pytest.mark.parametrize("command,config,options", [
    ("train", {"lambda": 300.0}, ["--lambda-grid", "2,5"]),
    ("train", {"center": True, "user_weights": "absent.csv"}, ["--lambda", "2", "--disjoint"]),
    ("evaluate", {"model": "absent.ease"}, ["--baseline", "popularity"]),
], ids=["lambda", "gram", "scorer"])
def test_config_yields_to_an_exclusive_option_on_the_command_line(
    workdir, tmp_path, capsys, command, config, options
):
    """A config key whose option shares a mutually exclusive group with an
    option on the command line gives nothing, so the run is the one
    without the config."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = "--output" if command == "train" else "--report-json"
    argv = [command, "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
            "--binarize", *options]
    assert main(argv + [out, str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr().out
    assert main(argv + [out, str(tmp_path / "configured"), "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == plain
    assert filecmp.cmp(tmp_path / "configured", tmp_path / "plain", shallow=False)


def _evaluate_args(workdir):
    return ["evaluate", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
            "--model", str(workdir["model"])]


@pytest.mark.parametrize("command,key,value", [
    ("evaluate", "ndcg_k", 2.5),
    ("evaluate", "binarize", "false"),
    ("evaluate", "seed", "x"),
    ("evaluate", "fold_in", "q"),
    ("train", "lambda", "abc"),
    ("split", "n_val", "abc"),
    ("evaluate", "recall_ks", []),
])
def test_config_values_checked_as_flags(workdir, tmp_path, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    argv = {
        "evaluate": _evaluate_args(workdir),
        "train": ["train", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
                  "--output", str(tmp_path / "m.ease")],
        "split": ["split", "--data", str(workdir["data"]), "--output-dir", str(tmp_path / "s"),
                  "--n-test", "6"],
    }[command]
    res = run_cli(argv + ["--config", str(cfg)])
    assert res.returncode == 1
    assert res.stderr.startswith(f"usage: gramrec {command}")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_config_false_and_null_mean_unset(workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    plain = run_cli(_evaluate_args(workdir))
    cfg.write_text(json.dumps({"binarize": False, "users": None}), encoding="utf-8")
    res = run_cli(_evaluate_args(workdir) + ["--config", str(cfg)])
    assert res.returncode == 0, res.stderr
    assert res.stdout == plain.stdout

    cfg.write_text(json.dumps({"binarize": True}), encoding="utf-8")
    res = run_cli(_evaluate_args(workdir) + ["--config", str(cfg)])
    assert res.stdout == run_cli(_evaluate_args(workdir) + ["--binarize"]).stdout

    out = tmp_path / "m.ease"
    cfg.write_text(json.dumps({"lambda_grid": None}), encoding="utf-8")
    res = run_cli(["train", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
                   "--lambda", "2.0", "--output", str(out), "--config", str(cfg)])
    assert res.returncode == 0, res.stderr
    assert filecmp.cmp(out, workdir["model"], shallow=False)


def test_config_list_is_comma_joined(workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recall_ks": [5, 10]}), encoding="utf-8")
    from_cfg, from_flag = tmp_path / "cfg_report.json", tmp_path / "flag_report.json"
    a = run_cli(_evaluate_args(workdir) + ["--config", str(cfg), "--report-json", str(from_cfg)])
    b = run_cli(_evaluate_args(workdir) + ["--recall-ks", "5,10", "--report-json", str(from_flag)])
    assert a.returncode == 0 and b.returncode == 0, a.stderr
    assert "recall@10" in a.stdout and a.stdout == b.stdout
    assert from_cfg.read_bytes() == from_flag.read_bytes()


def test_split_takes_no_binarize(workdir, tmp_path):
    argv = ["split", "--data", str(workdir["data"]), "--n-val", "4", "--n-test", "6"]
    res = run_cli(argv + ["--output-dir", str(tmp_path / "a"), "--binarize"])
    assert res.returncode == 1
    assert "unrecognized arguments: --binarize" in res.stderr
    # a config shared with the matrix-building commands still serves split
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"binarize": True}), encoding="utf-8")
    res = run_cli(argv + ["--output-dir", str(tmp_path / "b"), "--config", str(cfg)])
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("key", ["u\u2028x", "u\nx", "\ufeffu"])
def test_split_refuses_keys_a_split_file_cannot_hold(tmp_path, key):
    raw = tmp_path / "raw.csv"
    with open(raw, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "item"])
        writer.writerows([(u, i) for u in ("u0", key, "u1") for i in ("i0", "i1", "i2")])
    data = tmp_path / "data.csv"
    assert run_cli(["ingest", "--input", str(raw), "--output", str(data)]).returncode == 0
    assert key in load_interactions(data).user_keys
    out = tmp_path / "split"
    res = run_cli(["split", "--data", str(data), "--output-dir", str(out), "--n-val", "1",
                   "--n-test", "1"])
    assert res.returncode == 2
    assert f"error: user key {key!r} cannot be written to a split file" in res.stderr
    assert not out.exists()


def test_empty_validation_set_is_refused_before_any_gram(workdir, tmp_path, capsys, monkeypatch):
    splits = tmp_path / "splits"
    assert main(["split", "--data", str(workdir["data"]), "--output-dir", str(splits),
                 "--n-val", "0", "--n-test", "6"]) == 0
    calls, build = [], gramrec.cli.build_gram
    monkeypatch.setattr(gramrec.cli, "build_gram", lambda *a, **k: calls.append(a) or build(*a, **k))
    capsys.readouterr()
    data = ["--data", str(workdir["data"]), "--split-dir", str(splits)]
    assert main(["train", *data, "--lambda-grid", "1,2", "--output", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    message = "no validation users were evaluable (0 validation users, 0 skipped"
    assert message in err and "phase gram:" not in err
    assert calls == [] and not (tmp_path / "m").exists()
    assert main(["evaluate", *data, "--model", str(workdir["model"]), "--users",
                 "validation"]) == 2
    assert message in capsys.readouterr().err


def test_train_sparse_and_evaluate(workdir, tmp_path):
    out = tmp_path / "model.easp"
    res = run_cli([
        "train-sparse", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--lambda", "2.0", "--threshold", "0.05", "--n-max", "6", "--output", str(out),
    ])
    assert res.returncode == 0, res.stderr
    assert "sparsity level" in res.stderr

    res = run_cli([
        "evaluate", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(out),
    ])
    assert res.returncode == 0, res.stderr
    assert "recall@20" in res.stdout

    warn = run_cli([
        "train-sparse", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--lambda", "2.0", "--threshold", "0", "--n-max", "4",
        "--output", str(tmp_path / "dense.easp"),
    ])
    assert warn.returncode == 0, warn.stderr
    assert "warning: threshold 0" in warn.stderr


def test_train_sparse_on_ratings_writes_offdiagonal_weights(workdir, tmp_path):
    # the workdir data holds 1-5 ratings; without --binarize the correlations
    # must come from the rated values, not from diag(G) as if binary
    out = tmp_path / "ratings.easp"
    res = run_cli([
        "train-sparse", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--lambda", "2.0", "--threshold", "0.05", "--n-max", "6", "--output", str(out),
    ])
    assert res.returncode == 0, res.stderr
    model, _ = load_sparse_model(out)
    v = model.values.tocoo()
    assert np.count_nonzero(v.data[v.row != v.col]) > 0


def test_rescale_weights_and_model(workdir, tmp_path):
    weights = tmp_path / "weights.csv"
    rescaled = tmp_path / "rescaled.ease"
    res = run_cli([
        "rescale", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(workdir["model"]), "--alpha", "0.5",
        "--weights-out", str(weights), "--output", str(rescaled),
    ])
    assert res.returncode == 0, res.stderr
    first = weights.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("# kind=inverse_pop alpha=0.5")

    res = run_cli([
        "evaluate", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(rescaled),
    ])
    assert res.returncode == 0, res.stderr

    nothing = run_cli([
        "rescale", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(workdir["model"]),
    ])
    assert nothing.returncode == 1
    assert "nothing to do" in nothing.stderr


def test_rescale_time_mode(workdir, tmp_path):
    weights = tmp_path / "tw.csv"
    res = run_cli([
        "rescale", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(workdir["model"]), "--mode", "time", "--intervals", "3",
        "--at-time", "500", "--alpha", "1.0", "--weights-out", str(weights),
    ])
    assert res.returncode == 0, res.stderr
    assert "falls into interval" in res.stderr
    assert weights.read_text(encoding="utf-8").startswith("# kind=time_adjusted alpha=1.0")

    bad_mode = run_cli([
        "rescale", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(workdir["model"]), "--mode", "nope", "--weights-out", str(weights),
    ])
    assert bad_mode.returncode == 1


@pytest.mark.parametrize("command", ["evaluate", "recommend", "rescale"])
def test_flipped_model_byte_exits_2(workdir, tmp_path, capsys, command):
    """The lowest bit of one weight of B flipped: the file's sha256 refuses
    it, with exit code 2 and a message, where it once loaded as it stood."""
    raw = bytearray(workdir["model"].read_bytes())
    raw[-16] ^= 1  # B[n-1, n-2], the file's last weight but one, little-endian
    model = tmp_path / "model.ease"
    model.write_bytes(bytes(raw))
    argv = {"evaluate": [*_evaluate_args(workdir)[:-1], str(model)],
            "recommend": ["recommend", "--model", str(model), "--history", "i1"],
            "rescale": ["rescale", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
                        "--model", str(model), "--weights-out", str(tmp_path / "w.csv")]}[command]
    assert main(argv) == 2
    assert f"error: {model}: damaged: its bytes do not match their sha256" in capsys.readouterr().err


def test_recommend_basic(workdir):
    res = run_cli([
        "recommend", "--model", str(workdir["model"]), "--history", "i0,i1",
        "--top-k", "3",
    ])
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 3
    for rank, line in enumerate(lines, start=1):
        fields = line.split("\t")
        assert len(fields) == 3
        assert int(fields[0]) == rank
        assert fields[1] not in ("i0", "i1")
        float(fields[2])


def test_recommend_unknown_and_empty_history(workdir):
    res = run_cli([
        "recommend", "--model", str(workdir["model"]), "--history", "i0,zzz",
        "--top-k", "2",
    ])
    assert res.returncode == 0
    assert "unknown item key" in res.stderr

    res = run_cli([
        "recommend", "--model", str(workdir["model"]), "--history", "zzz", "--top-k", "2",
    ])
    assert res.returncode == 2

    res = run_cli([
        "recommend", "--model", str(workdir["model"]), "--history", "",
        "--top-k", "2", "--popularity", str(workdir["pop"]),
    ])
    assert res.returncode == 0, res.stderr
    assert "falling back to popularity" in res.stderr
    assert len(res.stdout.strip().split("\n")) == 2


def _recommended_before(scores: np.ndarray, history: list[int], top_k: int, keys) -> str:
    """`recommend`'s stdout by the rule it had before it came to rank with
    rank_items: history scores set to -inf, then a stable argsort."""
    scores = scores.copy()
    scores[history] = -np.inf
    ranked = np.argsort(-scores, kind="stable")[: min(top_k, len(scores) - len(history))]
    return "".join(f"{r + 1}\t{keys[i]}\t{float(scores[i])!r}\n" for r, i in enumerate(ranked))


@pytest.mark.parametrize("top_k", [3, 20])
def test_recommend_prints_finite_rankings_as_before(workdir, top_k):
    model, keys = load_model(workdir["model"])
    history = [keys.index("i0"), keys.index("i1")]
    res = run_cli(["recommend", "--model", str(workdir["model"]), "--history", "i1,i0",
                   "--top-k", str(top_k)])
    assert res.returncode == 0, res.stderr
    xin = sp.csr_matrix((np.ones(2), sorted(history), [0, 2]), shape=(1, model.n_items))
    scores = score_histories(model, xin)[0]
    assert np.isfinite(scores).all()
    assert res.stdout == _recommended_before(scores, sorted(history), top_k, keys)

    res = run_cli(["recommend", "--model", str(workdir["model"]), "--history", "zzz",
                   "--top-k", str(top_k), "--popularity", str(workdir["pop"])])
    assert res.returncode == 0, res.stderr
    pop = read_key_csv(workdir["pop"], {k: i for i, k in enumerate(keys)}, "item", "count", 0.0)[0]
    assert res.stdout == _recommended_before(pop, [], top_k, keys)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_recommend_never_prints_a_history_item(tmp_path, bad):
    # item e's column of B is NaN (or -inf): the ranking holds every item
    # outside the history, e last, and no history item
    keys = ["a", "b", "c", "d", "e"]
    m = np.array([[1.0, 4.0, 2.0, 1.0, 0.0]] * 5)
    m = m + m.T
    m[:, 4] = m[4, :] = bad
    model = DenseModel(p=pack(m), c=np.ones(5), lam=1.0)
    save_model(tmp_path / "m.ease", model, item_keys=keys)
    res = run_cli(["recommend", "--model", str(tmp_path / "m.ease"), "--history", "a,c",
                   "--top-k", "5"])
    assert res.returncode == 0, res.stderr
    assert [line.split("\t")[1] for line in res.stdout.splitlines()] == ["b", "d", "e"]
    assert res.stdout.splitlines()[-1] == f"3\te\t{float(bad)!r}"


_QUOTED_KEYS = ["a,b", "c", "x\ty", 'q"x', "l\nb", '"q']  # what a CSV field can hold


def _quoted_keys_model(path):
    """A dense model over _QUOTED_KEYS whose every score is finite."""
    n = len(_QUOTED_KEYS)
    m = np.arange(1.0, n * n + 1).reshape(n, n)
    save_model(path, DenseModel(p=pack(m + m.T), c=np.ones(n), lam=1.0), item_keys=_QUOTED_KEYS)


def test_recommend_reads_the_history_as_one_csv_record(tmp_path, capsys):
    # a key holding a comma, a quote or a line break, or starting with a
    # quote, is named quoted; each is taken out of the ranking
    _quoted_keys_model(tmp_path / "m.ease")
    for history, named in [('"a,b"', ["a,b"]), ('c,"q""x","l\nb"', ["c", 'q"x', "l\nb"]),
                           ('"""q"', ['"q'])]:
        assert main(["recommend", "--model", str(tmp_path / "m.ease"), "--history", history,
                     "--top-k", "9"]) == 0
        out, err = capsys.readouterr()
        assert "warning" not in err
        ranked = [row[1] for row in csv.reader(io.StringIO(out, newline=""), delimiter="\t")]
        assert sorted(ranked + named) == sorted(_QUOTED_KEYS)
    # a line break outside quotes is no CSV record: a usage error
    assert main(["recommend", "--model", str(tmp_path / "m.ease"), "--history", "c\nd"]) == 1
    assert "--history is not one comma-separated record" in capsys.readouterr().err


def test_recommend_quotes_the_keys_it_prints(tmp_path, capsys):
    # every line is three tab-separated fields, a key with a tab, a quote
    # or a line break quoted as the csv module quotes it
    _quoted_keys_model(tmp_path / "m.ease")
    assert main(["recommend", "--model", str(tmp_path / "m.ease"), "--history", "c"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out, newline=""), delimiter="\t"))
    assert [len(row) for row in rows] == [3] * 5
    assert [int(row[0]) for row in rows] == [1, 2, 3, 4, 5]
    assert sorted(row[1] for row in rows) == sorted(set(_QUOTED_KEYS) - {"c"})
    assert '\t"x\ty"\t' in out and '\t"q""x"\t' in out and '\t"l\nb"\t' in out
    assert len(out.split("\n")) == 5 + 1 + 1  # the quoted line break, and the last newline


def test_recommend_quotes_a_key_holding_a_bare_carriage_return(tmp_path, capsys):
    # the lines end in \n alone, which csv.writer quotes; a lone \r is
    # quoted too, so that each line reads back as one record
    keys = ["cr\rx", "a", "b"]
    m = np.arange(1.0, 10.0).reshape(3, 3)
    save_model(tmp_path / "m.ease", DenseModel(p=pack(m + m.T), c=np.ones(3), lam=1.0),
               item_keys=keys)
    assert main(["recommend", "--model", str(tmp_path / "m.ease"), "--history", "a"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out, newline=""), delimiter="\t"))
    assert [len(row) for row in rows] == [3, 3]
    assert sorted(row[1] for row in rows) == ["b", "cr\rx"]
    assert '\t"cr\rx"\t' in out and len(out.split("\n")) == 2 + 1


def test_recommend_weights_with_an_overlong_field_exits_2(workdir, tmp_path, capsys):
    # a field over csv.field_size_limit() is named by its file and line
    weights = tmp_path / "w.csv"
    long_field = "1" * (csv.field_size_limit() + 1)
    assert len(long_field) == 131_073
    weights.write_text(f"item,weight\ni0,1.0\ni1,{long_field}\n", encoding="utf-8")
    assert main(["recommend", "--model", str(workdir["model"]), "--history", "i0",
                 "--weights", str(weights)]) == 2
    err = capsys.readouterr().err
    assert f"{weights}: line 3: field larger than field limit (131072)" in err
    assert "Traceback" not in err


def test_recommend_prints_plain_keys_as_before(workdir, tmp_path, capsys):
    # plain keys print as f"{rank}\t{key}\t{score!r}\n", with a dense and a
    # sparse model and with the popularity fallback
    sparse_model = tmp_path / "m.easp"
    assert main(["train-sparse", "--data", str(workdir["data"]), "--split-dir",
                 str(workdir["splits"]), "--lambda", "2.0", "--threshold", "0.1",
                 "--output", str(sparse_model)]) == 0
    keys = load_model(workdir["model"])[1]
    index = {k: i for i, k in enumerate(keys)}
    pop = read_key_csv(workdir["pop"], index, "item", "count", 0.0)[0]
    dense, sparse = load_model(workdir["model"])[0], load_sparse_model(sparse_model)[0]
    for path, model, history in [(workdir["model"], dense, ["i3", "i0"]),
                                 (sparse_model, sparse, ["i3", "i0"]),
                                 (workdir["model"], None, ["zzz"])]:
        assert main(["recommend", "--model", str(path), "--history", ",".join(history),
                     "--top-k", "20", "--popularity", str(workdir["pop"])]) == 0
        ids, scores = [], pop
        if model is not None:
            ids = sorted(index[k] for k in history)
            xin = sp.csr_matrix((np.ones(len(ids)), ids, [0, len(ids)]), shape=(1, len(keys)))
            scores = score_histories(model, xin)[0]
        expected = "".join(f"{rank}\t{keys[i]}\t{float(scores[i])!r}\n" for rank, i in
                           enumerate(rank_items(scores, exclude=ids).tolist(), 1))
        assert capsys.readouterr().out == expected


def test_recommend_with_weights(workdir, tmp_path):
    weights = tmp_path / "weights.csv"
    res = run_cli([
        "rescale", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--model", str(workdir["model"]), "--weights-out", str(weights),
    ])
    assert res.returncode == 0, res.stderr
    res = run_cli([
        "recommend", "--model", str(workdir["model"]), "--history", "i0",
        "--weights", str(weights), "--top-k", "2",
    ])
    assert res.returncode == 0, res.stderr

    sparse_model = tmp_path / "m.easp"
    assert run_cli([
        "train-sparse", "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
        "--lambda", "2.0", "--threshold", "0.1", "--output", str(sparse_model),
    ]).returncode == 0
    res = run_cli([
        "recommend", "--model", str(sparse_model), "--history", "i0",
        "--weights", str(weights), "--top-k", "2",
    ])
    assert res.returncode == 2
    assert "dense" in res.stderr


@pytest.mark.parametrize("binarize", [False, True])
def test_popularity_sums_values_or_counts(workdir, tmp_path, binarize):
    """On the rated log the count column holds each item's summed ratings,
    and under --binarize its number of events."""
    out = tmp_path / "pop.csv"
    res = run_cli(["popularity", "--data", str(workdir["data"]), "--output", str(out)]
                  + ["--binarize"] * binarize)
    assert res.returncode == 0, res.stderr
    sums, counts = {}, {}
    with open(workdir["data"], encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            sums[row["item"]] = sums.get(row["item"], 0.0) + float(row["value"])
            counts[row["item"]] = counts.get(row["item"], 0.0) + 1.0
    assert sums != counts
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["item", "count"]
    assert {item: float(count) for item, count in rows[1:]} == (counts if binarize else sums)


def test_popularity_all_users_versus_train(workdir, tmp_path):
    all_pop = tmp_path / "all.csv"
    res = run_cli(["popularity", "--data", str(workdir["data"]), "--output", str(all_pop)])
    assert res.returncode == 0, res.stderr

    def totals(path):
        lines = path.read_text(encoding="utf-8").strip().split("\n")[1:]
        return sum(float(line.split(",")[1]) for line in lines)

    assert totals(all_pop) > totals(workdir["pop"])


_D = ["--data", "d.csv", "--split-dir", "s"]  # never read: parsing fails first


@pytest.mark.parametrize("argv,flag", [
    (["train", *_D, "--output", "m", "--lambda", "nan"], "--lambda"),
    (["train", *_D, "--output", "m", "--lambda-grid", "nan,1"], "--lambda-grid"),
    (["train", *_D, "--output", "m", "--variant", "rr", "--lambda", "inf"], "--lambda"),
    (["train", *_D, "--output", "m", "--lambda", "1", "--fold-in", "nan"], "--fold-in"),
    (["train", *_D, "--output", "m", "--lambda", "1", "--disjoint", "--exact-expectation",
      "--split-fraction=-inf"], "--split-fraction"),
    (["train-sparse", *_D, "--output", "m", "--lambda", "1", "--threshold", "nan"], "--threshold"),
    (["ingest", "--input", "r.csv", "--output", "o.csv", "--min-value", "nan"], "--min-value"),
    (["rescale", *_D, "--model", "m", "--weights-out", "w", "--alpha", "nan"], "--alpha"),
    (["rescale", *_D, "--model", "m", "--weights-out", "w", "--epsilon", "inf"], "--epsilon"),
    (["rescale", *_D, "--model", "m", "--weights-out", "w", "--mode", "time", "--intervals", "2",
      "--at-time", "nan"], "--at-time"),
    (["evaluate", *_D, "--model", "m", "--time-intervals", "2", "--alpha", "1e999"], "--alpha"),
], ids=lambda v: v if isinstance(v, str) else f"{v[0]}:{v[-1].rsplit('=', 1)[-1]}")
def test_non_finite_options_exit_1(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"argument {flag}: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["rescale", *_D, "--model", "m", "--weights-out", "w", "--alpha", "1.5"],
     "argument --alpha: expected a number in [0, 1]"),
    (["rescale", *_D, "--model", "m", "--weights-out", "w", "--alpha=-0.1"],
     "argument --alpha: expected a number in [0, 1]"),
    (["rescale", *_D, "--model", "m", "--weights-out", "w", "--epsilon=-1"],
     "argument --epsilon: expected a non-negative number"),
    (["evaluate", *_D, "--model", "m", "--time-intervals", "2", "--alpha", "1.5"],
     "argument --alpha: expected a number in [0, 1]"),
    (["evaluate", *_D, "--model", "m", "--time-intervals", "2", "--epsilon=-1"],
     "argument --epsilon: expected a non-negative number"),
    (["evaluate", *_D, "--model", "m", "--recall-ks", "2.5"],
     "argument --recall-ks: expected an integer, got '2.5'"),
    (["evaluate", *_D, "--model", "m", "--recall-ks", "20,x"],
     "argument --recall-ks: expected an integer, got 'x'"),
    (["evaluate", *_D, "--model", "m", "--recall-ks", "20.0"],
     "argument --recall-ks: expected an integer, got '20.0'"),
], ids=["rescale-alpha-above", "rescale-alpha-below", "rescale-epsilon", "evaluate-alpha",
        "evaluate-epsilon", "evaluate-recall-ks-fraction", "evaluate-recall-ks-word",
        "evaluate-recall-ks-float"])
def test_out_of_range_options_exit_1_before_reading(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["train", *_D, "--output", "m", "--lambda", "0"], "argument --lambda: expected a positive"),
    (["train", *_D, "--output", "m", "--lambda=-1"], "argument --lambda: expected a positive"),
    (["train", *_D, "--output", "m", "--lambda-grid", "1,0"],
     "argument --lambda-grid: expected a positive"),
    (["train", *_D, "--output", "m", "--lambda-grid", ","],
     "argument --lambda-grid: expected at least one number"),
    (["train-sparse", *_D, "--output", "m", "--lambda=-1", "--threshold", "0.1"],
     "argument --lambda: expected a positive"),
    (["train-sparse", *_D, "--output", "m", "--lambda", "1", "--threshold=-0.1"],
     "argument --threshold: expected a non-negative number"),
    (["train-sparse", *_D, "--output", "m", "--lambda", "1", "--threshold", "0.1", "--n-max", "0"],
     "argument --n-max: expected an integer of at least 1"),
    (["evaluate", *_D, "--model", "m", "--ndcg-k", "0"],
     "argument --ndcg-k: expected an integer of at least 1"),
    (["evaluate", *_D, "--model", "m", "--recall-ks", "20,0"],
     "argument --recall-ks: expected an integer of at least 1, got '0'"),
    (["evaluate", *_D, "--model", "m", "--recall-ks", ","],
     "argument --recall-ks: expected at least one cutoff"),
    (["evaluate", *_D, "--model", "m", "--recall-ks="],
     "argument --recall-ks: expected at least one cutoff"),
    (["evaluate", *_D, "--model", "m", "--time-intervals", "0"],
     "argument --time-intervals: expected an integer of at least 1"),
    (["rescale", *_D, "--model", "m", "--weights-out", "w", "--mode", "time", "--intervals", "0",
      "--at-time", "5"], "argument --intervals: expected an integer of at least 1"),
    (["recommend", "--model", "m", "--top-k=-1"], "argument --top-k: expected an integer of at least 0"),
    (["split", "--data", "d.csv", "--output-dir", "o", "--n-val", "1", "--n-test", "1",
      "--seed=-1"], "argument --seed: expected an integer of at least 0"),
    (["evaluate", *_D, "--model", "m", "--seed=-2"], "argument --seed: expected an integer of at least 0"),
    (["split", "--data", "d.csv", "--output-dir", "o", "--n-val=-1", "--n-test", "1"],
     "argument --n-val: expected an integer of at least 0"),
    (["split", "--data", "d.csv", "--output-dir", "o", "--n-val", "1", "--n-test=-1"],
     "argument --n-test: expected an integer of at least 0"),
    (["ingest", "--input", "r.csv", "--output", "o.csv", "--min-user-events=-1"],
     "argument --min-user-events: expected an integer of at least 0"),
    (["ingest", "--input", "r.csv", "--output", "o.csv", "--min-item-events=-3"],
     "argument --min-item-events: expected an integer of at least 0"),
    (["train", *_D, "--output", "m", "--lambda", "1", "--fold-in", "1.5"],
     "argument --fold-in: expected a number in (0, 1)"),
    (["evaluate", *_D, "--model", "m", "--fold-in", "0"],
     "argument --fold-in: expected a number in (0, 1)"),
    (["train", *_D, "--output", "m", "--lambda", "1", "--disjoint", "--exact-expectation",
      "--split-fraction", "1"], "argument --split-fraction: expected a number in (0, 1)"),
], ids=["train-lambda-zero", "train-lambda-negative", "train-grid-zero", "train-grid-empty",
        "sparse-lambda", "sparse-threshold", "sparse-n-max", "evaluate-ndcg-k",
        "evaluate-recall-ks", "evaluate-recall-ks-comma", "evaluate-recall-ks-blank",
        "evaluate-time-intervals", "rescale-intervals", "recommend-top-k",
        "split-seed", "evaluate-seed", "split-n-val", "split-n-test", "ingest-min-user-events",
        "ingest-min-item-events", "train-fold-in-above", "evaluate-fold-in-zero",
        "train-split-fraction"])
def test_range_checked_options_exit_1_before_reading(capsys, argv, message):
    # d.csv, s and m do not exist: the parser refuses the value before any
    # file is opened
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


def test_every_numeric_option_is_range_checked():
    """No option of any command takes a bare float or int: every number
    passes through a type that refuses non-finite and out-of-range values."""
    commands = gramrec.cli.build_parser().commands
    bare = [f"{name} {action.option_strings[0]}" for name, command in commands.items()
            for action in command._actions if action.type in (float, int)]
    assert bare == []


def test_cli_defaults_are_the_library_constants():
    """Each default the CLI shares with the library is its one constant,
    which the library's own defaults read too, and help shows it by
    %(default)s instead of restating it."""
    parser = gramrec.cli.build_parser()
    evaluate = parser.parse_args(["evaluate", *_D, "--model", "m", "--time-intervals", "2"])
    assert evaluate.recall_ks == list(DEFAULT_RECALL_KS) == [20, 50]
    assert evaluate.ndcg_k == DEFAULT_NDCG_K == 100
    assert evaluate.fold_in == DEFAULT_FOLD_IN == 0.8  # perfbench relies on the 0.8
    assert evaluate.alpha == DEFAULT_ALPHA == 0.5
    rescale = parser.parse_args(["rescale", *_D, "--model", "m", "--weights-out", "w"])
    assert rescale.alpha == DEFAULT_ALPHA
    sparse = parser.parse_args(["train-sparse", *_D, "--output", "m", "--lambda", "1",
                                "--threshold", "0.1"])
    assert sparse.n_max == DEFAULT_N_MAX == 1000
    library = {
        (evaluate_model, "recall_ks"): DEFAULT_RECALL_KS,
        (evaluate_model, "ndcg_k"): DEFAULT_NDCG_K,
        (evaluate_time_aware, "recall_ks"): DEFAULT_RECALL_KS,
        (evaluate_time_aware, "ndcg_k"): DEFAULT_NDCG_K,
        (load_split_files, "fold_in_fraction"): DEFAULT_FOLD_IN,
        (SplitSpec, "fold_in_fraction"): DEFAULT_FOLD_IN,
        (threshold_pattern, "n_max"): DEFAULT_N_MAX,
    }
    for (fn, name), constant in library.items():
        assert inspect.signature(fn).parameters[name].default is constant, (fn, name)
    restated = [f"{name} {action.option_strings[0]}" for name, command in parser.commands.items()
                for action in command._actions if action.default is not None
                and "(default " in (action.help or "") and "%(default)s" not in action.help]
    assert restated == []


@pytest.mark.parametrize("argv", [
    ["popularity", "--data", "d.csv", "--output", "p.csv", "--fold-in", "0.5"],
    ["popularity", "--data", "d.csv", "--output", "p.csv", "--split-dir", "s", "--seed", "3"],
    ["train-sparse", *_D, "--output", "m", "--lambda", "1", "--threshold", "0.1", "--fold-in", "0.5"],
    ["rescale", *_D, "--model", "m", "--weights-out", "w", "--fold-in", "0.5"],
], ids=["popularity-fold-in", "popularity-seed", "train-sparse-fold-in", "rescale-fold-in"])
def test_commands_that_fold_no_users_refuse_fold_options(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "train-sparse"])
def test_memory_error_exits_2_with_a_message(workdir, tmp_path, capsys, monkeypatch, command):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(gramrec.cli, "build_gram", exhausted)
    out = tmp_path / "m"
    argv = [command, "--data", str(workdir["data"]), "--split-dir", str(workdir["splits"]),
            "--lambda", "2", "--output", str(out)]
    assert main(argv + (["--threshold", "0.1"] if command == "train-sparse" else [])) == 2
    err = capsys.readouterr().err
    assert f"error: {command} ran out of memory" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_non_finite_config_entry_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": float("nan")}), encoding="utf-8")  # JSON NaN
    with pytest.raises(SystemExit) as exc:
        main(["train", *_D, "--output", "m", "--config", str(cfg)])
    assert exc.value.code == 1
    assert "argument --lambda: expected a finite number, got 'nan'" in capsys.readouterr().err


@pytest.mark.parametrize("extra,message", [
    (["--mode", "time", "--weights-out", "w"], "--mode time needs --intervals and --at-time"),
    ([], "nothing to do"),
])
def test_rescale_usage_checked_before_loading(tmp_path, capsys, extra, message):
    missing = str(tmp_path / "missing")
    argv = ["rescale", "--data", missing, "--split-dir", missing, "--model", missing, *extra]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("options,config", [
    (["--intervals", "3"], {}),
    (["--at-time", "5"], {}),
    ([], {"intervals": 3}),
    (["--mode", "remove-pop"], {"at_time": 5}),
], ids=["intervals", "at-time", "intervals-config", "at-time-config"])
def test_rescale_remove_pop_refuses_time_options(tmp_path, capsys, options, config):
    # checked before the data are read, by flag or by config entry alike
    missing = str(tmp_path / "missing")
    argv = ["rescale", "--data", missing, "--split-dir", missing, "--model", missing,
            "--weights-out", str(tmp_path / "w.csv"), *options]
    if config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert "--intervals and --at-time apply only with --mode time" in capsys.readouterr().err
    assert not (tmp_path / "w.csv").exists()


def _commands_after_ingest(out):
    """Every command the benchmark runs after ``ingest``, on ``out/data.csv``."""
    common = ["--data", str(out / "data.csv"), "--split-dir", str(out / "split")]
    model = ["--model", str(out / "model.ease")]
    return [
        ["split", "--data", str(out / "data.csv"), "--output-dir", str(out / "split"),
         "--n-val", "4", "--n-test", "6"],
        ["train", *common, "--lambda-grid", "1,10", "--output", str(out / "model.ease")],
        ["train-sparse", *common, "--lambda", "2", "--threshold", "0.05",
         "--output", str(out / "model.easp")],
        ["rescale", *common, *model, "--output", str(out / "model.rescaled")],
        ["evaluate", *common, *model, "--report-json", str(out / "report.json")],
        ["evaluate", *common, *model, "--time-intervals", "3",
         "--report-json", str(out / "report_time.json")],
    ]


def test_commands_after_ingest_skip_the_parser(workdir, tmp_path, monkeypatch, capsys):
    """With the container ``ingest`` wrote, no later command parses the CSV,
    and each writes the bytes it writes when the CSV is parsed."""
    from gramrec import data

    def refuse(*args, **kwargs):
        raise AssertionError("the CSV was parsed")

    ingest = ["ingest", "--input", str(workdir["raw"]), "--user-col", "user", "--item-col", "item",
              "--value-col", "rating", "--time-col", "ts", "--min-value", "1"]
    stdout = {}
    for name in ("container", "parsed"):
        out = tmp_path / name
        out.mkdir()
        assert main([*ingest, "--output", str(out / "data.csv")]) == 0
        with monkeypatch.context() as m:
            if name == "container":
                m.setattr(data, "_chunks", refuse)
            else:
                (out / "data.csv.events").unlink()
            capsys.readouterr()
            for argv in _commands_after_ingest(out):
                assert main(argv) == 0, argv
            stdout[name] = capsys.readouterr().out
    assert stdout["container"] == stdout["parsed"] != ""
    outputs = ["data.csv", "model.ease", "model.easp", "model.rescaled", "report.json",
               "report_time.json", "split/train_users.txt", "split/validation_users.txt",
               "split/test_users.txt"]
    for name in outputs:
        assert (tmp_path / "container" / name).read_bytes() == (tmp_path / "parsed" / name).read_bytes(), name


@pytest.mark.parametrize("name,value", [
    ("user_ids", 10**9), ("user_ids", -1), ("item_ids", 10), ("item_ids", -1),
    ("values", np.nan), ("values", -np.inf),
])
def test_event_container_with_an_entry_out_of_range_is_not_used(workdir, tmp_path, capsys, name,
                                                                 value):
    """One entry of the event container set out of range (an id outside its
    key table, 10 items here, or a value that is not finite) and the file
    written again, so its sha256 holds: ``evaluate`` and ``popularity`` parse
    the CSV, and write what they write with the container deleted."""
    whole = load_interactions(workdir["data"])
    split = load_split_files(workdir["splits"], whole.user_index)
    # the edited event is a training user's, neither the last user's nor of
    # the last item, so that an id read as a wrapped index would move it
    assert whole.user_ids[0] in split.train_users and whole.n_users - 1 not in split.train_users
    assert whole.item_ids[0] != whole.n_items - 1 == 9
    outputs = {}
    for case in ("edited", "deleted"):
        d = tmp_path / case
        d.mkdir()
        shutil.copy(workdir["data"], d / "data.csv")
        if case == "edited":
            c = read_container(f"{workdir['data']}.events", "events", verify=True)
            arrays = {key: arr.copy() for key, arr in c.arrays.items()}
            arrays[name][0] = value
            write_container(d / "data.csv.events", "events", c.n_items, c.meta, arrays, c.keys)
        common = ["--data", str(d / "data.csv"), "--split-dir", str(workdir["splits"])]
        codes = (main(["evaluate", *common, "--model", str(workdir["model"]),
                       "--report-json", str(d / "report.json")]),
                 main(["popularity", *common, "--output", str(d / "pop.csv")]))
        outputs[case] = (codes, capsys.readouterr().out,
                         (d / "report.json").read_bytes(), (d / "pop.csv").read_bytes())
    assert outputs["edited"] == outputs["deleted"]
    assert outputs["deleted"][0] == (0, 0)


def _child(code: str, cwd=None) -> str:
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd,
                         env=child_env())
    assert res.returncode == 0, res.stderr
    return res.stdout


# ``python -m gramrec``, with ``gramrec.cli.main`` replaced by a probe of the collector
_PROBE_ENTRY = """
import gc, runpy
import gramrec.cli
def main():
    print(gc.get_freeze_count() > 0, gc.isenabled())
    return 0
gramrec.cli.main = main
runpy.run_module("gramrec", run_name="__main__")
"""


def test_process_entry_freezes_the_import_time_heap():
    assert _child(_PROBE_ENTRY).split() == ["True", "True"]


def test_children_import_this_checkout_from_any_directory(tmp_path):
    assert Path(_child("import gramrec; print(gramrec.__file__)", cwd=tmp_path).strip()) \
        == SRC / "gramrec" / "__init__.py"
    res = run_cli(["--help"], cwd=tmp_path)
    assert res.returncode == 0 and "usage: gramrec" in res.stdout, res.stderr


def test_import_leaves_the_collector_alone():
    code = "import gc, gramrec.cli; print(gc.get_freeze_count(), gc.isenabled())"
    assert _child(code).split() == ["0", "True"]


def test_main_in_process_leaves_the_collector_alone(workdir, tmp_path):
    before = gc.get_freeze_count()
    assert main(["popularity", "--data", str(workdir["data"]), "--output", str(tmp_path / "pop.csv")]) == 0
    assert gc.get_freeze_count() == before and gc.isenabled()


def test_module_path_is_refused_without_running_a_command():
    """``python -m gramrec.cli`` names the entry instead of exiting 0 with
    nothing done."""
    res = subprocess.run([sys.executable, "-m", "gramrec.cli", "train", "--data", "nowhere.csv"],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == "error: run gramrec as 'gramrec' or 'python -m gramrec'\n"


def test_installed_script_is_the_entry_python_m_runs():
    """The ``[project.scripts]`` target is what ``__main__.py`` calls."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gramrec"]
    module, name = target.split(":")
    # the probe names the module that called it
    code = (f"import runpy, sys, {module}\n"
            f"setattr({module}, {name!r}, lambda: print(sys._getframe(1).f_globals['__spec__'].name) or 0)\n"
            "runpy.run_module('gramrec', run_name='__main__')\n")
    assert _child(code) == "gramrec.__main__\n"
