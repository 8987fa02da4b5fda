"""Command-line pipeline: ingest, split, train, evaluate, recommend.

One binary with subcommands.  Options can come from a JSON config file
(--config) whose keys are the option names with underscores; flags given on
the command line win.  Exit codes: 0 success, 1 usage, 2 data error,
3 numeric failure.  All output files are written to a temporary name and
renamed, so a failed run leaves nothing half-written behind.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .data import (
    DEDUP_POLICIES,
    InteractionSchema,
    InteractionSet,
    PopularityVector,
    filter_activity,
    load_interactions,
    load_split_files,
    popularity,
    save_split_files,
    split_strong_generalization,
    time_intervals,
    to_user_item_matrix,
)
from .errors import DataError, GramrecError, NumericalError
from .evaluation import (
    PopularityScorer,
    evaluate_model,
    evaluate_time_aware,
    grid_search_lambda,
    popularity_rank,
    score_histories,
)
from .files import atomic_write, read_item_csv
from .gram import build_disjoint_gram, build_gram, build_user_weighted_gram
from .solver import (
    DenseModel,
    load_model,
    save_model,
    solve_rr,
    solve_zero_diag,
)
from .sparse import load_sparse_model, save_sparse_model, train_sparse
from .weighting import (
    DEFAULT_EPSILON,
    apply_item_rescaling,
    load_weights_csv,
    popularity_weights,
    save_weights_csv,
    time_popularity_weights,
)

_VARIANT_FLAGS = {"rr": solve_rr, "zero-diag": solve_zero_diag}
_ROWS_PER_WRITE = 4096  # canonical CSV rows per file write in ingest


class UsageError(Exception):
    """Bad or missing options after config merging; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _write_text(path: str | Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def _opt(args, name, default=None):
    """Command-line value if given, else config-file value, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return args._cfg.get(name, default)


def _require(args, name, flag):
    value = _opt(args, name)
    if value is None:
        raise UsageError(f"{flag} is required (flag or config key {name!r})")
    return value


def _float_list(value, flag) -> list[float]:
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [tok for tok in str(value).split(",") if tok.strip()]
    try:
        return [float(v) for v in items]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {value!r}") from None


def _int_list(value, flag) -> list[int]:
    values = _float_list(value, flag)
    if not all(v.is_integer() for v in values):
        raise UsageError(f"{flag} expects comma-separated integers, got {value!r}")
    return [int(v) for v in values]


def _check_lambda(lam) -> float:
    lam = float(lam)
    if lam <= 0:
        raise UsageError(f"--lambda must be positive, got {lam}")
    return lam


def _check_alpha(alpha) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise UsageError(f"--alpha must be in [0, 1], got {alpha}")
    return alpha


def _schema_from_args(args) -> InteractionSchema | None:
    user = _opt(args, "user_col")
    item = _opt(args, "item_col")
    value = _opt(args, "value_col")
    tcol = _opt(args, "time_col")
    if user is None and item is None and value is None and tcol is None:
        return None
    if user is None or item is None:
        raise UsageError("--user-col and --item-col must be given together")
    return InteractionSchema(user=user, item=item, value=value, time=tcol)


def _load_dataset(args):
    path = _require(args, "data", "--data")
    iset = load_interactions(path)
    binarize = bool(_opt(args, "binarize", False))
    matrix = to_user_item_matrix(iset, binarize=binarize)
    return iset, matrix


def _load_split(args, iset):
    split_dir = _require(args, "split_dir", "--split-dir")
    fraction = float(_opt(args, "fold_in", 0.8))
    seed = int(_opt(args, "seed", 0))
    return load_split_files(split_dir, iset.user_index, fold_in_fraction=fraction, seed=seed)


def _load_any_model(path: str):
    """Dense or sparse model file, detected by its magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"EASE":
        return load_model(path)
    if magic == b"EASP":
        return load_sparse_model(path)
    raise DataError(f"{path}: not a model file (magic {magic!r})")


def _check_model_keys(item_keys, iset: InteractionSet, n_items: int) -> None:
    if n_items != iset.n_items:
        raise DataError(f"model has {n_items} items, data has {iset.n_items}")
    if item_keys is not None and item_keys != iset.item_keys:
        raise DataError("model item keys do not match the data; was it trained on this dataset?")


def _csv_field(key: str) -> str:
    """``key`` as csv.writer writes it within a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow((key,))
    return buf.getvalue()[:-2]


def cmd_ingest(args) -> int:
    src = _require(args, "input", "--input")
    dst = _require(args, "output", "--output")
    dedup = _opt(args, "dedup", "keep_max")
    if dedup not in DEDUP_POLICIES:
        raise UsageError(f"--dedup must be one of {DEDUP_POLICIES}, got {dedup!r}")
    min_value = _opt(args, "min_value")
    iset = load_interactions(
        src,
        fmt=_opt(args, "format", "csv"),
        schema=_schema_from_args(args),
        binarize=bool(_opt(args, "binarize", False)),
        dedup=dedup,
        min_value=None if min_value is None else float(min_value),
    )
    min_user = int(_opt(args, "min_user_events", 0))
    min_item = int(_opt(args, "min_item_events", 0))
    if min_user or min_item:
        iset = filter_activity(iset, min_user_events=min_user, min_item_events=min_item)
    # The rows csv.writer would write: each key's field and each distinct
    # value's repr is rendered once (bit patterns, so -0.0 stays apart from 0.0).
    user_fields = list(map(_csv_field, iset.user_keys))
    item_fields = list(map(_csv_field, iset.item_keys))
    bits, value_of = np.unique(iset.values.view(np.int64), return_inverse=True)
    value_texts = list(map(repr, bits.view(np.float64).tolist()))
    has_time = iset.timestamps is not None
    with atomic_write(dst) as fh:
        fh.write("user,item,value" + (",timestamp" if has_time else "") + "\r\n")
        for lo in range(0, iset.n_events, _ROWS_PER_WRITE):
            rows = slice(lo, lo + _ROWS_PER_WRITE)
            cols = [
                map(user_fields.__getitem__, iset.user_ids[rows].tolist()),
                map(item_fields.__getitem__, iset.item_ids[rows].tolist()),
                map(value_texts.__getitem__, value_of[rows].tolist()),
            ]
            if has_time:
                cols.append(map(repr, iset.timestamps[rows].astype(float).tolist()))
            fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")
    _log(f"ingested {iset.n_events} events, {iset.n_users} users, {iset.n_items} items -> {dst}")
    return 0


def cmd_split(args) -> int:
    iset = load_interactions(_require(args, "data", "--data"))
    out_dir = _require(args, "output_dir", "--output-dir")
    n_val = int(_require(args, "n_val", "--n-val"))
    n_test = int(_require(args, "n_test", "--n-test"))
    seed = int(_opt(args, "seed", 0))
    split = split_strong_generalization(iset, n_val=n_val, n_test=n_test, seed=seed)
    save_split_files(out_dir, split, iset.user_keys)
    _log(
        f"split {iset.n_users} users into {len(split.train_users)} train, "
        f"{len(split.validation_users)} validation, {len(split.test_users)} test -> {out_dir}"
    )
    return 0


def _build_train_gram(args, iset, matrix, split):
    train_matrix = matrix.restrict_users(split.train_users)
    disjoint = bool(_opt(args, "disjoint", False))
    center = bool(_opt(args, "center", False))
    user_weights_path = _opt(args, "user_weights")
    if disjoint + center + (user_weights_path is not None) > 1:
        raise UsageError("--disjoint, --center and --user-weights are mutually exclusive")
    if disjoint:
        exact = bool(_opt(args, "exact_expectation", False))
        fraction = float(_opt(args, "split_fraction", 0.05))
        return build_disjoint_gram(
            train_matrix, explicit_lambda=not exact, split_fraction=fraction
        )
    if user_weights_path is not None:
        w_all = load_weights_csv(user_weights_path, iset.user_index).w
        return build_user_weighted_gram(
            train_matrix, train_matrix, w_all[split.train_users]
        )
    return build_gram(train_matrix, train_matrix, center_y=center)


def cmd_train(args) -> int:
    iset, matrix = _load_dataset(args)
    split = _load_split(args, iset)
    out_path = _require(args, "output", "--output")
    variant = _opt(args, "variant", "zero-diag")
    if variant not in _VARIANT_FLAGS:
        raise UsageError(f"--variant must be one of {sorted(_VARIANT_FLAGS)}, got {variant!r}")
    grid = _opt(args, "lambda_grid")
    lam = _opt(args, "lambda")
    if (grid is None) == (lam is None):
        raise UsageError("exactly one of --lambda and --lambda-grid is required")

    t0 = time.perf_counter()
    gram = _build_train_gram(args, iset, matrix, split)
    t_gram = time.perf_counter()
    _log(f"phase gram: {t_gram - t0:.2f}s ({gram.n_items} items, {gram.n_users} users)")

    solver_fn = _VARIANT_FLAGS[variant]
    if grid is not None:
        lams = [_check_lambda(v) for v in _float_list(grid, "--lambda-grid")]
        lam, reports, model = grid_search_lambda(gram, matrix, split, lams, solver=solver_fn)
        _log(f"phase grid search: {time.perf_counter() - t_gram:.2f}s")
        for val in sorted(reports):
            mean, stderr = reports[val].metrics["ndcg@100"]
            _log(f"grid lambda={val:g}: ndcg@100 = {mean:.5f} (stderr {stderr:.5f})")
        _log(f"grid search chose lambda={lam:g}")
    else:
        lam = _check_lambda(lam)
        model = solver_fn(gram, lam)
        _log(f"phase solve: {time.perf_counter() - t_gram:.2f}s")

    save_model(out_path, model, item_keys=iset.item_keys)
    _log(f"trained variant={model.variant} lambda={lam:g} -> {out_path}")
    return 0


def cmd_train_sparse(args) -> int:
    iset, matrix = _load_dataset(args)
    split = _load_split(args, iset)
    out_path = _require(args, "output", "--output")
    lam = _check_lambda(_require(args, "lambda", "--lambda"))
    theta = float(_require(args, "threshold", "--threshold"))
    if theta < 0:
        raise UsageError(f"--threshold must be non-negative, got {theta}")
    if theta == 0:
        _log("warning: threshold 0 keeps every pair; expect one giant block capped by --n-max")
    n_max = int(_opt(args, "n_max", 1000))
    if n_max < 1:
        raise UsageError(f"--n-max must be at least 1, got {n_max}")

    t0 = time.perf_counter()
    train_matrix = matrix.restrict_users(split.train_users)
    gram = build_gram(train_matrix, train_matrix)
    t_gram = time.perf_counter()
    _log(f"phase gram: {t_gram - t0:.2f}s ({gram.n_items} items, {gram.n_users} users)")
    model = train_sparse(gram, theta=theta, n_max=n_max, lam=lam)
    t_solve = time.perf_counter()
    _log(f"phase sparse solve: {t_solve - t_gram:.2f}s")
    _log(f"sparsity level {model.sparsity:.6f} ({model.values.nnz} non-zeros)")
    save_sparse_model(out_path, model, item_keys=iset.item_keys)
    _log(f"trained sparse lambda={lam:g} threshold={theta:g} -> {out_path}")
    return 0


def cmd_rescale(args) -> int:
    model_path = _require(args, "model", "--model")
    model, item_keys = load_model(model_path)
    iset, matrix = _load_dataset(args)
    split = _load_split(args, iset)
    _check_model_keys(item_keys, iset, model.n_items)
    mode = _opt(args, "mode", "remove-pop")
    alpha = _check_alpha(_opt(args, "alpha", 0.5))
    epsilon = float(_opt(args, "epsilon", DEFAULT_EPSILON))
    train_pop = popularity(matrix, split.train_users)
    if mode == "remove-pop":
        weights = popularity_weights(train_pop, alpha, epsilon)
    elif mode == "time":
        n_intervals = _require(args, "intervals", "--intervals")
        at_time = _require(args, "at_time", "--at-time")
        index = time_intervals(iset, int(n_intervals), user_subset=split.train_users)
        k = int(index.locate(np.asarray([float(at_time)]))[0])
        weights = time_popularity_weights(
            index.interval_popularity(k), index.total_popularity(), alpha, epsilon
        )
        _log(f"timestamp {at_time} falls into interval {k} of {index.n_intervals}")
    else:
        raise UsageError(f"--mode must be 'remove-pop' or 'time', got {mode!r}")
    weights_out = _opt(args, "weights_out")
    if weights_out is not None:
        save_weights_csv(weights_out, weights, iset.item_keys)
        _log(f"weights ({weights.kind}, alpha={alpha:g}) -> {weights_out}")
    out_path = _opt(args, "output")
    if out_path is not None:
        rescaled = apply_item_rescaling(model, weights)
        save_model(out_path, rescaled, item_keys=iset.item_keys)
        _log(f"rescaled model -> {out_path}")
    if weights_out is None and out_path is None:
        raise UsageError("nothing to do: give --weights-out and/or --output")
    return 0


def cmd_evaluate(args) -> int:
    iset, matrix = _load_dataset(args)
    split = _load_split(args, iset)
    baseline = _opt(args, "baseline")
    model_path = _opt(args, "model")
    if (baseline is None) == (model_path is None):
        raise UsageError("exactly one of --model and --baseline is required")
    if baseline is not None:
        if baseline != "popularity":
            raise UsageError(f"--baseline supports 'popularity', got {baseline!r}")
        model = PopularityScorer(popularity(matrix, split.train_users))
    else:
        model, item_keys = _load_any_model(model_path)
        _check_model_keys(item_keys, iset, model.n_items)
    recall_ks = tuple(_int_list(_opt(args, "recall_ks", "20,50"), "--recall-ks"))
    ndcg_k = int(_opt(args, "ndcg_k", 100))
    users = _opt(args, "users", "test")
    n_intervals = _opt(args, "time_intervals")
    if n_intervals is not None:
        alpha = _check_alpha(_opt(args, "alpha", 0.5))
        epsilon = float(_opt(args, "epsilon", DEFAULT_EPSILON))
        index = time_intervals(iset, int(n_intervals), user_subset=split.train_users)
        report = evaluate_time_aware(
            model,
            iset,
            split,
            matrix,
            index,
            alpha=alpha,
            epsilon=epsilon,
            recall_ks=recall_ks,
            ndcg_k=ndcg_k,
            users=users,
        )
    else:
        report = evaluate_model(
            model, matrix, split, recall_ks=recall_ks, ndcg_k=ndcg_k, users=users
        )
    sys.stdout.write(report.to_text())
    report_json = _opt(args, "report_json")
    if report_json is not None:
        _write_text(report_json, report.to_json())
        _log(f"report -> {report_json}")
    return 0


def cmd_recommend(args) -> int:
    model_path = _require(args, "model", "--model")
    model, item_keys = _load_any_model(model_path)
    if item_keys is None:
        raise DataError(f"{model_path}: model file carries no item keys; cannot map history")
    item_index = {key: i for i, key in enumerate(item_keys)}
    top_k = int(_opt(args, "top_k", 10))
    if top_k < 0:
        raise UsageError(f"--top-k must be non-negative, got {top_k}")
    weights_path = _opt(args, "weights")
    if weights_path is not None:
        if not isinstance(model, DenseModel):
            raise DataError("--weights applies to dense model files")
        model = apply_item_rescaling(model, load_weights_csv(weights_path, item_index))
    history_arg = _opt(args, "history", "")
    keys = [k for k in str(history_arg).split(",") if k]
    ids = []
    for key in keys:
        if key in item_index:
            ids.append(item_index[key])
        else:
            _log(f"warning: unknown item key {key!r} dropped from history")
    ids = sorted(set(ids))
    n = model.n_items
    if ids:
        xin = sp.csr_matrix(
            (np.ones(len(ids)), np.asarray(ids, dtype=np.int64), np.asarray([0, len(ids)])),
            shape=(1, n),
        )
        scores = score_histories(model, xin)[0]
        scores[ids] = -np.inf
        ranked = np.argsort(-scores, kind="stable")
    else:
        pop_path = _opt(args, "popularity")
        if pop_path is None:
            raise DataError(
                "history is empty after dropping unknown keys and no --popularity "
                "file is available for the fallback ranking"
            )
        _log("warning: empty history; falling back to popularity order")
        pop = PopularityVector(read_item_csv(pop_path, item_index, "count", 0.0)[0])
        ranked = popularity_rank(pop)
        scores = pop.pop
    for rank in range(min(top_k, n - len(ids))):
        item = int(ranked[rank])
        sys.stdout.write(f"{rank + 1}\t{item_keys[item]}\t{float(scores[item])!r}\n")
    return 0


def cmd_popularity(args) -> int:
    iset, matrix = _load_dataset(args)
    out_path = _require(args, "output", "--output")
    split_dir = _opt(args, "split_dir")
    if split_dir is not None:
        split = _load_split(args, iset)
        pop = popularity(matrix, split.train_users)
        _log(f"popularity over {len(split.train_users)} training users")
    else:
        pop = popularity(matrix)
    with atomic_write(out_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["item", "count"])
        for i, key in enumerate(iset.item_keys):
            writer.writerow([key, repr(float(pop.pop[i]))])
    _log(f"popularity for {iset.n_items} items -> {out_path}")
    return 0


def _add_data_options(p) -> None:
    p.add_argument("--data", help="canonical interactions CSV (from ingest)")
    p.add_argument("--binarize", action="store_true", default=None,
                   help="binarize values when building the user-item matrix")


def _add_split_options(p) -> None:
    p.add_argument("--split-dir", dest="split_dir", help="directory written by the split command")
    p.add_argument("--fold-in", dest="fold_in", type=float,
                   help="fraction of each evaluation row fed to the model (default 0.8)")
    p.add_argument("--seed", type=int, help="seed for all randomness (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gramrec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("ingest", help="normalize a raw interactions file")
    p.add_argument("--input", help="raw CSV/TSV file with a header row")
    p.add_argument("--output", help="canonical CSV to write")
    p.add_argument("--format", choices=("csv", "tsv"), help="input delimiter (default csv)")
    p.add_argument("--user-col", dest="user_col")
    p.add_argument("--item-col", dest="item_col")
    p.add_argument("--value-col", dest="value_col")
    p.add_argument("--time-col", dest="time_col")
    p.add_argument("--min-value", dest="min_value", type=float,
                   help="drop events with value below this before anything else")
    p.add_argument("--binarize", action="store_true", default=None,
                   help="write all kept values as 1.0")
    p.add_argument("--dedup", help="duplicate (user,item) policy: keep_max, keep_last, error")
    p.add_argument("--min-user-events", dest="min_user_events", type=int)
    p.add_argument("--min-item-events", dest="min_item_events", type=int)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="partition users into train/validation/test")
    _add_data_options(p)
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--n-val", dest="n_val", type=int)
    p.add_argument("--n-test", dest="n_test", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a dense model on the training users")
    _add_data_options(p)
    _add_split_options(p)
    p.add_argument("--output", help="model file to write")
    p.add_argument("--lambda", type=float, help="regularization strength")
    p.add_argument("--lambda-grid", dest="lambda_grid",
                   help="comma-separated candidates; best on validation users wins")
    p.add_argument("--variant", choices=sorted(_VARIANT_FLAGS),
                   help="rr or zero-diag (default)")
    p.add_argument("--center", action="store_true", default=None,
                   help="center target columns; means are added back at scoring")
    p.add_argument("--disjoint", action="store_true", default=None,
                   help="expected statistics of random disjoint input/target splits")
    p.add_argument("--exact-expectation", dest="exact_expectation", action="store_true",
                   default=None, help="keep the exact split expectations (with --disjoint)")
    p.add_argument("--split-fraction", dest="split_fraction", type=float,
                   help="target fraction for --exact-expectation (default 0.05)")
    p.add_argument("--user-weights", dest="user_weights",
                   help="CSV of per-user error weights")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-sparse", help="train a block-wise sparse model")
    _add_data_options(p)
    _add_split_options(p)
    p.add_argument("--output")
    p.add_argument("--lambda", type=float)
    p.add_argument("--threshold", type=float, help="minimum |correlation| kept in the pattern")
    p.add_argument("--n-max", dest="n_max", type=int, help="per-column cap (default 1000)")
    p.set_defaults(func=cmd_train_sparse)

    p = sub.add_parser("rescale", help="build item weights and optionally a rescaled model")
    _add_data_options(p)
    _add_split_options(p)
    p.add_argument("--model", help="trained dense model file")
    p.add_argument("--mode", help="remove-pop (default) or time")
    p.add_argument("--alpha", type=float, help="re-scaling exponent (default 0.5)")
    p.add_argument("--epsilon", type=float, help="additive popularity smoothing")
    p.add_argument("--intervals", type=int, help="number of equal-count time intervals")
    p.add_argument("--at-time", dest="at_time", type=float,
                   help="timestamp whose interval supplies the weights (mode time)")
    p.add_argument("--weights-out", dest="weights_out", help="weight CSV to write")
    p.add_argument("--output", help="rescaled model file to write")
    p.set_defaults(func=cmd_rescale)

    p = sub.add_parser("evaluate", help="strong-generalization ranking report")
    _add_data_options(p)
    _add_split_options(p)
    p.add_argument("--model", help="model file (dense or sparse)")
    p.add_argument("--baseline", help="'popularity' to score by training popularity")
    p.add_argument("--users", choices=("test", "validation"))
    p.add_argument("--recall-ks", dest="recall_ks", help="comma-separated cutoffs (default 20,50)")
    p.add_argument("--ndcg-k", dest="ndcg_k", type=int, help="gain cutoff (default 100)")
    p.add_argument("--time-intervals", dest="time_intervals", type=int,
                   help="evaluate per event with interval popularity re-scaling")
    p.add_argument("--alpha", type=float, help="re-scaling exponent for --time-intervals")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--report-json", dest="report_json", help="write the report as JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-k items for an ad-hoc history")
    p.add_argument("--model", help="model file (dense or sparse)")
    p.add_argument("--history", help="comma-separated item keys")
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--weights", help="item weight CSV applied by column scaling")
    p.add_argument("--popularity", help="popularity CSV for the empty-history fallback")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("popularity", help="write per-item interaction counts")
    _add_data_options(p)
    _add_split_options(p)
    p.add_argument("--output", help="CSV to write")
    p.set_defaults(func=cmd_popularity)

    for sub_parser in sub.choices.values():
        sub_parser.add_argument("--config", help="JSON file with defaults for any option")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    cfg_path = getattr(args, "config", None)
    args._cfg = {}
    if cfg_path is not None:
        try:
            with open(cfg_path, "r", encoding="utf-8") as fh:
                args._cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            print(f"error: {cfg_path}: invalid JSON config: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        if not isinstance(args._cfg, dict):
            print(f"error: {cfg_path}: config must be a JSON object", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GramrecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
