"""Command-line pipeline: ingest, split, train, evaluate, recommend.

One binary with subcommands.  Options can come from a JSON config file
(--config) whose keys are the option names with underscores; each entry is
turned into a flag and checked by the same parser, and flags given on the
command line win.  Exit codes: 0 success, 1 usage, 2 data error,
3 numeric failure.  All output files are written to a temporary name and
renamed, so a failed run leaves nothing half-written behind.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
    events_of,
    filter_activity,
    load_interactions,
    load_split_files,
    popularity,
    save_interactions,
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
from .files import atomic_write, container_kind, read_key_csv
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


class UsageError(Exception):
    """Options the parser accepts but the command cannot use; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 1, not 2, and that
    takes no abbreviated option names."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _write_text(path: str | Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def _number(cast, ok, expected: str):
    """argparse type of a numeric option: ``cast`` parses the text, a float
    must be finite, and ``ok`` must hold of the value, which the message
    then names as ``expected``."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        if cast is float and not np.isfinite(value):
            raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_finite_float = _number(float, lambda v: True, "a finite number")
_positive_float = _number(float, lambda v: v > 0.0, "a positive number")
_unit_float = _number(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_open_unit_float = _number(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_non_negative_float = _number(float, lambda v: v >= 0.0, "a non-negative number")


def _int_at_least(low: int):
    """argparse type of an integer option of at least ``low``."""
    return _number(int, lambda v: v >= low, f"an integer of at least {low}")


def _positive_floats(text: str) -> list[float]:
    """argparse type of --lambda-grid: a non-empty comma-separated list of
    finite numbers above 0."""
    values = [_positive_float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return values


def _cutoff_list(text: str) -> list[int]:
    """argparse type of --recall-ks: a non-empty comma-separated list of
    integers of at least 1."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one cutoff, got {text!r}")
    if not all(v.is_integer() for v in values):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not all(v >= 1 for v in values):
        raise argparse.ArgumentTypeError(f"expected cutoffs of at least 1, got {text!r}")
    return [int(v) for v in values]


def _schema_from_args(args) -> InteractionSchema | None:
    columns = (args.user_col, args.item_col, args.value_col, args.time_col)
    if all(c is None for c in columns):
        return None
    if args.user_col is None or args.item_col is None:
        raise UsageError("--user-col and --item-col must be given together")
    return InteractionSchema(*columns)


def _load_events(args) -> InteractionSet:
    return load_interactions(args.data, binarize=args.binarize)


def _load_split(args, iset):
    return load_split_files(args.split_dir, iset.user_index, fold_in_fraction=args.fold_in,
                            seed=args.seed)


def _load_any_model(path: str):
    """Dense or sparse model file, told apart by the kind of its container,
    refused when its bytes fail their sha256."""
    kind = container_kind(path)
    loader = {"dense_model": load_model, "sparse_model": load_sparse_model}.get(kind)
    if loader is None:
        raise DataError(f"{path}: holds a container of kind {kind!r}, not a model")
    return loader(path, verify=True)


def _check_model_keys(item_keys, data_keys: list[str], n_items: int) -> None:
    if n_items != len(data_keys):
        raise DataError(f"model has {n_items} items, data has {len(data_keys)}")
    if item_keys is not None and item_keys != data_keys:
        raise DataError("model item keys do not match the data; was it trained on this dataset?")


def cmd_ingest(args) -> int:
    iset = load_interactions(
        args.input,
        fmt=args.format,
        schema=_schema_from_args(args),
        binarize=args.binarize,
        dedup=args.dedup,
        min_value=args.min_value,
    )
    if args.min_user_events or args.min_item_events:
        iset = filter_activity(iset, min_user_events=args.min_user_events,
                               min_item_events=args.min_item_events)
    save_interactions(args.output, iset)
    _log(f"ingested {iset.n_events} events, {iset.n_users} users, {iset.n_items} items "
         f"-> {args.output}")
    return 0


def cmd_split(args) -> int:
    iset = load_interactions(args.data)
    split = split_strong_generalization(iset, n_val=args.n_val, n_test=args.n_test, seed=args.seed)
    save_split_files(args.output_dir, split, iset.user_keys)
    _log(
        f"split {iset.n_users} users into {len(split.train_users)} train, "
        f"{len(split.validation_users)} validation, {len(split.test_users)} test "
        f"-> {args.output_dir}"
    )
    return 0


def _training_user_weights(path: str, iset: InteractionSet, split) -> np.ndarray:
    """The weights of a ``user,weight`` CSV for the training users, in
    their order; users outside the training set need no weight."""
    w = read_key_csv(path, iset.user_index, "user", "weight", np.nan)[0][split.train_users]
    missing = int(np.isnan(w).sum())
    if missing:
        raise DataError(f"{path}: {missing} training users received no weight")
    return w


def _train_gram(matrix, split, build, **options):
    """``build(train_matrix, **options)``: fresh statistics of the training
    users, logged as a ``phase gram:`` line."""
    t0 = time.perf_counter()
    gram = build(matrix.restrict_users(split.train_users), **options)
    _log(f"phase gram: {time.perf_counter() - t0:.2f}s ({gram.n_items} items, "
         f"{gram.n_users} users, packed G {gram.g.nbytes} bytes)")
    return gram


def cmd_train(args) -> int:
    if args.exact_expectation and not args.disjoint:
        raise UsageError("--exact-expectation applies only with --disjoint")
    if args.split_fraction is not None and not args.exact_expectation:
        raise UsageError("--split-fraction applies only with --exact-expectation")
    iset = _load_events(args)
    matrix = to_user_item_matrix(iset)
    split = _load_split(args, iset)
    if args.disjoint:
        fraction = 0.05 if args.split_fraction is None else args.split_fraction
        builder, options = build_disjoint_gram, {"split_fraction": fraction,
                                                 "explicit_lambda": not args.exact_expectation}
    elif args.user_weights is not None:
        w_u = _training_user_weights(args.user_weights, iset, split)
        builder, options = build_user_weighted_gram, {"w_u": w_u}
    else:
        builder, options = build_gram, {"center": args.center}
    item_keys = iset.item_keys
    del iset  # before G is built
    # Each call builds G afresh: the solvers below factor it in place.
    build = functools.partial(_train_gram, matrix, split, builder, **options)

    solver_fn = _VARIANT_FLAGS[args.variant]
    if args.lambda_grid is not None:
        t0 = time.perf_counter()
        lam, reports, model = grid_search_lambda(build, matrix, split, args.lambda_grid,
                                                 solver=solver_fn)
        _log(f"phase grid search: {time.perf_counter() - t0:.2f}s")
        for val in sorted(reports):
            mean, stderr = reports[val].metrics["ndcg@100"]
            _log(f"grid lambda={val:g}: ndcg@100 = {mean:.5f} (stderr {stderr:.5f})")
        _log(f"grid search chose lambda={lam:g}")
    else:
        lam = getattr(args, "lambda")
        gram = build()
        t0 = time.perf_counter()
        model = solver_fn(gram, lam)
        _log(f"phase solve: {time.perf_counter() - t0:.2f}s")

    save_model(args.output, model, item_keys=item_keys)
    _log(f"trained variant={model.variant} lambda={lam:g} -> {args.output}")
    return 0


def cmd_train_sparse(args) -> int:
    iset = _load_events(args)
    matrix = to_user_item_matrix(iset)
    split = _load_split(args, iset)
    item_keys = iset.item_keys
    del iset  # before G is built
    lam, theta, n_max = getattr(args, "lambda"), args.threshold, args.n_max
    if theta == 0:
        _log("warning: threshold 0 keeps every pair; expect one giant block capped by --n-max")

    gram = _train_gram(matrix, split, build_gram)
    t0 = time.perf_counter()
    model = train_sparse(gram, theta=theta, n_max=n_max, lam=lam)
    _log(f"phase sparse solve: {time.perf_counter() - t0:.2f}s")
    _log(f"sparsity level {model.sparsity:.6f} ({model.values.nnz} non-zeros)")
    save_sparse_model(args.output, model, item_keys=item_keys)
    _log(f"trained sparse lambda={lam:g} threshold={theta:g} -> {args.output}")
    return 0


def cmd_rescale(args) -> int:
    if args.mode == "time" and (args.intervals is None or args.at_time is None):
        raise UsageError("--mode time needs --intervals and --at-time")
    if args.mode == "remove-pop" and (args.intervals is not None or args.at_time is not None):
        raise UsageError("--intervals and --at-time apply only with --mode time")
    if args.weights_out is None and args.output is None:
        raise UsageError("nothing to do: give --weights-out and/or --output")
    iset = _load_events(args)
    split = _load_split(args, iset)
    if args.mode == "time":
        index = time_intervals(iset, args.intervals, user_subset=split.train_users)
        k = int(index.locate(np.asarray([args.at_time]))[0])
        weights = time_popularity_weights(index.pops[k], index.pops.sum(axis=0), args.alpha,
                                          args.epsilon)
        _log(f"timestamp {args.at_time} falls into interval {k} of {index.n_intervals}")
    else:
        weights = popularity_weights(popularity(iset, split.train_users), args.alpha,
                                     args.epsilon)
    data_keys = iset.item_keys
    del iset  # before P is loaded
    model, item_keys = load_model(args.model, verify=True)
    _check_model_keys(item_keys, data_keys, model.n_items)
    if args.weights_out is not None:
        save_weights_csv(args.weights_out, weights, data_keys)
        _log(f"weights ({weights.kind}, alpha={args.alpha:g}) -> {args.weights_out}")
    if args.output is not None:
        rescaled = apply_item_rescaling(model, weights)
        save_model(args.output, rescaled, item_keys=data_keys)
        _log(f"rescaled model -> {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    iset = _load_events(args)
    split = _load_split(args, iset)
    pop = popularity(iset, split.train_users) if args.baseline is not None else None
    index = None
    if args.time_intervals is not None:
        index = time_intervals(iset, args.time_intervals, user_subset=split.train_users)
    data_keys = iset.item_keys
    evaluated = events_of(iset, split.users(args.users))  # with their ids
    del iset  # before P is loaded
    if index is None:  # the time-aware protocol folds the events themselves
        evaluated = to_user_item_matrix(evaluated)
    if pop is not None:
        model = PopularityScorer(pop)
    else:
        model, item_keys = _load_any_model(args.model)
        _check_model_keys(item_keys, data_keys, model.n_items)
    cutoffs = dict(recall_ks=tuple(args.recall_ks), ndcg_k=args.ndcg_k, users=args.users)
    if index is None:
        report = evaluate_model(model, evaluated, split, **cutoffs)
    else:
        report = evaluate_time_aware(model, evaluated, split, index, alpha=args.alpha,
                                     epsilon=args.epsilon, **cutoffs)
    sys.stdout.write(report.to_text())
    if args.report_json is not None:
        _write_text(args.report_json, report.to_json())
        _log(f"report -> {args.report_json}")
    return 0


def cmd_recommend(args) -> int:
    model, item_keys = _load_any_model(args.model)
    if item_keys is None:
        raise DataError(f"{args.model}: model file carries no item keys; cannot map history")
    item_index = {key: i for i, key in enumerate(item_keys)}
    top_k = args.top_k
    if args.weights is not None:
        if not isinstance(model, DenseModel):
            raise DataError("--weights applies to dense model files")
        model = apply_item_rescaling(model, load_weights_csv(args.weights, item_index))
    ids = []
    for key in filter(None, args.history.split(",")):
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
        if args.popularity is None:
            raise DataError(
                "history is empty after dropping unknown keys and no --popularity "
                "file is available for the fallback ranking"
            )
        _log("warning: empty history; falling back to popularity order")
        scores = read_key_csv(args.popularity, item_index, "item", "count", 0.0)[0]
        ranked = popularity_rank(scores)
    for rank in range(min(top_k, n - len(ids))):
        item = int(ranked[rank])
        sys.stdout.write(f"{rank + 1}\t{item_keys[item]}\t{float(scores[item])!r}\n")
    return 0


def cmd_popularity(args) -> int:
    iset = _load_events(args)
    if args.split_dir is not None:
        split = _load_split(args, iset)
        pop = popularity(iset, split.train_users)
        _log(f"popularity over {len(split.train_users)} training users")
    else:
        pop = popularity(iset)
    with atomic_write(args.output) as fh:
        writer = csv.writer(fh)
        writer.writerow(["item", "count"])
        for i, key in enumerate(iset.item_keys):
            writer.writerow([key, repr(float(pop[i]))])
    _log(f"popularity for {iset.n_items} items -> {args.output}")
    return 0


def _add_data_options(p) -> None:
    p.add_argument("--data", required=True, help="canonical interactions CSV (from ingest)")
    p.add_argument("--binarize", action="store_true",
                   help="count every event as 1.0 (matrix, popularity, time intervals)")


def _add_split_options(p, required: bool = True) -> None:
    p.add_argument("--split-dir", dest="split_dir", required=required,
                   help="directory written by the split command")
    p.add_argument("--fold-in", dest="fold_in", type=_open_unit_float, default=0.8,
                   help="fraction in (0, 1) of each evaluation row fed to the model (default 0.8)")
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="seed for all randomness (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gramrec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser,
                                required=True)
    parser.commands = sub.choices  # command name -> its parser, for --config

    p = sub.add_parser("ingest", help="normalize a raw interactions file")
    p.add_argument("--input", required=True, help="raw CSV/TSV file with a header row")
    p.add_argument("--output", required=True, help="canonical CSV to write")
    p.add_argument("--format", choices=("csv", "tsv"), default="csv",
                   help="input delimiter (default csv)")
    p.add_argument("--user-col", dest="user_col")
    p.add_argument("--item-col", dest="item_col")
    p.add_argument("--value-col", dest="value_col")
    p.add_argument("--time-col", dest="time_col")
    p.add_argument("--min-value", dest="min_value", type=_finite_float,
                   help="drop events with value below this before anything else")
    p.add_argument("--binarize", action="store_true", help="write all kept values as 1.0")
    p.add_argument("--dedup", choices=DEDUP_POLICIES, default="keep_max",
                   help="duplicate (user,item) policy (default keep_max)")
    p.add_argument("--min-user-events", dest="min_user_events", type=_int_at_least(0), default=0)
    p.add_argument("--min-item-events", dest="min_item_events", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="partition users into train/validation/test")
    p.add_argument("--data", required=True, help="canonical interactions CSV (from ingest)")
    p.add_argument("--output-dir", dest="output_dir", required=True)
    p.add_argument("--n-val", dest="n_val", type=_int_at_least(0), required=True)
    p.add_argument("--n-test", dest="n_test", type=_int_at_least(0), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a dense model on the training users")
    _add_data_options(p)
    _add_split_options(p)
    p.add_argument("--output", required=True, help="model file to write")
    lam = p.add_mutually_exclusive_group(required=True)
    lam.add_argument("--lambda", type=_positive_float, help="regularization strength")
    lam.add_argument("--lambda-grid", dest="lambda_grid", type=_positive_floats,
                     help="comma-separated candidates; best on validation users wins")
    p.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), default="zero-diag",
                   help="rr or zero-diag (default)")
    gram = p.add_mutually_exclusive_group()
    gram.add_argument("--center", action="store_true",
                      help="center target columns; means are added back at scoring")
    gram.add_argument("--disjoint", action="store_true",
                      help="expected statistics of random disjoint input/target splits")
    p.add_argument("--exact-expectation", dest="exact_expectation", action="store_true",
                   help="keep the exact split expectations (with --disjoint)")
    p.add_argument("--split-fraction", dest="split_fraction", type=_open_unit_float,
                   help="target fraction in (0, 1) for --exact-expectation (default 0.05)")
    gram.add_argument("--user-weights", dest="user_weights",
                      help="user,weight CSV of error weights for the training users")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-sparse", help="train a block-wise sparse model")
    _add_data_options(p)
    _add_split_options(p)
    p.add_argument("--output", required=True)
    p.add_argument("--lambda", type=_positive_float, required=True)
    p.add_argument("--threshold", type=_non_negative_float, required=True,
                   help="minimum |correlation| kept in the pattern")
    p.add_argument("--n-max", dest="n_max", type=_int_at_least(1), default=1000,
                   help="per-column cap (default 1000)")
    p.set_defaults(func=cmd_train_sparse)

    p = sub.add_parser("rescale", help="build item weights and optionally a rescaled model")
    _add_data_options(p)
    _add_split_options(p)
    p.add_argument("--model", required=True, help="trained dense model file")
    p.add_argument("--mode", choices=("remove-pop", "time"), default="remove-pop",
                   help="remove-pop (default) or time")
    p.add_argument("--alpha", type=_unit_float, default=0.5,
                   help="re-scaling exponent in [0, 1] (default 0.5)")
    p.add_argument("--epsilon", type=_non_negative_float, default=DEFAULT_EPSILON,
                   help="additive popularity smoothing, at least 0")
    p.add_argument("--intervals", type=_int_at_least(1),
                   help="number of equal-count time intervals (mode time)")
    p.add_argument("--at-time", dest="at_time", type=_finite_float,
                   help="timestamp whose interval supplies the weights (mode time)")
    p.add_argument("--weights-out", dest="weights_out", help="weight CSV to write")
    p.add_argument("--output", help="rescaled model file to write")
    p.set_defaults(func=cmd_rescale)

    p = sub.add_parser("evaluate", help="strong-generalization ranking report")
    _add_data_options(p)
    _add_split_options(p)
    scorer = p.add_mutually_exclusive_group(required=True)
    scorer.add_argument("--model", help="model file (dense or sparse)")
    scorer.add_argument("--baseline", choices=("popularity",),
                        help="score by training popularity")
    p.add_argument("--users", choices=("test", "validation"), default="test")
    p.add_argument("--recall-ks", dest="recall_ks", type=_cutoff_list, default="20,50",
                   help="comma-separated cutoffs (default 20,50)")
    p.add_argument("--ndcg-k", dest="ndcg_k", type=_int_at_least(1), default=100,
                   help="gain cutoff (default 100)")
    p.add_argument("--time-intervals", dest="time_intervals", type=_int_at_least(1),
                   help="evaluate per event with interval popularity re-scaling")
    p.add_argument("--alpha", type=_unit_float, default=0.5,
                   help="re-scaling exponent in [0, 1] for --time-intervals")
    p.add_argument("--epsilon", type=_non_negative_float, default=DEFAULT_EPSILON,
                   help="additive popularity smoothing for --time-intervals, at least 0")
    p.add_argument("--report-json", dest="report_json", help="write the report as JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-k items for an ad-hoc history")
    p.add_argument("--model", required=True, help="model file (dense or sparse)")
    p.add_argument("--history", default="", help="comma-separated item keys")
    p.add_argument("--top-k", dest="top_k", type=_int_at_least(0), default=10)
    p.add_argument("--weights", help="item weight CSV applied by column scaling")
    p.add_argument("--popularity", help="popularity CSV for the empty-history fallback")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("popularity", help="write per-item sums of event values as the count "
                       "column (interaction counts with --binarize)")
    _add_data_options(p)
    _add_split_options(p, required=False)
    p.add_argument("--output", required=True, help="CSV to write")
    p.set_defaults(func=cmd_popularity)

    for sub_parser in sub.choices.values():
        sub_parser.add_argument("--config", help="JSON file with defaults for any option")
    return parser


def _config_tokens(command: argparse.ArgumentParser, cfg: dict) -> list[str]:
    """The flags a config file stands for, one per key that is an option of
    ``command``: a list becomes one comma-joined value, an on/off flag takes
    true or false, and null or a key of no option gives nothing."""
    tokens = []
    for action in command._actions:
        value = cfg.get(action.dest)
        if value is None or action.dest in ("help", "config"):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            if not isinstance(value, bool):
                command.error(f"config key {action.dest!r} must be true or false, got {value!r}")
            if value:
                tokens.append(flag)
        elif isinstance(value, list):
            tokens.append(f"{flag}={','.join(map(str, value))}")
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    cfg_path = pre.parse_known_args(argv)[0].config
    if cfg_path is not None:
        try:
            with open(cfg_path, "r", encoding="utf-8-sig") as fh:
                cfg = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            print(f"error: {cfg_path}: invalid JSON config: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        if not isinstance(cfg, dict):
            print(f"error: {cfg_path}: config must be a JSON object", file=sys.stderr)
            return 2
        command = parser.commands.get(argv[0]) if argv else None
        if command is not None:
            # after the command name, so flags given on the command line win
            argv[1:1] = _config_tokens(command, cfg)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 2
    except (GramrecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
