"""Top-N ranking evaluation under strong generalization.

Evaluation users are disjoint from the users the model was trained on.
Each one's row is split at random into an input part, which is fed to the
model, and a held-out part, which the produced ranking is scored against.
Input items are forced to the bottom of the ranking so only unseen items
compete.  All randomness flows through one seed, drawn per user, so
reports are reproducible bit for bit.

Ties are broken by ascending item id everywhere.  Metric means come with
the standard error of the mean across evaluated users.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .data import (
    InteractionSet,
    PopularityVector,
    SplitSpec,
    TimeIntervalIndex,
    UserItemMatrix,
    fold_in_indices,
)
from .errors import DataError
from .gram import GramStats
from .solver import VARIANT_ZERO_DIAG, DenseModel, predict_scores, solve_zero_diag
from .sparse import SparseModel
from .weighting import DEFAULT_EPSILON, time_popularity_weights

_BATCH_USERS = 1024


@dataclass
class PopularityScorer:
    """Baseline that scores every user with the item popularity counts."""

    pop: PopularityVector

    @property
    def n_items(self) -> int:
        return self.pop.n_items


@dataclass
class EvalReport:
    """Per-metric (mean, standard error), with the evaluated-user count,
    the skipped-user count, and an echo of the configuration."""

    metrics: dict[str, tuple[float, float]]
    n_users: int
    n_skipped: int
    config: dict

    def to_json(self) -> str:
        doc = {
            "metrics": {
                name: {"mean": mean, "stderr": stderr}
                for name, (mean, stderr) in self.metrics.items()
            },
            "n_users": self.n_users,
            "n_skipped": self.n_skipped,
            "config": self.config,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        width = max(len(name) for name in self.metrics) if self.metrics else 6
        lines = [f"{'metric':<{width}}  {'mean':>8}  {'stderr':>8}"]
        for name, (mean, stderr) in self.metrics.items():
            lines.append(f"{name:<{width}}  {mean:8.5f}  {stderr:8.5f}")
        lines.append(f"evaluated {self.n_users} users, skipped {self.n_skipped}")
        return "\n".join(lines) + "\n"


def _ideal_dcg(m: int) -> float:
    return float(np.sum(1.0 / np.log2(np.arange(m) + 2.0)))


def recall_at_k(ranked: np.ndarray, held_out: np.ndarray, k: int) -> float:
    """|top-k hits| / min(k, |held_out|)."""
    held_out = np.asarray(held_out)
    if held_out.size == 0:
        raise DataError("recall is undefined for an empty held-out set")
    hits = int(np.isin(np.asarray(ranked)[:k], held_out).sum())
    return hits / min(k, held_out.size)


def ndcg_at_k(ranked: np.ndarray, held_out: np.ndarray, k: int) -> float:
    """Binary-relevance discounted gain in the top k, against the ideal."""
    held_out = np.asarray(held_out)
    if held_out.size == 0:
        raise DataError("ndcg is undefined for an empty held-out set")
    hit_pos = np.flatnonzero(np.isin(np.asarray(ranked)[:k], held_out))
    dcg = float(np.sum(1.0 / np.log2(hit_pos + 2.0)))
    return dcg / _ideal_dcg(min(k, held_out.size))


def popularity_rank(pop: PopularityVector) -> np.ndarray:
    """All items by popularity descending, ties by ascending id."""
    return np.argsort(-pop.pop, kind="stable")


def score_histories(model, xin: sp.csr_matrix) -> np.ndarray:
    """Dense score rows for a batch of input histories, any model kind."""
    if isinstance(model, SparseModel):
        return (xin @ model.values).toarray().astype(np.float64, copy=False)
    if isinstance(model, PopularityScorer):
        return np.tile(model.pop.pop, (xin.shape[0], 1))
    scores = xin @ model.b
    if model.mu is not None:
        scores = scores + model.mu
    return scores


def _model_config(model) -> dict:
    if isinstance(model, PopularityScorer):
        return {"model": "popularity"}
    if isinstance(model, SparseModel):
        return {
            "model": "sparse",
            "lambda": float(model.lam),
            "threshold": float(model.pattern.threshold),
            "pattern_source": model.pattern.source,
            "n_max": int(model.pattern.n_max),
        }
    w = model.applied_item_weights
    return {
        "model": "dense",
        "variant": model.variant,
        "lambda": float(model.lam),
        "weights": None if w is None else {"kind": w.kind, "alpha": float(w.alpha)},
    }


def _aggregate(
    per_user: dict[str, list[float]], n_skipped: int, config: dict
) -> EvalReport:
    metrics: dict[str, tuple[float, float]] = {}
    n_users = 0
    for name, vals in per_user.items():
        arr = np.asarray(vals, dtype=np.float64)
        n_users = len(arr)
        if n_users == 0:
            raise DataError("no users were evaluable (all rows too small to split)")
        stderr = 0.0 if n_users == 1 else float(np.std(arr, ddof=1) / np.sqrt(n_users))
        metrics[name] = (float(arr.mean()), stderr)
    return EvalReport(metrics=metrics, n_users=n_users, n_skipped=n_skipped, config=config)


def _select_users(split: SplitSpec, users: str) -> np.ndarray:
    if users == "test":
        return split.test_users
    if users == "validation":
        return split.validation_users
    raise DataError(f"users must be 'test' or 'validation', got {users!r}")


def evaluate_model(
    model,
    matrix: UserItemMatrix,
    split: SplitSpec,
    recall_ks: tuple[int, ...] = (20, 50),
    ndcg_k: int = 100,
    seed: int | None = None,
    users: str = "test",
) -> EvalReport:
    """Strong-generalization report for a dense, sparse, or popularity model.

    Per user: fold the row, score the input part, push input items to the
    bottom, rank everything else by score descending (ties by ascending
    id), and read the metrics off against the held-out part.  Users whose
    rows cannot be split (fewer than two events) are skipped and counted.
    """
    user_ids = _select_users(split, users)
    if model.n_items != matrix.n_items:
        raise DataError(f"model has {model.n_items} items, matrix has {matrix.n_items}")
    fraction = split.fold_in_fraction
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fold-in fraction must be in (0, 1), got {fraction}")
    eval_seed = split.seed if seed is None else seed
    csr = matrix.matrix
    metric_names = [f"recall@{k}" for k in recall_ks] + [f"ndcg@{ndcg_k}"]
    per_user: dict[str, list[float]] = {name: [] for name in metric_names}
    n_skipped = 0
    for lo in range(0, len(user_ids), _BATCH_USERS):
        batch = user_ids[lo : lo + _BATCH_USERS]
        folds = []
        for u in batch:
            start, end = csr.indptr[u], csr.indptr[u + 1]
            ids = csr.indices[start:end]
            rng = np.random.default_rng((eval_seed, int(u)))
            if end - start < 2:
                n_skipped += 1
                continue
            pos_in, pos_out = fold_in_indices(end - start, fraction, rng)
            if pos_out.size == 0:
                n_skipped += 1
                continue
            folds.append((ids[pos_in], csr.data[start:end][pos_in], ids[pos_out]))
        if not folds:
            continue
        indptr = np.zeros(len(folds) + 1, dtype=np.int64)
        np.cumsum([len(f[0]) for f in folds], out=indptr[1:])
        xin = sp.csr_matrix(
            (
                np.concatenate([f[1] for f in folds]),
                np.concatenate([f[0] for f in folds]),
                indptr,
            ),
            shape=(len(folds), matrix.n_items),
        )
        scores = score_histories(model, xin)
        row_idx = np.repeat(np.arange(len(folds)), np.diff(indptr))
        scores[row_idx, xin.indices] = -np.inf
        for r, (in_ids, _, out_ids) in enumerate(folds):
            ranked = np.argsort(-scores[r], kind="stable")
            for k in recall_ks:
                per_user[f"recall@{k}"].append(recall_at_k(ranked, out_ids, k))
            per_user[f"ndcg@{ndcg_k}"].append(ndcg_at_k(ranked, out_ids, ndcg_k))
    config = _model_config(model)
    config.update(
        {
            "protocol": "strong_generalization",
            "users": users,
            "fold_in_fraction": float(fraction),
            "seed": int(eval_seed),
        }
    )
    return _aggregate(per_user, n_skipped, config)


def evaluate_time_aware(
    model: DenseModel,
    iset: InteractionSet,
    split: SplitSpec,
    intervals: TimeIntervalIndex,
    alpha: float,
    epsilon: float = DEFAULT_EPSILON,
    recall_ks: tuple[int, ...] = (20, 50),
    ndcg_k: int = 100,
    seed: int | None = None,
    users: str = "test",
) -> EvalReport:
    """Per-event protocol with interval-dependent popularity re-scaling.

    Folding matches :func:`evaluate_model` (same per-user draws on the
    id-sorted row), but each held-out event is scored on its own: the
    event's timestamp selects a time interval, the base scores are scaled
    by that interval's weight vector, and the event item's rank among
    non-input items is recorded.  Per-user metrics are then rebuilt from
    the ranks.  With a single interval all weights are 1 and the report
    equals the time-agnostic one.

    Ranks from different events are computed under different weightings, so
    they can collide; metrics are capped at 1 when that happens.  Note the
    protocol scores each event with a model and with fold-in items that are
    not restricted to the event's past.
    """
    if not isinstance(model, DenseModel) or model.variant != VARIANT_ZERO_DIAG:
        raise DataError("time-aware evaluation needs a dense zero-diagonal model")
    if model.applied_item_weights is not None:
        raise DataError("pass the unweighted model; interval weights are applied here")
    if iset.timestamps is None:
        raise DataError("time-aware evaluation needs timestamped events")
    if model.n_items != iset.n_items:
        raise DataError(f"model has {model.n_items} items, events cover {iset.n_items}")
    user_ids = _select_users(split, users)
    fraction = split.fold_in_fraction
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fold-in fraction must be in (0, 1), got {fraction}")
    eval_seed = split.seed if seed is None else seed
    total = intervals.total_popularity()
    wmat = np.stack(
        [
            time_popularity_weights(intervals.interval_popularity(k), total, alpha, epsilon).w
            for k in range(intervals.n_intervals)
        ]
    )
    order = np.lexsort((iset.item_ids, iset.user_ids))
    sorted_users = iset.user_ids[order]
    base_model = replace(model, mu=None)
    metric_names = [f"recall@{k}" for k in recall_ks] + [f"ndcg@{ndcg_k}"]
    per_user: dict[str, list[float]] = {name: [] for name in metric_names}
    n_skipped = 0
    for u in user_ids:
        lo, hi = np.searchsorted(sorted_users, [u, u + 1])
        ev = order[lo:hi]
        rng = np.random.default_rng((eval_seed, int(u)))
        if hi - lo < 2:
            n_skipped += 1
            continue
        pos_in, pos_out = fold_in_indices(hi - lo, fraction, rng)
        if pos_out.size == 0:
            n_skipped += 1
            continue
        in_ids = iset.item_ids[ev[pos_in]]
        base = predict_scores(base_model, in_ids, iset.values[ev[pos_in]])
        base[in_ids] = -np.inf
        out_ids = iset.item_ids[ev[pos_out]]
        out_intervals = intervals.locate(iset.timestamps[ev[pos_out]])
        ranks = np.empty(len(out_ids), dtype=np.int64)
        for e, (item, k) in enumerate(zip(out_ids, out_intervals)):
            s = base * wmat[k]
            if model.mu is not None:
                s = s + model.mu
            si = s[item]
            ranks[e] = 1 + np.count_nonzero(s > si) + np.count_nonzero(s[:item] == si)
        ranks = np.sort(ranks)
        n_held = len(ranks)
        for k in recall_ks:
            hits = int(np.count_nonzero(ranks <= k))
            per_user[f"recall@{k}"].append(min(1.0, hits / min(k, n_held)))
        top = ranks[ranks <= ndcg_k]
        dcg = float(np.sum(1.0 / np.log2(top + 1.0)))
        per_user[f"ndcg@{ndcg_k}"].append(min(1.0, dcg / _ideal_dcg(min(ndcg_k, n_held))))
    config = _model_config(model)
    config.update(
        {
            "protocol": "time_aware",
            "users": users,
            "fold_in_fraction": float(fraction),
            "seed": int(eval_seed),
            "n_intervals": int(intervals.n_intervals),
            "alpha": float(alpha),
            "epsilon": float(epsilon),
            "note": "per-event scoring; fold-in items and training data may postdate the scored event",
        }
    )
    return _aggregate(per_user, n_skipped, config)


def grid_search_lambda(
    gram: GramStats,
    matrix: UserItemMatrix,
    split: SplitSpec,
    lambdas,
    metric: str = "ndcg@100",
    solver=solve_zero_diag,
) -> tuple[float, dict[float, EvalReport], DenseModel]:
    """Train with ``solver`` and evaluate on validation users per lambda.

    Ties go to the smallest lambda.  Returns the winner, every report and the
    winner's model, holding only the best model so far and the current one.
    """
    lams = sorted({float(l) for l in lambdas})
    if not lams:
        raise DataError("empty lambda grid")
    if any(l <= 0 for l in lams):
        raise DataError("all grid lambdas must be positive")
    reports: dict[float, EvalReport] = {}
    best_lam = best_model = None
    best_score = -np.inf
    for lam in lams:
        model = solver(gram, lam)
        report = evaluate_model(model, matrix, split, users="validation")
        if metric not in report.metrics:
            raise DataError(f"unknown search metric {metric!r}; have {sorted(report.metrics)}")
        reports[lam] = report
        score = report.metrics[metric][0]
        if score > best_score:
            best_score, best_lam, best_model = score, lam, model
        del model
    return best_lam, reports, best_model
