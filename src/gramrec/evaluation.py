"""Top-N ranking evaluation under strong generalization.

Evaluation users are disjoint from the users the model was trained on.
Each one's row is split at random into an input part, which is fed to the
model, and a held-out part, which the produced ranking is scored against.
Input items are forced to the bottom of the ranking so only unseen items
compete.  All randomness flows through one seed, drawn per user, so
reports are reproducible bit for bit.

Both protocols run on one engine: each user's split is drawn once, users
are scored in batches by :func:`score_histories`, and held-out item i gets
rank 1 + #{j : s_j > s_i} + #{j < i : s_j == s_i} in its score row s.  That
is its position in ``argsort(-s, kind="stable")``: ties go to the lower
item id, and NaN scores rank last, among themselves by id.  The ranks then
reduce to per-user metrics.  Score batches and comparison blocks hold at
most ``_CHUNK`` floats.  Metric means come with the standard error of the
mean across evaluated users.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable, NamedTuple

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
from .solver import VARIANT_ZERO_DIAG, DenseModel, solve_zero_diag
from .sparse import SparseModel
from .weighting import DEFAULT_EPSILON, time_popularity_weights

_CHUNK = 1 << 16  # floats per score batch (_CHUNK // n_items users) and per comparison block


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


class _Batch(NamedTuple):
    """Input rows of folded users; held-out (row, item, folded position)."""

    xin: sp.csr_matrix
    rows: np.ndarray
    items: np.ndarray
    events: np.ndarray


class _Folds(NamedTuple):
    batches: list[_Batch]
    n_items: int
    n_skipped: int
    config: dict


def _draw_folds(indptr, items, values, n_items: int, split: SplitSpec, users: str) -> _Folds:
    """Fold each selected user's id-sorted row ``indptr[u]:indptr[u + 1]``
    with ``default_rng((split.seed, u))``, skipping (and counting) rows that
    cannot be split, and batch the users ``_CHUNK // n_items`` at a time."""
    user_ids = _select_users(split, users)
    fraction, seed = split.fold_in_fraction, split.seed
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fold-in fraction must be in (0, 1), got {fraction}")

    def draws():  # input and held-out positions of each user whose row splits
        for u in user_ids:
            start, n = int(indptr[u]), int(indptr[u + 1] - indptr[u])
            if n >= 2:
                pos_in, pos_out = fold_in_indices(n, fraction, np.random.default_rng((seed, int(u))))
                if pos_out.size:
                    yield pos_in + start, pos_out + start

    folds, batches = draws(), []
    while batch := list(islice(folds, max(1, _CHUNK // max(n_items, 1)))):
        ins, outs = zip(*batch)
        pos_in, pos_out = np.concatenate(ins), np.concatenate(outs)
        indptr_in = np.concatenate([[0], np.cumsum([len(p) for p in ins])])
        xin = sp.csr_matrix((values[pos_in], items[pos_in], indptr_in), shape=(len(ins), n_items))
        rows = np.repeat(np.arange(len(outs)), [len(p) for p in outs])
        batches.append(_Batch(xin, rows, items[pos_out], pos_out))
    n_skipped = len(user_ids) - sum(b.xin.shape[0] for b in batches)
    config = {"users": users, "fold_in_fraction": float(fraction), "seed": int(seed)}
    return _Folds(batches, n_items, n_skipped, config)


def _rank_held_out(model, folds: _Folds, scale=None, shift=None) -> np.ndarray:
    """Rank of every held-out item in its user's score row, in fold order.

    Input items score -inf.  With ``scale = (table, idx)``, the row of the
    held-out event at folded position p is multiplied by ``table[idx[p]]``
    and ``shift`` is then added.  Comparisons run ``_CHUNK // n_items``
    events at a time.
    """
    ranks = [np.zeros(0, dtype=np.int64)]
    for b in folds.batches:
        scores = score_histories(model, b.xin)
        scores[np.repeat(np.arange(b.xin.shape[0]), np.diff(b.xin.indptr)), b.xin.indices] = -np.inf
        step = max(1, _CHUNK // max(scores.shape[1], 1))
        for lo in range(0, len(b.items), step):
            items = b.items[lo : lo + step]
            s = scores[b.rows[lo : lo + step]]
            if scale is not None:
                s *= scale[0][scale[1][b.events[lo : lo + step]]]
            if shift is not None:
                s += shift
            si = s[np.arange(len(items)), items][:, None]
            before = np.arange(s.shape[1]) < items[:, None]
            tied_before = s == si
            tied_before &= before
            rank = 1 + np.count_nonzero(s > si, axis=1) + np.count_nonzero(tied_before, axis=1)
            nan = np.isnan(si[:, 0])
            if nan.any():
                s_nan = np.isnan(s[nan])
                rank[nan] = (1 + np.count_nonzero(~s_nan, axis=1)
                             + np.count_nonzero(s_nan & before[nan], axis=1))
            ranks.append(rank)
    return np.concatenate(ranks)


def _reduce(ranks, folds: _Folds, recall_ks, ndcg_k: int, config: dict, cap: bool) -> EvalReport:
    """Per-user recall and ndcg from held-out ranks (each capped at 1 with
    ``cap``), aggregated into the report."""
    if min((*recall_ks, ndcg_k)) < 1:
        raise DataError(f"metric cutoffs must be at least 1, got {tuple(recall_ks)} and {ndcg_k}")
    offsets = np.cumsum([0] + [b.xin.shape[0] for b in folds.batches])
    users = np.concatenate([np.zeros(0, dtype=np.int64)]
                           + [b.rows + o for b, o in zip(folds.batches, offsets)])
    held = np.bincount(users, minlength=offsets[-1])
    per_user = {}
    for k in recall_ks:
        per_user[f"recall@{k}"] = np.bincount(users[ranks <= k], minlength=offsets[-1]) / np.minimum(k, held)
    top = ranks <= ndcg_k
    order = np.lexsort((ranks[top], users[top]))
    hit_users, hit_ranks = users[top][order], ranks[top][order]
    first = np.flatnonzero(np.diff(hit_users, prepend=-1))
    dcg = np.zeros(offsets[-1])
    if first.size:  # a leading 0.0 per user makes each sum round as np.sum does
        gains = np.insert(1.0 / np.log2(hit_ranks + 1.0), first, 0.0)
        dcg[hit_users[first]] = np.add.reduceat(gains, first + np.arange(first.size))
    m, inv = np.unique(np.minimum(ndcg_k, held), return_inverse=True)
    per_user[f"ndcg@{ndcg_k}"] = dcg / np.array([_ideal_dcg(v) for v in m.tolist()])[inv]
    if cap:
        per_user = {name: np.minimum(vals, 1.0) for name, vals in per_user.items()}
    return _aggregate(per_user, folds.n_skipped, config)


def _evaluate(model, folds: _Folds, recall_ks, ndcg_k: int) -> EvalReport:
    if model.n_items != folds.n_items:
        raise DataError(f"model has {model.n_items} items, matrix has {folds.n_items}")
    config = {**_model_config(model), "protocol": "strong_generalization", **folds.config}
    if isinstance(model, SparseModel):  # a CSC model would be converted again for every batch
        model = replace(model, values=model.values.tocsr())
    return _reduce(_rank_held_out(model, folds), folds, recall_ks, ndcg_k, config, cap=False)


def evaluate_model(
    model,
    matrix: UserItemMatrix,
    split: SplitSpec,
    recall_ks: tuple[int, ...] = (20, 50),
    ndcg_k: int = 100,
    users: str = "test",
) -> EvalReport:
    """Strong-generalization report for a dense, sparse, or popularity model.

    Per user: fold the row, score the input part, push input items to the
    bottom, rank everything else by score descending (ties by ascending
    id), and read the metrics off against the held-out part.  Users whose
    rows cannot be split (fewer than two events) are skipped and counted.
    """
    csr = matrix.matrix
    folds = _draw_folds(csr.indptr, csr.indices, csr.data, matrix.n_items, split, users)
    return _evaluate(model, folds, recall_ks, ndcg_k)


def evaluate_time_aware(
    model: DenseModel,
    iset: InteractionSet,
    split: SplitSpec,
    matrix: UserItemMatrix,
    intervals: TimeIntervalIndex,
    alpha: float,
    epsilon: float = DEFAULT_EPSILON,
    recall_ks: tuple[int, ...] = (20, 50),
    ndcg_k: int = 100,
    users: str = "test",
) -> EvalReport:
    """Per-event protocol with interval-dependent popularity re-scaling.

    ``matrix`` is the user-item matrix built from ``iset``; its rows are
    folded exactly as :func:`evaluate_model` folds them, and ``iset``
    supplies each stored entry's timestamp.  Each held-out event gets its
    own score row: the user's base scores (without mu, input items at -inf)
    times the weight vector of the interval its timestamp falls in, plus mu.
    The event item's rank in that row follows the module's rule, so NaN
    scores rank last.  Per-user metrics are then rebuilt from the ranks.
    With a single interval all weights are 1 and the report equals the
    time-agnostic one.

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
    csr = matrix.matrix
    if csr.shape != (iset.n_users, iset.n_items):
        raise DataError(f"matrix is {csr.shape}, events cover {(iset.n_users, iset.n_items)}")
    # the event behind each stored entry, found by its (user, item) key
    order = np.lexsort((iset.item_ids, iset.user_ids))
    keys = iset.user_ids[order].astype(np.int64) * iset.n_items + iset.item_ids[order]
    entry_keys = np.repeat(np.arange(iset.n_users, dtype=np.int64), np.diff(csr.indptr))
    entry_keys = entry_keys * iset.n_items + csr.indices
    pos = np.searchsorted(keys, entry_keys)
    if np.any(pos == len(keys)) or not np.array_equal(keys[pos], entry_keys):
        raise DataError("the user-item matrix holds entries that are not events of the log")
    folds = _draw_folds(csr.indptr, csr.indices, csr.data, matrix.n_items, split, users)
    total = intervals.total_popularity()
    wmat = np.stack(
        [
            time_popularity_weights(intervals.interval_popularity(k), total, alpha, epsilon).w
            for k in range(intervals.n_intervals)
        ]
    )
    scale = (wmat, intervals.locate(iset.timestamps[order[pos]]))
    ranks = _rank_held_out(replace(model, mu=None), folds, scale, model.mu)
    config = {
        **_model_config(model),
        "protocol": "time_aware",
        **folds.config,
        "n_intervals": int(intervals.n_intervals),
        "alpha": float(alpha),
        "epsilon": float(epsilon),
        "note": "per-event scoring; fold-in items and training data may postdate the scored event",
    }
    return _reduce(ranks, folds, recall_ks, ndcg_k, config, cap=True)


def grid_search_lambda(
    build: Callable[[], GramStats],
    matrix: UserItemMatrix,
    split: SplitSpec,
    lambdas,
    metric: str = "ndcg@100",
    solver=solve_zero_diag,
) -> tuple[float, dict[float, EvalReport], DenseModel]:
    """Train with ``solver`` and evaluate on validation users per lambda.

    ``build`` returns fresh Gram statistics of the training users; the
    solver consumes them, so the grid calls it once per lambda (a Gram
    build costs far less than the solve).  Only the reports are kept: the
    last lambda's model stays in hand, and when another lambda won, that
    model is dropped and the winner is built and solved once more.  So the
    matrices of two lambdas are never held at once; the Gram build must be
    repeatable for the winner to come out as it was evaluated.  Validation
    folds are drawn once for the whole grid.  Ties go to the smallest
    lambda.  Returns the winner, every report and the winner's model.
    """
    lams = sorted({float(l) for l in lambdas})
    if not lams:
        raise DataError("empty lambda grid")
    if not all(0 < l < np.inf for l in lams):
        raise DataError("all grid lambdas must be positive and finite")
    csr = matrix.matrix
    folds = _draw_folds(csr.indptr, csr.indices, csr.data, matrix.n_items, split, "validation")
    reports: dict[float, EvalReport] = {}
    best_lam = None
    best_score = -np.inf
    for lam in lams:
        model = None  # before the next G is built
        model = solver(build(), lam)
        report = _evaluate(model, folds, (20, 50), 100)
        if metric not in report.metrics:
            raise DataError(f"unknown search metric {metric!r}; have {sorted(report.metrics)}")
        reports[lam] = report
        score = report.metrics[metric][0]
        if score > best_score:
            best_score, best_lam = score, lam
    if best_lam != lams[-1]:
        model = None
        model = solver(build(), best_lam)
    return best_lam, reports, model
