"""Top-N ranking evaluation under strong generalization.

Evaluation users are disjoint from the users the model was trained on.
Each one's row is split at random into an input part, which is fed to the
model, and a held-out part, which the produced ranking is scored against.
Input items are forced to the bottom of the ranking so only unseen items
compete.  All randomness flows through one seed: each user's fold is the
stream of ``default_rng((seed, u))``, so reports are reproducible bit for
bit.  Every user's generator is seeded in one vectorised pass
(:func:`_seed_states`) rather than through a ``SeedSequence`` per user.

Both protocols run on one engine: each user's split is drawn once, from
one permutation per user and with no per-user sort, into one matrix of
input rows, and held-out item i gets rank
1 + #{j : s_j > s_i} + #{j < i : s_j == s_i} in its score row s.  That is
its position in ``argsort(-s, kind="stable")``: ties go to the lower item
id, and NaN scores rank last, among themselves by id.  Each held-out
item's own score s_i is gathered first, from B's entries at the pairs of
its user's input items and itself (each model kind reads them with
``entries(i, j)``).  Then the rows are scored one column panel of the
model at a time (each kind forms its panels with ``columns(lo, hi)``), in
one pass over the panels, so a dense model forms each panel of B from
packed P once per evaluation and never holds B whole.  The held-out
events stay in fold order, and each panel item's score is compared with
s_i by that one rule, whichever side of i the panel lies.  The ranks then
reduce to per-user metrics.  Score blocks and comparison blocks hold at
most ``_CHUNK`` floats.  Metric means come with the standard error of the
mean across evaluated users.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from numpy.random.bit_generator import ISeedSequence

from .data import (
    InteractionSet,
    SplitSpec,
    TimeIntervalIndex,
    UserItemMatrix,
    user_event_mask,
)
from .errors import DataError
from .gram import PANEL, GramStats
from .solver import VARIANT_ZERO_DIAG, DenseModel, solve_zero_diag
from .sparse import SparseModel
from .weighting import DEFAULT_EPSILON, time_popularity_weights

_CHUNK = 1 << 14  # floats per score block (_CHUNK // PANEL users) and per comparison block
DEFAULT_RECALL_KS, DEFAULT_NDCG_K = (20, 50), 100  # the paper's cutoffs


@dataclass
class PopularityScorer:
    """Baseline that scores every user with the item popularity counts."""

    pop: np.ndarray

    @property
    def n_items(self) -> int:
        return len(self.pop)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """The counts of items lo:hi, which are every user's scores."""
        return self.pop[lo:hi]


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


def rank_items(scores: np.ndarray, exclude=()) -> np.ndarray:
    """The ids of the items scored by ``scores``, but those in ``exclude``,
    by descending score: ties go to the lower id, and NaN scores come
    last, among themselves by id."""
    ids = np.delete(np.arange(len(scores)), exclude)
    return ids[np.argsort(-scores[ids], kind="stable")]


def _scores(xin: sp.csr_matrix, cols) -> np.ndarray:
    """Scores of the rows of ``xin`` against ``cols = model.columns(lo, hi)``,
    without the target means of a dense model."""
    if sp.issparse(cols):
        return (xin @ cols).toarray().astype(np.float64, copy=False)
    if cols.ndim == 1:
        return np.tile(cols, (xin.shape[0], 1))
    return xin @ cols


def score_histories(model, xin: sp.csr_matrix) -> np.ndarray:
    """Dense score rows for a batch of input histories, any model kind,
    scored ``PANEL`` item columns at a time, the target means included; each
    score is bitwise what the whole model gives, and a dense model never
    forms B whole."""
    n = model.n_items
    scores = np.empty((xin.shape[0], n))
    for lo in range(0, n, PANEL):
        scores[:, lo : lo + PANEL] = _scores(xin, model.columns(lo, lo + PANEL))
    if isinstance(model, DenseModel) and model.mu is not None:
        scores += model.mu
    return scores


def _model_config(model) -> dict:
    if isinstance(model, PopularityScorer):
        return {"model": "popularity"}
    if isinstance(model, SparseModel):
        return {
            "model": "sparse",
            "lambda": float(model.lam),
            "threshold": float(model.threshold),
            "n_max": int(model.n_max),
        }
    w = model.applied_item_weights
    return {
        "model": "dense",
        "variant": model.variant,
        "lambda": float(model.lam),
        "weights": None if w is None else {"kind": w.kind, "alpha": float(w.alpha)},
    }


def _require_users(n_users: int, n_skipped: int, users: str) -> None:
    """Refuse an evaluation in which none of the ``users`` could be folded."""
    if not n_users:
        raise DataError(f"no {users} users were evaluable ({n_users + n_skipped} {users} users, "
                        f"{n_skipped} skipped as rows too small to split)")


def _aggregate(
    per_user: dict[str, list[float]], n_skipped: int, config: dict
) -> EvalReport:
    n_users = len(next(iter(per_user.values()), ()))
    _require_users(n_users, n_skipped, config["users"])
    metrics: dict[str, tuple[float, float]] = {}
    for name, vals in per_user.items():
        arr = np.asarray(vals, dtype=np.float64)
        stderr = 0.0 if n_users == 1 else float(np.std(arr, ddof=1) / np.sqrt(n_users))
        metrics[name] = (float(arr.mean()), stderr)
    return EvalReport(metrics=metrics, n_users=n_users, n_skipped=n_skipped, config=config)


class _Folds(NamedTuple):
    """Input rows of every folded user, in user order, and the held-out
    events as (row, item, folded position), ordered by row."""

    xin: sp.csr_matrix
    rows: np.ndarray
    items: np.ndarray
    events: np.ndarray
    n_skipped: int
    config: dict


# numpy's SeedSequence: pool words, its hashmix and mix constants, and the
# number of bits its hashes shift right
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16
_MASK32 = 0xFFFFFFFF


def _seed_states(seed: int, users: np.ndarray) -> np.ndarray:
    """Row k is ``SeedSequence((seed, users[k])).generate_state(4, np.uint64)``,
    what ``default_rng((seed, users[k]))`` seeds its PCG64 from.

    SeedSequence's hash constants run the same course whatever the words,
    so every user's pool is mixed at once.  Its entropy is the seed's
    little-endian 32-bit words (0 is one word), then the user's one word;
    the first 4 fill the pool, the rest are mixed into it.  A word of every
    user sits in that user's 64-bit lane of one Python int, where a 32-bit
    word times a 32-bit constant cannot carry into the next lane.  (numpy's
    integer bitwise ufuncs would do the same, but their first call maps
    64 KiB more of numpy's code into the process.)"""
    seed = operator.index(seed)
    if seed < 0:
        raise DataError(f"the seed must be a non-negative integer, got {seed}")
    if users.size and not 0 <= users.min() <= users.max() <= _MASK32:
        raise DataError("user ids must be in [0, 2**32) to seed their folds")
    n = len(users)
    one = int.from_bytes((b"\1" + bytes(7)) * n, "little")  # 1 in every lane
    mask = _MASK32 * one

    def hash_(x: int, h: int, mult: int) -> tuple[int, int]:
        """SeedSequence's hash of the words x under the running constant h,
        and the next constant."""
        h_next = h * mult & _MASK32
        x = (x ^ h * one) * h_next & mask
        return x ^ (x >> _SHIFT & mask), h_next

    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    entropy = [word * one for word in entropy]
    entropy.append(int.from_bytes(users.astype("<u8").tobytes(), "little"))
    h, pool = _INIT_A, []
    for i in range(_POOL):  # pool words past the entropy hash a 0
        word, h = hash_(entropy[i] if i < len(entropy) else 0, h, _MULT_A)
        pool.append(word)
    sources = [(i, None) for i in range(_POOL)] + [(None, e) for e in entropy[_POOL:]]
    for i, e in sources:
        for d in range(_POOL):
            if d != i:  # pool[d] = mix(pool[d], hashmix(source))
                word, h = hash_(pool[i] if e is None else e, h, _MULT_A)
                x = ((pool[d] * _MIX_L & mask) + (one << 32) - (word * _MIX_R & mask)) & mask
                pool[d] = x ^ (x >> _SHIFT & mask)
    states = np.empty((n, _POOL), dtype=np.uint64)
    h = _INIT_B
    for j in range(_POOL):  # 8 words out, drawn from the pool in turn, in little-endian pairs
        lo, h = hash_(pool[2 * j % _POOL], h, _MULT_B)
        hi, h = hash_(pool[(2 * j + 1) % _POOL], h, _MULT_B)
        states[:, j] = np.frombuffer((lo | hi << 32).to_bytes(8 * n, "little"), dtype="<u8")
    return states


class _SeedState(ISeedSequence):
    """A seed sequence that hands over a state computed beforehand."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.state) or np.dtype(dtype) != self.state.dtype:
            raise ValueError(f"holds {self.state.shape} {self.state.dtype} words, "
                             f"not {n_words} {np.dtype(dtype)}")
        return self.state


def _draw_folds(indptr, items, values, n_items: int, split: SplitSpec, users: str) -> _Folds:
    """Fold each selected user's id-sorted row ``indptr[u]:indptr[u + 1]``
    of n events: ``default_rng((split.seed, u)).permutation(n)[:ceil(f·n)]``
    are its input positions, marked in one int8 array over the folded rows'
    events, so both parts come off it in user and then item order.  Every
    user's generator is that one, seeded from :func:`_seed_states`.  Rows
    that cannot be split are skipped and counted."""
    user_ids = split.users(users)
    fraction, seed = split.fold_in_fraction, split.seed
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fold-in fraction must be in (0, 1), got {fraction}")
    start = indptr[user_ids]
    n = indptr[user_ids + 1] - start
    n_in = np.ceil(fraction * n).astype(np.int64)
    kept = (n >= 2) & (n_in < n)  # two events or more, and some held out
    folded, start, n, n_in = user_ids[kept], start[kept], n[kept], n_in[kept]
    end = np.cumsum(n)
    mark = np.zeros(n.sum(), dtype=np.int8)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for state, a, b, k in zip(_seed_states(seed, folded), (end - n).tolist(), end.tolist(),
                              n_in.tolist()):
        mark[a:b][generator(pcg64(_SeedState(state))).permutation(b - a)[:k]] = 1
    shift = start - (end - n)  # from a folded row's events to their positions in items
    pos_in = np.flatnonzero(mark) + np.repeat(shift, n_in)
    pos_out = np.flatnonzero(mark == 0) + np.repeat(shift, n - n_in)
    xin = sp.csr_matrix((values[pos_in], items[pos_in], np.append(0, np.cumsum(n_in))),
                        shape=(len(folded), n_items))
    rows = np.repeat(np.arange(len(folded)), n - n_in)
    config = {"users": users, "fold_in_fraction": float(fraction), "seed": int(seed)}
    return _Folds(xin, rows, items[pos_out], pos_out, len(user_ids) - len(folded), config)


def _adjust(s, model, scale, events, cols) -> None:
    """Multiply the scores ``s`` of the held-out events at folded positions
    ``events``, at the items ``cols``, by the interval scale, then add the
    target means of a dense model, in place."""
    if scale is not None:
        s *= scale[0][scale[1][events], cols]
    if isinstance(model, DenseModel) and model.mu is not None:
        s += model.mu[cols]


def _own_scores(model, folds: _Folds, scale=None) -> np.ndarray:
    """Each held-out item's score in its user's row, adjusted, and bitwise
    what scoring the row against a panel gives there.  For a matrix model
    it is the sum of x_uj·B[j, i] over row u of the input matrix in CSR
    order, added up one position at a time across the events, as the
    sparse products add it up, with B read at the index pairs.  Events are
    visited longest row first, ``_CHUNK // 16`` at a time, so that the
    temporaries of a step stay below ``_CHUNK`` floats."""
    xin, rows, items = folds.xin, folds.rows, folds.items
    if isinstance(model, PopularityScorer):
        own = model.pop[items]
    else:
        start = xin.indptr[rows]
        length = xin.indptr[rows + 1] - start
        by_length = np.argsort(-length, kind="stable")
        left = len(items) - np.cumsum(np.bincount(length))  # events with more than t inputs
        block = max(1, _CHUNK // 16)
        own = np.zeros(len(items))
        for t, m in enumerate(left[:-1].tolist()):
            for a0 in range(0, m, block):
                e = by_length[a0 : min(a0 + block, m)]
                at = start[e] + t
                own[e] += xin.data[at] * model.entries(xin.indices[at], items[e])
    _adjust(own, model, scale, folds.events, items)
    return own


def _rank_held_out(model, folds: _Folds, scale=None) -> np.ndarray:
    """Rank of every held-out item in its user's score row, in fold order.

    Each event's own score s_i is gathered first (:func:`_own_scores`).  The
    users are sliced once into chunks of ``_CHUNK // PANEL``; the folds'
    rows ascend, so each chunk's events are one slice of them.  Then each
    column panel of ``PANEL`` items is formed once, by the model's
    ``columns``, and released before the next; every chunk is scored
    against it, and each event's rank gains the panel's items j that rank
    before its item i, ``(s_j > s_i) + (s_j == s_i and j < i)``, as many
    events at a time.  Input items score -inf.  With
    ``scale = (table, idx)``, the row of the held-out event at folded
    position p is then multiplied by ``table[idx[p]]``.  The target means
    of a dense model are added last.
    """
    xin, n_users, n = folds.xin, *folds.xin.shape
    rows, items, events = folds.rows, folds.items, folds.events
    step = max(1, _CHUNK // PANEL)
    own = _own_scores(model, folds, scale)
    chunks = []
    for top in range(0, n_users, step):
        x = xin[top : top + step]
        x_rows = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
        chunks.append((top, x, x_rows, *np.searchsorted(rows, (top, top + step))))
    ranks = np.ones(len(items), dtype=np.int64)
    for lo in range(0, n if len(items) else 0, PANEL):  # no panel is formed for no events
        cols = model.columns(lo, lo + PANEL)
        for top, x, x_rows, first, last in chunks:
            scores = _scores(x, cols)
            hi = lo + scores.shape[1]
            hit = (x.indices >= lo) & (x.indices < hi)
            scores[x_rows[hit], x.indices[hit] - lo] = -np.inf
            for e0 in range(first, last, step):
                e = slice(e0, min(e0 + step, last))
                s = scores[rows[e] - top]
                _adjust(s, model, scale, events[e], slice(lo, hi))
                si, before = own[e][:, None], np.arange(lo, hi) < items[e][:, None]
                r = ranks[e]  # a view
                r += (s > si).sum(axis=1) + ((s == si) & before).sum(axis=1)
                nan = np.isnan(si[:, 0])
                if nan.any():
                    s_nan = np.isnan(s[nan])
                    r[nan] += (~s_nan).sum(axis=1) + (s_nan & before[nan]).sum(axis=1)
        del cols  # before the next panel is formed
    return ranks


def _reduce(ranks, folds: _Folds, recall_ks, ndcg_k: int, config: dict, cap: bool) -> EvalReport:
    """Per-user recall and ndcg from held-out ranks (each capped at 1 with
    ``cap``), aggregated into the report."""
    if min((*recall_ks, ndcg_k)) < 1:
        raise DataError(f"metric cutoffs must be at least 1, got {tuple(recall_ks)} and {ndcg_k}")
    users, n_users = folds.rows, folds.xin.shape[0]
    held = np.bincount(users, minlength=n_users)
    per_user = {}
    for k in recall_ks:
        per_user[f"recall@{k}"] = np.bincount(users[ranks <= k], minlength=n_users) / np.minimum(k, held)
    top = ranks <= ndcg_k
    order = np.lexsort((ranks[top], users[top]))
    hit_users, hit_ranks = users[top][order], ranks[top][order]
    first = np.flatnonzero(np.diff(hit_users, prepend=-1))
    dcg = np.zeros(n_users)
    if first.size:  # a leading 0.0 per user makes each sum round as np.sum does
        gains = np.insert(1.0 / np.log2(hit_ranks + 1.0), first, 0.0)
        dcg[hit_users[first]] = np.add.reduceat(gains, first + np.arange(first.size))
    m, inv = np.unique(np.minimum(ndcg_k, held), return_inverse=True)
    per_user[f"ndcg@{ndcg_k}"] = dcg / np.array([_ideal_dcg(v) for v in m.tolist()])[inv]
    if cap:
        per_user = {name: np.minimum(vals, 1.0) for name, vals in per_user.items()}
    return _aggregate(per_user, folds.n_skipped, config)


def _evaluate(model, folds: _Folds, recall_ks, ndcg_k: int) -> EvalReport:
    if model.n_items != folds.xin.shape[1]:
        raise DataError(f"model has {model.n_items} items, matrix has {folds.xin.shape[1]}")
    config = {**_model_config(model), "protocol": "strong_generalization", **folds.config}
    return _reduce(_rank_held_out(model, folds), folds, recall_ks, ndcg_k, config, cap=False)


def evaluate_model(
    model,
    matrix: UserItemMatrix,
    split: SplitSpec,
    recall_ks: tuple[int, ...] = DEFAULT_RECALL_KS,
    ndcg_k: int = DEFAULT_NDCG_K,
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
    intervals: TimeIntervalIndex,
    alpha: float,
    epsilon: float = DEFAULT_EPSILON,
    recall_ks: tuple[int, ...] = DEFAULT_RECALL_KS,
    ndcg_k: int = DEFAULT_NDCG_K,
    users: str = "test",
) -> EvalReport:
    """Per-event protocol with interval-dependent popularity re-scaling.

    Each user's events with non-zero values, ordered by item, form the row
    :func:`~gramrec.data.to_user_item_matrix` stores, and that row is folded
    exactly as :func:`evaluate_model` folds it; the held-out events keep
    their timestamps.  Each held-out event gets its own score row: the
    user's base scores (without mu, input items at -inf) times the weight
    vector of the interval its timestamp falls in, plus mu.  The event
    item's rank in that row follows the module's rule, so NaN scores rank
    last.  Per-user metrics are then rebuilt from the ranks.  With a single
    interval all weights are 1 and the report equals the time-agnostic one.

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
    # the evaluated users' entries to_user_item_matrix stores, by user and item
    order = np.flatnonzero(user_event_mask(iset, split.users(users)) & (iset.values != 0))
    order = order[np.lexsort((iset.item_ids[order], iset.user_ids[order]))]
    indptr = np.append(0, np.cumsum(np.bincount(iset.user_ids[order], minlength=iset.n_users)))
    folds = _draw_folds(indptr, iset.item_ids[order], iset.values[order], iset.n_items, split,
                        users)
    total = intervals.pops.sum(axis=0)
    wmat = np.stack([time_popularity_weights(pop_t, total, alpha, epsilon).w for pop_t in intervals.pops])
    scale = (wmat, intervals.locate(iset.timestamps[order]))
    ranks = _rank_held_out(model, folds, scale)
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
    folds are drawn once for the whole grid.  The winner has the highest
    ndcg@100, ties going to the smallest lambda.  Returns the winner, every
    report and the winner's model.
    """
    lams = sorted({float(l) for l in lambdas})
    if not lams:
        raise DataError("empty lambda grid")
    if not all(0 < l < np.inf for l in lams):
        raise DataError("all grid lambdas must be positive and finite")
    csr = matrix.matrix
    folds = _draw_folds(csr.indptr, csr.indices, csr.data, matrix.n_items, split, "validation")
    _require_users(folds.xin.shape[0], folds.n_skipped, "validation")  # before any G is built
    reports: dict[float, EvalReport] = {}
    best_lam = None
    best_score = -np.inf
    for lam in lams:
        model = None  # before the next G is built
        model = solver(build(), lam)
        report = _evaluate(model, folds, DEFAULT_RECALL_KS, DEFAULT_NDCG_K)
        reports[lam] = report
        score = report.metrics[f"ndcg@{DEFAULT_NDCG_K}"][0]
        if score > best_score:
            best_score, best_lam = score, lam
    if best_lam != lams[-1]:
        model = None
        model = solver(build(), best_lam)
    return best_lam, reports, model
