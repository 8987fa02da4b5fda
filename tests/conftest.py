"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's code paths: ridge systems
are solved with numpy's LU-based ``linalg.solve`` on explicitly reduced
feature sets (the library uses a Cholesky inverse plus a rank correction),
and correlations are computed with a two-pass loop over raw columns (the
library derives them from Gram statistics).  Agreement between the two
routes is the point of the tests.

``general_solve`` is the closed form on an explicit target matrix C, the
P·C product and rank correction that the solvers avoid by reading every
model off P; ``target_of`` writes out the C that Gram statistics describe.
``dense_gram`` is the Gram builder as it was before G was packed: the
whole n×n product; every builder's packed G must be its lower triangle
bit for bit.

The ``*_reference`` functions are the sparse trainer's steps as whole-matrix
code: one dense correlation matrix, a column loop over it, and one COO sum
over every block's k² entries.  The library computes the same results in
panels and at pattern positions only; property tests hold it to these.
The data-layer references parse, deduplicate, reindex and write one event
at a time; the library does each column-wise in chunks.  Item popularity
is referenced by the column sums of the user-item matrix, and interval
popularity by one ``np.add.at`` per interval; the library counts both from
the events with one ``np.bincount``.  The evaluation
references fold, score and sort one user (time-aware: one held-out event)
at a time; the library ranks batches of events by counting comparisons.
"""

import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack

from gramrec import (
    CorrelationMatrix,
    DataError,
    DenseModel,
    InteractionSchema,
    InteractionSet,
    TimeIntervalIndex,
    UserItemMatrix,
    GramStats,
    ItemWeightVector,
    SparseModel,
    SparsityPattern,
    build_gram,
    score_histories,
    time_popularity_weights,
    to_user_item_matrix,
)
from gramrec.evaluation import _aggregate, _model_config
from gramrec.gram import PANEL
from gramrec.packed import diagonal_index, order, pack, unpack
from gramrec.weighting import DEFAULT_EPSILON, KIND_UNIFORM


def fold_in_indices(n: int, fraction: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The fold rule for one row of n events: positions for the input part
    (the first ceil(fraction*n) of a permutation) and the rest, each sorted."""
    if n <= 0:
        raise DataError("cannot fold in an empty row")
    n_in = int(np.ceil(fraction * n))
    perm = rng.permutation(n)
    return np.sort(perm[:n_in]), np.sort(perm[n_in:])


def ridge_oracle(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Unconstrained ridge: solve (XtX + lam I) B = XtY column by column."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[1]
    a = x.T @ x + lam * np.eye(n)
    return np.linalg.solve(a, x.T @ y)


def constrained_ridge_oracle(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Zero-diagonal ridge by brute force: column j is fit without feature j."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[1]
    b = np.zeros((n, n))
    for j in range(n):
        rest = [i for i in range(n) if i != j]
        xs = x[:, rest]
        a = xs.T @ xs + lam * np.eye(n - 1)
        b[rest, j] = np.linalg.solve(a, xs.T @ y[:, j])
    return b


def uniform_weights(n_items: int) -> ItemWeightVector:
    """All-ones item weights: a rescaling by them leaves the scores as
    they are."""
    return ItemWeightVector(w=np.ones(n_items, dtype=np.float64), kind=KIND_UNIFORM, alpha=0.0)


def zero_model(n_items: int) -> DenseModel:
    """A zero-diagonal dense model whose P, and so B, is all zeros."""
    return DenseModel(p=np.zeros(n_items * (n_items + 1) // 2), c=np.ones(n_items), lam=1.0)


def every_entry_model(b: np.ndarray) -> SparseModel:
    """A sparse model that stores every entry of the square array ``b``,
    zeros and diagonal included: a model of arbitrary weights, which a
    dense model, read off a symmetric P, cannot hold."""
    n = b.shape[0]
    values = sp.csc_matrix((np.ravel(b, order="F"), np.tile(np.arange(n), n),
                            np.arange(0, n * n + 1, n)), shape=(n, n))
    return SparseModel(values=values, threshold=0.0, n_max=n, lam=1.0)


def kept(stats: GramStats) -> GramStats:
    """A copy of ``stats`` for a solver to consume, so that the caller keeps G."""
    return replace(stats, g=stats.g.copy())


def invert_regularized_copying(g: np.ndarray, lam: float) -> np.ndarray:
    """(G + lambda*I)^-1, packed, from packed G left intact: a copy of G is
    factored and inverted by ``dpftrf``/``dpftri``, and -0.0 read as 0.0.
    The in-place inverse, made in G's own buffer, must match it bit for
    bit."""
    a = np.array(g, dtype=np.float64)
    a[diagonal_index(a)] += lam
    chol, info = lapack.dpftrf(order(a), a, transr="N", uplo="L")
    assert info == 0
    inv, info = lapack.dpftri(order(a), chol, transr="N", uplo="L")
    assert info == 0
    return inv + 0.0


def dense_gram(x: sp.csr_matrix, xw: sp.csr_matrix) -> np.ndarray:
    """Densified XᵀXw over ascending user ids as the builders made it in
    full storage, one row panel of Xᵀ at a time.  It is not symmetrised:
    that is a no-op for XᵀX, which is exactly symmetric, and packed G
    keeps the lower triangle of XᵀWX alone."""
    xt = x.T.tocsr()
    n = xt.shape[0]
    g = np.empty((n, n), dtype=np.float64)
    for lo in range(0, n, PANEL):
        (xt[lo : lo + PANEL] @ xw).astype(np.float64, copy=False).toarray(out=g[lo : lo + PANEL])
    return g


def target_of(stats: GramStats) -> np.ndarray:
    """The target C = κ·(G − diagMat(d)) − s·μᵀ that ``stats`` describe, as
    one dense matrix."""
    g = unpack(stats.g)
    c = stats.kappa * (g - np.diag(np.diag(g)) if stats.removed_diag else g)
    return c if stats.mu is None else c - np.outer(stats.colsum, stats.mu)


def general_solve(g: np.ndarray, c: np.ndarray, lam: float, zero_diag: bool = True):
    """The closed form on an explicit target C, as the solvers once computed
    it for every target but G: B = P·C for ridge, and
    B = P·C − P·diagMat(γ) with γ = diag(P·C)/diag(P) and a zero diagonal
    for the constrained model.  P = (G + λI)⁻¹ is the solvers' own inverse,
    so only the way B is formed from it differs.  Returns B and γ (None for
    ridge)."""
    p = unpack(invert_regularized_copying(pack(g), lam))
    b = p @ c
    if not zero_diag:
        return b, None
    gamma = np.diag(b) / np.diag(p)
    b -= p * gamma[np.newaxis, :]
    np.fill_diagonal(b, 0.0)
    return b, gamma


def two_pass_correlation(x: np.ndarray) -> np.ndarray:
    """Textbook Pearson correlation of columns; zero-variance rows/cols -> 0."""
    x = np.asarray(x, dtype=np.float64)
    n_users, n_items = x.shape
    m = x.mean(axis=0)
    s = x.std(axis=0)
    out = np.zeros((n_items, n_items))
    for i in range(n_items):
        for j in range(n_items):
            if s[i] == 0.0 or s[j] == 0.0:
                continue
            cov = np.mean((x[:, i] - m[i]) * (x[:, j] - m[j]))
            out[i, j] = cov / (s[i] * s[j])
    np.fill_diagonal(out, 1.0)
    return out


def correlation_reference(gram) -> np.ndarray:
    """The whole correlation matrix from G and the column sums in one
    expression."""
    n = gram.n_users
    m = gram.colsum / n
    g = unpack(gram.g)
    s = np.sqrt(np.maximum(np.diag(g) / n - m * m, 0.0))
    zero = s == 0.0
    s_safe = np.where(zero, 1.0, s)
    cor = (g / n - np.outer(m, m)) / np.outer(s_safe, s_safe)
    cor[zero, :] = 0.0
    cor[:, zero] = 0.0
    np.fill_diagonal(cor, 1.0)
    return cor


def threshold_pattern_reference(m: np.ndarray, theta: float, n_max: int) -> sp.csc_matrix:
    """|m_ij| ≥ theta plus the diagonal, capped per column at n_max with the
    strongest entries kept and ties going to the lower row."""
    n = m.shape[0]
    per_col = []
    for j in range(n):
        crit = np.abs(m[:, j])
        sel = np.flatnonzero(crit >= theta)
        sel = sel[sel != j]
        if sel.size > n_max - 1:
            order = np.lexsort((sel, -crit[sel]))
            sel = sel[order[: n_max - 1]]
        per_col.append(np.sort(np.append(sel, j)))
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in per_col])]).astype(np.int64)
    indices = np.concatenate(per_col) if n else np.zeros(0, dtype=np.int64)
    return sp.csc_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))


def pattern_strength_reference(a: sp.csc_matrix, cor: np.ndarray) -> np.ndarray:
    """Each column's largest off-diagonal |correlation| among its pattern
    rows, or -1 when it has none."""
    n = a.shape[0]
    sec = np.full(n, -1.0)
    for j in range(n):
        rows = a.indices[a.indptr[j] : a.indptr[j + 1]]
        offd = rows[rows != j]
        if offd.size:
            sec[j] = np.max(np.abs(cor[offd, j]))
    return sec


def pattern_from_dense(mask: np.ndarray, cor=None, theta=0.0, n_max=1000) -> SparsityPattern:
    """A hand-made pattern whose strengths come from ``cor`` (the mask
    itself by default)."""
    a = sp.csc_matrix(np.asarray(mask, dtype=np.int8))
    strength = pattern_strength_reference(a, np.asarray(mask if cor is None else cor, dtype=float))
    return SparsityPattern(a=a, threshold=theta, n_max=n_max, strength=strength)


def correlations_of(sym: np.ndarray) -> CorrelationMatrix:
    """Correlations that read exactly the symmetric ``sym``, with a unit
    diagonal: no mean and unit spread over 2 users, so each is G / 2."""
    n = len(sym)
    return CorrelationMatrix(gram=GramStats(g=pack(2.0 * np.asarray(sym, dtype=float)), n_users=2,
                                            colsum=np.zeros(n)),
                             mean=np.zeros(n), std=np.ones(n), constant=np.zeros(n, dtype=bool))


def block_partition_reference(a: sp.csc_matrix, cor: np.ndarray) -> list[np.ndarray]:
    """Blocks from columns ranked by support, then by the largest
    off-diagonal |correlation| in the column, then by index."""
    n = a.shape[0]
    nnz_col = np.diff(a.indptr)
    sec = pattern_strength_reference(a, cor)
    covered = np.zeros(n, dtype=bool)
    blocks = []
    for i in np.lexsort((np.arange(n), -sec, -nnz_col)):
        if not covered[i]:
            members = a.indices[a.indptr[i] : a.indptr[i + 1]].astype(np.int64)
            blocks.append(members)
            covered[members] = True
    return blocks


def aggregate_blocks_reference(blocks, submatrices, a: sp.csc_matrix) -> np.ndarray:
    """Dense n×n average of every block's full k×k solution, masked to the
    pattern a."""
    n = a.shape[0]
    if not blocks:
        return np.zeros((n, n))
    rows = np.concatenate([np.repeat(b, len(b)) for b in blocks])
    cols = np.concatenate([np.tile(b, len(b)) for b in blocks])
    vals = np.concatenate([np.asarray(s, dtype=np.float64).ravel() for s in submatrices])
    sums = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).toarray()
    counts = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).toarray()
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return means * (a.toarray() != 0)


def _parse_float_reference(text: str, line_no: int, column: str) -> float:
    try:
        parsed = float(text)
    except ValueError:
        raise DataError(f"line {line_no}: column {column!r} is not a number: {text!r}") from None
    if not np.isfinite(parsed):
        raise DataError(f"line {line_no}: column {column!r} is not finite: {text!r}")
    return parsed


def load_interactions_reference(
    path,
    fmt: str = "csv",
    schema: InteractionSchema | None = None,
    binarize: bool = False,
    dedup: str = "keep_max",
    min_value: float | None = None,
) -> InteractionSet:
    """One ``csv.reader`` pass with one dict lookup per event, then
    :func:`dedup_indices_reference`, and ids numbered over the kept events
    by :func:`reindex_reference`."""
    delimiter = "," if fmt == "csv" else "\t"
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if schema is None:
            schema = InteractionSchema(
                user="user",
                item="item",
                value="value" if "value" in header else None,
                time="timestamp" if "timestamp" in header else None,
            )
        col = {}
        for role, name in (
            ("user", schema.user),
            ("item", schema.item),
            ("value", schema.value),
            ("time", schema.time),
        ):
            if name is None:
                continue
            if name not in header:
                raise DataError(f"{path}: header has no column {name!r} (columns: {header})")
            col[role] = header.index(name)
        n_cols = len(header)

        user_index: dict[str, int] = {}
        item_index: dict[str, int] = {}
        user_keys: list[str] = []
        item_keys: list[str] = []
        uids: list[int] = []
        iids: list[int] = []
        vals: list[float] = []
        times: list[int] = []
        has_time = "time" in col

        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_cols:
                raise DataError(f"line {line_no}: expected {n_cols} columns, got {len(row)}")
            user_key = row[col["user"]].strip()
            item_key = row[col["item"]].strip()
            if not user_key or not item_key:
                raise DataError(f"line {line_no}: empty user or item key")
            value = 1.0 if "value" not in col else _parse_float_reference(row[col["value"]], line_no, schema.value)
            if min_value is not None and value < min_value:
                continue
            uid = user_index.get(user_key)
            if uid is None:
                uid = len(user_keys)
                user_index[user_key] = uid
                user_keys.append(user_key)
            iid = item_index.get(item_key)
            if iid is None:
                iid = len(item_keys)
                item_index[item_key] = iid
                item_keys.append(item_key)
            uids.append(uid)
            iids.append(iid)
            vals.append(value)
            if has_time:
                raw = row[col["time"]].strip()
                try:
                    stamp = float(raw)
                    if not -(2.0**63) <= stamp < 2.0**63:  # int64
                        raise ValueError(raw)
                    times.append(int(stamp))
                except ValueError:
                    raise DataError(
                        f"line {line_no}: column {schema.time!r} is not a timestamp: {raw!r}"
                    ) from None

    user_arr = np.asarray(uids, dtype=np.int64)
    item_arr = np.asarray(iids, dtype=np.int64)
    value_arr = np.asarray(vals, dtype=np.float64)
    time_arr = np.asarray(times, dtype=np.int64) if has_time else None

    keep = dedup_indices_reference(user_arr, item_arr, value_arr, dedup, user_keys, item_keys)
    if binarize:
        value_arr = np.ones_like(value_arr)
    parsed = InteractionSet(
        user_ids=user_arr,
        item_ids=item_arr,
        values=value_arr,
        timestamps=time_arr,
        user_keys=user_keys,
        item_keys=item_keys,
    )
    return reindex_reference(parsed, keep)


def dedup_indices_reference(uids, iids, vals, policy: str, user_keys, item_keys) -> np.ndarray:
    """Surviving event per (user, item) pair, in file order; ``keep_max``
    takes each group's ``argmax``.  ``error`` names the smallest duplicated
    (user id, item id) pair by its keys."""
    if len(uids) == 0:
        return np.empty(0, dtype=np.intp)
    order = np.lexsort((iids, uids))
    su, si = uids[order], iids[order]
    boundary = np.empty(len(order), dtype=bool)
    boundary[0] = True
    boundary[1:] = (su[1:] != su[:-1]) | (si[1:] != si[:-1])
    starts = np.flatnonzero(boundary)
    if len(starts) == len(order):
        return np.sort(order)
    if policy == "error":
        dup_pos = np.flatnonzero(~boundary)[0]
        raise DataError(
            "duplicate (user, item) events under dedup policy 'error' "
            f"(first duplicated pair: user {user_keys[su[dup_pos]]!r}, item {item_keys[si[dup_pos]]!r})"
        )
    keep = np.empty(len(starts), dtype=np.intp)
    for g, start in enumerate(starts):
        stop = starts[g + 1] if g + 1 < len(starts) else len(order)
        grp = order[start:stop]
        keep[g] = grp[-1] if policy == "keep_last" else grp[np.argmax(vals[grp])]
    return np.sort(keep)


def reindex_reference(iset: InteractionSet, event_idx: np.ndarray) -> InteractionSet:
    """The given events with ids reassigned by a walk in event order."""
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    uids = np.empty(len(event_idx), dtype=np.int64)
    iids = np.empty(len(event_idx), dtype=np.int64)
    for pos, ev in enumerate(event_idx):
        uids[pos] = user_index.setdefault(iset.user_keys[iset.user_ids[ev]], len(user_index))
        iids[pos] = item_index.setdefault(iset.item_keys[iset.item_ids[ev]], len(item_index))
    return InteractionSet(
        user_ids=uids,
        item_ids=iids,
        values=iset.values[event_idx],
        timestamps=None if iset.timestamps is None else iset.timestamps[event_idx],
        user_keys=list(user_index),
        item_keys=list(item_index),
    )


def write_canonical_reference(iset: InteractionSet, path) -> None:
    """The canonical CSV ``ingest`` writes, one ``csv.writer`` row per event."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        has_time = iset.timestamps is not None
        writer.writerow(["user", "item", "value"] + (["timestamp"] if has_time else []))
        for e in range(iset.n_events):
            row = [
                iset.user_keys[iset.user_ids[e]],
                iset.item_keys[iset.item_ids[e]],
                repr(float(iset.values[e])),
            ]
            if has_time:
                row.append(repr(float(iset.timestamps[e])))
            writer.writerow(row)


def popularity_reference(iset: InteractionSet, user_subset=None) -> np.ndarray:
    """Column sums of the user-item matrix, over the rows of ``user_subset``
    when one is given."""
    matrix = to_user_item_matrix(iset).matrix
    if user_subset is not None:
        user_subset = np.asarray(user_subset, dtype=np.intp)
        if len(user_subset) == 0:
            return np.zeros(iset.n_items)
        matrix = matrix[user_subset]
    return np.asarray(matrix.sum(axis=0)).ravel().astype(np.float64)


def time_intervals_reference(iset: InteractionSet, n_intervals: int,
                             user_subset) -> TimeIntervalIndex:
    """Equal-count intervals of the subset's events in stable timestamp
    order, each interval's popularity summed by its own ``np.add.at``."""
    if n_intervals < 1:
        raise DataError("n_intervals must be >= 1")
    if iset.timestamps is None:
        raise DataError("events carry no timestamps; a time column is required")
    ev = np.flatnonzero(np.isin(iset.user_ids, np.asarray(user_subset, dtype=np.int64)))
    if len(ev) == 0:
        raise DataError("user subset has no events")
    ev = ev[np.argsort(iset.timestamps[ev], kind="stable")]
    ts = iset.timestamps[ev]
    m = len(ev)
    cuts = np.round(np.arange(n_intervals + 1) * (m / n_intervals)).astype(np.int64)
    pops = np.zeros((n_intervals, iset.n_items), dtype=np.float64)
    counts = np.empty(n_intervals, dtype=np.int64)
    for k in range(n_intervals):
        lo, hi = cuts[k], cuts[k + 1]
        counts[k] = hi - lo
        np.add.at(pops[k], iset.item_ids[ev[lo:hi]], iset.values[ev[lo:hi]])
    boundaries = np.empty(n_intervals + 1, dtype=np.int64)
    boundaries[0] = ts[0]
    boundaries[-1] = ts[-1]
    for k in range(1, n_intervals):
        boundaries[k] = ts[min(cuts[k], m - 1)]
    return TimeIntervalIndex(boundaries=boundaries, pops=pops, counts=counts)


def recall_at_k(ranked: np.ndarray, held_out: np.ndarray, k: int) -> float:
    """One user's recall: |top-k hits| / min(k, |held_out|)."""
    held_out = np.asarray(held_out)
    if held_out.size == 0:
        raise DataError("recall is undefined for an empty held-out set")
    hits = int(np.isin(np.asarray(ranked)[:k], held_out).sum())
    return hits / min(k, held_out.size)


def ndcg_at_k(ranked: np.ndarray, held_out: np.ndarray, k: int) -> float:
    """One user's binary-relevance discounted gain in the top k, against the ideal."""
    held_out = np.asarray(held_out)
    if held_out.size == 0:
        raise DataError("ndcg is undefined for an empty held-out set")
    hit_pos = np.flatnonzero(np.isin(np.asarray(ranked)[:k], held_out))
    dcg = float(np.sum(1.0 / np.log2(hit_pos + 2.0)))
    return dcg / float(np.sum(1.0 / np.log2(np.arange(min(k, held_out.size)) + 2.0)))


def evaluate_model_reference(model, matrix, split, recall_ks=(20, 50), ndcg_k=100,
                             users="test"):
    """Strong-generalization report one user at a time: a full stable argsort
    of the user's scores, read off with ``recall_at_k`` and ``ndcg_at_k``."""
    user_ids = split.users(users)
    eval_seed = split.seed
    csr = matrix.matrix
    per_user = {name: [] for name in [f"recall@{k}" for k in recall_ks] + [f"ndcg@{ndcg_k}"]}
    n_skipped = 0
    for u in user_ids:
        start, end = csr.indptr[u], csr.indptr[u + 1]
        ids = csr.indices[start:end]
        if end - start < 2:
            n_skipped += 1
            continue
        rng = np.random.default_rng((eval_seed, int(u)))
        pos_in, pos_out = fold_in_indices(end - start, split.fold_in_fraction, rng)
        if pos_out.size == 0:
            n_skipped += 1
            continue
        xin = sp.csr_matrix(
            (csr.data[start:end][pos_in], ids[pos_in], [0, len(pos_in)]),
            shape=(1, matrix.n_items),
        )
        scores = score_histories(model, xin)[0]
        scores[ids[pos_in]] = -np.inf
        ranked = np.argsort(-scores, kind="stable")
        for k in recall_ks:
            per_user[f"recall@{k}"].append(recall_at_k(ranked, ids[pos_out], k))
        per_user[f"ndcg@{ndcg_k}"].append(ndcg_at_k(ranked, ids[pos_out], ndcg_k))
    config = _model_config(model)
    config.update({"protocol": "strong_generalization", "users": users,
                   "fold_in_fraction": float(split.fold_in_fraction), "seed": int(eval_seed)})
    return _aggregate(per_user, n_skipped, config)


def evaluate_time_aware_reference(model, iset, split, intervals, alpha,
                                  epsilon=DEFAULT_EPSILON, recall_ks=(20, 50), ndcg_k=100,
                                  users="test"):
    """Time-aware report one held-out event at a time: the user's history
    scored by a dense vector-matrix product, the event's interval weights
    applied, and the event item's rank read off a full stable argsort of that
    row.  Zero-valued events are skipped, as the user-item matrix leaves
    them out."""
    user_ids = split.users(users)
    eval_seed = split.seed
    total = intervals.pops.sum(axis=0)
    wmat = np.stack([
        time_popularity_weights(intervals.pops[k], total, alpha, epsilon).w
        for k in range(intervals.n_intervals)
    ])
    order = np.lexsort((iset.item_ids, iset.user_ids))
    order = np.array([e for e in order if iset.values[e] != 0], dtype=np.int64)
    sorted_users = iset.user_ids[order]
    per_user = {name: [] for name in [f"recall@{k}" for k in recall_ks] + [f"ndcg@{ndcg_k}"]}
    n_skipped = 0
    for u in user_ids:
        lo, hi = np.searchsorted(sorted_users, [u, u + 1])
        ev = order[lo:hi]
        if hi - lo < 2:
            n_skipped += 1
            continue
        rng = np.random.default_rng((eval_seed, int(u)))
        pos_in, pos_out = fold_in_indices(hi - lo, split.fold_in_fraction, rng)
        if pos_out.size == 0:
            n_skipped += 1
            continue
        in_ids = iset.item_ids[ev[pos_in]]
        base = iset.values[ev[pos_in]] @ model.b[in_ids, :]
        base[in_ids] = -np.inf
        out_ids = iset.item_ids[ev[pos_out]]
        out_intervals = intervals.locate(iset.timestamps[ev[pos_out]])
        ranks = np.empty(len(out_ids), dtype=np.int64)
        for e, (item, k) in enumerate(zip(out_ids, out_intervals)):
            s = base * wmat[k]
            if model.mu is not None:
                s = s + model.mu
            ranks[e] = 1 + np.flatnonzero(np.argsort(-s, kind="stable") == item)[0]
        ranks = np.sort(ranks)
        n_held = len(ranks)
        for k in recall_ks:
            hits = int(np.count_nonzero(ranks <= k))
            per_user[f"recall@{k}"].append(min(1.0, hits / min(k, n_held)))
        top = ranks[ranks <= ndcg_k]
        dcg = float(np.sum(1.0 / np.log2(top + 1.0)))
        ideal = float(np.sum(1.0 / np.log2(np.arange(min(ndcg_k, n_held)) + 2.0)))
        per_user[f"ndcg@{ndcg_k}"].append(min(1.0, dcg / ideal))
    config = _model_config(model)
    config.update({"protocol": "time_aware", "users": users,
                   "fold_in_fraction": float(split.fold_in_fraction), "seed": int(eval_seed),
                   "n_intervals": int(intervals.n_intervals), "alpha": float(alpha),
                   "epsilon": float(epsilon),
                   "note": "per-event scoring; fold-in items and training data may "
                           "postdate the scored event"})
    return _aggregate(per_user, n_skipped, config)


def binary_matrix(
    rng: np.random.Generator,
    n_users: int,
    n_items: int,
    density: float = 0.4,
) -> UserItemMatrix:
    """Random binary interaction matrix with no empty or full columns; a
    shape and density that miss that in 1,000 draws are a ValueError."""
    for _ in range(1000):
        dense = (rng.random((n_users, n_items)) < density).astype(np.float64)
        sums = dense.sum(axis=0)
        if np.all(sums > 0) and np.all(sums < n_users):
            return UserItemMatrix(matrix=sp.csr_matrix(dense))
    raise ValueError(
        f"no {n_users} x {n_items} draw at density {density} in 1000 had every column "
        "neither empty nor full"
    )


def matrix_from_dense(dense: np.ndarray) -> UserItemMatrix:
    return UserItemMatrix(matrix=sp.csr_matrix(np.asarray(dense, dtype=np.float64)))


def gram_of(dense: np.ndarray, **kwargs):
    """Gram statistics of a dense array."""
    return build_gram(matrix_from_dense(dense), **kwargs)


def make_iset(
    events: list[tuple[int, int, float]],
    n_users: int | None = None,
    n_items: int | None = None,
    timestamps: list[int] | None = None,
) -> InteractionSet:
    """Interaction set from (user id, item id, value) triples."""
    uids = np.asarray([e[0] for e in events], dtype=np.int64)
    iids = np.asarray([e[1] for e in events], dtype=np.int64)
    vals = np.asarray([e[2] for e in events], dtype=np.float64)
    nu = int(uids.max()) + 1 if n_users is None else n_users
    ni = int(iids.max()) + 1 if n_items is None else n_items
    user_keys = [f"u{k}" for k in range(nu)]
    item_keys = [f"i{k}" for k in range(ni)]
    return InteractionSet(
        user_ids=uids,
        item_ids=iids,
        values=vals,
        timestamps=None if timestamps is None else np.asarray(timestamps, dtype=np.int64),
        user_keys=user_keys,
        item_keys=item_keys,
    )


def assert_same_interactions(got, want):
    for name in ("user_ids", "item_ids", "values", "timestamps"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name  # bitwise, so -0.0 and 0.0 differ
    assert got.user_keys == want.user_keys
    assert got.item_keys == want.item_keys
    assert got.user_index == want.user_index
    assert got.item_index == want.item_index


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(env=None) -> dict[str, str]:
    """``env`` (by default this process's) with this checkout's ``src`` first
    on ``PYTHONPATH`` as an absolute path, so that a child started in any
    directory imports this ``gramrec``."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(args: list[str], cwd=None, env=None) -> subprocess.CompletedProcess:
    """Run the command-line interface in a subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "gramrec", *args],
        capture_output=True,
        text=True,
        encoding="utf-8",
        cwd=cwd,
        env=child_env(env),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260821)
