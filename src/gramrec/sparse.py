"""Sparse item-item models: pattern selection plus block-wise training.

The trainer runs in three steps.  First a sparsity pattern A is chosen by
thresholding item-item correlation magnitudes (with a per-column cap).
Second the columns of A are grouped into blocks: columns are visited in
order of decreasing support, each unvisited column contributes the item set
of its non-zero rows as one block, and all members are marked visited.
Third each block is solved exactly by the dense zero-diagonal closed form
on its Gram sub-matrix, and overlapping estimates are averaged.  When A is
block-diagonal the result equals the masked dense solution exactly;
otherwise it is an approximation that trades accuracy for never inverting
an n_items x n_items matrix (Steck, "Markov Random Fields for
Collaborative Filtering", NeurIPS 2019).

G itself is still a dense n_items x n_items array.  Beyond it, training
holds O(n_items · panel width + nnz(A)) memory plus the block solutions
(k² values for a block of k items): correlations are produced from G in
column panels of bounded width, block ranking reads only pattern entries,
and the block solutions are accumulated at pattern positions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .files import read_container, write_container
from .gram import PANEL, GramStats
from .solver import DenseModel, solve_zero_diag


@dataclass
class SparsityPattern:
    """Binary indicator matrix in compressed-column form.

    Each column holds at most n_max entries and always contains its
    diagonal, which the block construction relies on.
    """

    a: sp.csc_matrix
    threshold: float
    n_max: int

    @property
    def n_items(self) -> int:
        return self.a.shape[0]

    @property
    def sparsity(self) -> float:
        """Fraction of non-zero entries, the "sparsity level" of reports."""
        n = self.n_items
        return self.a.nnz / float(n * n) if n else 0.0


@dataclass
class CorrelationMatrix:
    """Item-item Pearson correlations, computed on demand from G.

    Holds the Gram statistics and the per-item moments, and reads G when
    indexed, so indexing after a dense solve has consumed the statistics
    raises.  Indexing reads it like the dense symmetric matrix with unit
    diagonal, in the two forms the trainer uses: ``cor[:, lo:hi]`` gives a
    column panel and ``cor[rows, cols]`` the entries at paired index arrays.
    Each entry is (G_ij/n − m_i·m_j)/(s_i·s_j), zero where item i or j has
    no variance.
    """

    gram: GramStats
    mean: np.ndarray
    std: np.ndarray  # 1 where the item has zero variance
    constant: np.ndarray  # zero-variance items

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_items, self.n_items)

    @property
    def n_items(self) -> int:
        return len(self.mean)

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        g = self.gram.require_g()
        if isinstance(rows, slice):
            if rows != slice(None) or not isinstance(cols, slice):
                raise TypeError("correlation panels are indexed as cor[:, lo:hi]")
            items = np.arange(self.n_items)
            return self._entries(g[:, cols], items[:, None], items[cols])
        rows, cols = np.asarray(rows), np.asarray(cols)
        return self._entries(g[rows, cols], rows, cols)

    def _entries(self, g: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Correlations at the broadcast (rows, cols) given G's entries there."""
        m, s = self.mean, self.std
        cor = g / self.gram.n_users
        cor -= m[rows] * m[cols]
        cor /= s[rows] * s[cols]
        cor[np.broadcast_to(self.constant[rows] | self.constant[cols], cor.shape)] = 0.0
        cor[np.broadcast_to(rows == cols, cor.shape)] = 1.0
        return cor


@dataclass
class SparseModel:
    """Non-zero weights aligned to a sparsity pattern; diagonal values 0."""

    pattern: SparsityPattern
    values: sp.csc_matrix
    lam: float

    @property
    def n_items(self) -> int:
        return self.pattern.n_items

    @property
    def sparsity(self) -> float:
        return self.pattern.sparsity


def correlation_from_gram(gram: GramStats) -> CorrelationMatrix:
    """Pearson correlations recovered from G = XᵀX and the column sums Xᵀ1.

    With n users, m = Xᵀ1/n and s² = diag(G)/n − m², the correlation is
    (G_ij/n − m_i·m_j)/(s_i·s_j), exact for any X.  Zero-variance items
    (empty or constant) get zero correlation to everything; the diagonal is
    always 1.  Only the moments are computed here: the result refers to the
    statistics and produces entries from G when indexed.
    """
    n = gram.n_users
    if n < 2:
        raise DataError(f"correlations need at least 2 users, got {n}")
    m = gram.colsum / n
    s = np.sqrt(np.maximum(np.diag(gram.require_g()) / n - m * m, 0.0))
    constant = s == 0.0
    return CorrelationMatrix(gram=gram, mean=m, std=np.where(constant, 1.0, s), constant=constant)


def threshold_pattern(
    m: np.ndarray | CorrelationMatrix, theta: float, n_max: int = 1000
) -> SparsityPattern:
    """A_ij = 1 where |m_ij| reaches theta, capped per column.

    A column exceeding the cap keeps its diagonal plus the n_max − 1
    strongest other entries (ties broken by ascending row); the diagonal is
    always present regardless of its own magnitude.  ``m`` is read in column
    panels ``m[:, lo:hi]``, so a :class:`CorrelationMatrix` is never
    materialized whole; a plain array is sliced the same way.
    """
    if not theta >= 0:
        raise DataError(f"threshold must be a non-negative number, got {theta}")
    if n_max < 1:
        raise DataError(f"per-column cap must be at least 1, got {n_max}")
    n = m.shape[0]
    if m.shape != (n, n):
        raise DataError(f"pattern source matrix must be square, got {m.shape}")
    per_col: list[np.ndarray] = []
    for lo in range(0, n, PANEL):
        crits = np.abs(m[:, lo : lo + PANEL])
        for k in range(crits.shape[1]):
            j = lo + k
            crit = crits[:, k]
            sel = np.flatnonzero(crit >= theta)
            sel = sel[sel != j]
            if sel.size > n_max - 1:
                order = np.lexsort((sel, -crit[sel]))
                sel = sel[order[: n_max - 1]]
            per_col.append(np.sort(np.append(sel, j)))
        del crits  # before the next panel is computed
    counts = np.fromiter((r.size for r in per_col), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(per_col) if n else np.zeros(0, dtype=np.int64)
    a = sp.csc_matrix(
        (np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n)
    )
    return SparsityPattern(a=a, threshold=theta, n_max=n_max)


def mask_model(model: DenseModel, pattern: SparsityPattern) -> SparseModel:
    """Dense weights restricted to the pattern positions.

    Diagonal values are written as zero whatever the dense model holds, so
    the result satisfies the sparse-model contract even for an
    unconstrained ridge input.
    """
    n = model.n_items
    if pattern.n_items != n:
        raise DataError(f"pattern is {pattern.n_items} items, model is {n}")
    a = pattern.a
    cols = np.repeat(np.arange(n), np.diff(a.indptr))
    vals = model.b[a.indices, cols].astype(np.float64)
    vals[a.indices == cols] = 0.0
    values = sp.csc_matrix((vals, a.indices.copy(), a.indptr.copy()), shape=(n, n))
    return SparseModel(pattern=pattern, values=values, lam=model.lam)


def block_partition(
    pattern: SparsityPattern, cor: np.ndarray | CorrelationMatrix
) -> list[np.ndarray]:
    """Item blocks from the pattern columns.

    Columns are ordered by support size descending, then by the largest
    off-diagonal correlation magnitude among their entries descending, then
    by index.  Walking that order, each not-yet-covered column i emits the
    block {j : A_ji = 1} and marks its members covered; emitted blocks may
    still overlap.  The ordering keys are fixed up front, which is
    equivalent to re-sorting the remaining columns after each removal since
    removals never change a column's keys.  Only the correlations at the
    pattern's off-diagonal positions are read, as ``cor[rows, cols]``, a
    panel of columns at a time.
    """
    a = pattern.a
    n = pattern.n_items
    if n and np.any(a.diagonal() == 0):
        raise DataError("pattern must contain every diagonal entry")
    nnz_col = np.diff(a.indptr)
    sec = np.full(n, -1.0)
    for lo in range(0, n, PANEL):
        hi = min(lo + PANEL, n)
        rows = a.indices[a.indptr[lo] : a.indptr[hi]]
        cols = np.repeat(np.arange(lo, hi), nnz_col[lo:hi])
        offd = rows != cols
        np.maximum.at(sec, cols[offd], np.abs(cor[rows[offd], cols[offd]]))
    order = np.lexsort((np.arange(n), -sec, -nnz_col))
    covered = np.zeros(n, dtype=bool)
    blocks: list[np.ndarray] = []
    for i in order:
        if covered[i]:
            continue
        members = a.indices[a.indptr[i] : a.indptr[i + 1]].astype(np.int64)
        blocks.append(members)
        covered[members] = True
    return blocks


def solve_blocks(gram: GramStats, blocks: list[np.ndarray], lam: float) -> list[np.ndarray]:
    """Solve each block by the dense closed form on its Gram sub-matrix."""
    if not gram.plain:
        raise DataError("block-wise training requires plain statistics (target C = G)")
    subs = []
    for members in blocks:
        sub = gram.g[np.ix_(members, members)]  # a fresh copy, solved in place
        stats = GramStats(g=sub, n_users=gram.n_users, colsum=gram.colsum[members])
        subs.append(solve_zero_diag(stats, lam).b)
    return subs


def aggregate_blocks(
    blocks: list[np.ndarray],
    submatrices: list[np.ndarray],
    pattern: SparsityPattern,
    lam: float,
) -> SparseModel:
    """Merge block solutions onto the pattern, averaging where blocks overlap.

    Accumulates per-position sums and counts over the pattern's entries,
    divides once, and leaves zero where no block covered a position.  Each
    block contributes only at the pattern positions inside it: for each of
    its columns, the pattern rows that are also members.  Sum-then-divide
    keeps the average independent of block order.
    """
    if len(blocks) != len(submatrices):
        raise DataError(f"{len(blocks)} blocks but {len(submatrices)} solutions")
    a = pattern.a
    starts, nnz_col = a.indptr[:-1], np.diff(a.indptr)
    sums = np.zeros(a.nnz, dtype=np.float64)
    counts = np.zeros(a.nnz, dtype=np.float64)
    local = np.full(pattern.n_items, -1, dtype=np.int64)  # item -> index in the block
    for members, sub in zip(blocks, submatrices):
        k = len(members)
        if sub.shape != (k, k):
            raise DataError(f"block of {k} items got a {sub.shape} solution")
        # every pattern position in the members' columns, column by column
        lens = nnz_col[members]
        col = np.repeat(np.arange(k), lens)
        pos = np.repeat(starts[members] - (np.cumsum(lens) - lens), lens) + np.arange(col.size)
        local[members] = np.arange(k)
        row = local[a.indices[pos]]
        local[members] = -1
        inside = row >= 0
        sums[pos[inside]] += np.asarray(sub, dtype=np.float64)[row[inside], col[inside]]
        counts[pos[inside]] += 1.0
    means = np.divide(sums, counts, out=sums, where=counts > 0)
    values = sp.csc_matrix((means, a.indices.copy(), a.indptr.copy()), shape=a.shape)
    return SparseModel(pattern=pattern, values=values, lam=lam)


def train_sparse(gram: GramStats, theta: float, n_max: int, lam: float) -> SparseModel:
    """Three-step sparse trainer: pattern, blocks, aggregated block solves."""
    cor = correlation_from_gram(gram)
    pattern = threshold_pattern(cor, theta, n_max=n_max)
    blocks = block_partition(pattern, cor)
    subs = solve_blocks(gram, blocks, lam)
    return aggregate_blocks(blocks, subs, pattern, lam)


def save_sparse_model(
    path: str | Path, model: SparseModel, item_keys: list[str] | None = None
) -> None:
    """Write a SparseModel as a ``sparse_model`` container (see
    :mod:`gramrec.files`): the compressed column arrays (pointers, row
    indices, values) and the pattern's threshold and cap."""
    values = model.values
    meta = {"lam": float(model.lam), "n_max": int(model.pattern.n_max),
            "threshold": float(model.pattern.threshold)}
    arrays = {"indptr": values.indptr, "indices": values.indices, "data": values.data}
    write_container(path, "sparse_model", model.n_items, meta, arrays, {"items": item_keys})


def load_sparse_model(path: str | Path, verify: bool = False) -> tuple[SparseModel, list[str] | None]:
    """Read a sparse model file back, as :func:`gramrec.solver.load_model` does."""
    c = read_container(path, "sparse_model", verify)
    n = c.n_items
    indptr = c.array("indptr", (n + 1,))
    nnz = int(indptr[-1])
    indices, data = c.array("indices", (nnz,)), c.array("data", (nnz,))
    a = sp.csc_matrix((np.ones(nnz, dtype=np.int8), indices.copy(), indptr.copy()), shape=(n, n))
    values = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    pattern = SparsityPattern(a=a, threshold=c.scalar("threshold", float), n_max=c.scalar("n_max", int))
    return SparseModel(pattern=pattern, values=values, lam=c.scalar("lam", float)), c.keys.get("items")
