"""Sparse item-item models: pattern selection plus block-wise training.

The trainer runs in three steps.  First a sparsity pattern A is chosen by
thresholding item-item correlation magnitudes (with a per-column cap); the
same pass records each column's strength, its largest kept off-diagonal
magnitude.  Second the columns of A are grouped into blocks: columns are
visited in order of decreasing support, then strength, each unvisited
column contributes the item set of its non-zero rows as one block, and all
members are marked visited.  Third each block is solved exactly by the
dense zero-diagonal closed form on its Gram sub-matrix, and overlapping
estimates are averaged.  When A is block-diagonal the result equals the
masked dense solution exactly; otherwise it is an approximation that
trades accuracy for never inverting an n_items x n_items matrix (Steck,
"Markov Random Fields for Collaborative Filtering", NeurIPS 2019).

G is held packed, n(n+1)/2 floats (see :mod:`gramrec.packed`).  Beyond
it, training holds O(n_items · panel width + nnz(A)) memory plus the
largest block's solution (k² values for k items): correlations are produced
from G's rows in panels of bounded width and read once, by the pattern
pass, and each block's Gram sub-matrix is copied out of G, packed, and
solved when the aggregation reads it, then added at pattern positions.
The model's weights share the pattern's index arrays.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import packed
from .errors import DataError
from .files import read_container, write_container
from .gram import PANEL, GramStats
from .solver import DenseModel, solve_zero_diag


@dataclass
class SparsityPattern:
    """Binary indicator matrix in compressed-column form.

    Each column holds at most n_max entries and always contains its
    diagonal, which the block construction relies on.  ``strength`` holds,
    per column, the largest off-diagonal magnitude kept in it, or −1 when
    it keeps none; the blocks are ranked by it.
    """

    a: sp.csc_matrix
    threshold: float
    n_max: int
    strength: np.ndarray

    @property
    def n_items(self) -> int:
        return self.a.shape[0]


@dataclass
class CorrelationMatrix:
    """Item-item Pearson correlations, computed on demand from G.

    Holds the Gram statistics and the per-item moments, and reads G when
    indexed, so indexing after a dense solve has consumed the statistics
    raises.  It is read like the dense symmetric matrix with unit diagonal,
    one column panel ``cor[:, lo:hi]`` at a time.  Each entry is
    (G_ij/n − m_i·m_j)/(s_i·s_j), zero where item i or j has no variance.
    """

    gram: GramStats
    mean: np.ndarray
    std: np.ndarray  # 1 where the item has zero variance
    constant: np.ndarray  # zero-variance items

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.mean), len(self.mean))

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        if not (isinstance(rows, slice) and rows == slice(None)
                and isinstance(cols, slice) and cols.step in (None, 1)):
            raise TypeError("correlation panels are indexed as cor[:, lo:hi]")
        g = self.gram.require_g()
        m, s, n = self.mean, self.std, self.gram.n_users
        # G is symmetric: the panel is built from G's rows and returned
        # transposed, entry for entry the same products
        lo, hi, _ = cols.indices(len(m))
        idx = np.arange(lo, hi)
        cor = packed.rows(g, lo, hi)
        cor /= n
        for at in range(0, len(idx), 32):  # whole-panel outers would double its memory
            part = slice(at, at + 32)
            cor[part] -= np.outer(m[idx[part]], m)
            cor[part] /= np.outer(s[idx[part]], s)
        cor[:, self.constant] = 0.0
        cor[self.constant[idx]] = 0.0
        cor[np.arange(len(idx)), idx] = 1.0
        return cor.T


@dataclass
class SparseModel:
    """Weights in compressed-column form, stored at every position of the
    pattern they were trained on (diagonal values 0), with that pattern's
    threshold and cap."""

    values: sp.csc_matrix
    threshold: float
    n_max: int
    lam: float

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    def columns(self, lo: int, hi: int) -> sp.csr_matrix:
        """The weight columns lo:hi, as CSR for scoring."""
        return self.values[:, lo:hi].tocsr()

    def entries(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The weight at each index pair (i, j), 0 where none is stored."""
        return np.asarray(self.values[i, j]).reshape(-1)

    @property
    def sparsity(self) -> float:
        """Fraction of stored entries, the "sparsity level" of reports."""
        n = self.n_items
        return self.values.nnz / float(n * n) if n else 0.0


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
    s = np.sqrt(np.maximum(packed.diagonal(gram.require_g()) / n - m * m, 0.0))
    constant = s == 0.0
    return CorrelationMatrix(gram=gram, mean=m, std=np.where(constant, 1.0, s), constant=constant)


def threshold_pattern(
    m: np.ndarray | CorrelationMatrix, theta: float, n_max: int = 1000
) -> SparsityPattern:
    """A_ij = 1 where |m_ij| reaches theta, capped per column.

    A column exceeding the cap keeps its diagonal plus the n_max − 1
    strongest other entries (ties broken by ascending row); the diagonal is
    always present regardless of its own magnitude.  ``m`` is read once, in
    column panels ``m[:, lo:hi]``, so a :class:`CorrelationMatrix` is never
    materialized whole; a plain array is sliced the same way and never
    written to.  Each panel is capped at once (see :func:`_cap_panel`), and
    each column's strength is the largest |m| gathered at its kept
    off-diagonal positions.
    """
    if not theta >= 0:
        raise DataError(f"threshold must be a non-negative number, got {theta}")
    if n_max < 1:
        raise DataError(f"per-column cap must be at least 1, got {n_max}")
    n = m.shape[0]
    if m.shape != (n, n):
        raise DataError(f"pattern source matrix must be square, got {m.shape}")
    counts, indices = [np.zeros(1, dtype=np.int64)], [np.zeros(0, dtype=np.int32)]
    strength = np.empty(n)
    for lo in range(0, n, PANEL):
        cnt, rows, strength[lo : lo + PANEL] = _panel_pattern(m, lo, theta, n_max)
        counts.append(cnt)
        indices.append(rows)
    indices, indptr = np.concatenate(indices), np.cumsum(np.concatenate(counts))
    a = sp.csc_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
    return SparsityPattern(a=a, threshold=theta, n_max=n_max, strength=strength)


def _panel_pattern(m, lo: int, theta: float, n_max: int):
    """Entry counts, row indices and strengths of the pattern columns lo,
    lo + 1, … read from one panel of ``m``, which is dropped on return."""
    panel = m[:, lo : lo + PANEL].T  # one row per column
    # |panel|, in place when it is a fresh correlation panel
    crit = np.abs(panel, out=panel if isinstance(m, CorrelationMatrix) else None, order="C")
    keep = _cap_panel(crit, lo, theta, n_max)
    flat, cnt = np.flatnonzero(keep), np.count_nonzero(keep, axis=1)
    strength = np.maximum.reduceat(crit.ravel()[flat], np.cumsum(cnt) - cnt)
    return cnt, (flat % m.shape[0]).astype(np.int32), strength  # rows as the CSC arrays hold them


def _cap_panel(crit: np.ndarray, lo: int, theta: float, n_max: int) -> np.ndarray:
    """Pattern mask of the columns lo, lo + 1, … from their magnitudes
    ``crit``, one row each: a column over the cap keeps the entries above
    its (n_max − 1)-th largest value and then the ties at it in row order.
    The diagonal of ``crit`` is set to −1, below every threshold and every
    kept value, so it ranks as no entry; the mask then keeps it."""
    diag = (np.arange(crit.shape[0]), np.arange(lo, lo + crit.shape[0]))
    crit[diag] = -1.0
    keep = crit >= theta
    over = np.flatnonzero((n_kept := np.count_nonzero(keep, axis=1)) > n_max - 1)
    if over.size:
        # their kept values in row order, padded with -1 (below every kept value)
        rows, cols = np.divmod(np.flatnonzero(keep[over]), keep.shape[1])
        cnt = n_kept[over]
        at = np.arange(rows.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        vals = np.full((over.size, cnt.max()), -1.0)
        vals[rows, at] = crit[over[rows], cols]
        # the (n_max − 1)-th largest, or the largest under a cap of 1
        k = vals.shape[1] - max(n_max, 2) + 1
        kth = np.partition(vals, k, axis=1)[:, [k]]
        above, ties = vals > kth, vals == kth
        room = n_max - 1 - np.count_nonzero(above, axis=1)
        top = above | (ties & (np.cumsum(ties, axis=1, dtype=np.int32) <= room[:, None]))
        keep[over[rows], cols] = top[rows, at]
    keep[diag] = True
    return keep


def mask_model(model: DenseModel, pattern: SparsityPattern) -> SparseModel:
    """Dense weights restricted to the pattern positions, gathered from one
    column panel of B at a time.

    Diagonal values are written as zero whatever the dense model holds, so
    the result satisfies the sparse-model contract even for an
    unconstrained ridge input.
    """
    n = model.n_items
    if pattern.n_items != n:
        raise DataError(f"pattern is {pattern.n_items} items, model is {n}")
    a = pattern.a
    vals = np.empty(a.nnz)
    for lo in range(0, n, PANEL):
        at = slice(a.indptr[lo], a.indptr[min(lo + PANEL, n)])
        rows = a.indices[at]
        cols = np.repeat(np.arange(min(PANEL, n - lo)), np.diff(a.indptr[lo : lo + PANEL + 1]))
        vals[at] = model.columns(lo, lo + PANEL)[rows, cols]
        vals[at][rows == cols + lo] = 0.0
    values = sp.csc_matrix((vals, a.indices, a.indptr), shape=(n, n))
    return SparseModel(values=values, threshold=pattern.threshold, n_max=pattern.n_max,
                       lam=model.lam)


def block_partition(pattern: SparsityPattern) -> list[np.ndarray]:
    """Item blocks from the pattern columns.

    Columns are ordered by support size descending, then by strength (the
    largest off-diagonal correlation magnitude among their entries)
    descending, then by index.  Walking that order, each not-yet-covered
    column i emits the block {j : A_ji = 1} and marks its members covered;
    emitted blocks may still overlap.  The ordering keys are fixed up front,
    which is equivalent to re-sorting the remaining columns after each
    removal since removals never change a column's keys.
    """
    a = pattern.a
    n = pattern.n_items
    if n and np.any(a.diagonal() == 0):
        raise DataError("pattern must contain every diagonal entry")
    order = np.lexsort((np.arange(n), -pattern.strength, -np.diff(a.indptr)))
    covered = np.zeros(n, dtype=bool)
    blocks: list[np.ndarray] = []
    for i in order:
        if covered[i]:
            continue
        members = a.indices[a.indptr[i] : a.indptr[i + 1]].astype(np.int64)
        blocks.append(members)
        covered[members] = True
    return blocks


def solve_blocks(gram: GramStats, blocks: list[np.ndarray], lam: float) -> Iterator[np.ndarray]:
    """Each block's solution by the dense closed form on its Gram sub-matrix,
    in block order, as a k×k array.  The statistics are checked now; each
    sub-matrix is copied out of G, packed, and solved in place only when its
    solution is asked for."""
    if not gram.plain:
        raise DataError("block-wise training requires plain statistics (target C = G)")
    return (solve_zero_diag(GramStats(g=packed.submatrix(gram.require_g(), b), n_users=gram.n_users,
                                      colsum=gram.colsum[b]), lam).b for b in blocks)


def aggregate_blocks(
    blocks: list[np.ndarray],
    submatrices: Iterable[np.ndarray],
    pattern: SparsityPattern,
    lam: float,
) -> SparseModel:
    """Merge block solutions onto the pattern, averaging where blocks overlap.

    Accumulates per-position sums and counts over the pattern's entries,
    divides once, and leaves zero where no block covered a position.  Each
    block contributes only at the pattern positions inside it: for each of
    its columns, the pattern rows that are also members.  Sum-then-divide
    keeps the average independent of block order.  Each solution is read in
    turn and dropped once added, so lazy ones are held one block at a time.
    """
    a = pattern.a
    starts, nnz_col = a.indptr[:-1], np.diff(a.indptr)
    sums = np.zeros(a.nnz, dtype=np.float64)
    counts = np.zeros(a.nnz, dtype=np.float64)
    local = np.full(pattern.n_items, -1, dtype=np.int64)  # item -> index in the block
    subs = iter(submatrices)
    for b, members in enumerate(blocks):
        if (sub := next(subs, None)) is None:
            raise DataError(f"{len(blocks)} blocks but {b} solutions")
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
        del sub  # before the next block is solved
    if next(subs, None) is not None:
        raise DataError(f"{len(blocks)} blocks but more solutions")
    means = np.divide(sums, counts, out=sums, where=counts > 0)
    values = sp.csc_matrix((means, a.indices, a.indptr), shape=a.shape)
    return SparseModel(values=values, threshold=pattern.threshold, n_max=pattern.n_max, lam=lam)


def train_sparse(gram: GramStats, theta: float, n_max: int, lam: float) -> SparseModel:
    """Three-step sparse trainer: pattern, blocks, aggregated block solves."""
    cor = correlation_from_gram(gram)
    pattern = threshold_pattern(cor, theta, n_max=n_max)
    blocks = block_partition(pattern)
    return aggregate_blocks(blocks, solve_blocks(gram, blocks, lam), pattern, lam)


def save_sparse_model(
    path: str | Path, model: SparseModel, item_keys: list[str] | None = None
) -> None:
    """Write a SparseModel as a ``sparse_model`` container (see
    :mod:`gramrec.files`): the compressed column arrays (pointers, row
    indices, values) and the pattern's threshold and cap."""
    values = model.values
    meta = {"lam": float(model.lam), "n_max": int(model.n_max), "threshold": float(model.threshold)}
    arrays = {"indptr": values.indptr, "indices": values.indices, "data": values.data}
    write_container(path, "sparse_model", model.n_items, meta, arrays, {"items": item_keys})


def load_sparse_model(path: str | Path, verify: bool = False) -> tuple[SparseModel, list[str] | None]:
    """Read a sparse model file back, as :func:`gramrec.solver.load_model`
    does: one compressed-column matrix on the container's arrays."""
    c = read_container(path, "sparse_model", verify)
    n = c.n_items
    indptr = c.array("indptr", (n + 1,))
    nnz = int(indptr[-1])
    values = sp.csc_matrix((c.array("data", (nnz,)), c.array("indices", (nnz,)), indptr),
                           shape=(n, n))
    # one stored value per position, as training writes them: a weight given
    # twice is its sum for scoring and for reading single entries alike
    values.sum_duplicates()
    model = SparseModel(values=values, threshold=c.scalar("threshold", float),
                        n_max=c.scalar("n_max", int), lam=c.scalar("lam", float))
    return model, c.keys.get("items")
