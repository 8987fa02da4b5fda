"""Sparse item-item models: pattern selection plus block-wise training.

The trainer runs in three steps.  First a sparsity pattern A is chosen by
thresholding item-item correlation magnitudes (with a per-column cap).
Second the columns of A are grouped into blocks: columns are visited in
order of decreasing support, each unvisited column contributes the item set
of its non-zero rows as one block, and all members are marked visited.
Third each block is solved exactly by the dense zero-diagonal closed form
on its Gram sub-matrix, and overlapping estimates are averaged.  When A is
block-diagonal the result equals the masked dense solution exactly;
otherwise it is an approximation that trades accuracy for never forming,
or inverting, an n_items x n_items matrix.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .files import atomic_write
from .gram import GramStats
from .solver import DenseModel, solve_zero_diag

SOURCE_MODEL_ABS = "model_abs"
SOURCE_CORRELATION = "correlation"
SOURCE_GRAM_COUNT = "gram_count"
PATTERN_SOURCES = (SOURCE_MODEL_ABS, SOURCE_CORRELATION, SOURCE_GRAM_COUNT)

_SOURCE_CODES = {SOURCE_MODEL_ABS: 0, SOURCE_CORRELATION: 1, SOURCE_GRAM_COUNT: 2}
_CODES_SOURCE = {v: k for k, v in _SOURCE_CODES.items()}

_SPARSE_MAGIC = b"EASP"
_SPARSE_VERSION = 1
_SPARSE_HEADER = struct.Struct("<4sIQQddBQ")


@dataclass
class SparsityPattern:
    """Binary indicator matrix in compressed-column form.

    Each column holds at most n_max entries and always contains its
    diagonal, which the block construction relies on.
    """

    a: sp.csc_matrix
    threshold: float
    source: str
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
    """Dense symmetric item-item correlations with unit diagonal."""

    cor: np.ndarray

    @property
    def n_items(self) -> int:
        return self.cor.shape[0]


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
    """Pearson correlations recovered from G = XᵀX alone.

    Valid for a binarized X, where column sums equal diag(G): with
    m = diag(G)/n the correlation is (G_ij/n − m_i·m_j)/(s_i·s_j) and
    s_i = sqrt(G_ii/n − m_i²).  Zero-variance items (empty or ubiquitous)
    get zero correlation to everything; the diagonal is always 1.
    """
    n = gram.n_users
    if n < 2:
        raise DataError(f"correlations need at least 2 users, got {n}")
    d = np.diag(gram.g)
    m = d / n
    s = np.sqrt(np.maximum(d / n - m * m, 0.0))
    zero = s == 0.0
    s_safe = np.where(zero, 1.0, s)
    cor = (gram.g / n - np.outer(m, m)) / np.outer(s_safe, s_safe)
    cor[zero, :] = 0.0
    cor[:, zero] = 0.0
    np.fill_diagonal(cor, 1.0)
    return CorrelationMatrix(cor=cor)


def threshold_pattern(
    m: np.ndarray,
    theta: float,
    use_abs: bool = True,
    n_max: int = 1000,
    source: str = SOURCE_CORRELATION,
) -> SparsityPattern:
    """A_ij = 1 where the criterion reaches theta, capped per column.

    The criterion is |m_ij| with use_abs, m_ij otherwise.  A column
    exceeding the cap keeps its diagonal plus the n_max − 1 strongest other
    entries (ties broken by ascending row); the diagonal is always present
    regardless of its own criterion value.
    """
    if theta < 0:
        raise DataError(f"threshold must be non-negative, got {theta}")
    if n_max < 1:
        raise DataError(f"per-column cap must be at least 1, got {n_max}")
    if source not in PATTERN_SOURCES:
        raise DataError(f"unknown pattern source {source!r}; expected one of {PATTERN_SOURCES}")
    n = m.shape[0]
    if m.shape != (n, n):
        raise DataError(f"pattern source matrix must be square, got {m.shape}")
    per_col: list[np.ndarray] = []
    for j in range(n):
        crit = np.abs(m[:, j]) if use_abs else m[:, j]
        sel = np.flatnonzero(crit >= theta)
        sel = sel[sel != j]
        if sel.size > n_max - 1:
            order = np.lexsort((sel, -crit[sel]))
            sel = sel[order[: n_max - 1]]
        rows = np.sort(np.append(sel, j))
        per_col.append(rows)
    counts = np.fromiter((r.size for r in per_col), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(per_col) if n else np.zeros(0, dtype=np.int64)
    a = sp.csc_matrix(
        (np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n)
    )
    return SparsityPattern(a=a, threshold=theta, source=source, n_max=n_max)


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


def block_partition(pattern: SparsityPattern, cor: CorrelationMatrix) -> list[np.ndarray]:
    """Item blocks from the pattern columns.

    Columns are ordered by support size descending, then by the largest
    off-diagonal correlation magnitude among their entries descending, then
    by index.  Walking that order, each not-yet-covered column i emits the
    block {j : A_ji = 1} and marks its members covered; emitted blocks may
    still overlap.  The ordering keys are fixed up front, which is
    equivalent to re-sorting the remaining columns after each removal since
    removals never change a column's keys.
    """
    a = pattern.a
    n = pattern.n_items
    if n and np.any(a.diagonal() == 0):
        raise DataError("pattern must contain every diagonal entry")
    nnz_col = np.diff(a.indptr)
    sec = np.full(n, -1.0)
    for j in range(n):
        rows = a.indices[a.indptr[j] : a.indptr[j + 1]]
        offd = rows[rows != j]
        if offd.size:
            sec[j] = np.max(np.abs(cor.cor[offd, j]))
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
    if gram.c is not gram.g and not np.array_equal(gram.c, gram.g):
        raise DataError("block-wise training requires self-target statistics (C = G)")
    subs = []
    for members in blocks:
        sub = np.ascontiguousarray(gram.g[np.ix_(members, members)])
        stats = GramStats(
            g=sub, c=sub, mu=None, n_users=gram.n_users, provenance=gram.provenance
        )
        subs.append(solve_zero_diag(stats, lam).b)
    return subs


def aggregate_blocks(
    blocks: list[np.ndarray],
    submatrices: list[np.ndarray],
    pattern: SparsityPattern,
    lam: float,
) -> SparseModel:
    """Merge block solutions onto the pattern, averaging where blocks overlap.

    Accumulates per-position sums and counts, divides once, and reads the
    result off at the pattern positions (anything no block covered stays
    zero).  Sum-then-divide keeps the average independent of block order.
    """
    if len(blocks) != len(submatrices):
        raise DataError(f"{len(blocks)} blocks but {len(submatrices)} solutions")
    n = pattern.n_items
    rows, cols, vals = [], [], []
    for members, sub in zip(blocks, submatrices):
        k = len(members)
        if sub.shape != (k, k):
            raise DataError(f"block of {k} items got a {sub.shape} solution")
        rows.append(np.repeat(members, k))
        cols.append(np.tile(members, k))
        vals.append(np.asarray(sub, dtype=np.float64).ravel())
    a = pattern.a
    pcols = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))
    pkeys = pcols * n + a.indices
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        sums = sp.coo_matrix((np.concatenate(vals), (r, c)), shape=(n, n)).tocsc()
        counts = sp.coo_matrix((np.ones(len(r), dtype=np.float64), (r, c)), shape=(n, n)).tocsc()
        means = sums.data / counts.data
        ecols = np.repeat(np.arange(n, dtype=np.int64), np.diff(sums.indptr))
        ekeys = ecols * n + sums.indices
        pos = np.searchsorted(ekeys, pkeys)
        pos_safe = np.minimum(pos, len(ekeys) - 1)
        matched = ekeys[pos_safe] == pkeys
        aligned = np.where(matched, means[pos_safe], 0.0)
    else:
        aligned = np.zeros(len(pkeys), dtype=np.float64)
    values = sp.csc_matrix((aligned, a.indices.copy(), a.indptr.copy()), shape=(n, n))
    return SparseModel(pattern=pattern, values=values, lam=lam)


def train_sparse(gram: GramStats, theta: float, n_max: int, lam: float) -> SparseModel:
    """Three-step sparse trainer: pattern, blocks, aggregated block solves."""
    cor = correlation_from_gram(gram)
    pattern = threshold_pattern(cor.cor, theta, use_abs=True, n_max=n_max)
    blocks = block_partition(pattern, cor)
    subs = solve_blocks(gram, blocks, lam)
    return aggregate_blocks(blocks, subs, pattern, lam)


def save_sparse_model(
    path: str | Path, model: SparseModel, item_keys: list[str] | None = None
) -> None:
    """Write a SparseModel: header, item-key table, then the compressed
    column arrays (pointers, row indices, values), little-endian."""
    n = model.n_items
    if item_keys is not None and len(item_keys) != n:
        raise DataError(f"expected {n} item keys, got {len(item_keys)}")
    values = model.values
    header = _SPARSE_HEADER.pack(
        _SPARSE_MAGIC,
        _SPARSE_VERSION,
        n,
        values.nnz,
        model.lam,
        model.pattern.threshold,
        _SOURCE_CODES[model.pattern.source],
        model.pattern.n_max,
    )
    with atomic_write(path, binary=True) as fh:
        fh.write(header)
        keys = item_keys if item_keys is not None else []
        fh.write(struct.pack("<Q", len(keys)))
        for key in keys:
            raw = key.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        fh.write(np.ascontiguousarray(values.indptr, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(values.indices, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(values.data, dtype="<f8").tobytes())


def load_sparse_model(path: str | Path) -> tuple[SparseModel, list[str] | None]:
    raw = Path(path).read_bytes()
    if len(raw) < _SPARSE_HEADER.size or raw[:4] != _SPARSE_MAGIC:
        raise DataError(f"{path}: not a sparse model file")
    magic, version, n, nnz, lam, theta, source_code, n_max = _SPARSE_HEADER.unpack_from(raw)
    if version != _SPARSE_VERSION:
        raise DataError(f"{path}: unsupported sparse model version {version}")
    if source_code not in _CODES_SOURCE:
        raise DataError(f"{path}: unknown pattern source code {source_code}")
    offset = _SPARSE_HEADER.size
    try:
        (n_keys,) = struct.unpack_from("<Q", raw, offset)
        offset += 8
        item_keys = None
        if n_keys:
            if n_keys != n:
                raise DataError(f"{path}: key table has {n_keys} entries for {n} items")
            item_keys = []
            for _ in range(n_keys):
                (klen,) = struct.unpack_from("<I", raw, offset)
                offset += 4
                item_keys.append(raw[offset : offset + klen].decode("utf-8"))
                offset += klen
    except struct.error:
        raise DataError(f"{path}: truncated sparse model file") from None
    expected = offset + (n + 1) * 8 + nnz * 8 + nnz * 8
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes, found {len(raw)}")
    indptr = np.frombuffer(raw, dtype="<i8", count=n + 1, offset=offset).copy()
    offset += (n + 1) * 8
    indices = np.frombuffer(raw, dtype="<i8", count=nnz, offset=offset).copy()
    offset += nnz * 8
    data = np.frombuffer(raw, dtype="<f8", count=nnz, offset=offset).copy()
    a = sp.csc_matrix((np.ones(nnz, dtype=np.int8), indices.copy(), indptr.copy()), shape=(n, n))
    values = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    pattern = SparsityPattern(
        a=a, threshold=theta, source=_CODES_SOURCE[source_code], n_max=n_max
    )
    return SparseModel(pattern=pattern, values=values, lam=lam), item_keys
