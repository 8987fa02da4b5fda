"""Sufficient statistics for the closed-form solvers: G = XᵀX and C = XᵀY.

These two item-item matrices fully determine every model in this package, so
they can be computed once (a single pass over the sparse interaction rows, in
ascending user-id order) and reused across regularization strengths and model
variants.  Includes the disjoint-split construction that zeroes the diagonal
of C, optional target-column centering and per-user error weighting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import UserItemMatrix
from .errors import DataError

# Rows or columns per panel wherever an n×n result is built or rewritten
# piecewise: temporaries stay at PANEL·n floats.
PANEL = 256


@dataclass
class GramStats:
    """Dense item-item statistics G = XᵀX and C = XᵀY.

    ``mu`` holds the column means of Y when the targets were centered
    (centering is recorded by its presence).  For self-target statistics C
    is G itself, not a copy, which lets the solver skip the product P*C.
    ``colsum`` holds the input column sums Xᵀ1, which correlations need
    beyond G for non-binary X.  A dense solve consumes the statistics.
    """

    g: np.ndarray
    c: np.ndarray
    mu: np.ndarray | None
    n_users: int
    colsum: np.ndarray

    @property
    def n_items(self) -> int:
        return len(self.colsum)

    @property
    def centered(self) -> bool:
        return self.mu is not None

    def require_g(self) -> np.ndarray:
        """G, or a DataError once a dense solve has consumed the statistics."""
        if self.g is None:
            raise DataError("Gram statistics were consumed by an earlier solve; build them again")
        return self.g


def _check_dims(x: UserItemMatrix, y: UserItemMatrix) -> None:
    if x.matrix.shape != y.matrix.shape:
        raise DataError(
            f"input and target matrices disagree in shape: {x.matrix.shape} vs {y.matrix.shape}"
        )


def _colsum(x: sp.csr_matrix) -> np.ndarray:
    return np.asarray(x.sum(axis=0)).ravel().astype(np.float64)


def _dense_product(xt: sp.csr_matrix, y: sp.csr_matrix) -> np.ndarray:
    """xt @ y as a dense float64 array, written one row panel at a time so
    that no sparse product of all rows is held.  Each row of the product
    sums over xt's row in the same order whatever other rows are taken, so
    the panels are bitwise the whole product."""
    n = xt.shape[0]
    out = np.empty((n, y.shape[1]), dtype=np.float64)
    for lo in range(0, n, PANEL):
        hi = min(lo + PANEL, n)
        start, end = xt.indptr[lo], xt.indptr[hi]
        rows = sp.csr_matrix(  # a view of xt's rows, where xt[lo:hi] would copy them
            (xt.data[start:end], xt.indices[start:end], xt.indptr[lo : hi + 1] - start),
            shape=(hi - lo, xt.shape[1]),
        )
        (rows @ y).astype(np.float64, copy=False).toarray(out=out[lo:hi])
    return out


def _symmetrize(g: np.ndarray) -> None:
    """g ← 0.5*(g + gᵀ) in place, one row panel at a time: each panel's
    rows from the diagonal rightwards are averaged with the matching columns
    and written to both halves.  Addition commutes, so every entry is
    bitwise what the whole-matrix expression gives."""
    n = g.shape[0]
    for lo in range(0, n, PANEL):
        hi = min(lo + PANEL, n)
        half = g[lo:hi, lo:] + g[lo:, lo:hi].T
        half *= 0.5
        g[lo:hi, lo:] = half
        g[lo:, lo:hi] = half.T
        del half  # before the next panel is allocated


def _products(
    x: sp.csr_matrix, xw: sp.csr_matrix, yw: sp.csr_matrix
) -> tuple[np.ndarray, np.ndarray]:
    """Densified XᵀXw and XᵀYw, accumulated in float64 over ascending user
    ids; C is returned as G itself when the targets are the inputs."""
    xt = x.T.tocsr()
    g = _dense_product(xt, xw)
    _symmetrize(g)
    if yw is xw:
        return g, g
    return g, _dense_product(xt, yw)


def build_gram(x: UserItemMatrix, y: UserItemMatrix, center_y: bool = False) -> GramStats:
    """G = XᵀX and C = XᵀY, optionally with Y's columns centered.

    Centering never densifies Y: with column means μ and the vector of
    X's column sums s = Xᵀ1, the centered cross-product is XᵀY − s·μᵀ,
    subtracted from C one row panel at a time.  The means are stored so
    scoring can add them back.
    """
    _check_dims(x, y)
    g, c = _products(x.matrix, x.matrix, y.matrix)
    colsum = _colsum(x.matrix)
    mu = None
    if center_y:
        n = x.n_users
        if n == 0:
            raise DataError("cannot center with zero users")
        mu = _colsum(y.matrix) / n
        if c is g:
            c = g.copy()
        for lo in range(0, c.shape[0], PANEL):
            c[lo : lo + PANEL] -= np.outer(colsum[lo : lo + PANEL], mu)
    return GramStats(g=g, c=c, mu=mu, n_users=x.n_users, colsum=colsum)


def build_disjoint_gram(
    z: UserItemMatrix,
    explicit_lambda: bool = True,
    split_fraction: float = 0.05,
) -> GramStats:
    """Expected Gram statistics for random disjoint splits of a binary Z.

    Splitting each observed interaction independently into either the input
    or the target matrix makes diag(XᵀY) vanish; in expectation the
    off-diagonal entries stay proportional to ZᵀZ.  With ``explicit_lambda``
    (the default) the small-split-fraction approximation is used and all
    proportionality constants are dropped, so the solver's λ remains the
    single explicit regularizer:

        G = ZᵀZ,   C = ZᵀZ − diagMat(diag(ZᵀZ)).

    With ``explicit_lambda=False`` the exact expectations for a target
    fraction p = ``split_fraction`` are kept instead, which inflate G's
    diagonal and thereby add an implicit regularization of their own:

        G = (1−p)²·ZᵀZ + p(1−p)·diagMat(diag(ZᵀZ)),
        C = p(1−p)·(ZᵀZ − diagMat(diag(ZᵀZ))).
    """
    if not z.binarized or (z.matrix.nnz > 0 and not np.all(z.matrix.data == 1.0)):
        raise DataError("disjoint-split statistics require a binary matrix")
    g, _ = _products(z.matrix, z.matrix, z.matrix)
    diag = np.diag(g).copy()
    c = g.copy()
    np.fill_diagonal(c, 0.0)
    if not explicit_lambda:
        p = split_fraction
        if not 0.0 < p < 1.0:
            raise DataError(f"split fraction must be in (0, 1), got {p}")
        c *= p * (1.0 - p)
        g *= (1.0 - p) ** 2
        np.fill_diagonal(g, (1.0 - p) ** 2 * diag + p * (1.0 - p) * diag)
    return GramStats(g=g, c=c, mu=None, n_users=z.n_users, colsum=_colsum(z.matrix))


def build_user_weighted_gram(x: UserItemMatrix, y: UserItemMatrix, w_u: np.ndarray) -> GramStats:
    """G = Xᵀ·diagMat(w)·X and C = Xᵀ·diagMat(w)·Y for positive user weights.

    Weighting each user's squared errors by w_u folds entirely into these
    statistics, so training proceeds unchanged downstream.  With unit
    weights the result is bit-for-bit identical to :func:`build_gram`.
    """
    _check_dims(x, y)
    w_u = np.asarray(w_u, dtype=np.float64)
    if len(w_u) != x.n_users:
        raise DataError(f"expected {x.n_users} user weights, got {len(w_u)}")
    if np.any(w_u <= 0) or not np.all(np.isfinite(w_u)):
        raise DataError("user weights must be positive and finite")
    scale = sp.diags(w_u, format="csr")
    xw = (scale @ x.matrix).tocsr()
    xw.sort_indices()
    yw = xw
    if y.matrix is not x.matrix:
        yw = (scale @ y.matrix).tocsr()
        yw.sort_indices()
    g, c = _products(x.matrix, xw, yw)
    return GramStats(g=g, c=c, mu=None, n_users=x.n_users, colsum=_colsum(x.matrix))
