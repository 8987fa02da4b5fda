"""Sufficient statistics for the closed-form solvers: G = XᵀX and the
description of the target C = XᵀY.

Every model in this package is a function of G and a few per-item vectors,
computed in a single pass over the sparse interaction rows, in ascending
user-id order.  G is held as its lower triangle in rectangular full packed
storage (:mod:`gramrec.packed`), n(n+1)/2 floats written one row panel at a
time.  Includes the disjoint-split construction that removes the diagonal
of C, optional target-column centering and per-user error weighting; none
of them forms C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import packed
from .data import UserItemMatrix
from .errors import DataError
from .packed import PANEL


@dataclass
class GramStats:
    """The Gram matrix G = XᵀX, packed (see :mod:`gramrec.packed`), plus the
    O(n) vectors that describe the target C = XᵀY a solve fits, without C
    itself.

    Every target a builder makes is C = κ·(G − diagMat(d)) − s·μᵀ, where
    s = ``colsum`` holds the column sums Xᵀ1, ``mu`` the target column means
    when the targets were centered (centering is recorded by its presence),
    d = diag(G) when ``removed_diag`` is set and 0 otherwise, and κ =
    ``kappa``.  Plain statistics have C = G.  The solvers read every model
    off P = (G + λI)⁻¹ and these vectors, and consume the statistics.
    """

    g: np.ndarray
    n_users: int
    colsum: np.ndarray
    mu: np.ndarray | None = None
    kappa: float = 1.0
    removed_diag: bool = False

    @property
    def c(self) -> np.ndarray:
        """G under its old name: perfbench/trace_child.py reads it to size
        the dense statistics; nothing in the package does."""
        return self.g

    @property
    def n_items(self) -> int:
        return len(self.colsum)

    @property
    def plain(self) -> bool:
        """Whether the target is G itself."""
        return self.mu is None and self.kappa == 1.0 and not self.removed_diag

    def require_g(self) -> np.ndarray:
        """G, or a DataError once a dense solve has consumed the statistics."""
        if self.g is None:
            raise DataError("Gram statistics were consumed by an earlier solve; build them again")
        return self.g


def _colsum(x: sp.csr_matrix) -> np.ndarray:
    return np.asarray(x.sum(axis=0)).ravel().astype(np.float64)


def _product_rows(xt: sp.csr_matrix, y: sp.csr_matrix, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of Xᵀ·Y as a dense array.  Each row sums over Xᵀ's row in
    the same order whatever other rows are taken, so the rows are bitwise
    those of the whole product."""
    start, end = xt.indptr[lo], xt.indptr[hi]
    rows = sp.csr_matrix(  # a view of xt's rows, where xt[lo:hi] would copy them
        (xt.data[start:end], xt.indices[start:end], xt.indptr[lo : hi + 1] - start),
        shape=(hi - lo, xt.shape[1]),
    )
    return (rows @ y).astype(np.float64, copy=False).toarray()


def _gram(x: sp.csr_matrix, xw: sp.csr_matrix) -> np.ndarray:
    """The symmetrized product ½(XᵀXw + XwᵀX), accumulated in float64 over
    ascending user ids, packed (see :mod:`gramrec.packed`).  It is made one
    row panel at a time, of at most PANEL rows and a quarter of the rows,
    and only the panel's lower triangle is stored; no n×n array is
    allocated.  XᵀX is exactly symmetric, so without weights the panel is
    the product's own rows."""
    xt = x.T.tocsr()
    xwt = None if xw is x else xw.T.tocsr()
    n = xt.shape[0]
    g = np.empty(packed.size(n))
    step = max(1, min(PANEL, -(-n // 4)))  # a panel is at most a quarter of n² floats
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        panel = _product_rows(xt, xw, lo, hi)
        if xwt is not None:
            panel += _product_rows(xwt, x, lo, hi)  # rows of the transpose: same products
            panel *= 0.5
        packed.write_rows(g, lo, panel)
        del panel  # before the next panel is allocated
    return g


def build_gram(x: UserItemMatrix, center: bool = False) -> GramStats:
    """G = XᵀX, with the targets X optionally centered by column.

    Centering changes the target only: with column means μ and column sums
    s = Xᵀ1 the centered cross-product is XᵀX − s·μᵀ, which the solvers
    apply through s and μ.  The means are stored so scoring can add them
    back.
    """
    colsum = _colsum(x.matrix)
    mu = None
    if center:
        if x.n_users == 0:
            raise DataError("cannot center with zero users")
        mu = colsum / x.n_users
    return GramStats(g=_gram(x.matrix, x.matrix), n_users=x.n_users, colsum=colsum, mu=mu)


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
        C = p(1−p)·(ZᵀZ − diagMat(diag(ZᵀZ))) = p/(1−p)·(G − diagMat(diag(G))).

    Either way C is κ·(G − diagMat(diag(G))), recorded as ``removed_diag``
    and ``kappa``.
    """
    if not np.all(z.matrix.data == 1.0):
        raise DataError("disjoint-split statistics require a binary matrix")
    g = _gram(z.matrix, z.matrix)
    kappa = 1.0
    if not explicit_lambda:
        p = split_fraction
        if not 0.0 < p < 1.0:
            raise DataError(f"split fraction must be in (0, 1), got {p}")
        kappa = p / (1.0 - p)
        at = packed.diagonal_index(g)
        diag = g[at]
        g *= (1.0 - p) ** 2
        g[at] = (1.0 - p) ** 2 * diag + p * (1.0 - p) * diag
    return GramStats(g=g, n_users=z.n_users, colsum=_colsum(z.matrix), kappa=kappa,
                     removed_diag=True)


def build_user_weighted_gram(x: UserItemMatrix, w_u: np.ndarray) -> GramStats:
    """G = Xᵀ·diagMat(w)·X for positive user weights; the target is G.

    Weighting each user's squared errors by w_u folds entirely into G, so
    training proceeds unchanged downstream.  With unit weights the result
    is bit-for-bit identical to :func:`build_gram`.
    """
    w_u = np.asarray(w_u, dtype=np.float64)
    if len(w_u) != x.n_users:
        raise DataError(f"expected {x.n_users} user weights, got {len(w_u)}")
    if np.any(w_u <= 0) or not np.all(np.isfinite(w_u)):
        raise DataError("user weights must be positive and finite")
    xw = (sp.diags(w_u, format="csr") @ x.matrix).tocsr()
    xw.sort_indices()
    return GramStats(g=_gram(x.matrix, xw), n_users=x.n_users, colsum=_colsum(x.matrix))
