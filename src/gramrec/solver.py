"""Closed-form dense models from Gram statistics.

With P = (G + lambda*I)^-1, the unconstrained ridge solution is B = P*C.
Forcing a zero diagonal adds one Lagrange multiplier per item and costs
only a rank correction:

    gamma = diag(P*C) / diag(P),    B = P*C - P*diagMat(gamma).

Every target C the builders describe is kappa*(G - diagMat(d)) - s*mu^T
(see :class:`GramStats`), and P*G = I - lambda*P, so P*C is never
formed: with v = P*s,

    ridge:          B = kappa*(I - P*diagMat(lambda + d)) - v*mu^T,
    zero-diagonal:  B_ij = -P_ij*(kappa - v_j*mu_j)/P_jj - v_i*mu_j  (i != j),

the EASE read-off B_ij = -P_ij / P_jj for plain statistics (Steck,
"Embarrassingly Shallow Autoencoders for Sparse Data", WWW 2019).  P is
made in G's packed buffer (see :mod:`gramrec.packed`), and B is never
held whole: a trained model keeps P and O(n) vectors, its file holds them
too, and it forms B a panel of rows or columns at a time when it is
scored.  The solvers return :class:`DenseModel`, which also carries the
provenance needed for scoring (centering means, applied item weights) and
the multipliers as diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import lapack

from . import packed
from .errors import DataError, NumericalError
from .files import Pieces, read_container, write_container
from .gram import PANEL, GramStats

if TYPE_CHECKING:
    from .weighting import ItemWeightVector

VARIANT_RR = "rr"
VARIANT_ZERO_DIAG = "zero_diag"


@dataclass
class PrecisionMatrix:
    """P = (G + lambda*I)^-1, packed."""

    p: np.ndarray

    @property
    def n_items(self) -> int:
        return packed.order(self.p)


@dataclass
class ReadOff:
    """B formed from packed P one panel at a time:

        B_ij = (P_ij / c_j - v_i*mu_j) * w_j,

    with the diagonal written as zero, or, when ``kappa`` is given, as
    (P_jj / c_j + kappa - v_j*mu_j) * w_j; w is 1 when not given.  Rows and
    columns hold the same entries."""

    p: np.ndarray
    c: np.ndarray
    v: np.ndarray | None = None
    mu: np.ndarray | None = None
    kappa: float | None = None
    w: np.ndarray | None = None

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """B[lo:hi], C-ordered."""
        b = packed.rows(self.p, lo, hi)
        diag = (np.arange(b.shape[0]), np.arange(lo, lo + b.shape[0]))
        return self._finish(b, slice(lo, hi), slice(None), diag)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """B[:, lo:hi], C-ordered."""
        b = packed.columns(self.p, lo, hi)
        diag = (np.arange(lo, lo + b.shape[1]), np.arange(b.shape[1]))
        return self._finish(b, slice(None), slice(lo, hi), diag)

    def _finish(self, b: np.ndarray, r: slice, c: slice, diag) -> np.ndarray:
        """B[r, c] from the panel b = P[r, c], in place: the division by c,
        the diagonal, the centering term v*mu^T and the column scale w."""
        b /= self.c[c]
        if self.kappa is not None:
            b[diag] += self.kappa
        if self.v is not None:
            b -= self.v[r, None] * self.mu[c]
        if self.kappa is None:
            b[diag] = 0.0
        if self.w is not None:
            b *= self.w[c]
        return b


@dataclass
class DenseModel:
    """A learned item-item weight matrix B plus the flags that produced it.

    ``matrix`` is B as an n×n array (a model built from one, or read from a
    file that holds B), or a :class:`ReadOff` of packed P (a model trained,
    or read from a file that holds P), which forms B panel by panel.
    ``gamma`` holds the per-item Lagrange multipliers of
    the zero-diagonal constraint when the variant has one; it is diagnostic
    only and is not persisted.
    """

    matrix: np.ndarray | ReadOff
    variant: str
    lam: float
    mu: np.ndarray | None = None
    applied_item_weights: "ItemWeightVector | None" = None
    gamma: np.ndarray | None = None

    @property
    def b(self) -> np.ndarray:
        """B as an n×n array; a trained model forms it anew on each access."""
        m = self.matrix
        return m if isinstance(m, np.ndarray) else m.rows(0, self.n_items)

    @property
    def n_items(self) -> int:
        m = self.matrix
        return m.shape[0] if isinstance(m, np.ndarray) else len(m.c)


def invert_regularized(gram: GramStats, lam: float) -> PrecisionMatrix:
    """(G + lambda*I)^-1 by Cholesky factorization, made in G's packed buffer.

    lambda > 0 makes the matrix positive definite whenever G is positive
    semi-definite, so the factorization doubles as the error check.  G's
    lower triangle in rectangular full packed storage is factored and
    inverted in place by LAPACK's ``dpftrf`` and ``dpftri``.  The statistics
    are consumed: ``gram.g`` is set to None, so solving them again raises
    instead of inverting P.
    """
    g = np.ascontiguousarray(gram.require_g(), dtype=np.float64)
    n = packed.order(g)
    if not 0 < lam < np.inf:
        raise DataError(f"regularization strength must be positive and finite, got {lam}")
    for lo in range(0, g.size, PANEL * max(n, 1)):
        if not np.isfinite(g[lo : lo + PANEL * n]).all():
            raise NumericalError("Gram matrix contains non-finite entries")
    gram.g = None
    g[packed.diagonal_index(g)] += lam
    chol, info = lapack.dpftrf(n, g, transr="N", uplo="L", overwrite_a=1)
    if info != 0:
        raise NumericalError(
            f"Cholesky factorization of G + {lam}*I failed (info={info}); "
            "the matrix is not positive definite"
        )
    p, info = lapack.dpftri(n, chol, transr="N", uplo="L", overwrite_a=1)
    if info != 0:
        raise NumericalError(f"triangular inversion failed (info={info})")
    # +0.0 turns -0.0 into 0.0: exact zeros of P (between unconnected
    # items) are written to model files as +0.0.
    p += 0.0
    return PrecisionMatrix(p=p)


def _positive_diag(p: np.ndarray) -> np.ndarray:
    dp = packed.diagonal(p)
    if not np.all(dp > 0):
        raise NumericalError("precision matrix has a non-positive diagonal entry")
    return dp


def _target_vectors(gram: GramStats, lam: float):
    """P, packed in G's buffer (see :func:`invert_regularized`), the diagonal
    d the target removes (0 when it keeps it) and v = P*s for centered
    targets, made in row panels of P."""
    d = packed.diagonal(gram.require_g()) if gram.removed_diag else 0.0
    p = invert_regularized(gram, lam).p
    if gram.mu is None:
        return p, d, None
    n = gram.n_items
    return p, d, np.concatenate([np.zeros(0)] + [packed.rows(p, lo, lo + PANEL) @ gram.colsum
                                                 for lo in range(0, n, PANEL)])


def solve_rr(gram: GramStats, lam: float) -> DenseModel:
    """Unconstrained ridge solution B = P*C, read off P in G's buffer and
    consuming the statistics (see :func:`invert_regularized`)."""
    p, d, v = _target_vectors(gram, lam)
    kappa = gram.kappa
    c = np.broadcast_to(-1.0 / (kappa * (lam + d)), gram.n_items)
    return DenseModel(matrix=ReadOff(p, c, v, gram.mu, kappa), variant=VARIANT_RR, lam=lam,
                      mu=gram.mu)


def solve_zero_diag(gram: GramStats, lam: float) -> DenseModel:
    """Ridge solution constrained to a zero diagonal, read off P in G's
    buffer and consuming the statistics (see :func:`invert_regularized`).

    Column j of P is divided by c_j = -P_jj/t_j with t_j = kappa - v_j*mu_j,
    which is exactly -P_jj for plain statistics.  The multipliers
    gamma_j = t_j/P_jj - kappa*(lambda + d_j) are stored as diagnostics; the
    diagonal is written as exactly zero so that downstream code can rely on
    it.  Training holds packed P and O(n) vectors.
    """
    p, d, v = _target_vectors(gram, lam)
    dp = _positive_diag(p)
    t = gram.kappa if v is None else gram.kappa - v * gram.mu
    gamma = t / dp - gram.kappa * (lam + d)
    return DenseModel(matrix=ReadOff(p, -dp / t, v, gram.mu), variant=VARIANT_ZERO_DIAG, lam=lam,
                      mu=gram.mu, gamma=gamma)


# perfbench/trace_child.py looks this name up; nothing in the package calls it.
solve_ease = solve_zero_diag


def save_model(path: str | Path, model: DenseModel, item_keys: list[str] | None = None) -> None:
    """Write a DenseModel as a ``dense_model`` container (see :mod:`gramrec.files`).

    A model that holds P is written as it is held: the read-off vectors c
    and, when centered, v, then the target means and the applied item
    weights, and packed P last, with ``kappa`` in the metadata for the
    ridge variant.  A model built from an array is written as B, then the
    means and weights."""
    meta = {"lam": float(model.lam), "variant": model.variant}
    m, n, w = model.matrix, model.n_items, model.applied_item_weights
    if w is not None:
        meta |= {"weight_alpha": float(w.alpha), "weight_kind": w.kind}
    vectors = {"mu": model.mu, "weights": None if w is None else w.w}
    if isinstance(m, ReadOff):
        if m.kappa is not None:
            meta["kappa"] = float(m.kappa)
        arrays = {"c": m.c, "v": m.v, **vectors, "p": m.p}
    else:
        arrays = {"b": Pieces((n, n), [m]), **vectors}
    write_container(path, "dense_model", n, meta,
                    {name: a for name, a in arrays.items() if a is not None}, {"items": item_keys})


def load_model(path: str | Path, verify: bool = False) -> tuple[DenseModel, list[str] | None]:
    """Read a model file back; returns the model and its item keys (None
    when the file was written without a key table).  A file that holds P
    loads as a :class:`ReadOff` of it, scaled by the applied weights; one
    that holds B loads as that array.  With ``verify``, as every command
    reads it, a file whose bytes fail its sha256 is refused; without, the
    arrays are used as stored, so in-process checks of B see them."""
    from .weighting import WEIGHT_KINDS, ItemWeightVector

    c = read_container(path, "dense_model", verify)
    n = c.n_items
    weights = None
    if "weights" in c.arrays:
        weights = ItemWeightVector(
            w=c.array("weights", (n,)),
            kind=c.scalar("weight_kind", str, WEIGHT_KINDS),
            alpha=c.scalar("weight_alpha", float),
        )
    mu, v = (c.array(name, (n,)) if name in c.arrays else None for name in ("mu", "v"))
    matrix = c.array("b", (n, n)) if "p" not in c.arrays else ReadOff(
        c.array("p", (packed.size(n),)), c.array("c", (n,)), v,
        None if v is None else c.array("mu", (n,)),
        c.scalar("kappa", float) if "kappa" in c.meta else None,
        None if weights is None else weights.w)
    model = DenseModel(
        matrix=matrix,
        variant=c.scalar("variant", str, (VARIANT_RR, VARIANT_ZERO_DIAG)),
        lam=c.scalar("lam", float),
        mu=mu,
        applied_item_weights=weights,
    )
    return model, c.keys.get("items")
