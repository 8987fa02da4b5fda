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
held whole: a trained model keeps P and O(n) vectors, and forms B a panel
of rows or columns at a time when it is scored or saved.  The solvers
return :class:`DenseModel`, which also carries the provenance needed for
scoring (centering means, applied item weights) and the multipliers as
diagnostics.
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

        B_ij = P_ij / c_j - v_i*mu_j,

    with the diagonal written as zero, or, when ``kappa`` is given, as
    P_jj / c_j + kappa - v_j*mu_j.  Rows and columns hold the same entries."""

    p: np.ndarray
    c: np.ndarray
    v: np.ndarray | None = None
    mu: np.ndarray | None = None
    kappa: float | None = None

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """B[lo:hi], C-ordered."""
        b = packed.rows(self.p, lo, hi)
        b /= self.c
        diag = (np.arange(b.shape[0]), np.arange(lo, lo + b.shape[0]))
        return self._finish(b, diag, self.v[lo:hi, None] * self.mu if self.v is not None else None)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """B[:, lo:hi], C-ordered."""
        b = packed.columns(self.p, lo, hi)
        b /= self.c[lo:hi]
        diag = (np.arange(lo, lo + b.shape[1]), np.arange(b.shape[1]))
        return self._finish(b, diag, self.v[:, None] * self.mu[lo:hi] if self.v is not None else None)

    def _finish(self, b: np.ndarray, diag, centering: np.ndarray | None) -> np.ndarray:
        """The diagonal and the centering term v*mu^T of a panel of P/c."""
        if self.kappa is not None:
            b[diag] += self.kappa
        if centering is not None:
            b -= centering
        if self.kappa is None:
            b[diag] = 0.0
        return b


@dataclass
class DenseModel:
    """A learned item-item weight matrix B plus the flags that produced it.

    ``matrix`` is B as an n×n array (a model read from a file or rescaled),
    or a :class:`ReadOff` of packed P (a model just trained), which forms B
    panel by panel.  ``gamma`` holds the per-item Lagrange multipliers of
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

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """B[lo:hi]."""
        m = self.matrix
        return m[lo:hi] if isinstance(m, np.ndarray) else m.rows(lo, hi)


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
    """Write a DenseModel as a ``dense_model`` container (see :mod:`gramrec.files`):
    B, then the target means and the applied item weights when it has them.
    B is written 256 rows at a time, so a trained model never forms it whole."""
    meta = {"lam": float(model.lam), "variant": model.variant}
    n = model.n_items
    arrays = {"b": Pieces((n, n), (model.rows(lo, lo + PANEL) for lo in range(0, n, PANEL)))}
    if model.mu is not None:
        arrays["mu"] = model.mu
    w = model.applied_item_weights
    if w is not None:
        meta |= {"weight_alpha": float(w.alpha), "weight_kind": w.kind}
        arrays["weights"] = w.w
    write_container(path, "dense_model", model.n_items, meta, arrays, {"items": item_keys})


def load_model(path: str | Path, verify: bool = False) -> tuple[DenseModel, list[str] | None]:
    """Read a model file back; returns the model and its item keys (None
    when the file was written without a key table).  With ``verify``, as
    every command reads it, a file whose bytes fail its sha256 is refused;
    without, B is used as stored, so in-process checks of B see it."""
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
    model = DenseModel(
        matrix=c.array("b", (n, n)),
        variant=c.scalar("variant", str, (VARIANT_RR, VARIANT_ZERO_DIAG)),
        lam=c.scalar("lam", float),
        mu=c.array("mu", (n,)) if "mu" in c.arrays else None,
        applied_item_weights=weights,
    )
    return model, c.keys.get("items")
