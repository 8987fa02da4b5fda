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
held whole: the solvers return a :class:`DenseModel`, which is packed P
and O(n) vectors (the read-off, the centering means, the applied item
weights and the multipliers as diagnostics), and which forms B a panel of
columns at a time when it is scored.  Its file holds the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import lapack

from . import packed
from .errors import DataError, NumericalError
from .files import read_container, write_container
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
class DenseModel:
    """A learned item-item weight matrix B, held as packed P and the O(n)
    vectors it is read off with:

        B_ij = (P_ij / c_j - v_i*mu_j) * w_j,

    with the diagonal written as zero, or, for the ridge variant (``kappa``
    set), as (P_jj / c_j + kappa - v_j*mu_j) * w_j.  w is the applied item
    weights (1 when there are none), and the term v*mu^T is there only
    when ``v`` is.  ``mu`` holds the target means of a centered model,
    which scoring adds to every score.  ``gamma`` holds the per-item
    Lagrange multipliers of the zero-diagonal constraint when the variant
    has one; it is diagnostic only and is not persisted.
    """

    p: np.ndarray
    c: np.ndarray
    lam: float
    v: np.ndarray | None = None
    mu: np.ndarray | None = None
    kappa: float | None = None
    applied_item_weights: "ItemWeightVector | None" = None
    gamma: np.ndarray | None = None

    @property
    def variant(self) -> str:
        return VARIANT_ZERO_DIAG if self.kappa is None else VARIANT_RR

    @property
    def n_items(self) -> int:
        return len(self.c)

    @property
    def b(self) -> np.ndarray:
        """B as an n×n array, formed anew on each access."""
        return self.columns(0, self.n_items)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """B[:, lo:hi], C-ordered, read off in place from the panel P[:, lo:hi]."""
        b = packed.columns(self.p, lo, hi)
        hi = lo + b.shape[1]
        diag = (np.arange(lo, hi), np.arange(hi - lo))
        return self._read_off(b, np.s_[:, None], slice(lo, hi), diag)

    def entries(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """B[i, j] at each index pair, read off P[i, j] by the steps of
        :meth:`columns`, so bitwise its entries."""
        b = self.p[packed.pair_index(self.n_items, np.maximum(i, j), np.minimum(i, j))]
        return self._read_off(b, i, j, i == j)

    def _read_off(self, b: np.ndarray, i, j, diag) -> np.ndarray:
        """B in place from the entries ``b`` of P: ``i`` indexes the row
        vector v and ``j`` the column vectors c, mu and w at them, and
        ``diag`` selects the entries of ``b`` on B's diagonal."""
        b /= self.c[j]
        if self.kappa is not None:
            b[diag] += self.kappa
        if self.v is not None:
            b -= self.v[i] * self.mu[j]
        if self.kappa is None:
            b[diag] = 0.0
        if self.applied_item_weights is not None:
            b *= self.applied_item_weights.w[j]
        return b


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
    return DenseModel(p=p, c=c, lam=lam, v=v, mu=gram.mu, kappa=kappa)


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
    return DenseModel(p=p, c=-dp / t, lam=lam, v=v, mu=gram.mu, gamma=gamma)


# perfbench/trace_child.py looks this name up; nothing in the package calls it.
solve_ease = solve_zero_diag


def save_model(path: str | Path, model: DenseModel, item_keys: list[str] | None = None) -> None:
    """Write a DenseModel as a ``dense_model`` container (see :mod:`gramrec.files`)
    as it is held: the read-off vectors c and, when centered, v, then the
    target means and the applied item weights, and packed P last, with
    ``kappa`` in the metadata for the ridge variant."""
    meta = {"lam": float(model.lam), "variant": model.variant}
    if model.kappa is not None:
        meta["kappa"] = float(model.kappa)
    w = model.applied_item_weights
    if w is not None:
        meta |= {"weight_alpha": float(w.alpha), "weight_kind": w.kind}
    arrays = {"c": model.c, "v": model.v, "mu": model.mu, "weights": None if w is None else w.w,
              "p": model.p}
    write_container(path, "dense_model", model.n_items, meta,
                    {name: a for name, a in arrays.items() if a is not None}, {"items": item_keys})


def load_model(path: str | Path, verify: bool = False) -> tuple[DenseModel, list[str] | None]:
    """Read a model file back; returns the model and its item keys (None
    when the file was written without a key table).  With ``verify``, as
    every command reads it, a file whose bytes fail its sha256 is refused;
    without, the arrays are used as stored, so in-process checks of B see
    them.  A file that holds B itself, the layout before models held P, is
    refused, and so is one whose variant disagrees with its ``kappa``."""
    from .weighting import WEIGHT_KINDS, ItemWeightVector

    c = read_container(path, "dense_model", verify)
    n = c.n_items
    if "b" in c.arrays:
        raise DataError(f"{path}: a dense model file in the layout that holds B (array 'b') "
                        "and not packed P; train the model again")
    variant = c.scalar("variant", str, (VARIANT_RR, VARIANT_ZERO_DIAG))
    kappa = c.scalar("kappa", float) if "kappa" in c.meta else None
    if (kappa is not None) != (variant == VARIANT_RR):
        raise DataError(f"{path}: metadata 'variant' is {variant!r} but 'kappa' is "
                        f"{'absent' if kappa is None else repr(kappa)}; the {VARIANT_RR!r} "
                        "variant alone has kappa")
    weights = None
    if "weights" in c.arrays:
        weights = ItemWeightVector(
            w=c.array("weights", (n,)),
            kind=c.scalar("weight_kind", str, WEIGHT_KINDS),
            alpha=c.scalar("weight_alpha", float),
        )
    v = c.array("v", (n,)) if "v" in c.arrays else None
    mu = c.array("mu", (n,)) if "mu" in c.arrays or v is not None else None
    model = DenseModel(p=c.array("p", (packed.size(n),)), c=c.array("c", (n,)),
                       lam=c.scalar("lam", float), v=v, mu=mu, kappa=kappa,
                       applied_item_weights=weights)
    return model, c.keys.get("items")
