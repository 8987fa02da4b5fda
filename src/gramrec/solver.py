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
"Embarrassingly Shallow Autoencoders for Sparse Data", WWW 2019).  Both are
written into P's buffer, which is G's.  The solvers return
:class:`DenseModel`, which also carries the provenance needed for scoring
(centering means, applied item weights) and the multipliers as diagnostics.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import lapack

from .errors import DataError, NumericalError
from .files import atomic_write, read_keys, read_record, write_array, write_keys
from .gram import PANEL, GramStats

if TYPE_CHECKING:
    from .weighting import ItemWeightVector

VARIANT_RR = "rr"
VARIANT_ZERO_DIAG = "zero_diag"

_VARIANT_CODES = {VARIANT_RR: 0, VARIANT_ZERO_DIAG: 1}
# Code 2 marked zero-diagonal models that were read off P for C = G; it is the
# same model, so files written with it still load.
_CODES_VARIANT = {0: VARIANT_RR, 1: VARIANT_ZERO_DIAG, 2: VARIANT_ZERO_DIAG}
_WEIGHT_KIND_CODES = {"uniform": 0, "inverse_pop": 1, "time_adjusted": 2}
_CODES_WEIGHT_KIND = {v: k for k, v in _WEIGHT_KIND_CODES.items()}

_MODEL_MAGIC = b"EASE"
_MODEL_VERSION = 1
_MODEL_HEADER = struct.Struct("<4sIQBdBB")
_WEIGHT_FIELDS = struct.Struct("<Bd")


@dataclass
class PrecisionMatrix:
    """P = (G + lambda*I)^-1, symmetric."""

    p: np.ndarray

    @property
    def n_items(self) -> int:
        return self.p.shape[0]


@dataclass
class DenseModel:
    """A learned item-item weight matrix plus the flags that produced it.

    ``gamma`` holds the per-item Lagrange multipliers of the zero-diagonal
    constraint when the variant has one; it is diagnostic only and is not
    persisted.
    """

    b: np.ndarray
    variant: str
    lam: float
    mu: np.ndarray | None = None
    applied_item_weights: "ItemWeightVector | None" = None
    gamma: np.ndarray | None = None

    @property
    def n_items(self) -> int:
        return self.b.shape[0]


def invert_regularized(gram: GramStats, lam: float) -> PrecisionMatrix:
    """(G + lambda*I)^-1 by Cholesky factorization, made in G's own buffer.

    lambda > 0 makes the matrix positive definite whenever G is positive
    semi-definite, so the factorization doubles as the error check.  Gᵀ,
    which is G's buffer in Fortran order and equal to G since every builder
    makes G exactly symmetric, is factored and inverted in place; the result
    is that buffer with the triangle mirrored panel by panel.  The
    statistics are consumed: ``gram.g`` is set to None, so solving them
    again raises instead of inverting P.
    """
    n = gram.require_g().shape[0]
    if not 0 < lam < np.inf:
        raise DataError(f"regularization strength must be positive and finite, got {lam}")
    for lo in range(0, n, PANEL):
        if not np.isfinite(gram.g[lo : lo + PANEL]).all():
            raise NumericalError("Gram matrix contains non-finite entries")
    a = np.asarray(gram.g, dtype=np.float64, order="C").T
    gram.g = None
    idx = np.diag_indices_from(a)
    a[idx] += lam
    chol, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise NumericalError(
            f"Cholesky factorization of G + {lam}*I failed (info={info}); "
            "the matrix is not positive definite"
        )
    inv, info = lapack.dpotri(chol, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"triangular inversion failed (info={info})")
    # The inverse fills the lower triangle of the Fortran-ordered buffer, so
    # the upper triangle of its transpose; the other triangle is zero (clean=1).
    # Every entry gets +0.0, which turns -0.0 into 0.0: exact zeros of P
    # (between unconnected items) are written to model files as +0.0.
    p = inv.T
    for lo in range(0, n, PANEL):
        hi = min(lo + PANEL, n)
        block = p[lo:hi, lo:hi]
        block += np.triu(block, 1).T
        p[lo:hi, hi:] += 0.0
        p[hi:, lo:hi] = p[lo:hi, hi:].T
    return PrecisionMatrix(p=p)


def _positive_diag(p: np.ndarray) -> np.ndarray:
    dp = np.diag(p).copy()
    if not np.all(dp > 0):
        raise NumericalError("precision matrix has a non-positive diagonal entry")
    return dp


def _target_vectors(gram: GramStats, lam: float):
    """P in G's buffer (see :func:`invert_regularized`), the diagonal d the
    target removes (0 when it keeps it) and v = P*s for centered targets."""
    d = np.diag(gram.require_g()).copy() if gram.removed_diag else 0.0
    p = invert_regularized(gram, lam).p
    return p, d, None if gram.mu is None else p @ gram.colsum


def _subtract_outer(b: np.ndarray, v: np.ndarray | None, mu: np.ndarray | None) -> None:
    """b -= v*mu^T in row panels, when the target is centered."""
    if v is not None:
        for lo in range(0, len(v), PANEL):
            b[lo : lo + PANEL] -= np.outer(v[lo : lo + PANEL], mu)


def solve_rr(gram: GramStats, lam: float) -> DenseModel:
    """Unconstrained ridge solution B = P*C, written into P's buffer and
    consuming the statistics (see :func:`invert_regularized`)."""
    p, d, v = _target_vectors(gram, lam)
    kappa = gram.kappa
    b = np.multiply(p, -kappa * (lam + d), out=p)
    b[np.diag_indices_from(b)] += kappa
    _subtract_outer(b, v, gram.mu)
    return DenseModel(b=b, variant=VARIANT_RR, lam=lam, mu=gram.mu)


def solve_zero_diag(gram: GramStats, lam: float) -> DenseModel:
    """Ridge solution constrained to a zero diagonal, written into P's
    buffer and consuming the statistics (see :func:`invert_regularized`).

    Column j of P is divided by -P_jj/t_j with t_j = kappa - v_j*mu_j, which
    is exactly -P_jj for plain statistics.  The multipliers
    gamma_j = t_j/P_jj - kappa*(lambda + d_j) are stored as diagnostics; the
    diagonal is written to exactly zero so that downstream code can rely on
    it.  Training holds one n×n matrix in all.
    """
    p, d, v = _target_vectors(gram, lam)
    dp = _positive_diag(p)
    t = gram.kappa if v is None else gram.kappa - v * gram.mu
    b = np.divide(p, -dp / t, out=p)
    _subtract_outer(b, v, gram.mu)
    np.fill_diagonal(b, 0.0)
    gamma = t / dp - gram.kappa * (lam + d)
    return DenseModel(b=b, variant=VARIANT_ZERO_DIAG, lam=lam, mu=gram.mu, gamma=gamma)


# perfbench/trace_child.py looks this name up; nothing in the package calls it.
solve_ease = solve_zero_diag


def save_model(path: str | Path, model: DenseModel, item_keys: list[str] | None = None) -> None:
    """Write a DenseModel: header, item-key table, B row-major little-endian
    64-bit, then the optional mu and weight vectors.  The write is atomic."""
    n = model.n_items
    if item_keys is not None and len(item_keys) != n:
        raise DataError(f"expected {n} item keys, got {len(item_keys)}")
    w = model.applied_item_weights
    header = _MODEL_HEADER.pack(
        _MODEL_MAGIC,
        _MODEL_VERSION,
        n,
        _VARIANT_CODES[model.variant],
        model.lam,
        1 if model.mu is not None else 0,
        1 if w is not None else 0,
    )
    with atomic_write(path, binary=True) as fh:
        fh.write(header)
        if w is not None:
            fh.write(_WEIGHT_FIELDS.pack(_WEIGHT_KIND_CODES[w.kind], w.alpha))
        write_keys(fh, item_keys)
        for arr in (model.b, model.mu, None if w is None else w.w):
            if arr is not None:
                write_array(fh, arr, "<f8")


def load_model(path: str | Path) -> tuple[DenseModel, list[str] | None]:
    """Read a model file back; returns the model and its item keys (None
    when the file was written without a key table)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_MODEL_HEADER.size)
        if len(head) < _MODEL_HEADER.size or head[:4] != _MODEL_MAGIC:
            raise DataError(f"{path}: not a dense model file")
        magic, version, n, variant_code, lam, has_mu, has_w = _MODEL_HEADER.unpack(head)
        if version != _MODEL_VERSION:
            raise DataError(f"{path}: unsupported model file version {version}")
        if variant_code not in _CODES_VARIANT:
            raise DataError(f"{path}: unknown variant code {variant_code}")
        kind = alpha = None
        try:
            if has_w:
                kind_code, alpha = read_record(fh, _WEIGHT_FIELDS)
                if kind_code not in _CODES_WEIGHT_KIND:
                    raise DataError(f"{path}: unknown weight kind code {kind_code}")
                kind = _CODES_WEIGHT_KIND[kind_code]
            item_keys = read_keys(fh, path, n)
        except struct.error:
            raise DataError(f"{path}: truncated model file") from None
        expected = fh.tell() + 8 * (n * n + (n if has_mu else 0) + (n if has_w else 0))
        if size != expected:
            raise DataError(f"{path}: expected {expected} bytes, found {size}")
        b = np.fromfile(fh, dtype="<f8", count=n * n).reshape(n, n)
        mu = np.fromfile(fh, dtype="<f8", count=n) if has_mu else None
        weights = None
        if has_w:
            from .weighting import ItemWeightVector

            wvec = np.fromfile(fh, dtype="<f8", count=n)
            weights = ItemWeightVector(w=wvec, kind=kind, alpha=alpha)
    model = DenseModel(
        b=b,
        variant=_CODES_VARIANT[variant_code],
        lam=lam,
        mu=mu,
        applied_item_weights=weights,
    )
    return model, item_keys
