"""Symmetric n×n matrices in rectangular full packed storage.

G and P = (G + λI)⁻¹ are held as their lower triangle in LAPACK's
rectangular full packed format (RFP) with ``TRANSR='N'`` and ``UPLO='L'``:
one 1-D float64 array of n(n+1)/2 entries, which ``dpftrf`` factors and
``dpftri`` inverts in place with level-3 kernels (Gustavson, Waśniewski,
Dongarra & Langou, "Rectangular Full Packed Format for Cholesky's
Algorithm", ACM TOMS 2010).

With n1 = ⌈n/2⌉, n2 = n − n1 and s = 1 for even n (0 for odd), the array
read in C order as V of shape (n1, n + s) holds the blocks of
A = [[A11, A12], [A21, A22]] as

- the upper triangle of A11 in ``V[:, s : s + n1]``,
- A12 in ``V[:, s + n1 :]``,
- the lower triangle of A22 in ``V[1 - s :, :n2]``, which fills what the
  upper triangle of A11 leaves free.

Every read is a copy of whole blocks, so entries come out bitwise as
stored; no function here builds an n×n array unless asked for one.
"""

from __future__ import annotations

import math

import numpy as np

# Rows or columns per panel wherever an n×n matrix is built or read
# piecewise: temporaries stay at PANEL·n floats.
PANEL = 128


def size(n: int) -> int:
    """Entries of an n×n packed matrix."""
    return n * (n + 1) // 2


def order(a: np.ndarray) -> int:
    """n of a packed n×n matrix."""
    n = (math.isqrt(8 * a.size + 1) - 1) // 2
    if a.ndim != 1 or size(n) != a.size:
        raise ValueError(f"an array of shape {a.shape} is no packed symmetric matrix")
    return n


def _blocks(a: np.ndarray):
    """n, n1 and the views W (A11 in its upper triangle), R (A12) and T
    (A22 in its lower triangle) of a packed array."""
    n = order(a)
    n1, n2, s = (n + 1) // 2, n // 2, 1 - n % 2
    v = a.reshape(n1, n + s) if n else a.reshape(0, 0)
    return n, n1, v[:, s : s + n1], v[:, s + n1 :], v[1 - s :, :n2]


def pair_index(n: int, i, j) -> np.ndarray:
    """Positions of A[i, j] in a packed n×n array, for index arrays with
    i ≥ j elementwise (the lower triangle, which holds A[j, i] too)."""
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    n1, s = (n + 1) // 2, 1 - n % 2
    return np.where(j < n1, j * (n + s) + s + i, (i - n1 + 1 - s) * (n + s) + j - n1)


def diagonal_index(a: np.ndarray) -> np.ndarray:
    """Positions of diag(A) in the packed array."""
    i = np.arange(order(a))
    return pair_index(len(i), i, i)


def diagonal(a: np.ndarray) -> np.ndarray:
    """diag(A) as a new array."""
    return a[diagonal_index(a)]


def rows(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """A[lo:hi] as a new C-ordered (hi − lo) × n array."""
    n = order(a)
    return _fill(a, lo, min(hi, n), np.empty((max(min(hi, n) - lo, 0), n)))


def columns(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """A[:, lo:hi] as a new C-ordered n × (hi − lo) array."""
    n = order(a)
    return _fill(a, lo, min(hi, n), np.empty((n, max(min(hi, n) - lo, 0))).T).T


def _fill(a: np.ndarray, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Write A[lo:hi] into ``out`` block by block and return it."""
    n, n1, w, r, t = _blocks(a)
    r0, r1 = lo, min(hi, n1)
    if r0 < r1:  # rows of A11 and A12
        o, k = out[: r1 - r0], r1 - r0
        o[:, :r0] = w[:r0, r0:r1].T
        o[:, r0:r1] = w[r0:r1, r0:r1]  # its strict lower triangle is A22's
        np.copyto(o[:, r0:r1], w[r0:r1, r0:r1].T, where=np.tri(k, k, -1, dtype=bool))
        o[:, r1:n1] = w[r0:r1, r1:n1]
        o[:, n1:] = r[r0:r1]
    t0, t1 = max(lo, n1) - n1, hi - n1
    if t0 < t1:  # rows of A21 and A22
        o, k = out[t0 + n1 - lo :], t1 - t0
        o[:, :n1] = r[:, t0:t1].T
        o[:, n1 : n1 + t0] = t[t0:t1, :t0]
        o[:, n1 + t0 : n1 + t1] = t[t0:t1, t0:t1]  # its strict upper triangle is A11's
        np.copyto(o[:, n1 + t0 : n1 + t1], t[t0:t1, t0:t1].T, where=~np.tri(k, k, 0, dtype=bool))
        o[:, n1 + t1 :] = t[t1:, t0:t1].T
    return out


def write_rows(a: np.ndarray, lo: int, panel: np.ndarray) -> None:
    """Store the lower triangle of rows lo, lo + 1, … of A from ``panel``,
    which holds those rows (at least up to their diagonal)."""
    n, n1, w, r, t = _blocks(a)
    hi = lo + panel.shape[0]
    r0, r1 = lo, min(hi, n1)
    if r0 < r1:
        p = panel[: r1 - r0]
        w[:r0, r0:r1] = p[:, :r0].T
        k = r1 - r0
        np.copyto(w[r0:r1, r0:r1], p[:, r0:r1].T, where=~np.tri(k, k, -1, dtype=bool))
    t0, t1 = max(lo, n1) - n1, hi - n1
    if t0 < t1:
        p = panel[t0 + n1 - lo :]
        r[:, t0:t1] = p[:, :n1].T
        t[t0:t1, :t0] = p[:, n1 : n1 + t0]
        k = t1 - t0
        np.copyto(t[t0:t1, t0:t1], p[:, n1 + t0 : n1 + t1], where=np.tri(k, k, 0, dtype=bool))


def pack(m: np.ndarray) -> np.ndarray:
    """The lower triangle of a square array, packed."""
    n = m.shape[0]
    a = np.empty(size(n))
    for lo in range(0, n, PANEL):
        write_rows(a, lo, np.asarray(m[lo : lo + PANEL], dtype=np.float64))
    return a


def unpack(a: np.ndarray) -> np.ndarray:
    """The whole symmetric matrix as an n×n array."""
    return rows(a, 0, order(a))


def submatrix(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """A[idx][:, idx], packed, for ascending ``idx``: its lower triangle is
    gathered block by block."""
    n, n1, w, r, t = _blocks(a)
    idx = np.asarray(idx, dtype=np.int64)
    if np.any(np.diff(idx) < 0):
        raise ValueError("submatrix indices must be in ascending order")
    low, high = np.split(idx, [np.searchsorted(idx, n1)])
    high = high - n1  # not in place: both are views of the caller's indices
    m = len(low)
    sub = np.empty((len(idx), len(idx)))
    sub[:m, :m] = w[np.ix_(low, low)].T  # W holds A11's upper triangle
    sub[m:, :m] = r[np.ix_(low, high)].T
    sub[m:, m:] = t[np.ix_(high, high)]  # T holds A22's lower triangle
    return pack(sub)  # reads the lower triangle only
