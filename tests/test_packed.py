import numpy as np
import pytest
from scipy.linalg import lapack

from gramrec import packed

SIZES = [1, 2, 3, 4, 5, 255, 256, 257, 600, 601]


def symmetric(n: int, seed: int = 0) -> np.ndarray:
    """Distinct entries, so that a misplaced one shows."""
    m = np.random.default_rng(seed).normal(size=(n, n))
    return np.tril(m) + np.tril(m, -1).T


@pytest.mark.parametrize("n", SIZES)
def test_layout_is_lapacks(n):
    # both parities and the panel edges; LAPACK's converters are the oracle
    m = symmetric(n)
    a = packed.pack(m)
    arf, info = lapack.dtrttf(np.asfortranarray(m), transr="N", uplo="L")
    assert info == 0
    assert a.tobytes() == arf.tobytes()
    back, info = lapack.dtfttr(n, a, transr="N", uplo="L")
    assert info == 0
    assert np.tril(back).tobytes() == np.tril(m).tobytes()
    assert packed.unpack(a).tobytes() == m.tobytes()
    assert packed.order(a) == n and a.size == packed.size(n)


@pytest.mark.parametrize("n", SIZES)
def test_panels_entries_and_blocks_read_out_bitwise(n):
    m = symmetric(n, seed=n)
    a = packed.pack(m)
    for width in (1, 7, 256):
        for lo in range(0, n, width):
            assert packed.rows(a, lo, lo + width).tobytes() == m[lo : lo + width].tobytes()
            cols = packed.columns(a, lo, lo + width)
            assert cols.flags.c_contiguous
            assert cols.tobytes() == np.ascontiguousarray(m[:, lo : lo + width]).tobytes()
    r = np.random.default_rng(n)
    assert packed.diagonal(a).tobytes() == np.diag(m).tobytes()
    for k in {1, min(n, 2), min(n, 9), min(n, 300)}:
        idx = np.sort(r.choice(n, k, replace=False))
        sub = packed.submatrix(a, idx)
        assert sub.tobytes() == packed.pack(m[np.ix_(idx, idx)]).tobytes()


def test_writing_rows_touches_only_their_lower_triangle():
    # panels that straddle the two halves, given with junk above the diagonal
    n = 601
    m = symmetric(n)
    a = np.full(packed.size(n), np.nan)
    for lo, hi in ((0, 200), (200, 301), (301, 450), (450, 601)):
        panel = m[lo:hi].copy()
        panel[np.triu_indices(hi - lo, lo + 1, n)] = -7.0
        packed.write_rows(a, lo, panel)
    assert packed.unpack(a).tobytes() == m.tobytes()


def test_a_wrong_length_is_no_packed_matrix():
    with pytest.raises(ValueError, match="no packed symmetric matrix"):
        packed.order(np.zeros(4))
    with pytest.raises(ValueError, match="no packed symmetric matrix"):
        packed.order(np.zeros((2, 3)))


def test_submatrix_takes_ascending_indices_only():
    # block members are compressed-column row indices, ascending by construction
    m = symmetric(9)
    a = packed.pack(m)
    idx = np.array([1, 4, 4, 7])  # a repeat is still in order
    assert packed.submatrix(a, idx).tobytes() == packed.pack(m[np.ix_(idx, idx)]).tobytes()
    for bad in ([2, 1], [0, 5, 3, 8]):
        with pytest.raises(ValueError, match="ascending"):
            packed.submatrix(a, np.array(bad))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 255, 256, 257])
def test_pair_index_reads_every_entry(n):
    # every (i, j) with i ≥ j, read at its position, is the unpacked entry,
    # and so is (j, i); the diagonal's positions are the i = j case
    m = symmetric(n, seed=n)
    a = packed.pack(m)
    i, j = np.tril_indices(n)
    pos = packed.pair_index(n, i, j)
    assert a[pos].tobytes() == packed.unpack(a)[i, j].tobytes() == m[j, i].tobytes()
    assert np.sort(pos).tolist() == list(range(a.size))  # each position once
    assert packed.diagonal_index(a).tolist() == packed.pair_index(n, np.arange(n), np.arange(n)).tolist()
