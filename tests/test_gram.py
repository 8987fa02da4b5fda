from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gramrec import (
    DataError,
    build_disjoint_gram,
    build_gram,
    build_user_weighted_gram,
    to_user_item_matrix,
)

from gramrec.packed import pack, unpack

from conftest import binary_matrix, dense_gram, make_iset, matrix_from_dense, target_of


def test_gram_small_example():
    x = matrix_from_dense([[1, 1], [0, 1]])
    stats = build_gram(x)
    np.testing.assert_array_equal(unpack(stats.g), [[1, 1], [1, 2]])
    np.testing.assert_array_equal(target_of(stats), [[1, 1], [1, 2]])
    assert stats.n_users == 2
    assert stats.mu is None


def test_gram_matches_dense_products(rng):
    for xd in (binary_matrix(rng, 40, 9).matrix.toarray(),
               rng.random((40, 9)) * (rng.random((40, 9)) < 0.5)):
        stats = build_gram(matrix_from_dense(xd))
        np.testing.assert_allclose(unpack(stats.g), xd.T @ xd, atol=1e-12)
        np.testing.assert_allclose(target_of(stats), xd.T @ xd, atol=1e-12)


def test_gram_symmetric_and_psd(rng):
    x = binary_matrix(rng, 25, 7)
    g = unpack(build_gram(x).g)
    np.testing.assert_array_equal(g, g.T)
    assert np.linalg.eigvalsh(g).min() >= -1e-10


def test_only_plain_builders_target_g(rng):
    x = binary_matrix(rng, 20, 6)
    for stats in (build_gram(x), build_user_weighted_gram(x, rng.uniform(0.5, 2.0, 20))):
        assert stats.plain
    for stats in (
        build_gram(x, center=True),
        build_disjoint_gram(x),
        build_disjoint_gram(x, split_fraction=0.05),
    ):
        assert not stats.plain


@settings(max_examples=25, deadline=None)
@given(
    n_items=st.sampled_from([1, 5, 255, 256, 257, 600]),
    n_users=st.integers(1, 30),
    density=st.floats(0.05, 0.8),
    seed=st.integers(0, 2**32 - 1),
)
def test_panelled_products_are_bitwise_whole_products(n_items, n_users, density, seed):
    r = np.random.default_rng(seed)
    xd = r.normal(size=(n_users, n_items)) * (r.random((n_users, n_items)) < density)
    yd = r.normal(size=(n_users, n_items)) * (r.random((n_users, n_items)) < density)
    x, y = matrix_from_dense(xd), matrix_from_dense(yd)
    w = r.uniform(0.5, 2.0, n_users)
    stats = build_user_weighted_gram(x, w)
    # the whole-matrix expressions: X^T (W X) is not exactly symmetric in
    # floating point, and G is its lower triangle, mirrored
    xt = x.matrix.T.tocsr()
    xw = (sp.diags(w, format="csr") @ x.matrix).tocsr()
    xw.sort_indices()
    g = (xt @ xw).toarray()
    np.testing.assert_array_equal(unpack(stats.g), np.tril(g) + np.tril(g, -1).T)
    yt = y.matrix.T.tocsr()
    g = (yt @ y.matrix).toarray()
    np.testing.assert_array_equal(unpack(build_gram(y).g), 0.5 * (g + g.T))
    if n_users:
        centered = build_gram(y, center=True)
        np.testing.assert_array_equal(unpack(centered.g), 0.5 * (g + g.T))
        np.testing.assert_array_equal(centered.mu, centered.colsum / n_users)


def test_every_builder_records_column_sums(rng):
    x = matrix_from_dense(rng.integers(0, 4, (20, 6)))
    z = binary_matrix(rng, 20, 6)
    for stats, m in (
        (build_gram(x), x),
        (build_gram(x, center=True), x),
        (build_user_weighted_gram(x, rng.uniform(0.5, 2.0, 20)), x),
        (build_disjoint_gram(z), z),
    ):
        np.testing.assert_array_equal(stats.colsum, m.matrix.toarray().sum(axis=0))


def test_gram_orthogonal_columns():
    x = matrix_from_dense([[1, 0], [1, 0], [0, 1]])
    g = unpack(build_gram(x).g)
    assert g[0, 1] == 0.0
    np.testing.assert_array_equal(np.diag(g), [2, 1])


def test_centered_targets_small_example():
    x = matrix_from_dense([[1, 1], [0, 1]])
    stats = build_gram(x, center=True)
    np.testing.assert_allclose(stats.mu, [0.5, 1.0])
    np.testing.assert_allclose(target_of(stats), [[0.5, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(unpack(stats.g), [[1, 1], [1, 2]])  # inputs stay raw


def test_centered_matches_explicit_densified(rng):
    xd = (rng.random((30, 6)) < 0.4) * rng.integers(1, 5, (30, 6)).astype(np.float64)
    stats = build_gram(matrix_from_dense(xd), center=True)
    centered = xd - xd.mean(axis=0, keepdims=True)
    np.testing.assert_allclose(target_of(stats), xd.T @ centered, atol=1e-10)


def test_disjoint_small_example():
    z = matrix_from_dense([[1, 1], [1, 0]])
    stats = build_disjoint_gram(z)
    np.testing.assert_array_equal(unpack(stats.g), [[2, 1], [1, 1]])
    np.testing.assert_array_equal(target_of(stats), [[0, 1], [1, 0]])
    np.testing.assert_array_equal(np.diag(target_of(stats)), [0.0, 0.0])


def test_disjoint_exact_expectation_mode(rng):
    z = binary_matrix(rng, 20, 5)
    p = 0.1
    stats = build_disjoint_gram(z, split_fraction=p)
    zz = z.matrix.toarray().T @ z.matrix.toarray()
    off = zz - np.diag(np.diag(zz))
    np.testing.assert_allclose(target_of(stats), p * (1 - p) * off, atol=1e-12)
    expected_g = (1 - p) ** 2 * off + ((1 - p) ** 2 + p * (1 - p)) * np.diag(np.diag(zz))
    np.testing.assert_allclose(unpack(stats.g), expected_g, atol=1e-12)


def test_disjoint_rejects_non_binary():
    z = matrix_from_dense([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DataError, match="binary"):
        build_disjoint_gram(z)


def test_disjoint_reads_binary_off_the_matrix():
    rated = make_iset([(0, 0, 2.0), (0, 1, 1.0), (1, 1, 1.0)])
    with pytest.raises(DataError, match="binary"):
        build_disjoint_gram(to_user_item_matrix(rated))
    ones = replace(rated, values=np.ones(3))  # as a binarized load gives it
    stats = build_disjoint_gram(to_user_item_matrix(ones))
    np.testing.assert_array_equal(unpack(stats.g), [[1, 1], [1, 2]])


def test_disjoint_rejects_bad_fraction(rng):
    z = binary_matrix(rng, 10, 4)
    with pytest.raises(DataError, match="fraction"):
        build_disjoint_gram(z, split_fraction=1.0)


def test_unit_weights_bitwise_identical(rng):
    x = binary_matrix(rng, 35, 8)
    plain = build_gram(x)
    weighted = build_user_weighted_gram(x, np.ones(35))
    np.testing.assert_array_equal(plain.g, weighted.g)
    np.testing.assert_array_equal(plain.colsum, weighted.colsum)
    assert weighted.plain


def test_weighting_scales_linearly(rng):
    x = binary_matrix(rng, 20, 6)
    base = build_gram(x)
    doubled = build_user_weighted_gram(x, np.full(20, 2.0))
    np.testing.assert_allclose(unpack(doubled.g), 2.0 * unpack(base.g), atol=1e-12)
    np.testing.assert_allclose(target_of(doubled), 2.0 * target_of(base), atol=1e-12)


def test_weighting_equals_row_duplication(rng):
    dense = (rng.random((10, 5)) < 0.5).astype(np.float64)
    dense[0, 0] = 1.0
    x = matrix_from_dense(dense)
    w = np.ones(10)
    w[3] = 3.0
    weighted = build_user_weighted_gram(x, w)
    stacked = matrix_from_dense(np.vstack([dense, dense[3], dense[3]]))
    dup = build_gram(stacked)
    np.testing.assert_allclose(unpack(weighted.g), unpack(dup.g), atol=1e-12)
    np.testing.assert_allclose(target_of(weighted), target_of(dup), atol=1e-12)


def test_weighting_validation(rng):
    x = binary_matrix(rng, 10, 4)
    with pytest.raises(DataError, match="10 user weights"):
        build_user_weighted_gram(x, np.ones(9))
    with pytest.raises(DataError, match="positive"):
        build_user_weighted_gram(x, np.zeros(10))
    bad = np.ones(10)
    bad[2] = np.inf
    with pytest.raises(DataError, match="positive and finite"):
        build_user_weighted_gram(x, bad)


def test_binary_matrix_gives_up_on_a_shape_it_can_hardly_draw(rng):
    # each of the 150 columns is empty with probability 0.95**5 = 0.77
    with pytest.raises(ValueError, match="no 5 x 150 draw at density 0.05"):
        binary_matrix(rng, 5, 150, density=0.05)


@settings(max_examples=25, deadline=None)
@given(
    n_items=st.sampled_from([1, 2, 3, 5, 255, 256, 257, 600, 601]),
    n_users=st.integers(1, 30),
    density=st.floats(0.05, 0.8),
    p=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_builder_packs_the_dense_lower_triangle(n_items, n_users, density, p, seed):
    # the full-storage builder in conftest is the oracle: each packed G is
    # bitwise its lower triangle, and never an n×n array
    r = np.random.default_rng(seed)
    xd = r.normal(size=(n_users, n_items)) * (r.random((n_users, n_items)) < density)
    x, z = matrix_from_dense(xd), matrix_from_dense(xd != 0)
    w = r.uniform(0.5, 2.0, n_users)
    xw = (sp.diags(w, format="csr") @ x.matrix).tocsr()
    xw.sort_indices()
    exact = dense_gram(z.matrix, z.matrix)
    diag = np.diag(exact).copy()
    exact *= (1.0 - p) ** 2
    np.fill_diagonal(exact, (1.0 - p) ** 2 * diag + p * (1.0 - p) * diag)
    for stats, expected in (
        (build_gram(x), dense_gram(x.matrix, x.matrix)),
        (build_gram(x, center=True), dense_gram(x.matrix, x.matrix)),
        (build_user_weighted_gram(x, w), dense_gram(x.matrix, xw)),
        (build_disjoint_gram(z), dense_gram(z.matrix, z.matrix)),
        (build_disjoint_gram(z, split_fraction=p), exact),
    ):
        assert stats.g.shape == (n_items * (n_items + 1) // 2,)
        assert stats.g.tobytes() == pack(expected).tobytes()
