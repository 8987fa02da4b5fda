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
)

from conftest import binary_matrix, matrix_from_dense


def test_gram_small_example():
    x = matrix_from_dense([[1, 1], [0, 1]])
    stats = build_gram(x, x)
    np.testing.assert_array_equal(stats.g, [[1, 1], [1, 2]])
    np.testing.assert_array_equal(stats.c, [[1, 1], [1, 2]])
    assert stats.n_users == 2
    assert stats.mu is None
    assert not stats.centered


def test_gram_matches_dense_products(rng):
    x = binary_matrix(rng, 40, 9)
    yd = rng.random((40, 9)) * (rng.random((40, 9)) < 0.5)
    y = matrix_from_dense(yd)
    stats = build_gram(x, y)
    xd = x.matrix.toarray()
    np.testing.assert_allclose(stats.g, xd.T @ xd, atol=1e-12)
    np.testing.assert_allclose(stats.c, xd.T @ yd, atol=1e-12)


def test_gram_symmetric_and_psd(rng):
    x = binary_matrix(rng, 25, 7)
    stats = build_gram(x, x)
    np.testing.assert_array_equal(stats.g, stats.g.T)
    assert np.linalg.eigvalsh(stats.g).min() >= -1e-10


def test_self_target_statistics_alias_c_to_g(rng):
    x = binary_matrix(rng, 20, 6)
    y = binary_matrix(rng, 20, 6)
    for stats in (build_gram(x, x), build_user_weighted_gram(x, x, rng.uniform(0.5, 2.0, 20))):
        assert stats.c is stats.g
    for stats in (
        build_gram(x, y),
        build_gram(x, x, center_y=True),
        build_disjoint_gram(x),
        build_user_weighted_gram(x, y, np.ones(20)),
    ):
        assert stats.c is not stats.g


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
    stats = build_user_weighted_gram(x, y, w)
    # the whole-matrix expressions: X^T (W X) is not exactly symmetric in
    # floating point, so the symmetrisation is exercised
    xt = x.matrix.T.tocsr()
    scale = sp.diags(w, format="csr")
    xw, yw = (scale @ x.matrix).tocsr(), (scale @ y.matrix).tocsr()
    xw.sort_indices()
    yw.sort_indices()
    g = (xt @ xw).toarray()
    np.testing.assert_array_equal(stats.g, 0.5 * (g + g.T))
    np.testing.assert_array_equal(stats.c, (xt @ yw).toarray())
    if n_users:
        centered = build_gram(x, y, center_y=True)
        expected = (xt @ y.matrix).toarray() - np.outer(centered.colsum, centered.mu)
        np.testing.assert_array_equal(centered.c, expected)


def test_every_builder_records_column_sums(rng):
    x = matrix_from_dense(rng.integers(0, 4, (20, 6)))
    z = binary_matrix(rng, 20, 6)
    for stats, m in (
        (build_gram(x, x), x),
        (build_gram(x, x, center_y=True), x),
        (build_user_weighted_gram(x, x, rng.uniform(0.5, 2.0, 20)), x),
        (build_disjoint_gram(z), z),
    ):
        np.testing.assert_array_equal(stats.colsum, m.matrix.toarray().sum(axis=0))


def test_gram_orthogonal_columns():
    x = matrix_from_dense([[1, 0], [1, 0], [0, 1]])
    stats = build_gram(x, x)
    assert stats.g[0, 1] == 0.0
    np.testing.assert_array_equal(np.diag(stats.g), [2, 1])


def test_gram_shape_mismatch():
    x = matrix_from_dense([[1, 0], [0, 1]])
    y = matrix_from_dense([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(DataError, match="shape"):
        build_gram(x, y)


def test_centered_targets_small_example():
    x = matrix_from_dense([[1, 1], [0, 1]])
    stats = build_gram(x, x, center_y=True)
    np.testing.assert_allclose(stats.mu, [0.5, 1.0])
    np.testing.assert_allclose(stats.c, [[0.5, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(stats.g, [[1, 1], [1, 2]])  # inputs stay raw
    assert stats.centered


def test_centered_matches_explicit_densified(rng):
    x = binary_matrix(rng, 30, 6)
    yd = (rng.random((30, 6)) < 0.4) * rng.integers(1, 5, (30, 6)).astype(np.float64)
    y = matrix_from_dense(yd)
    stats = build_gram(x, y, center_y=True)
    centered = yd - yd.mean(axis=0, keepdims=True)
    np.testing.assert_allclose(stats.c, x.matrix.toarray().T @ centered, atol=1e-10)


def test_disjoint_small_example():
    z = matrix_from_dense([[1, 1], [1, 0]])
    stats = build_disjoint_gram(z)
    np.testing.assert_array_equal(stats.g, [[2, 1], [1, 1]])
    np.testing.assert_array_equal(stats.c, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(np.diag(stats.c), [0.0, 0.0])


def test_disjoint_exact_expectation_mode(rng):
    z = binary_matrix(rng, 20, 5)
    p = 0.1
    stats = build_disjoint_gram(z, explicit_lambda=False, split_fraction=p)
    zz = z.matrix.toarray().T @ z.matrix.toarray()
    off = zz - np.diag(np.diag(zz))
    np.testing.assert_allclose(stats.c, p * (1 - p) * off, atol=1e-12)
    expected_g = (1 - p) ** 2 * off + ((1 - p) ** 2 + p * (1 - p)) * np.diag(np.diag(zz))
    np.testing.assert_allclose(stats.g, expected_g, atol=1e-12)


def test_disjoint_rejects_non_binary():
    z = matrix_from_dense([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DataError, match="binary"):
        build_disjoint_gram(z)


def test_disjoint_rejects_bad_fraction(rng):
    z = binary_matrix(rng, 10, 4)
    with pytest.raises(DataError, match="fraction"):
        build_disjoint_gram(z, explicit_lambda=False, split_fraction=1.0)


def test_unit_weights_bitwise_identical(rng):
    x = binary_matrix(rng, 35, 8)
    plain = build_gram(x, x)
    weighted = build_user_weighted_gram(x, x, np.ones(35))
    np.testing.assert_array_equal(plain.g, weighted.g)
    np.testing.assert_array_equal(plain.c, weighted.c)


def test_weighting_scales_linearly(rng):
    x = binary_matrix(rng, 20, 6)
    base = build_gram(x, x)
    doubled = build_user_weighted_gram(x, x, np.full(20, 2.0))
    np.testing.assert_allclose(doubled.g, 2.0 * base.g, atol=1e-12)
    np.testing.assert_allclose(doubled.c, 2.0 * base.c, atol=1e-12)


def test_weighting_equals_row_duplication(rng):
    dense = (rng.random((10, 5)) < 0.5).astype(np.float64)
    dense[0, 0] = 1.0
    x = matrix_from_dense(dense)
    w = np.ones(10)
    w[3] = 3.0
    weighted = build_user_weighted_gram(x, x, w)
    stacked = matrix_from_dense(np.vstack([dense, dense[3], dense[3]]))
    dup = build_gram(stacked, stacked)
    np.testing.assert_allclose(weighted.g, dup.g, atol=1e-12)
    np.testing.assert_allclose(weighted.c, dup.c, atol=1e-12)


def test_weighting_validation(rng):
    x = binary_matrix(rng, 10, 4)
    with pytest.raises(DataError, match="10 user weights"):
        build_user_weighted_gram(x, x, np.ones(9))
    with pytest.raises(DataError, match="positive"):
        build_user_weighted_gram(x, x, np.zeros(10))
    bad = np.ones(10)
    bad[2] = np.inf
    with pytest.raises(DataError, match="positive and finite"):
        build_user_weighted_gram(x, x, bad)
