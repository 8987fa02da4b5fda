import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gramrec import (
    DataError,
    DenseModel,
    SparsityPattern,
    aggregate_blocks,
    block_partition,
    build_disjoint_gram,
    build_gram,
    correlation_from_gram,
    load_sparse_model,
    mask_model,
    save_sparse_model,
    solve_blocks,
    solve_zero_diag,
    threshold_pattern,
    train_sparse,
)
from gramrec.solver import VARIANT_RR

from conftest import (
    aggregate_blocks_reference,
    block_partition_reference,
    binary_matrix,
    correlation_reference,
    gram_of,
    matrix_from_dense,
    threshold_pattern_reference,
    two_pass_correlation,
)


def pattern_from_dense(mask: np.ndarray, theta=0.0, n_max=1000) -> SparsityPattern:
    a = sp.csc_matrix(np.asarray(mask, dtype=np.int8))
    return SparsityPattern(a=a, threshold=theta, n_max=n_max)


def three_block_gram(rng, users_per_block=8, items_per_block=5):
    """Binary data whose item blocks share no users; Gram is block-diagonal."""
    g, ipb = users_per_block, items_per_block
    n_items = 3 * ipb
    n_users = 5 * g  # 2g all-zero rows keep cross-block correlations small
    dense = np.zeros((n_users, n_items))
    for blk in range(3):
        rows = slice(blk * g, (blk + 1) * g)
        cols = slice(blk * ipb, (blk + 1) * ipb)
        dense[rows, cols] = rng.random((g, ipb)) < 0.8
    groups = np.repeat(np.arange(3), ipb)
    expected = (groups[:, None] == groups[None, :])
    x = matrix_from_dense(dense)
    return build_gram(x), expected


def test_correlation_identical_columns():
    stats = gram_of([[1, 1], [0, 0], [1, 1], [0, 0]])
    cor = correlation_from_gram(stats)[:, :]
    np.testing.assert_allclose(cor, np.ones((2, 2)), atol=1e-12)


def test_correlation_independent_balanced_pair():
    stats = gram_of([[0, 0], [0, 1], [1, 0], [1, 1]])
    cor = correlation_from_gram(stats)[:, :]
    assert cor[0, 1] == 0.0
    np.testing.assert_array_equal(np.diag(cor), [1.0, 1.0])


def test_correlation_zero_variance_column():
    stats = gram_of([[1, 1], [1, 0], [1, 1]])  # item 0 is ubiquitous
    cor = correlation_from_gram(stats)[:, :]
    assert cor[0, 1] == 0.0
    assert cor[1, 0] == 0.0
    assert cor[0, 0] == 1.0


def test_correlation_matches_two_pass_oracle(rng):
    x = binary_matrix(rng, 50, 6)
    cor = correlation_from_gram(build_gram(x))
    np.testing.assert_allclose(cor[:, :], two_pass_correlation(x.matrix.toarray()), atol=1e-10)
    assert np.abs(cor[:, :]).max() <= 1.0 + 1e-12


def test_correlation_on_ratings_matches_corrcoef(rng):
    dense = rng.integers(1, 6, (300, 30)) * (rng.random((300, 30)) < 0.3)
    dense[:, 1] = dense[:, 0]  # item 1 copies item 0
    cor = correlation_from_gram(gram_of(dense))[:, :]
    np.testing.assert_allclose(cor, np.corrcoef(dense.T), atol=1e-10)
    assert cor[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_correlation_needs_two_users():
    stats = gram_of([[1, 0]])
    with pytest.raises(DataError, match="2 users"):
        correlation_from_gram(stats)


def test_correlations_of_consumed_statistics_are_refused(rng):
    # a dense solve leaves B in G's buffer and the statistics without G
    x = binary_matrix(rng, 30, 8)
    stats = build_gram(x)
    solve_zero_diag(stats, 1.0)
    with pytest.raises(DataError, match="consumed by an earlier solve"):
        correlation_from_gram(stats)
    with pytest.raises(DataError, match="consumed by an earlier solve"):
        train_sparse(stats, theta=0.1, n_max=8, lam=1.0)


def test_correlations_indexed_after_a_solve_are_refused(rng):
    # made before the solve, they would otherwise be read off B
    x = binary_matrix(rng, 30, 8)
    stats = build_gram(x)
    cor = correlation_from_gram(stats)
    np.testing.assert_array_equal(cor[:, :], correlation_reference(stats))
    solve_zero_diag(stats, 1.0)
    assert cor.shape == (8, 8)
    for key in ((slice(None), slice(0, 8)), (np.arange(8), np.arange(8)[::-1])):
        with pytest.raises(DataError, match="consumed by an earlier solve"):
            cor[key]


def test_threshold_small_example():
    cor = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, -0.4], [0.1, -0.4, 1.0]])
    pat = threshold_pattern(cor, theta=0.3)
    dense = pat.a.toarray()
    np.testing.assert_array_equal(
        dense, [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    )
    assert pat.threshold == 0.3
    assert pat.sparsity == pytest.approx(7 / 9)


def test_threshold_cap_keeps_strongest():
    cor = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, -0.4], [0.1, -0.4, 1.0]])
    pat = threshold_pattern(cor, theta=0.0, n_max=2)
    dense = pat.a.toarray()
    np.testing.assert_array_equal(dense[:, 1], [1, 1, 0])  # |0.8| beats |-0.4|
    assert np.all(np.diag(dense) == 1)
    assert np.all(dense.sum(axis=0) <= 2)


def test_threshold_cap_ties_go_to_lower_row():
    m = np.full((4, 4), 0.5)
    np.fill_diagonal(m, 1.0)
    pat = threshold_pattern(m, theta=0.0, n_max=2)
    np.testing.assert_array_equal(pat.a.toarray()[:, 2], [1, 0, 1, 0])


def test_threshold_diagonal_always_present():
    m = np.zeros((3, 3))
    pat = threshold_pattern(m, theta=0.5)
    np.testing.assert_array_equal(pat.a.toarray(), np.eye(3))


def test_threshold_validation():
    m = np.eye(2)
    with pytest.raises(DataError, match="non-negative"):
        threshold_pattern(m, theta=-0.1)
    with pytest.raises(DataError, match="non-negative"):
        threshold_pattern(m, theta=np.nan)
    with pytest.raises(DataError, match="cap"):
        threshold_pattern(m, theta=0.0, n_max=0)
    with pytest.raises(DataError, match="square"):
        threshold_pattern(np.zeros((2, 3)), theta=0.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    theta=st.floats(0.0, 1.0),
    n_max=st.integers(1, 12),
    seed=st.integers(0, 10**6),
)
def test_threshold_pattern_invariants(n, theta, n_max, seed):
    r = np.random.default_rng(seed)
    m = r.uniform(-1, 1, (n, n))
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 1.0)
    pat = threshold_pattern(m, theta=theta, n_max=n_max)
    a = pat.a
    counts = np.diff(a.indptr)
    assert np.all(counts <= n_max)
    assert np.all(a.diagonal() == 1)
    for j in range(n):
        rows = a.indices[a.indptr[j] : a.indptr[j + 1]]
        assert np.all(np.diff(rows) > 0)  # sorted, no duplicates


@settings(max_examples=25, deadline=None)
@given(
    n_items=st.sampled_from([1, 4, 255, 256, 257, 600]),
    n_users=st.integers(2, 30),
    density=st.floats(0.02, 0.6),
    ratings=st.booleans(),
    theta=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
    n_max=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_steps_match_whole_matrix_references(
    n_items, n_users, density, ratings, theta, n_max, seed
):
    r = np.random.default_rng(seed)
    dense = (r.random((n_users, n_items)) < density).astype(np.float64)
    if ratings:
        dense *= r.integers(1, 6, dense.shape)
    dense[:, ::7] = 0.0  # empty items and
    dense[:, 3::11] = 2.0  # constant ones have zero variance
    x = matrix_from_dense(dense)
    gram = build_gram(x)

    cor = correlation_from_gram(gram)
    ref = correlation_reference(gram)
    np.testing.assert_array_equal(cor[:, :], ref)

    pattern = threshold_pattern(cor, theta=theta, n_max=n_max)
    ref_a = threshold_pattern_reference(ref, theta, n_max)
    np.testing.assert_array_equal(pattern.a.indptr, ref_a.indptr)
    np.testing.assert_array_equal(pattern.a.indices, ref_a.indices)
    cols = np.repeat(np.arange(n_items), np.diff(ref_a.indptr))
    np.testing.assert_array_equal(cor[ref_a.indices, cols], ref[ref_a.indices, cols])

    blocks = block_partition(pattern, cor)
    ref_blocks = block_partition_reference(ref_a, ref)
    assert [b.tolist() for b in blocks] == [b.tolist() for b in ref_blocks]

    subs = solve_blocks(gram, blocks, lam=1.0)
    got = aggregate_blocks(blocks, subs, pattern, lam=1.0).values.toarray()
    expected = aggregate_blocks_reference(blocks, subs, ref_a)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.abs(expected).max()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    n_blocks=st.integers(0, 8),
    fill=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_aggregate_matches_reference_on_overlapping_blocks(n, n_blocks, fill, seed):
    r = np.random.default_rng(seed)
    mask = r.random((n, n)) < fill
    np.fill_diagonal(mask, True)
    pattern = pattern_from_dense(mask)
    blocks = [r.permutation(n)[: r.integers(1, n + 1)] for _ in range(n_blocks)]
    subs = [r.normal(size=(len(b), len(b))) for b in blocks]
    got = aggregate_blocks(blocks, subs, pattern, lam=1.0).values
    expected = aggregate_blocks_reference(blocks, subs, pattern.a)
    scale = np.abs(expected).max() if n_blocks else 0.0
    assert np.max(np.abs(got.toarray() - expected)) <= 1e-12 * scale
    np.testing.assert_array_equal(got.indices, pattern.a.indices)


def test_mask_restricts_to_pattern():
    b = np.array([[9.0, 0.5, 0.2], [0.7, 9.0, 0.1], [0.3, 0.4, 9.0]])
    model = DenseModel(b=b, variant=VARIANT_RR, lam=2.0)
    pat = pattern_from_dense([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    masked = mask_model(model, pat)
    dense = masked.values.toarray()
    np.testing.assert_array_equal(dense, [[0.0, 0.5, 0.0], [0.7, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert masked.lam == 2.0
    assert masked.sparsity == pat.sparsity


def test_mask_full_pattern_equals_dense_off_diagonal(rng):
    x = binary_matrix(rng, 25, 6)
    model = solve_zero_diag(build_gram(x), lam=1.0)
    pat = pattern_from_dense(np.ones((6, 6)))
    masked = mask_model(model, pat)
    np.testing.assert_array_equal(masked.values.toarray(), model.b)


def test_mask_shape_checked(rng):
    x = binary_matrix(rng, 10, 4)
    model = solve_zero_diag(build_gram(x), lam=1.0)
    with pytest.raises(DataError, match="pattern"):
        mask_model(model, pattern_from_dense(np.ones((3, 3))))


def test_blocks_for_block_diagonal_pattern():
    mask = np.zeros((5, 5), dtype=np.int8)
    mask[:2, :2] = 1
    mask[2:, 2:] = 1
    pat = pattern_from_dense(mask)
    blocks = block_partition(pat, np.asarray(mask, dtype=np.float64))
    assert [b.tolist() for b in blocks] == [[2, 3, 4], [0, 1]]


def test_blocks_identity_pattern_gives_singletons():
    pat = pattern_from_dense(np.eye(4))
    blocks = block_partition(pat, np.eye(4))
    assert [b.tolist() for b in blocks] == [[0], [1], [2], [3]]


def test_blocks_chain_overlap():
    mask = np.array(
        [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]], dtype=np.int8
    )
    cor = np.array(
        [
            [1.0, 0.9, 0.0, 0.0],
            [0.9, 1.0, 0.5, 0.0],
            [0.0, 0.5, 1.0, 0.8],
            [0.0, 0.0, 0.8, 1.0],
        ]
    )
    blocks = block_partition(pattern_from_dense(mask), cor)
    assert [b.tolist() for b in blocks] == [[0, 1, 2], [2, 3]]


def test_blocks_require_diagonal():
    a = sp.csc_matrix(np.array([[0, 1], [1, 0]], dtype=np.int8))
    pat = SparsityPattern(a=a, threshold=0.0, n_max=10)
    with pytest.raises(DataError, match="diagonal"):
        block_partition(pat, np.eye(2))


def test_blocks_cover_every_item(rng):
    x = binary_matrix(rng, 30, 10)
    stats = build_gram(x)
    cor = correlation_from_gram(stats)
    pat = threshold_pattern(cor, theta=0.2, n_max=4)
    blocks = block_partition(pat, cor)
    covered = np.unique(np.concatenate(blocks))
    np.testing.assert_array_equal(covered, np.arange(10))


def test_solve_blocks_single_block_is_dense(rng):
    x = binary_matrix(rng, 20, 6)
    stats = build_gram(x)
    subs = solve_blocks(stats, [np.arange(6)], lam=1.5)
    dense = solve_zero_diag(stats, lam=1.5)
    np.testing.assert_allclose(subs[0], dense.b, atol=1e-12)


def test_solve_blocks_singleton(rng):
    x = binary_matrix(rng, 15, 4)
    subs = solve_blocks(build_gram(x), [np.array([2])], lam=1.0)
    np.testing.assert_array_equal(subs[0], [[0.0]])


def test_solve_blocks_refuses_distinct_target(rng):
    x = binary_matrix(rng, 15, 4)
    for stats in (build_gram(x, center=True), build_disjoint_gram(x)):
        with pytest.raises(DataError, match="plain statistics"):
            solve_blocks(stats, [np.arange(4)], lam=1.0)


def test_aggregate_averages_overlaps():
    pat = pattern_from_dense(np.ones((2, 2)))
    blocks = [np.array([0, 1]), np.array([0, 1])]
    subs = [np.array([[0.0, 0.2], [0.4, 0.0]]), np.array([[0.0, 0.4], [0.2, 0.0]])]
    model = aggregate_blocks(blocks, subs, pat, lam=1.0)
    np.testing.assert_allclose(
        model.values.toarray(), [[0.0, 0.3], [0.3, 0.0]]
    )
    assert model.lam == 1.0


def test_aggregate_uncovered_positions_stay_zero():
    pat = pattern_from_dense([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    blocks = [np.array([0, 1])]
    subs = [np.array([[0.0, 0.5], [0.6, 0.0]])]
    model = aggregate_blocks(blocks, subs, pat, lam=1.0)
    dense = model.values.toarray()
    assert dense[0, 2] == 0.0  # pattern position no block covered
    assert dense[0, 1] == 0.0  # block estimate outside the pattern is dropped
    assert model.values.nnz == pat.a.nnz  # structure matches the pattern


def test_aggregate_validation():
    pat = pattern_from_dense(np.eye(2))
    with pytest.raises(DataError, match="blocks"):
        aggregate_blocks([np.array([0])], [], pat, lam=1.0)
    with pytest.raises(DataError, match="solution"):
        aggregate_blocks([np.array([0])], [np.zeros((2, 2))], pat, lam=1.0)


def test_train_sparse_block_diagonal_is_exact(rng):
    stats, expected = three_block_gram(rng)
    cor = correlation_from_gram(stats)
    pat = threshold_pattern(cor, theta=0.4, n_max=1000)
    np.testing.assert_array_equal(pat.a.toarray() != 0, expected)

    lam = 2.0
    model = train_sparse(stats, theta=0.4, n_max=1000, lam=lam)
    dense = solve_zero_diag(stats, lam=lam)
    reference = mask_model(dense, pat)
    diff = np.abs(model.values.toarray() - reference.values.toarray()).max()
    assert diff <= 1e-12
    assert np.all(model.values.diagonal() == 0.0)


def test_train_sparse_full_pattern_equals_dense(rng):
    x = binary_matrix(rng, 20, 5)
    stats = build_gram(x)
    model = train_sparse(stats, theta=0.0, n_max=5, lam=1.0)
    dense = solve_zero_diag(stats, lam=1.0)
    np.testing.assert_allclose(model.values.toarray(), dense.b, atol=1e-12)


def test_train_sparse_overlapping_blocks_stay_sane(rng):
    x = binary_matrix(rng, 40, 12)
    stats = build_gram(x)
    model = train_sparse(stats, theta=0.15, n_max=5, lam=1.0)
    dense = model.values.toarray()
    assert np.all(np.isfinite(dense))
    assert np.all(np.diag(dense) == 0.0)
    assert model.values.nnz == model.pattern.a.nnz
    assert 0.0 < model.sparsity <= 1.0


def test_sparse_model_round_trip(tmp_path, rng):
    x = binary_matrix(rng, 30, 8)
    model = train_sparse(build_gram(x), theta=0.1, n_max=5, lam=3.0)
    keys = [f"it{j}" for j in range(8)]
    path = tmp_path / "model.easp"
    save_sparse_model(path, model, item_keys=keys)
    loaded, loaded_keys = load_sparse_model(path)
    assert loaded_keys == keys
    assert loaded.lam == 3.0
    assert loaded.pattern.threshold == model.pattern.threshold
    assert loaded.pattern.n_max == model.pattern.n_max
    np.testing.assert_array_equal(loaded.values.indptr, model.values.indptr)
    np.testing.assert_array_equal(loaded.values.indices, model.values.indices)
    np.testing.assert_array_equal(loaded.values.data, model.values.data)

    save_sparse_model(tmp_path / "bare.easp", model)
    _, no_keys = load_sparse_model(tmp_path / "bare.easp")
    assert no_keys is None


def test_sparse_model_rejects_corruption(tmp_path, rng):
    x = binary_matrix(rng, 15, 4)
    model = train_sparse(build_gram(x), theta=0.1, n_max=4, lam=1.0)
    path = tmp_path / "model.easp"
    save_sparse_model(path, model)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "magic"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(DataError, match="not a gramrec container"):
        load_sparse_model(bad)

    short = tmp_path / "short"
    short.write_bytes(bytes(raw[:-8]))
    with pytest.raises(DataError, match="bytes"):
        load_sparse_model(short)

    versioned = bytearray(raw)
    versioned[4] = 9
    vpath = tmp_path / "version"
    vpath.write_bytes(bytes(versioned))
    with pytest.raises(DataError, match="version"):
        load_sparse_model(vpath)

    with pytest.raises(DataError, match="item keys"):
        save_sparse_model(tmp_path / "k.easp", model, item_keys=["just-one"])
