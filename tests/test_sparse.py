from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gramrec import (
    DataError,
    DenseModel,
    SparseModel,
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
    solve_rr,
    solve_zero_diag,
    threshold_pattern,
    train_sparse,
)
import gramrec.evaluation as evaluation
import gramrec.sparse as sparse
from gramrec.gram import PANEL
from gramrec.packed import pack

from conftest import (
    aggregate_blocks_reference,
    block_partition_reference,
    binary_matrix,
    correlation_reference,
    correlations_of,
    gram_of,
    matrix_from_dense,
    pattern_from_dense,
    pattern_strength_reference,
    threshold_pattern_reference,
    two_pass_correlation,
)


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
    cor = correlation_from_gram(stats).rows(0, 2)
    np.testing.assert_allclose(cor, np.ones((2, 2)), atol=1e-12)


def test_correlation_independent_balanced_pair():
    stats = gram_of([[0, 0], [0, 1], [1, 0], [1, 1]])
    cor = correlation_from_gram(stats).rows(0, 2)
    assert cor[0, 1] == 0.0
    np.testing.assert_array_equal(np.diag(cor), [1.0, 1.0])


def test_correlation_zero_variance_column():
    stats = gram_of([[1, 1], [1, 0], [1, 1]])  # item 0 is ubiquitous
    cor = correlation_from_gram(stats).rows(0, 2)
    assert cor[0, 1] == 0.0
    assert cor[1, 0] == 0.0
    assert cor[0, 0] == 1.0


def test_correlation_matches_two_pass_oracle(rng):
    x = binary_matrix(rng, 50, 6)
    cor = correlation_from_gram(build_gram(x))
    np.testing.assert_allclose(cor.rows(0, 6), two_pass_correlation(x.matrix.toarray()), atol=1e-10)
    assert np.abs(cor.rows(0, 6)).max() <= 1.0 + 1e-12


def test_correlation_on_ratings_matches_corrcoef(rng):
    dense = rng.integers(1, 6, (300, 30)) * (rng.random((300, 30)) < 0.3)
    dense[:, 1] = dense[:, 0]  # item 1 copies item 0
    cor = correlation_from_gram(gram_of(dense)).rows(0, 30)
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
    np.testing.assert_array_equal(cor.rows(0, 8), correlation_reference(stats))
    solve_zero_diag(stats, 1.0)
    assert cor.n_items == 8
    with pytest.raises(DataError, match="consumed by an earlier solve"):
        cor.rows(0, 8)


@settings(max_examples=25, deadline=None)
@given(
    n_items=st.sampled_from([1, 2, 9, PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 3]),
    n_users=st.integers(2, 20),
    width=st.sampled_from([1, 5, PANEL]),
    seed=st.integers(0, 2**32 - 1),
)
def test_correlation_rows_are_the_reference_bitwise_and_symmetric(n_items, n_users, width, seed):
    """Row panels of any width, stacked, are bitwise the whole-matrix
    reference and bitwise its transpose, so row j serves as column j."""
    r = np.random.default_rng(seed)
    dense = (r.random((n_users, n_items)) < 0.3) * r.integers(1, 6, (n_users, n_items))
    dense[:, ::7] = 0  # empty items and
    dense[:, 3::11] = 2  # constant ones have zero variance
    gram = gram_of(dense)
    cor = correlation_from_gram(gram)
    whole = np.concatenate([cor.rows(lo, lo + width) for lo in range(0, n_items, width)])
    assert whole.flags.c_contiguous
    assert whole.tobytes() == correlation_reference(gram).tobytes()
    assert whole.tobytes() == np.ascontiguousarray(whole.T).tobytes()


def test_threshold_small_example():
    cor = correlations_of([[1.0, 0.8, 0.1], [0.8, 1.0, -0.4], [0.1, -0.4, 1.0]])
    pat = threshold_pattern(cor, theta=0.3)
    dense = pat.a.toarray()
    np.testing.assert_array_equal(
        dense, [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    )
    assert pat.threshold == 0.3
    assert pat.a.nnz == 7
    np.testing.assert_array_equal(pat.strength, [0.8, 0.8, 0.4])


def test_threshold_cap_keeps_strongest():
    cor = correlations_of([[1.0, 0.8, 0.1], [0.8, 1.0, -0.4], [0.1, -0.4, 1.0]])
    pat = threshold_pattern(cor, theta=0.0, n_max=2)
    dense = pat.a.toarray()
    np.testing.assert_array_equal(dense[:, 1], [1, 1, 0])  # |0.8| beats |-0.4|
    assert np.all(np.diag(dense) == 1)
    assert np.all(dense.sum(axis=0) <= 2)


def test_threshold_cap_ties_go_to_lower_row():
    m = np.full((4, 4), 0.5)
    np.fill_diagonal(m, 1.0)
    pat = threshold_pattern(correlations_of(m), theta=0.0, n_max=2)
    np.testing.assert_array_equal(pat.a.toarray()[:, 2], [1, 0, 1, 0])


def test_threshold_diagonal_always_present():
    m = correlations_of(np.zeros((3, 3)))
    pat = threshold_pattern(m, theta=0.5)
    np.testing.assert_array_equal(pat.a.toarray(), np.eye(3))
    np.testing.assert_array_equal(pat.strength, [-1.0, -1.0, -1.0])  # no off-diagonal entry


def test_threshold_validation():
    m = correlations_of(np.eye(2))
    with pytest.raises(DataError, match="non-negative"):
        threshold_pattern(m, theta=-0.1)
    with pytest.raises(DataError, match="non-negative"):
        threshold_pattern(m, theta=np.nan)
    with pytest.raises(DataError, match="cap"):
        threshold_pattern(m, theta=0.0, n_max=0)


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
    pat = threshold_pattern(correlations_of(m), theta=theta, n_max=n_max)
    a = pat.a
    counts = np.diff(a.indptr)
    assert np.all(counts <= n_max)
    assert np.all(a.diagonal() == 1)
    for j in range(n):
        rows = a.indices[a.indptr[j] : a.indptr[j + 1]]
        assert np.all(np.diff(rows) > 0)  # sorted, no duplicates


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([1, 255, 256, 257, 600]),
    n_max=st.integers(1, 40),
    theta=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_threshold_pattern_matches_reference_with_ties_at_the_cap(n, n_max, theta, seed):
    """Multiples of 1/4 tie at many columns' cap value; the ties kept are
    the lowest rows."""
    r = np.random.default_rng(seed)
    plain = r.integers(-4, 5, (n, n)) / 4.0
    sym = np.triu(plain) + np.triu(plain, 1).T
    np.fill_diagonal(sym, 1.0)
    pattern = threshold_pattern(correlations_of(sym), theta=theta, n_max=n_max)
    ref = threshold_pattern_reference(sym, theta, n_max)
    np.testing.assert_array_equal(pattern.a.indptr, ref.indptr)
    np.testing.assert_array_equal(pattern.a.indices, ref.indices)
    np.testing.assert_array_equal(pattern.strength, pattern_strength_reference(ref, sym))
    blocks = block_partition(pattern)
    assert [b.tolist() for b in blocks] == [b.tolist() for b in block_partition_reference(ref, sym)]


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
    np.testing.assert_array_equal(cor.rows(0, n_items), ref)

    pattern = threshold_pattern(cor, theta=theta, n_max=n_max)
    ref_a = threshold_pattern_reference(ref, theta, n_max)
    np.testing.assert_array_equal(pattern.a.indptr, ref_a.indptr)
    np.testing.assert_array_equal(pattern.a.indices, ref_a.indices)
    np.testing.assert_array_equal(pattern.strength, pattern_strength_reference(ref_a, ref))

    blocks = block_partition(pattern)
    ref_blocks = block_partition_reference(ref_a, ref)
    assert [b.tolist() for b in blocks] == [b.tolist() for b in ref_blocks]

    models = list(solve_blocks(gram, blocks, lam=1.0))
    got = aggregate_blocks(blocks, models, pattern, lam=1.0).values.toarray()
    expected = aggregate_blocks_reference(blocks, [m.b for m in models], ref_a)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.abs(expected).max()


def block_model(p, c) -> DenseModel:
    """A block's zero-diagonal model, B_ij = P_ij / c_j off the diagonal."""
    return DenseModel(p=pack(np.asarray(p, dtype=float)), c=np.asarray(c, dtype=float), lam=1.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    n_blocks=st.one_of(st.integers(0, 8), st.integers(256, 270)),
    fill=st.floats(0.0, 1.0),
    slice_len=st.sampled_from([1, 2, 3, sparse._SLICE]),
    seed=st.integers(0, 2**32 - 1),
)
def test_aggregate_matches_reference_on_overlapping_blocks(n, n_blocks, fill, slice_len, seed):
    """Bitwise the average of the blocks' k×k weights, whether a block's
    positions are scanned 1–3 at a time or in one slice.  Over 255 blocks
    each holds every item, so the counts outgrow one byte."""
    r = np.random.default_rng(seed)
    many = n_blocks > 255
    n = min(n, 8) if many else n  # a slice of one position is one pass of the loop
    mask = r.random((n, n)) < fill
    np.fill_diagonal(mask, True)
    pattern = pattern_from_dense(mask)
    sizes = r.integers(n if many else 1, n + 1, n_blocks)
    blocks = [r.permutation(n)[:k] for k in sizes]
    models = [DenseModel(p=r.normal(size=k * (k + 1) // 2), c=1.0 + r.random(k), lam=1.0)
              for k in sizes]
    with mock.patch.object(sparse, "_SLICE", slice_len):
        got = aggregate_blocks(blocks, iter(models), pattern, lam=1.0).values
    expected = aggregate_blocks_reference(blocks, [m.b for m in models], pattern.a)
    np.testing.assert_array_equal(got.toarray(), expected)
    assert np.shares_memory(got.indices, pattern.a.indices)  # the pattern's arrays, not copies
    assert np.shares_memory(got.indptr, pattern.a.indptr)


def test_mask_restricts_to_pattern():
    # a ridge model, whose diagonal B_jj = P_jj/c_j + kappa is not zero
    p = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])
    model = DenseModel(p=pack(p), c=np.array([1.0, 2.0, 4.0]), lam=2.0, kappa=9.0)
    np.testing.assert_array_equal(np.diag(model.b), [10.0, 9.5, 9.25])
    pat = pattern_from_dense([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    masked = mask_model(model, pat)
    dense = masked.values.toarray()
    np.testing.assert_array_equal(dense, [[0.0, 0.25, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert masked.lam == 2.0
    assert masked.sparsity == 5 / 9
    assert np.shares_memory(masked.values.indices, pat.a.indices)


def test_mask_full_pattern_equals_dense_off_diagonal(rng):
    # 300 items: the entries are gathered from two column panels of B, and
    # the ridge diagonal is written as zero in each
    for n, solver in ((6, solve_zero_diag), (300, solve_rr)):
        x = binary_matrix(rng, 25, n)
        model = solver(build_gram(x), lam=1.0)
        masked = mask_model(model, pattern_from_dense(np.ones((n, n))))
        expected = model.b
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_array_equal(masked.values.toarray(), expected)


def test_mask_shape_checked(rng):
    x = binary_matrix(rng, 10, 4)
    model = solve_zero_diag(build_gram(x), lam=1.0)
    with pytest.raises(DataError, match="pattern"):
        mask_model(model, pattern_from_dense(np.ones((3, 3))))


def test_blocks_for_block_diagonal_pattern():
    mask = np.zeros((5, 5), dtype=np.int8)
    mask[:2, :2] = 1
    mask[2:, 2:] = 1
    blocks = block_partition(pattern_from_dense(mask))
    assert [b.tolist() for b in blocks] == [[2, 3, 4], [0, 1]]


def test_blocks_identity_pattern_gives_singletons():
    pat = pattern_from_dense(np.eye(4))
    np.testing.assert_array_equal(pat.strength, [-1.0] * 4)
    blocks = block_partition(pat)
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
    # support ties 1 and 2; 1's 0.9 beats 2's 0.8
    for pat in (pattern_from_dense(mask, cor), threshold_pattern(correlations_of(cor), theta=0.5)):
        np.testing.assert_array_equal(pat.a.toarray(), mask)
        np.testing.assert_array_equal(pat.strength, [0.9, 0.9, 0.8, 0.8])
        blocks = block_partition(pat)
        assert [b.tolist() for b in blocks] == [[0, 1, 2], [2, 3]]


def test_blocks_require_diagonal():
    a = sp.csc_matrix(np.array([[0, 1], [1, 0]], dtype=np.int8))
    pat = SparsityPattern(a=a, threshold=0.0, n_max=10, strength=np.ones(2))
    with pytest.raises(DataError, match="diagonal"):
        block_partition(pat)


def test_blocks_cover_every_item(rng):
    x = binary_matrix(rng, 30, 10)
    stats = build_gram(x)
    cor = correlation_from_gram(stats)
    pat = threshold_pattern(cor, theta=0.2, n_max=4)
    blocks = block_partition(pat)
    covered = np.unique(np.concatenate(blocks))
    np.testing.assert_array_equal(covered, np.arange(10))


def test_solve_blocks_single_block_is_dense(rng):
    x = binary_matrix(rng, 20, 6)
    stats = build_gram(x)
    models = list(solve_blocks(stats, [np.arange(6)], lam=1.5))
    dense = solve_zero_diag(stats, lam=1.5)
    np.testing.assert_allclose(models[0].b, dense.b, atol=1e-12)


def test_solve_blocks_singleton(rng):
    x = binary_matrix(rng, 15, 4)
    models = list(solve_blocks(build_gram(x), [np.array([2])], lam=1.0))
    np.testing.assert_array_equal(models[0].b, [[0.0]])


def test_solve_blocks_refuses_distinct_target(rng):
    """The call itself raises, before any solution is asked for."""
    x = binary_matrix(rng, 15, 4)
    for stats in (build_gram(x, center=True), build_disjoint_gram(x)):
        with pytest.raises(DataError, match="plain statistics"):
            solve_blocks(stats, [np.arange(4)], lam=1.0)


def test_aggregate_averages_overlaps():
    pat = pattern_from_dense(np.ones((2, 2)))
    blocks = [np.array([0, 1]), np.array([0, 1])]
    models = [block_model([[1.0, 0.4], [0.4, 1.0]], [1.0, 2.0]),
              block_model([[1.0, 0.4], [0.4, 1.0]], [2.0, 1.0])]
    np.testing.assert_array_equal(models[0].b, [[0.0, 0.2], [0.4, 0.0]])
    np.testing.assert_array_equal(models[1].b, [[0.0, 0.4], [0.2, 0.0]])
    model = aggregate_blocks(blocks, models, pat, lam=1.0)
    np.testing.assert_allclose(
        model.values.toarray(), [[0.0, 0.3], [0.3, 0.0]]
    )
    assert model.lam == 1.0


def test_aggregate_uncovered_positions_stay_zero():
    pat = pattern_from_dense([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    blocks = [np.array([0, 1])]
    models = [block_model([[1.0, 3.0], [3.0, 1.0]], [5.0, 6.0])]
    np.testing.assert_array_equal(models[0].b, [[0.0, 0.5], [0.6, 0.0]])
    model = aggregate_blocks(blocks, models, pat, lam=1.0)
    dense = model.values.toarray()
    assert dense[0, 2] == 0.0  # pattern position no block covered
    assert dense[0, 1] == 0.0  # block estimate outside the pattern is dropped
    assert model.values.nnz == pat.a.nnz  # structure matches the pattern


def test_aggregate_validation():
    pat = pattern_from_dense(np.eye(2))
    with pytest.raises(DataError, match="blocks"):
        aggregate_blocks([np.array([0])], [], pat, lam=1.0)
    with pytest.raises(DataError, match="solution"):
        aggregate_blocks([np.array([0])], [block_model(np.zeros((2, 2)), np.ones(2))], pat, lam=1.0)


def test_aggregate_refuses_a_count_mismatch_from_any_iterable():
    pat = pattern_from_dense(np.eye(2))
    blocks = [np.array([0]), np.array([1])]
    one = block_model([[1.0]], [1.0])
    for subs in ([one], iter([one]), [one] * 3, (s for s in [one] * 3)):
        with pytest.raises(DataError, match="2 blocks but"):
            aggregate_blocks(blocks, subs, pat, lam=1.0)


def test_aggregate_of_lazy_solutions_equals_aggregate_of_a_list(rng):
    x = binary_matrix(rng, 60, 30)
    gram = build_gram(x)
    cor = correlation_from_gram(gram)
    pattern = threshold_pattern(cor, theta=0.1, n_max=8)
    blocks = block_partition(pattern)
    assert len(blocks) > 2
    listed = aggregate_blocks(blocks, list(solve_blocks(gram, blocks, 2.0)), pattern, 2.0).values
    lazy = aggregate_blocks(blocks, solve_blocks(gram, blocks, 2.0), pattern, 2.0).values
    for got in (lazy, train_sparse(gram, theta=0.1, n_max=8, lam=2.0).values):
        np.testing.assert_array_equal(got.indptr, listed.indptr)
        np.testing.assert_array_equal(got.indices, listed.indices)
        np.testing.assert_array_equal(got.data, listed.data)


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
    pattern = threshold_pattern(correlation_from_gram(stats), theta=0.15, n_max=5)
    assert model.values.nnz == pattern.a.nnz
    assert model.sparsity == pattern.a.nnz / 144


def test_sparse_model_round_trip(tmp_path, rng):
    x = binary_matrix(rng, 30, 8)
    model = train_sparse(build_gram(x), theta=0.1, n_max=5, lam=3.0)
    keys = [f"it{j}" for j in range(8)]
    path = tmp_path / "model.easp"
    save_sparse_model(path, model, item_keys=keys)
    loaded, loaded_keys = load_sparse_model(path)
    assert loaded_keys == keys
    assert loaded.lam == 3.0
    assert (loaded.threshold, loaded.n_max) == (0.1, 5)
    np.testing.assert_array_equal(loaded.values.indptr, model.values.indptr)
    np.testing.assert_array_equal(loaded.values.indices, model.values.indices)
    np.testing.assert_array_equal(loaded.values.data, model.values.data)

    save_sparse_model(tmp_path / "bare.easp", model)
    _, no_keys = load_sparse_model(tmp_path / "bare.easp")
    assert no_keys is None


def test_sparse_model_file_repeating_a_position_loads_it_summed(tmp_path):
    # a file may store one position twice; it loads as one weight, the sum,
    # so an own score read at the pair is bitwise the panel product's,
    # 0.7·(0.1 + 0.2) and not 0.7·0.1 + 0.7·0.2
    values = sp.csc_matrix((np.array([0.1, 0.2, 0.7]), np.array([1, 1, 0]), np.array([0, 2, 3])),
                           shape=(2, 2))
    save_sparse_model(tmp_path / "m.easp", SparseModel(values, threshold=0.0, n_max=2, lam=1.0))
    model, _ = load_sparse_model(tmp_path / "m.easp")
    assert model.values.nnz == 2 and model.values[1, 0] == 0.1 + 0.2
    xin = sp.csr_matrix(np.array([[0.0, 0.7]]))
    folds = evaluation._Folds(xin, np.array([0]), np.array([0]), np.array([0]), 0, {})
    own = evaluation._own_scores(model, folds)
    assert own.tolist() == (xin @ model.columns(0, 1)).toarray()[0].tolist() == [0.7 * (0.1 + 0.2)]


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
