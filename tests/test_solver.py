from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

import gramrec.solver
from gramrec import (
    DataError,
    GramStats,
    NumericalError,
    build_disjoint_gram,
    build_gram,
    build_user_weighted_gram,
    invert_regularized,
    load_model,
    save_model,
    solve_rr,
    solve_zero_diag,
)
from gramrec.files import read_container
from gramrec.packed import pack, unpack
from gramrec.solver import VARIANT_RR, VARIANT_ZERO_DIAG, PrecisionMatrix, _positive_diag
from gramrec.weighting import apply_item_rescaling, popularity_weights

from conftest import (
    binary_matrix,
    constrained_ridge_oracle,
    general_solve,
    gram_of,
    invert_regularized_copying,
    kept,
    matrix_from_dense,
    ridge_oracle,
    target_of,
    zero_model,
)


def stats_of(g):
    g = np.asarray(g, dtype=np.float64)
    return GramStats(g=pack(g), n_users=10, colsum=np.diag(g).copy())  # as for binary X


def test_invert_two_by_two():
    prec = invert_regularized(stats_of([[2, 1], [1, 2]]), lam=1.0)
    np.testing.assert_allclose(unpack(prec.p), np.array([[3, -1], [-1, 3]]) / 8.0, atol=1e-14)


def test_invert_zero_gram():
    prec = invert_regularized(stats_of(np.zeros((3, 3))), lam=2.0)
    np.testing.assert_allclose(unpack(prec.p), 0.5 * np.eye(3), atol=1e-15)


def test_invert_residual_and_symmetry(rng):
    x = rng.random((60, 40))
    g = x.T @ x
    p = unpack(invert_regularized(stats_of(g.copy()), lam=0.5).p)
    residual = p @ (g + 0.5 * np.eye(40)) - np.eye(40)
    assert np.abs(residual).max() < 1e-10
    np.testing.assert_array_equal(p, p.T)


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([1, 3, 255, 256, 257, 258, 600]),
    blocks=st.integers(1, 4),
    lam=st.floats(0.1, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=258, blocks=2, lam=2.0, seed=0)  # -0.0 in P across a panel boundary
def test_invert_is_bitwise_the_tril_mirror(n, blocks, lam, seed):
    # P unpacked is bitwise the mirrored lower triangle that LAPACK's own
    # converters make of its packed inverse of dtrttf(G + lambda*I), with
    # -0.0 read as 0.0; block-diagonal G gives exact zeros in P.  It agrees
    # with the full-storage dpotrf/dpotri inverse to round-off, which grows
    # with the condition number.
    r = np.random.default_rng(seed)
    x = r.normal(size=(8, n)) * (r.random((8, n)) < 0.5)
    group = r.integers(0, blocks, n)
    g = (x.T @ x) * (group[:, None] == group[None, :])
    prec = invert_regularized(stats_of(g.copy()), lam)
    a = np.array(g, order="F")
    a[np.diag_indices_from(a)] += lam
    arf, _ = lapack.dtrttf(a, transr="N", uplo="L")
    chol, _ = lapack.dpftrf(n, arf, transr="N", uplo="L")
    inv, _ = lapack.dpftri(n, chol, transr="N", uplo="L")
    lower, _ = lapack.dtfttr(n, inv, transr="N", uplo="L")
    expected = np.tril(lower) + np.tril(lower, -1).T + 0.0
    assert prec.p.shape == (n * (n + 1) // 2,)
    assert unpack(prec.p).tobytes() == expected.tobytes()
    cond = np.linalg.cond(a)
    chol, _ = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=1)
    full, _ = lapack.dpotri(chol, lower=1, overwrite_c=1)
    full = np.tril(full) + np.tril(full, -1).T
    assert np.abs(expected - full).max() <= 1e-14 * cond * np.abs(full).max()


def test_invert_rejects_non_positive_lambda():
    for lam in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DataError, match="positive and finite"):
            invert_regularized(stats_of(np.eye(2)), lam=lam)


def test_invert_non_finite_gram():
    g = np.eye(3)
    g[1, 1] = np.inf
    with pytest.raises(NumericalError, match="finite"):
        invert_regularized(stats_of(g), lam=1.0)


def test_invert_indefinite_gram():
    with pytest.raises(NumericalError, match="positive definite"):
        invert_regularized(stats_of(np.diag([-5.0, 1.0])), lam=1.0)


def test_positive_diag_refuses_nan():
    with pytest.raises(NumericalError, match="non-positive"):
        _positive_diag(pack(np.diag([1.0, np.nan])))


@pytest.mark.parametrize("first", [invert_regularized, solve_rr, solve_zero_diag])
@pytest.mark.parametrize("center", [False, True])
def test_consumed_statistics_are_refused(rng, first, center):
    # a second solve would otherwise invert P + lambda*I, left in G's buffer
    x = binary_matrix(rng, 20, 6)
    stats = build_gram(x, center=center)
    first(stats, 1.0)
    assert stats.g is None
    assert stats.n_items == 6
    for solver in (invert_regularized, solve_rr, solve_zero_diag):
        with pytest.raises(DataError, match="consumed by an earlier solve"):
            solver(stats, 1.0)


def test_ridge_two_by_two():
    model = solve_rr(stats_of([[2, 1], [1, 2]]), lam=1.0)
    np.testing.assert_allclose(model.b, np.array([[5, 1], [1, 5]]) / 8.0, atol=1e-14)
    assert model.variant == VARIANT_RR
    assert model.lam == 1.0
    assert model.gamma is None


def test_ridge_matches_oracle(rng):
    # the plain and the centered target read off P, and a general target by
    # the conftest oracle's P*C, against per-column linear solves
    xd = (rng.random((30, 8)) < 0.4).astype(np.float64)
    yd = (rng.random((30, 8)) < 0.3).astype(np.float64)
    for lam in (0.1, 1.0, 10.0):
        model = solve_rr(gram_of(xd), lam=lam)
        np.testing.assert_allclose(model.b, ridge_oracle(xd, xd, lam), atol=1e-10)
        model = solve_rr(gram_of(xd, center=True), lam=lam)
        np.testing.assert_allclose(model.b, ridge_oracle(xd, xd - xd.mean(axis=0), lam), atol=1e-10)
        general, _ = general_solve(xd.T @ xd, xd.T @ yd, lam, zero_diag=False)
        np.testing.assert_allclose(general, ridge_oracle(xd, yd, lam), atol=1e-10)


def test_ridge_shrinks_to_scaled_cooccurrence(rng):
    x = binary_matrix(rng, 25, 6)
    stats = build_gram(x)
    c = target_of(stats)
    model = solve_rr(stats, lam=1e9)
    np.testing.assert_allclose(model.b, c / 1e9, rtol=1e-6)


def test_zero_diag_two_by_two():
    model = solve_zero_diag(stats_of([[2, 1], [1, 2]]), lam=1.0)
    np.testing.assert_allclose(model.b, [[0.0, 1 / 3], [1 / 3, 0.0]], atol=1e-14)
    np.testing.assert_allclose(model.gamma, [5 / 3, 5 / 3], atol=1e-14)
    assert model.variant == VARIANT_ZERO_DIAG


def test_ease_two_by_two():
    # the EASE case (C is G) reads B off the precision matrix; the general
    # P*C - P*diagMat(gamma) oracle must reach the same hand-computed B and
    # gamma
    g = np.array([[2.0, 1.0], [1.0, 2.0]])
    model = solve_zero_diag(stats_of(g.copy()), lam=1.0)
    general = general_solve(g, g, 1.0)
    for b, gamma in ((model.b, model.gamma), general):
        np.testing.assert_allclose(b, [[0.0, 1 / 3], [1 / 3, 0.0]], atol=1e-14)
        np.testing.assert_allclose(gamma, [5 / 3, 5 / 3], atol=1e-14)
        assert np.all(np.diag(b) == 0.0)
    assert model.variant == VARIANT_ZERO_DIAG


def test_zero_diag_diagonal_is_exact_zero(rng):
    x = binary_matrix(rng, 40, 12)
    model = solve_zero_diag(build_gram(x), lam=0.7)
    assert np.all(np.diag(model.b) == 0.0)


def test_zero_diag_matches_constrained_oracle(rng):
    for lam in (0.1, 1.0, 10.0):
        xd = (rng.random((35, 9)) < 0.45).astype(np.float64)
        model = solve_zero_diag(gram_of(xd), lam=lam)
        np.testing.assert_allclose(model.b, constrained_ridge_oracle(xd, xd, lam), atol=1e-9)


def test_zero_diag_matches_oracle_distinct_target(rng):
    # no builder describes this target: the conftest oracle's general path
    # is held to the per-column fits, since other tests hold the solvers to it
    xd = (rng.random((30, 7)) < 0.5).astype(np.float64)
    yd = (rng.random((30, 7)) < 0.35).astype(np.float64)
    b, _ = general_solve(xd.T @ xd, xd.T @ yd, 0.5)
    np.testing.assert_allclose(b, constrained_ridge_oracle(xd, yd, 0.5), atol=1e-9)


@pytest.mark.parametrize("kind", ["centered", "disjoint", "user_weighted"])
def test_zero_diag_general_path_matches_oracle(rng, kind):
    x = binary_matrix(rng, 30, 7)
    xd = x.matrix.toarray()
    lam = 0.7
    if kind == "centered":
        stats = build_gram(x, center=True)
        expected = constrained_ridge_oracle(xd, xd - xd.mean(axis=0), lam)
    elif kind == "disjoint":
        # C differs from G only on the diagonal, which the constraint ignores
        stats = build_disjoint_gram(x)
        expected = constrained_ridge_oracle(xd, xd, lam)
    else:
        # rated values, where X^T W X and its transpose differ at round-off
        xd = xd * rng.integers(1, 6, xd.shape)
        x = matrix_from_dense(xd)
        w = rng.uniform(0.5, 2.0, 30)
        stats = build_user_weighted_gram(x, w)
        root = np.sqrt(w)[:, np.newaxis]
        expected = constrained_ridge_oracle(root * xd, root * xd, lam)
    model = solve_zero_diag(stats, lam=lam)
    np.testing.assert_allclose(model.b, expected, atol=1e-9)


def test_zero_diag_stationarity(rng):
    x = binary_matrix(rng, 30, 8)
    stats = build_gram(x)
    g, c = unpack(stats.g), target_of(stats)
    lam = 0.9
    model = solve_zero_diag(stats, lam=lam)
    grad = 2.0 * (g @ model.b - c + lam * model.b)
    off = grad - np.diag(np.diag(grad))
    assert np.abs(off).max() <= 1e-10 * max(np.abs(grad).max(), 1.0)
    np.testing.assert_allclose(np.diag(grad), -2.0 * model.gamma, rtol=1e-10)


def test_zero_diag_orthogonal_items_gives_zero():
    model = solve_zero_diag(stats_of(np.diag([3.0, 5.0, 1.0])), lam=0.5)
    np.testing.assert_array_equal(model.b, np.zeros((3, 3)))


def test_zero_diag_is_asymmetric_in_general():
    model = solve_zero_diag(stats_of([[4, 1, 0], [1, 2, 1], [0, 1, 1]]), lam=0.1)
    assert not np.allclose(model.b, model.b.T)


def test_disjoint_ridge_identity(rng):
    # with C = G - D the ridge solution collapses to I - P(D + lam*I)
    z = binary_matrix(rng, 25, 6)
    stats = build_disjoint_gram(z)
    lam = 2.0
    d = np.diag(np.diag(unpack(stats.g)))
    p = unpack(invert_regularized(kept(stats), lam).p)
    model = solve_rr(stats, lam=lam)
    np.testing.assert_allclose(model.b, np.eye(6) - p @ (d + lam * np.eye(6)), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n_users=st.integers(1, 40),
    n_items=st.integers(1, 12),
    density=st.floats(0.05, 0.95),
    max_value=st.integers(1, 5),
    lam=st.floats(0.1, 1000.0),
    seed=st.integers(0, 10**6),
)
def test_self_target_readoff_matches_general_path(n_users, n_items, density, max_value, lam, seed):
    # C is G takes the read-off B = -P/diag(P); the conftest oracle takes the
    # general P*C - P*diagMat(gamma) path on the same problem
    r = np.random.default_rng(seed)
    x = (r.random((n_users, n_items)) < density) * r.integers(1, max_value + 1, (n_users, n_items))
    g = x.T @ x.astype(np.float64)
    readoff = solve_zero_diag(stats_of(g.copy()), lam=lam)
    general_b, general_gamma = general_solve(g, g, lam)
    assert np.abs(readoff.b - general_b).max() <= 1e-12 * np.abs(general_b).max()
    # gamma = 1/P_jj - lam cancels for items without interactions, so its
    # round-off is measured against lam as well
    gamma_scale = np.abs(general_gamma).max() + lam
    assert np.abs(readoff.gamma - general_gamma).max() <= 1e-10 * gamma_scale
    assert np.all(np.diag(readoff.b) == 0.0)
    assert np.all(np.diag(general_b) == 0.0)


@settings(max_examples=80, deadline=None)
@given(
    n_users=st.integers(2, 50),
    n_items=st.integers(1, 30),
    density=st.floats(0.05, 0.95),
    log_lam=st.floats(-1.0, 7.0),
    kind=st.sampled_from(["plain", "centered", "disjoint", "exact"]),
    seed=st.integers(0, 10**6),
)
def test_every_target_reads_off_like_the_general_oracle(n_users, n_items, density, log_lam, kind, seed):
    # Every target a builder describes, read off P by both solvers, against
    # the P*C - P*diagMat(gamma) oracle on the written-out target.  The rr
    # diagonal kappa*(1 - P_jj*(lambda + d_j)) cancels as lambda grows, so its
    # bound scales with kappa*(lambda + max d)*max|P| as well.
    x = matrix_from_dense(np.random.default_rng(seed).random((n_users, n_items)) < density)
    lam = 10.0 ** log_lam
    stats = {
        "plain": lambda: build_gram(x),
        "centered": lambda: build_gram(x, center=True),
        "disjoint": lambda: build_disjoint_gram(x),
        "exact": lambda: build_disjoint_gram(x, split_fraction=0.2),
    }[kind]()
    g, c = unpack(stats.g), target_of(stats)
    d = np.diag(g).max(initial=0.0) if stats.removed_diag else 0.0
    kappa_lam = stats.kappa * (lam + d)
    p_max = np.abs(invert_regularized_copying(stats.g, lam)).max()
    zero_diag = solve_zero_diag(kept(stats), lam)
    expected, gamma = general_solve(g, c, lam)
    # relative to kappa as well: centering can cancel a column to about zero
    assert np.abs(zero_diag.b - expected).max() <= 1e-10 * max(np.abs(expected).max(), stats.kappa)
    assert np.all(np.diag(zero_diag.b) == 0.0)
    # gamma = t_j/P_jj - kappa*(lambda + d_j) cancels as lambda grows too
    assert np.abs(zero_diag.gamma - gamma).max() <= 1e-10 * (np.abs(gamma).max() + kappa_lam)
    rr = solve_rr(stats, lam)
    expected, _ = general_solve(g, c, lam, zero_diag=False)
    assert np.abs(rr.b - expected).max() <= 1e-12 * (np.abs(expected).max() + kappa_lam * p_max)


def test_self_target_is_read_off_precision(rng):
    # bitwise equal to -P_ij / P_jj, which the general path's GEMM and
    # correction do not reproduce in the last bits
    x = binary_matrix(rng, 45, 11)
    stats = build_gram(x)
    assert stats.plain
    p = unpack(invert_regularized(kept(stats), 0.8).p)
    expected = -(p / np.diag(p)[np.newaxis, :])
    np.fill_diagonal(expected, 0.0)
    model = solve_zero_diag(stats, lam=0.8)
    np.testing.assert_array_equal(model.b, expected)
    np.testing.assert_array_equal(model.gamma, 1.0 / np.diag(p) - 0.8)


@pytest.mark.parametrize("solver", [solve_zero_diag, solve_rr])
@pytest.mark.parametrize("kind", ["plain", "centered", "disjoint", "exact", "user_weighted"])
def test_in_place_solve_is_bitwise_the_copying_one(rng, monkeypatch, solver, kind):
    # 300 items: the finiteness check and B's panels cross a panel boundary.
    # The reference solve runs the same solver on the copying inverse, which
    # leaves G intact but marks the statistics consumed as the solvers expect.
    x = binary_matrix(rng, 40, 300, density=0.1)
    w = rng.uniform(0.5, 2.0, 40)
    build = {
        "plain": lambda: build_gram(x),
        "centered": lambda: build_gram(x, center=True),
        "disjoint": lambda: build_disjoint_gram(x),
        "exact": lambda: build_disjoint_gram(x, split_fraction=0.05),
        "user_weighted": lambda: build_user_weighted_gram(x, w),
    }[kind]
    def copying(gram, lam):
        p = invert_regularized_copying(gram.g, lam)
        gram.g = None
        return PrecisionMatrix(p=p)

    with monkeypatch.context() as m:
        m.setattr(gramrec.solver, "invert_regularized", copying)
        copying_model = solver(build(), 3.0)
    gram = build()
    g = gram.g
    in_place = solver(gram, 3.0)
    assert in_place.b.tobytes() == copying_model.b.tobytes()
    if solver is solve_zero_diag:
        assert in_place.gamma.tobytes() == copying_model.gamma.tobytes()
    # the statistics are consumed, and the model reads B off P in G's
    # buffer for every target
    assert gram.g is None
    assert np.shares_memory(in_place.p, g)


def test_model_round_trip(tmp_path, rng):
    x = binary_matrix(rng, 20, 5)
    model = solve_zero_diag(build_gram(x), lam=3.5)
    keys = [f"item-{k}" for k in range(5)]
    path = tmp_path / "model.ease"
    save_model(path, model, item_keys=keys)
    loaded, loaded_keys = load_model(path)
    np.testing.assert_array_equal(loaded.b, model.b)
    assert loaded.variant == model.variant
    assert loaded.lam == 3.5
    assert loaded.mu is None
    assert loaded.applied_item_weights is None
    assert loaded.gamma is None  # diagnostics are not persisted
    assert loaded_keys == keys


def test_model_round_trip_with_mu_and_weights(tmp_path, rng):
    x = binary_matrix(rng, 20, 5)
    stats = build_gram(x, center=True)
    model = solve_zero_diag(stats, lam=1.0)
    weights = popularity_weights(np.arange(1.0, 6.0), alpha=0.5)
    model = replace(model, applied_item_weights=weights)
    path = tmp_path / "model.ease"
    save_model(path, model)
    loaded, keys = load_model(path)
    assert keys is None
    np.testing.assert_array_equal(loaded.mu, model.mu)
    np.testing.assert_array_equal(loaded.applied_item_weights.w, weights.w)
    assert loaded.applied_item_weights.kind == weights.kind
    assert loaded.applied_item_weights.alpha == weights.alpha


@pytest.mark.parametrize("center", [False, True])
def test_streamed_model_file_is_that_of_the_unpacked_b(tmp_path, rng, center):
    # 300 items: the trained model's file holds its read-off vectors and
    # packed P, last, as the model holds them, in about half the bytes of
    # B's n² floats, and loads, verified, to B bitwise as trained
    x = binary_matrix(rng, 40, 300, density=0.1)
    model = solve_zero_diag(build_gram(x, center=center), lam=2.0)
    keys = [f"item-{k}" for k in range(300)]
    save_model(tmp_path / "streamed.ease", model, item_keys=keys)
    held = read_container(tmp_path / "streamed.ease", "dense_model", verify=True).arrays
    assert list(held) == (["c", "v", "mu", "p"] if center else ["c", "p"])
    for name in held:
        assert held[name].tobytes() == getattr(model, name).tobytes()
    loaded, loaded_keys = load_model(tmp_path / "streamed.ease", verify=True)
    assert loaded.b.tobytes() == model.b.tobytes() and loaded_keys == keys
    assert (loaded.mu is None) == (not center)
    if center:
        assert loaded.mu.tobytes() == model.mu.tobytes()
    assert (tmp_path / "streamed.ease").stat().st_size < 0.52 * 300 * 300 * 8


TRAINED = {
    "zero_diag": lambda x: solve_zero_diag(build_gram(x), 3.0),
    "rr": lambda x: solve_rr(build_gram(x), 3.0),
    "centered": lambda x: solve_zero_diag(build_gram(x, center=True), 3.0),
    "centered_rr": lambda x: solve_rr(build_gram(x, center=True), 3.0),
    "disjoint": lambda x: solve_zero_diag(build_disjoint_gram(x), 3.0),
    "disjoint_rr": lambda x: solve_rr(build_disjoint_gram(x), 3.0),
    "rescaled": lambda x: apply_item_rescaling(solve_zero_diag(build_gram(x), 3.0),
                                               popularity_weights(x.matrix.sum(axis=0).A1, 0.5)),
    "centered_rescaled": lambda x: apply_item_rescaling(
        solve_zero_diag(build_gram(x, center=True), 3.0),
        popularity_weights(x.matrix.sum(axis=0).A1, 0.5)),
}


@pytest.mark.parametrize("kind", list(TRAINED))
def test_loaded_trained_model_forms_b_as_trained(tmp_path, rng, kind):
    """A trained model saved and loaded forms every row and column panel of B
    bitwise as the trained model did, with its means and weights intact."""
    x = binary_matrix(rng, 60, 300, density=0.1)
    model = TRAINED[kind](x)
    save_model(tmp_path / "m.ease", model)
    loaded, _ = load_model(tmp_path / "m.ease", verify=True)
    assert (loaded.variant, loaded.lam, loaded.kappa) == (model.variant, model.lam, model.kappa)
    assert loaded.b.tobytes() == model.b.tobytes()
    for lo in (0, 256):
        assert loaded.columns(lo, lo + 256).tobytes() == model.columns(lo, lo + 256).tobytes()
    assert (loaded.mu is None) == (model.mu is None)
    weights = model.applied_item_weights
    if weights is not None:
        assert loaded.applied_item_weights.w.tobytes() == weights.w.tobytes()
        assert (loaded.applied_item_weights.kind, loaded.applied_item_weights.alpha) == (
            weights.kind, weights.alpha)


@pytest.mark.parametrize("kind", list(TRAINED))
def test_b_is_read_off_p_in_one_order(rng, kind):
    """B is bitwise P_ij / c_j, plus kappa on a ridge model's diagonal,
    minus v_i*mu_j, with a zero-diagonal model's diagonal zeroed, times w_j,
    taken in that order: adding kappa after v*mu^T rounds otherwise."""
    model = TRAINED[kind](binary_matrix(rng, 60, 300, density=0.1))
    b = unpack(model.p) / model.c
    diag = np.diag_indices(model.n_items)
    if model.kappa is not None:
        b[diag] += model.kappa
    if model.v is not None:
        b -= np.outer(model.v, model.mu)
    if model.kappa is None:
        b[diag] = 0.0
    if model.applied_item_weights is not None:
        b *= model.applied_item_weights.w
    assert model.b.tobytes() == b.tobytes()


def test_rescaled_trained_model_is_the_scaled_b(rng):
    """Rescaling a model that holds P scales each panel as it is formed:
    bitwise the columns of B multiplied by w, as rescaling B gives."""
    x = binary_matrix(rng, 60, 300, density=0.1)
    model = solve_zero_diag(build_gram(x), 3.0)
    weights = popularity_weights(x.matrix.sum(axis=0).A1, 0.5)
    rescaled = apply_item_rescaling(model, weights)
    assert rescaled.p is model.p and model.applied_item_weights is None
    assert rescaled.b.tobytes() == (model.b * weights.w[np.newaxis, :]).tobytes()


def test_model_key_count_checked(tmp_path):
    with pytest.raises(DataError, match="item keys"):
        save_model(tmp_path / "m", zero_model(2), item_keys=["only-one"])


def test_model_file_rejects_corruption(tmp_path, rng):
    x = binary_matrix(rng, 10, 4)
    path = tmp_path / "model.ease"
    save_model(path, solve_zero_diag(build_gram(x), lam=1.0), item_keys=[f"k{j}" for j in range(4)])
    raw = bytearray(path.read_bytes())

    nope = tmp_path / "bad-magic"
    nope.write_bytes(b"ZZZZ" + bytes(raw[4:]))
    with pytest.raises(DataError, match="not a gramrec container"):
        load_model(nope)

    short = tmp_path / "short"
    short.write_bytes(bytes(raw[:-8]))
    with pytest.raises(DataError, match="bytes"):
        load_model(short)

    versioned = bytearray(raw)
    versioned[4] = 42
    vpath = tmp_path / "version"
    vpath.write_bytes(bytes(versioned))
    with pytest.raises(DataError, match="version"):
        load_model(vpath)
