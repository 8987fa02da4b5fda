import warnings

import numpy as np
import pytest

from gramrec import (
    DataError,
    apply_item_rescaling,
    build_gram,
    load_weights_csv,
    popularity_weights,
    save_weights_csv,
    solve_rr,
    solve_zero_diag,
    time_popularity_weights,
)
from gramrec.gram import build_user_weighted_gram
from gramrec.weighting import KIND_INVERSE_POP, KIND_TIME_ADJUSTED, KIND_UNIFORM

from conftest import binary_matrix, constrained_ridge_oracle, general_solve, gram_of, uniform_weights


def test_popularity_weights_example():
    w = popularity_weights(np.array([4.0, 1.0]), alpha=0.5, epsilon=0.0)
    np.testing.assert_allclose(w.w, [0.5, 1.0])
    assert w.kind == KIND_INVERSE_POP
    assert w.alpha == 0.5


def test_popularity_weights_alpha_zero_is_uniform():
    w = popularity_weights(np.array([9.0, 1.0, 100.0]), alpha=0.0)
    np.testing.assert_array_equal(w.w, [1.0, 1.0, 1.0])


def test_popularity_weights_zero_pop_needs_epsilon():
    pop = np.array([0.0, 2.0])
    with pytest.raises(DataError, match="positive and finite"):
        popularity_weights(pop, alpha=0.5, epsilon=0.0)
    w = popularity_weights(pop, alpha=0.5)  # default epsilon keeps it finite
    assert np.all(np.isfinite(w.w))


@pytest.mark.parametrize("pop,cause", [([0.0, 1.0], "popularity 0 with epsilon=0"),
                                       ([-4.0, 1.0], "negative popularity")])
def test_bad_weight_names_its_cause(pop, cause):
    with pytest.raises(DataError, match=cause):
        popularity_weights(np.array(pop), alpha=0.5, epsilon=0.0)


def test_alpha_range_checked():
    pop = np.ones(2)
    with pytest.raises(DataError, match="alpha"):
        popularity_weights(pop, alpha=1.5)
    with pytest.raises(DataError, match="alpha"):
        time_popularity_weights(pop, pop, alpha=-0.1)


def test_negative_epsilon_refused():
    pop = np.array([2.0, 2000.0])
    with pytest.raises(DataError, match="epsilon must be non-negative"):
        popularity_weights(pop, alpha=0.5, epsilon=-1000.0)
    with pytest.raises(DataError, match="epsilon must be non-negative"):
        time_popularity_weights(pop, pop, alpha=0.5, epsilon=-1e-12)


def test_nan_weights_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="positive and finite"):
            popularity_weights(np.array([-4.0, 1.0]), alpha=0.5, epsilon=0.0)


def test_time_weights_example():
    pop_t = np.array([1.0, 8.0])
    pop = np.array([4.0, 8.0])
    w = time_popularity_weights(pop_t, pop, alpha=0.5, epsilon=0.0)
    np.testing.assert_allclose(w.w, [0.5, 1.0])
    assert w.kind == KIND_TIME_ADJUSTED


def test_time_weights_identity_when_interval_matches_total():
    pop = np.array([3.0, 7.0, 2.0])
    w = time_popularity_weights(pop, pop, alpha=0.7)
    np.testing.assert_allclose(w.w, [1.0, 1.0, 1.0])


def test_time_weights_length_checked():
    with pytest.raises(DataError, match="length"):
        time_popularity_weights(np.ones(2), np.ones(3), 0.5)


def test_time_weights_zero_pop_needs_epsilon():
    zero = np.array([0.0, 1.0])
    with pytest.raises(DataError, match="positive and finite"):
        time_popularity_weights(zero, zero, alpha=0.5, epsilon=0.0)


def test_uniform_weights():
    w = uniform_weights(4)
    np.testing.assert_array_equal(w.w, np.ones(4))
    assert w.kind == KIND_UNIFORM
    assert w.alpha == 0.0


def test_rescaling_scales_columns(rng):
    x = binary_matrix(rng, 30, 6)
    model = solve_zero_diag(build_gram(x), lam=1.0)
    w = popularity_weights(np.arange(1.0, 7.0), alpha=0.5)
    rescaled = apply_item_rescaling(model, w)
    np.testing.assert_allclose(rescaled.b, model.b * w.w[np.newaxis, :])
    np.testing.assert_allclose(rescaled.gamma, model.gamma * w.w)
    assert rescaled.applied_item_weights is w
    assert np.all(np.diag(rescaled.b) == 0.0)
    # original untouched
    assert model.applied_item_weights is None


def test_rescaling_equals_retraining_on_scaled_targets(rng):
    xd = (rng.random((40, 7)) < 0.4).astype(np.float64)
    lam = 0.8
    w = popularity_weights(xd.sum(axis=0), alpha=0.5)
    rescaled = apply_item_rescaling(solve_zero_diag(gram_of(xd), lam), w)
    # retrained on the column-scaled target by the general P*C oracle
    b, gamma = general_solve(xd.T @ xd, xd.T @ (xd * w.w[np.newaxis, :]), lam)
    np.testing.assert_allclose(rescaled.b, b, atol=1e-12)
    np.testing.assert_allclose(rescaled.gamma, gamma, atol=1e-12)


def test_rescaling_matches_constrained_oracle(rng):
    xd = (rng.random((35, 6)) < 0.45).astype(np.float64)
    lam = 1.2
    w = popularity_weights(xd.sum(axis=0), alpha=0.5)
    rescaled = apply_item_rescaling(solve_zero_diag(gram_of(xd), lam), w)
    oracle = constrained_ridge_oracle(xd, xd * w.w[np.newaxis, :], lam)
    np.testing.assert_allclose(rescaled.b, oracle, atol=1e-9)


def test_rescaling_with_unit_weights_is_identity(rng):
    x = binary_matrix(rng, 20, 5)
    model = solve_zero_diag(build_gram(x), lam=2.0)
    rescaled = apply_item_rescaling(model, uniform_weights(5))
    np.testing.assert_array_equal(rescaled.b, model.b)


def test_rescaling_refuses_unconstrained_variant(rng):
    x = binary_matrix(rng, 20, 5)
    model = solve_rr(build_gram(x), lam=1.0)
    with pytest.raises(DataError, match="zero-diagonal"):
        apply_item_rescaling(model, uniform_weights(5))


def test_rescaling_refuses_double_application(rng):
    x = binary_matrix(rng, 20, 5)
    model = solve_zero_diag(build_gram(x), lam=1.0)
    once = apply_item_rescaling(model, uniform_weights(5))
    with pytest.raises(DataError, match="already carries"):
        apply_item_rescaling(once, uniform_weights(5))


def test_rescaling_length_checked(rng):
    x = binary_matrix(rng, 20, 5)
    model = solve_zero_diag(build_gram(x), lam=1.0)
    with pytest.raises(DataError, match="weights"):
        apply_item_rescaling(model, uniform_weights(4))


def test_constant_user_weights_shift_lambda(rng):
    # scaling every user's error by c is the same problem with lambda/c
    x = binary_matrix(rng, 25, 6)
    plain = solve_zero_diag(build_gram(x), lam=1.0)
    weighted_stats = build_user_weighted_gram(x, np.full(25, 4.0))
    weighted = solve_zero_diag(weighted_stats, lam=4.0)
    np.testing.assert_allclose(weighted.b, plain.b, atol=1e-12)


def test_weights_csv_round_trip(tmp_path):
    w = popularity_weights(np.array([10.0, 3.0, 1.0]), alpha=0.5)
    keys = ["a", "b", "c"]
    path = tmp_path / "weights.csv"
    save_weights_csv(path, w, keys)
    loaded = load_weights_csv(path, {"a": 0, "b": 1, "c": 2})
    np.testing.assert_array_equal(loaded.w, w.w)  # repr round-trips exactly
    assert loaded.kind == w.kind
    assert loaded.alpha == w.alpha


def test_weights_csv_reorders_by_index(tmp_path):
    w = uniform_weights(2)
    w.w[0] = 2.0
    save_weights_csv(tmp_path / "w.csv", w, ["first", "second"])
    loaded = load_weights_csv(tmp_path / "w.csv", {"second": 0, "first": 1})
    np.testing.assert_array_equal(loaded.w, [1.0, 2.0])


def test_weights_csv_headerless_defaults(tmp_path):
    path = tmp_path / "manual.csv"
    path.write_text("item,weight\nx,0.5\ny,2.0\n")
    loaded = load_weights_csv(path, {"x": 0, "y": 1})
    np.testing.assert_array_equal(loaded.w, [0.5, 2.0])
    assert loaded.kind == KIND_UNIFORM
    assert loaded.alpha == 0.0


def test_weights_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("item,weight\nx,0.5\n")
    with pytest.raises(DataError, match="no weight"):
        load_weights_csv(path, {"x": 0, "y": 1})

    path.write_text("item,weight\nmystery,0.5\n")
    with pytest.raises(DataError, match="unknown item"):
        load_weights_csv(path, {"x": 0})

    path.write_text("item,weight\nx,zero\n")
    with pytest.raises(DataError, match="not a number"):
        load_weights_csv(path, {"x": 0})

    path.write_text("item,weight\nx,-1.0\n")
    with pytest.raises(DataError, match="positive"):
        load_weights_csv(path, {"x": 0})

    path.write_text("wrong,header\nx,1.0\n")
    with pytest.raises(DataError, match="header"):
        load_weights_csv(path, {"x": 0})

    path.write_text("# kind=bogus alpha=0.5\nitem,weight\nx,1.0\n")
    with pytest.raises(DataError, match="unknown weight kind"):
        load_weights_csv(path, {"x": 0})

    save_keys_mismatch = uniform_weights(2)
    with pytest.raises(DataError, match="item keys"):
        save_weights_csv(tmp_path / "out.csv", save_keys_mismatch, ["only"])
