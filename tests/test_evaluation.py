import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gramrec import (
    DataError,
    DenseModel,
    EvalReport,
    PopularityScorer,
    PopularityVector,
    SplitSpec,
    UserItemMatrix,
    apply_item_rescaling,
    build_gram,
    evaluate_model,
    evaluate_time_aware,
    grid_search_lambda,
    mask_model,
    popularity,
    popularity_rank,
    popularity_weights,
    score_histories,
    solve_rr,
    solve_zero_diag,
    threshold_pattern,
    time_intervals,
    to_user_item_matrix,
    uniform_weights,
)
import gramrec.evaluation as evaluation
from gramrec.data import fold_in_indices
from gramrec.solver import VARIANT_RR, VARIANT_ZERO_DIAG

from conftest import (
    evaluate_model_reference,
    evaluate_time_aware_reference,
    make_iset,
    ndcg_at_k,
    recall_at_k,
)


def test_recall_examples():
    ranked = np.array([3, 1, 2, 0])
    assert recall_at_k(ranked, np.array([1]), 2) == 1.0
    assert recall_at_k(ranked, np.array([1, 0]), 2) == 0.5
    assert recall_at_k(ranked, np.array([0]), 2) == 0.0
    # denominator is min(k, |held|): 2 hits out of k=2 with 3 held
    assert recall_at_k(np.array([5, 4, 0, 1, 2]), np.array([4, 5, 0]), 2) == 1.0


def test_ndcg_examples():
    ranked = np.array([3, 1, 2, 0])
    assert ndcg_at_k(ranked, np.array([3]), 10) == 1.0
    assert ndcg_at_k(ranked, np.array([1]), 10) == pytest.approx(1.0 / np.log2(3.0))
    assert ndcg_at_k(ranked, np.array([3, 1]), 10) == 1.0  # hits fill the top
    assert ndcg_at_k(ranked, np.array([0]), 2) == 0.0  # hit beyond the cutoff


def test_metrics_reject_empty_held_out():
    with pytest.raises(DataError, match="empty"):
        recall_at_k(np.arange(3), np.array([]), 2)
    with pytest.raises(DataError, match="empty"):
        ndcg_at_k(np.arange(3), np.array([]), 2)


def test_popularity_rank_stable_ties():
    pop = PopularityVector(np.array([3.0, 5.0, 5.0, 1.0]))
    np.testing.assert_array_equal(popularity_rank(pop), [1, 2, 0, 3])


def test_score_histories_kinds(rng):
    xin = sp.csr_matrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    b = rng.random((3, 3))
    dense = DenseModel(b=b, variant=VARIANT_ZERO_DIAG, lam=1.0)
    np.testing.assert_allclose(score_histories(dense, xin), xin.toarray() @ b)

    mu = np.array([0.1, 0.2, 0.3])
    centered = DenseModel(b=b, variant=VARIANT_ZERO_DIAG, lam=1.0, mu=mu)
    np.testing.assert_allclose(score_histories(centered, xin), xin.toarray() @ b + mu)

    pop = PopularityScorer(PopularityVector(np.array([5.0, 1.0, 3.0])))
    scores = score_histories(pop, xin)
    np.testing.assert_array_equal(scores, [[5.0, 1.0, 3.0], [5.0, 1.0, 3.0]])


def test_score_histories_single_item_reads_row():
    b = np.array([[0.0, 0.3, 0.1], [0.2, 0.0, 0.4], [0.6, 0.5, 0.0]])
    model = DenseModel(b=b, variant=VARIANT_ZERO_DIAG, lam=1.0)
    xin = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [2.0, 0.0, 1.0]]))
    scores = score_histories(model, xin)
    np.testing.assert_array_equal(scores[0], b[1])
    np.testing.assert_allclose(scores[1], b[0] + b[2])
    np.testing.assert_allclose(scores[2], 2.0 * b[0] + b[2])


def test_score_histories_empty_history_and_mu():
    xin = sp.csr_matrix((1, 2))
    model = DenseModel(b=np.zeros((2, 2)), variant=VARIANT_RR, lam=1.0, mu=np.array([0.25, 0.75]))
    np.testing.assert_array_equal(score_histories(model, xin), [[0.25, 0.75]])
    plain = DenseModel(b=np.zeros((2, 2)), variant=VARIANT_RR, lam=1.0)
    np.testing.assert_array_equal(score_histories(plain, xin), [[0.0, 0.0]])


def eval_setup(seed=0, n_users=30, n_items=12, lam=1.0):
    r = np.random.default_rng(97)
    events = []
    for u in range(n_users):
        items = r.choice(n_items, size=int(r.integers(5, 10)), replace=False)
        for it in items:
            events.append((u, int(it), 1.0))
    iset = make_iset(events, n_items=n_items)
    matrix = to_user_item_matrix(iset)
    split = SplitSpec(
        train_users=np.arange(0, 18),
        validation_users=np.arange(18, 22),
        test_users=np.arange(22, n_users),
        fold_in_fraction=0.8,
        seed=seed,
    )
    tm = matrix.restrict_users(split.train_users)
    model = solve_zero_diag(build_gram(tm), lam=lam)
    return model, matrix, split, iset


def test_perfect_model_scores_one():
    # three users with disjoint item ranges; the model maps each user's
    # fold-in items straight to their held-out items
    n_items = 30
    events = []
    for u, base in enumerate((0, 10, 20)):
        for j in range(8):
            events.append((u, base + j, 1.0))
    iset = make_iset(events, n_items=n_items)
    matrix = to_user_item_matrix(iset)
    split = SplitSpec(
        train_users=np.array([], dtype=np.int64),
        validation_users=np.array([], dtype=np.int64),
        test_users=np.array([0, 1, 2]),
        fold_in_fraction=0.8,
        seed=11,
    )
    b = np.zeros((n_items, n_items))
    csr = matrix.matrix
    for u in (0, 1, 2):
        ids = csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
        rng = np.random.default_rng((split.seed, u))
        pin, pout = fold_in_indices(len(ids), split.fold_in_fraction, rng)
        b[np.ix_(ids[pin], ids[pout])] = 1.0
    model = DenseModel(b=b, variant=VARIANT_ZERO_DIAG, lam=1.0)
    report = evaluate_model(model, matrix, split)
    for mean, stderr in report.metrics.values():
        assert mean == 1.0
        assert stderr == 0.0
    assert report.n_users == 3
    assert report.n_skipped == 0


def test_constant_scores_rank_by_ascending_id():
    # a symmetric two-item history: whichever event folds in, the scores put
    # items 0 and 1 on top and the held-out item at position 8
    n_items = 10
    events = [(0, 8, 1.0), (0, 9, 1.0)]
    iset = make_iset(events, n_items=n_items)
    matrix = to_user_item_matrix(iset)
    split = SplitSpec(
        train_users=np.array([], dtype=np.int64),
        validation_users=np.array([], dtype=np.int64),
        test_users=np.array([0]),
        fold_in_fraction=0.5,
        seed=0,
    )
    b = np.zeros((n_items, n_items))
    b[8, 0] = b[8, 1] = 1.0
    b[9, 0] = b[9, 1] = 1.0
    model = DenseModel(b=b, variant=VARIANT_ZERO_DIAG, lam=1.0)
    report = evaluate_model(model, matrix, split, recall_ks=(5, 9), ndcg_k=10)
    assert report.metrics["recall@5"][0] == 0.0
    assert report.metrics["recall@9"][0] == 1.0
    assert report.metrics["ndcg@10"][0] == pytest.approx(1.0 / np.log2(10.0))


def test_popularity_baseline_matches_manual_protocol():
    model, matrix, split, _ = eval_setup()
    pop = popularity(matrix, split.train_users)
    report = evaluate_model(PopularityScorer(pop), matrix, split, recall_ks=(3, 5), ndcg_k=6)

    per_metric = {"recall@3": [], "recall@5": [], "ndcg@6": []}
    csr = matrix.matrix
    for u in split.test_users:
        ids = csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
        rng = np.random.default_rng((split.seed, int(u)))
        pin, pout = fold_in_indices(len(ids), split.fold_in_fraction, rng)
        if pout.size == 0:
            continue
        scores = pop.pop.astype(np.float64).copy()
        scores[ids[pin]] = -np.inf
        ranked = np.argsort(-scores, kind="stable")
        per_metric["recall@3"].append(recall_at_k(ranked, ids[pout], 3))
        per_metric["recall@5"].append(recall_at_k(ranked, ids[pout], 5))
        per_metric["ndcg@6"].append(ndcg_at_k(ranked, ids[pout], 6))
    for name, vals in per_metric.items():
        arr = np.asarray(vals)
        assert report.metrics[name][0] == pytest.approx(arr.mean(), abs=1e-15)
        expected_se = arr.std(ddof=1) / np.sqrt(len(arr))
        assert report.metrics[name][1] == pytest.approx(expected_se, abs=1e-15)
    assert report.config["model"] == "popularity"


def test_evaluation_deterministic_and_seed_sensitive():
    model, matrix, split, _ = eval_setup()
    a = evaluate_model(model, matrix, split)
    b = evaluate_model(model, matrix, split)
    assert a.to_json() == b.to_json()
    c = evaluate_model(model, matrix, replace(split, seed=123))
    assert a.metrics != c.metrics
    assert c.config["seed"] == 123


def test_evaluation_scale_invariant_ranking():
    model, matrix, split, _ = eval_setup()
    scaled = DenseModel(b=3.0 * model.b, variant=model.variant, lam=model.lam)
    a = evaluate_model(model, matrix, split)
    b = evaluate_model(scaled, matrix, split)
    assert a.metrics == b.metrics


def test_sparse_full_pattern_matches_dense_report():
    model, matrix, split, _ = eval_setup()
    pattern = threshold_pattern(np.ones((model.n_items, model.n_items)), theta=0.5)
    masked = mask_model(model, pattern)
    dense_report = evaluate_model(model, matrix, split)
    sparse_report = evaluate_model(masked, matrix, split)
    assert dense_report.metrics == sparse_report.metrics
    assert sparse_report.config["model"] == "sparse"


def test_sparse_model_converted_to_csr_once():
    # csr @ csc converts the csc operand; evaluation converts the model once
    # up front instead of once per score batch, with the same report
    model, matrix, split, _ = eval_setup(n_users=60)
    masked = mask_model(model, threshold_pattern(np.ones((model.n_items, model.n_items)), 0.5))
    expected = evaluate_model(masked, matrix, split).to_json()
    tocsr = sp.csc_matrix.tocsr
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(self.shape)
        return tocsr(self, *args, **kwargs)

    with with_chunk(2 * model.n_items), mock.patch.object(sp.csc_matrix, "tocsr", counted):
        report = evaluate_model(masked, matrix, split)
    assert calls == [masked.values.shape]
    assert report.to_json() == expected


def test_skipped_users_counted():
    events = [(0, j, 1.0) for j in range(6)] + [(1, 3, 1.0)]
    iset = make_iset(events, n_items=8)
    matrix = to_user_item_matrix(iset)
    split = SplitSpec(
        train_users=np.array([], dtype=np.int64),
        validation_users=np.array([], dtype=np.int64),
        test_users=np.array([0, 1]),
        fold_in_fraction=0.8,
        seed=0,
    )
    model = DenseModel(b=np.zeros((8, 8)), variant=VARIANT_ZERO_DIAG, lam=1.0)
    report = evaluate_model(model, matrix, split)
    assert report.n_users == 1
    assert report.n_skipped == 1


def test_all_users_skipped_is_an_error():
    events = [(0, 3, 1.0), (1, 4, 1.0)]
    iset = make_iset(events, n_items=8)
    matrix = to_user_item_matrix(iset)
    split = SplitSpec(
        train_users=np.array([], dtype=np.int64),
        validation_users=np.array([], dtype=np.int64),
        test_users=np.array([0, 1]),
        fold_in_fraction=0.8,
        seed=0,
    )
    model = DenseModel(b=np.zeros((8, 8)), variant=VARIANT_ZERO_DIAG, lam=1.0)
    with pytest.raises(DataError, match="evaluable"):
        evaluate_model(model, matrix, split)


def test_evaluation_validation_users_and_errors():
    model, matrix, split, _ = eval_setup()
    val_report = evaluate_model(model, matrix, split, users="validation")
    assert val_report.config["users"] == "validation"
    assert val_report.n_users + val_report.n_skipped == len(split.validation_users)

    with pytest.raises(DataError, match="users"):
        evaluate_model(model, matrix, split, users="everyone")
    small = DenseModel(b=np.zeros((3, 3)), variant=VARIANT_ZERO_DIAG, lam=1.0)
    with pytest.raises(DataError, match="items"):
        evaluate_model(small, matrix, split)
    bad_split = SplitSpec(
        train_users=split.train_users,
        validation_users=split.validation_users,
        test_users=split.test_users,
        fold_in_fraction=1.5,
        seed=0,
    )
    with pytest.raises(DataError, match="fraction"):
        evaluate_model(model, matrix, bad_split)


def test_single_user_stderr_is_zero():
    events = [(0, j, 1.0) for j in range(6)]
    iset = make_iset(events, n_items=8)
    matrix = to_user_item_matrix(iset)
    split = SplitSpec(
        train_users=np.array([], dtype=np.int64),
        validation_users=np.array([], dtype=np.int64),
        test_users=np.array([0]),
        fold_in_fraction=0.8,
        seed=0,
    )
    model = DenseModel(b=np.zeros((8, 8)), variant=VARIANT_ZERO_DIAG, lam=1.0)
    report = evaluate_model(model, matrix, split)
    assert all(stderr == 0.0 for _, stderr in report.metrics.values())


def timed_setup():
    r = np.random.default_rng(99)
    events, stamps = [], []
    n_users, n_items = 40, 12
    for u in range(n_users):
        items = r.choice(n_items, size=int(r.integers(5, 10)), replace=False)
        for it in items:
            events.append((u, int(it), 1.0))
            stamps.append(int(r.integers(0, 10_000)))
    iset = make_iset(events, n_items=n_items, timestamps=stamps)
    matrix = to_user_item_matrix(iset)
    split = SplitSpec(
        train_users=np.arange(0, 25),
        validation_users=np.arange(25, 30),
        test_users=np.arange(30, 40),
        fold_in_fraction=0.8,
        seed=0,
    )
    tm = matrix.restrict_users(split.train_users)
    model = solve_zero_diag(build_gram(tm), lam=1.0)
    return model, matrix, split, iset


def test_time_aware_single_interval_equals_plain():
    model, matrix, split, iset = timed_setup()
    plain = evaluate_model(model, matrix, split, recall_ks=(3, 5), ndcg_k=6)
    idx = time_intervals(iset, 1, split.train_users)
    timed = evaluate_time_aware(
        model, iset, split, matrix, idx, alpha=0.5, recall_ks=(3, 5), ndcg_k=6
    )
    assert plain.metrics == timed.metrics  # bit-for-bit, not approximately
    assert plain.n_users == timed.n_users
    assert 0.0 < plain.metrics["recall@3"][0] < 1.0  # the comparison is non-trivial


def test_time_aware_alpha_zero_equals_plain():
    model, matrix, split, iset = timed_setup()
    plain = evaluate_model(model, matrix, split, recall_ks=(3, 5), ndcg_k=6)
    idx = time_intervals(iset, 5, split.train_users)
    timed = evaluate_time_aware(
        model, iset, split, matrix, idx, alpha=0.0, recall_ks=(3, 5), ndcg_k=6
    )
    assert plain.metrics == timed.metrics


def test_time_aware_weighting_changes_ranks():
    model, matrix, split, iset = timed_setup()
    idx = time_intervals(iset, 5, split.train_users)
    a = evaluate_time_aware(model, iset, split, matrix, idx, alpha=0.0, recall_ks=(3,), ndcg_k=6)
    b = evaluate_time_aware(model, iset, split, matrix, idx, alpha=1.0, recall_ks=(3,), ndcg_k=6)
    assert a.metrics != b.metrics
    assert b.config["n_intervals"] == 5
    assert "note" in b.config


def test_time_aware_rank_collisions_clamped():
    # two held-out events, each ranked first under its own interval's
    # weights; without the cap recall@1 would be 2.0 and ndcg@2 about 1.23
    fold_rng = np.random.default_rng((0, 4))
    pos_in, pos_out = fold_in_indices(4, 0.5, fold_rng)
    np.testing.assert_array_equal(pos_in, [1, 2])
    np.testing.assert_array_equal(pos_out, [0, 3])

    out0, out1 = 0, 3
    events = [
        (0, out0, 1.0),
        (1, out0, 1.0),
        (2, out1, 1.0),
        (3, out1, 1.0),
    ]
    stamps = [0, 20, 80, 100]
    ts_user = {out0: 10, 1: 50, 2: 50, out1: 90}
    for item in range(4):
        events.append((4, item, 1.0))
        stamps.append(ts_user[item])
    iset = make_iset(events, n_items=4, timestamps=stamps)
    split = SplitSpec(
        train_users=np.arange(4),
        validation_users=np.array([], dtype=np.int64),
        test_users=np.array([4]),
        fold_in_fraction=0.5,
        seed=0,
    )
    idx = time_intervals(iset, 2, split.train_users)
    np.testing.assert_array_equal(idx.pops, [[2, 0, 0, 0], [0, 0, 0, 2]])

    b = np.zeros((4, 4))
    b[np.ix_([1, 2], [out0, out1])] = 0.5
    model = DenseModel(b=b, variant=VARIANT_ZERO_DIAG, lam=1.0)
    report = evaluate_time_aware(
        model, iset, split, to_user_item_matrix(iset), idx, alpha=1.0, recall_ks=(1,), ndcg_k=2
    )
    assert report.metrics["recall@1"][0] == 1.0
    assert report.metrics["ndcg@2"][0] == 1.0
    assert report.n_users == 1


def test_time_aware_input_validation():
    model, matrix, split, iset = timed_setup()
    idx = time_intervals(iset, 2, split.train_users)

    rr = solve_rr(build_gram(matrix), lam=1.0)
    with pytest.raises(DataError, match="zero-diagonal"):
        evaluate_time_aware(rr, iset, split, matrix, idx, alpha=0.5)

    weighted = apply_item_rescaling(model, uniform_weights(model.n_items))
    with pytest.raises(DataError, match="unweighted"):
        evaluate_time_aware(weighted, iset, split, matrix, idx, alpha=0.5)

    bare = make_iset([(0, 0, 1.0), (0, 1, 1.0)])
    with pytest.raises(DataError, match="timestamp"):
        evaluate_time_aware(model, bare, split, matrix, idx, alpha=0.5)

    with pytest.raises(DataError, match="matrix is"):
        evaluate_time_aware(model, iset, split, matrix.restrict_users([0, 1]), idx, alpha=0.5)
    extra = matrix.matrix.tolil()
    extra[0, np.flatnonzero(matrix.matrix[0].toarray().ravel() == 0)[0]] = 1.0
    with pytest.raises(DataError, match="not events"):
        evaluate_time_aware(model, iset, split, UserItemMatrix(extra.tocsr(), True), idx, alpha=0.5)


def test_time_aware_folds_the_matrix_rows():
    """Events the matrix does not store (zero values) are not folded, and the
    rest keep their own timestamps: one interval reproduces evaluate_model,
    and five match the reference run on the log without those events."""
    model, matrix, split, iset = timed_setup()
    values = iset.values.copy()
    values[::7] = 0.0
    iset = replace(iset, values=values)
    matrix = to_user_item_matrix(iset)
    assert matrix.matrix.nnz < iset.n_events
    kwargs = dict(alpha=0.5, recall_ks=(3, 5), ndcg_k=6)
    plain = evaluate_model(model, matrix, split, recall_ks=(3, 5), ndcg_k=6)
    timed = evaluate_time_aware(model, iset, split, matrix,
                                time_intervals(iset, 1, split.train_users), **kwargs)
    assert plain.metrics == timed.metrics
    assert (plain.n_users, plain.n_skipped) == (timed.n_users, timed.n_skipped)

    idx = time_intervals(iset, 5, split.train_users)
    kept = values != 0.0
    stored = replace(iset, user_ids=iset.user_ids[kept], item_ids=iset.item_ids[kept],
                     values=values[kept], timestamps=iset.timestamps[kept])
    assert (evaluate_time_aware(model, iset, split, matrix, idx, **kwargs).to_json()
            == evaluate_time_aware_reference(model, stored, split, idx, **kwargs).to_json())


def grid_setup():
    rng = np.random.default_rng(4)
    events = []
    n_hubs, n_genres, genre_size = 4, 6, 4
    n_items = n_hubs + n_genres * genre_size

    def add_user(u):
        hubs = rng.choice(n_hubs, size=2, replace=False)
        for h in hubs:
            events.append((u, int(h), 1.0))
        g = int(rng.integers(n_genres))
        picks = rng.choice(genre_size, size=2, replace=False)
        for p in picks:
            events.append((u, n_hubs + g * genre_size + int(p), 1.0))

    for u in range(12):
        add_user(u)
    for u in range(12, 28):
        add_user(u)
    iset = make_iset(events, n_items=n_items)
    matrix = to_user_item_matrix(iset)
    split = SplitSpec(
        train_users=np.arange(12),
        validation_users=np.arange(12, 28),
        test_users=np.array([], dtype=np.int64),
        fold_in_fraction=0.75,
        seed=0,
    )
    tm = matrix.restrict_users(split.train_users)
    return lambda: build_gram(tm), matrix, split


def test_grid_search_interior_lambda_wins():
    # too little regularization memorizes which genre-mates co-occurred in
    # the small training set; too much collapses to co-occurrence counts
    # dominated by the hub items
    build, matrix, split = grid_setup()
    lams = [1e-6, 1e-3, 0.1, 1.0, 10.0, 1e5]
    best, reports, _ = grid_search_lambda(build, matrix, split, lams, metric="ndcg@100")
    assert best == 1.0
    curve = [reports[l].metrics["ndcg@100"][0] for l in lams]
    assert curve[3] > curve[0]
    assert curve[3] > curve[-1]
    assert set(reports) == set(lams)
    assert all(r.config["users"] == "validation" for r in reports.values())


def test_grid_search_tie_goes_to_smallest_lambda():
    # recall@20 saturates at 1.0 on a 6-item catalog, so every lambda ties
    r = np.random.default_rng(7)
    events = []
    for u in range(12):
        items = r.choice(6, size=int(r.integers(3, 6)), replace=False)
        for it in items:
            events.append((u, int(it), 1.0))
    iset = make_iset(events, n_items=6)
    matrix6 = to_user_item_matrix(iset)
    split6 = SplitSpec(
        train_users=np.arange(8),
        validation_users=np.arange(8, 12),
        test_users=np.array([], dtype=np.int64),
        fold_in_fraction=0.8,
        seed=0,
    )
    tm = matrix6.restrict_users(split6.train_users)
    best, reports, _ = grid_search_lambda(
        lambda: build_gram(tm), matrix6, split6, [8.0, 2.0, 4.0], metric="recall@20"
    )
    assert all(r.metrics["recall@20"][0] == 1.0 for r in reports.values())
    assert best == 2.0


def test_grid_search_validation():
    build, matrix, split = grid_setup()
    with pytest.raises(DataError, match="empty"):
        grid_search_lambda(build, matrix, split, [])
    for lams in ([1.0, -2.0], [1.0, np.nan], [np.inf]):
        with pytest.raises(DataError, match="positive and finite"):
            grid_search_lambda(build, matrix, split, lams)
    with pytest.raises(DataError, match="metric"):
        grid_search_lambda(build, matrix, split, [1.0], metric="auc")


def test_report_serialization():
    report = EvalReport(
        metrics={"recall@20": (0.25, 0.01), "ndcg@100": (0.5, 0.02)},
        n_users=7,
        n_skipped=1,
        config={"model": "dense", "lambda": 2.0},
    )
    doc = json.loads(report.to_json())
    assert doc["metrics"]["recall@20"]["mean"] == 0.25
    assert doc["n_users"] == 7
    assert doc["n_skipped"] == 1
    assert doc["config"]["lambda"] == 2.0
    assert report.to_json() == report.to_json()
    text = report.to_text()
    assert "recall@20" in text
    assert "evaluated 7 users, skipped 1" in text


@st.composite
def eval_cases(draw):
    """A small event log with timestamps, a fold-in split and cutoffs.  Row
    sizes include 0, 1 and 2 events; cutoffs can exceed the item count."""
    n_items = draw(st.integers(1, 9))
    sizes = draw(st.lists(st.integers(0, n_items), min_size=1, max_size=12))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ratings = draw(st.booleans())
    events, stamps = [], []
    for u, size in enumerate(sizes):
        for it in r.choice(n_items, size, replace=False):
            events.append((u, int(it), float(r.integers(1, 6)) if ratings else 1.0))
            stamps.append(int(r.integers(0, 5)))
    if not events:
        events, stamps = [(0, 0, 1.0)], [0]
    iset = make_iset(events, n_users=len(sizes), n_items=n_items, timestamps=stamps)
    split = SplitSpec(
        train_users=np.array([], dtype=np.int64),
        validation_users=np.array([], dtype=np.int64),
        test_users=np.arange(len(sizes)),
        fold_in_fraction=draw(st.sampled_from([0.3, 0.5, 0.8])),
        seed=draw(st.integers(0, 1000)),
    )
    recall_ks = tuple(draw(st.lists(st.integers(1, n_items + 3), min_size=1, max_size=3,
                                    unique=True)))
    ndcg_k = draw(st.integers(1, n_items + 3))
    chunk = draw(st.sampled_from([None, 1, n_items + 1, 2 * n_items + 3]))
    return iset, split, recall_ks, ndcg_k, chunk, r


def integer_b(r, n, nan: bool):
    """Small integers (exact sums in any order, many ties), optionally with NaNs."""
    b = r.integers(-2, 3, (n, n)).astype(np.float64)
    np.fill_diagonal(b, 0.0)
    if nan:
        b[r.random((n, n)) < 0.15] = np.nan
    return b


def reports_or_errors(*calls):
    out = []
    for call in calls:
        try:
            out.append(call().to_json())
        except DataError as exc:
            out.append(f"DataError: {exc}")
    return out


def with_chunk(chunk):
    return mock.patch.object(evaluation, "_CHUNK", chunk if chunk else evaluation._CHUNK)


@settings(max_examples=300, deadline=None)
@given(eval_cases(), st.sampled_from(["float", "integer", "nan", "mu", "weights", "sparse",
                                      "popularity", "popularity-flat"]))
def test_evaluate_model_matches_per_user_sort(case, kind):
    iset, split, recall_ks, ndcg_k, chunk, r = case
    matrix = to_user_item_matrix(iset)
    n = iset.n_items
    b = r.standard_normal((n, n)) if kind in ("float", "weights", "sparse") else (
        integer_b(r, n, nan=kind == "nan"))
    model = DenseModel(b=b, variant=VARIANT_ZERO_DIAG, lam=1.0,
                       mu=r.standard_normal(n) if kind == "mu" else None)
    if kind == "weights":
        model = apply_item_rescaling(
            model, popularity_weights(popularity(matrix), alpha=0.5))
    elif kind == "sparse":
        model = mask_model(model, threshold_pattern(r.random((n, n)), theta=0.7))
    elif kind.startswith("popularity"):
        pop = popularity(matrix) if kind == "popularity" else PopularityVector(np.ones(n))
        model = PopularityScorer(pop)
    kwargs = dict(recall_ks=recall_ks, ndcg_k=ndcg_k)
    with with_chunk(chunk):
        got, expected = reports_or_errors(
            lambda: evaluate_model(model, matrix, split, **kwargs),
            lambda: evaluate_model_reference(model, matrix, split, **kwargs),
        )
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(eval_cases(), st.integers(1, 4), st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from(["integer", "nan", "mu"]), st.booleans())
def test_evaluate_time_aware_matches_per_event_sort(case, n_intervals, alpha, kind, binarize):
    iset, split, recall_ks, ndcg_k, chunk, r = case
    n = iset.n_items
    model = DenseModel(b=integer_b(r, n, nan=kind == "nan"), variant=VARIANT_ZERO_DIAG,
                       lam=1.0, mu=r.integers(-2, 3, n).astype(np.float64) if kind == "mu" else None)
    idx = time_intervals(iset, n_intervals, split.test_users)
    matrix = to_user_item_matrix(iset, binarize=binarize)
    # the reference folds the log's own values, so it gets the binarized log
    ref_iset = replace(iset, values=np.ones_like(iset.values)) if binarize else iset
    kwargs = dict(alpha=alpha, recall_ks=recall_ks, ndcg_k=ndcg_k)
    with with_chunk(chunk):
        got, expected = reports_or_errors(
            lambda: evaluate_time_aware(model, iset, split, matrix, idx, **kwargs),
            lambda: evaluate_time_aware_reference(model, ref_iset, split, idx, **kwargs),
        )
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_ranks_are_stable_descending_sort_positions(n, n_events, seed, special):
    """rank = position in argsort(-s, kind="stable") + 1, NaN and ±inf included."""
    r = np.random.default_rng(seed)
    pool = [0.0, 1.0, 2.0] + ([np.nan, np.inf, -np.inf] if special else [])
    rows = np.sort(r.integers(0, 3, n_events))
    items = r.integers(0, n, n_events)
    xin = sp.csr_matrix((3, n))
    folds = evaluation._Folds([evaluation._Batch(xin, rows, items, np.arange(n_events))],
                              n, 0, {})
    table = r.choice(pool, (3, n))
    model = PopularityScorer(PopularityVector(np.ones(n)))
    with with_chunk(int(r.integers(1, 2 * n + 2))):
        ranks = evaluation._rank_held_out(model, folds, (table, rows), None)
    for rank, row, item in zip(ranks, rows, items):
        order = np.argsort(-table[row], kind="stable")
        assert rank == 1 + np.flatnonzero(order == item)[0]


def test_engine_metrics_match_public_metric_functions():
    """recall_at_k and ndcg_at_k read off the sorted row give the engine's
    per-user values."""
    model, matrix, split, _ = eval_setup()
    csr = matrix.matrix
    folds = evaluation._draw_folds(csr.indptr, csr.indices, csr.data, matrix.n_items, split,
                                   "test")
    ranks = evaluation._rank_held_out(model, folds)
    batch = folds.batches[0]
    scores = score_histories(model, batch.xin)
    for row in range(batch.xin.shape[0]):
        scores[row, batch.xin.indices[batch.xin.indptr[row]:batch.xin.indptr[row + 1]]] = -np.inf
        ranked = np.argsort(-scores[row], kind="stable")
        held = batch.items[batch.rows == row]
        mine = ranks[: len(batch.rows)][batch.rows == row]
        for k in (1, 3, 20):
            assert recall_at_k(ranked, held, k) == np.count_nonzero(mine <= k) / min(k, len(held))
        top = np.sort(mine[mine <= 5])
        expected_ndcg = np.sum(1.0 / np.log2(top + 1.0)) / np.sum(
            1.0 / np.log2(np.arange(min(5, len(held))) + 2.0))
        assert ndcg_at_k(ranked, held, 5) == expected_ndcg


def test_metric_cutoffs_must_be_positive():
    model, matrix, split, iset = timed_setup()
    with pytest.raises(DataError, match="cutoffs"):
        evaluate_model(model, matrix, split, recall_ks=(0, 20))
    idx = time_intervals(iset, 2, split.train_users)
    with pytest.raises(DataError, match="cutoffs"):
        evaluate_time_aware(model, iset, split, matrix, idx, alpha=0.5, ndcg_k=0)


def test_grid_search_draws_folds_once():
    build, matrix, split = grid_setup()
    with mock.patch.object(evaluation, "_draw_folds", wraps=evaluation._draw_folds) as draw:
        _, reports, _ = grid_search_lambda(build, matrix, split, [0.1, 1.0, 10.0])
    assert draw.call_count == 1
    for lam, report in reports.items():
        expected = evaluate_model(solve_zero_diag(build(), lam), matrix, split, users="validation")
        assert report.to_json() == expected.to_json()
