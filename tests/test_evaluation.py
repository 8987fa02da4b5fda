import json
from contextlib import ExitStack
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
    SplitSpec,
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
)
import gramrec.evaluation as evaluation
from gramrec.data import fold_in_indices
from gramrec.packed import pack, size
from gramrec.weighting import KIND_UNIFORM, ItemWeightVector

from conftest import (
    every_entry_model,
    evaluate_model_reference,
    evaluate_time_aware_reference,
    make_iset,
    matrix_from_dense,
    ndcg_at_k,
    recall_at_k,
    uniform_weights,
    zero_model,
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
    pop = np.array([3.0, 5.0, 5.0, 1.0])
    np.testing.assert_array_equal(popularity_rank(pop), [1, 2, 0, 3])


def test_score_histories_kinds(rng):
    xin = sp.csr_matrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    dense = DenseModel(p=rng.random(6), c=rng.random(3), lam=1.0)
    b = dense.b
    np.testing.assert_allclose(score_histories(dense, xin), xin.toarray() @ b)

    mu = np.array([0.1, 0.2, 0.3])
    centered = replace(dense, mu=mu)
    np.testing.assert_allclose(score_histories(centered, xin), xin.toarray() @ b + mu)

    arbitrary = rng.random((3, 3))
    np.testing.assert_allclose(score_histories(every_entry_model(arbitrary), xin),
                               xin.toarray() @ arbitrary)

    pop = PopularityScorer(np.array([5.0, 1.0, 3.0]))
    scores = score_histories(pop, xin)
    np.testing.assert_array_equal(scores, [[5.0, 1.0, 3.0], [5.0, 1.0, 3.0]])


def test_score_histories_single_item_reads_row():
    p = np.array([[1.0, 0.6, 0.2], [0.6, 1.0, 0.8], [0.2, 0.8, 1.0]])
    model = DenseModel(p=pack(p), c=np.array([2.0, 3.0, 0.5]), lam=1.0)
    b = model.b
    xin = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [2.0, 0.0, 1.0]]))
    scores = score_histories(model, xin)
    np.testing.assert_array_equal(scores[0], b[1])
    np.testing.assert_allclose(scores[1], b[0] + b[2])
    np.testing.assert_allclose(scores[2], 2.0 * b[0] + b[2])


def test_score_histories_empty_history_and_mu():
    xin = sp.csr_matrix((1, 2))
    model = replace(zero_model(2), mu=np.array([0.25, 0.75]))
    np.testing.assert_array_equal(score_histories(model, xin), [[0.25, 0.75]])
    plain = zero_model(2)
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
    report = evaluate_model(every_entry_model(b), matrix, split)
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
    report = evaluate_model(every_entry_model(b), matrix, split, recall_ks=(5, 9), ndcg_k=10)
    assert report.metrics["recall@5"][0] == 0.0
    assert report.metrics["recall@9"][0] == 1.0
    assert report.metrics["ndcg@10"][0] == pytest.approx(1.0 / np.log2(10.0))


def test_popularity_baseline_matches_manual_protocol():
    model, matrix, split, iset = eval_setup()
    pop = popularity(iset, split.train_users)
    report = evaluate_model(PopularityScorer(pop), matrix, split, recall_ks=(3, 5), ndcg_k=6)

    per_metric = {"recall@3": [], "recall@5": [], "ndcg@6": []}
    csr = matrix.matrix
    for u in split.test_users:
        ids = csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
        rng = np.random.default_rng((split.seed, int(u)))
        pin, pout = fold_in_indices(len(ids), split.fold_in_fraction, rng)
        if pout.size == 0:
            continue
        scores = pop.astype(np.float64).copy()
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
    scaled = replace(model, p=3.0 * model.p)
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
    # csr @ csc converts the csc operand; evaluation converts each column
    # panel of the model once, in its one pass over the panels, instead of
    # once per score block, with the same report
    model, matrix, split, _ = eval_setup(n_users=60)
    masked = mask_model(model, threshold_pattern(np.ones((model.n_items, model.n_items)), 0.5))
    expected = evaluate_model(masked, matrix, split).to_json()
    tocsr = sp.csc_matrix.tocsr
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(self.shape)
        return tocsr(self, *args, **kwargs)

    with with_chunk(5, panel=5), mock.patch.object(sp.csc_matrix, "tocsr", counted):
        report = evaluate_model(masked, matrix, split)
    assert calls == [(12, 5), (12, 5), (12, 2)]
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
    model = zero_model(8)
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
    model = zero_model(8)
    with pytest.raises(DataError, match="evaluable"):
        evaluate_model(model, matrix, split)


def test_evaluation_validation_users_and_errors():
    model, matrix, split, _ = eval_setup()
    val_report = evaluate_model(model, matrix, split, users="validation")
    assert val_report.config["users"] == "validation"
    assert val_report.n_users + val_report.n_skipped == len(split.validation_users)

    with pytest.raises(DataError, match="users"):
        evaluate_model(model, matrix, split, users="everyone")
    small = zero_model(3)
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
    model = zero_model(8)
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
        model, iset, split, idx, alpha=0.5, recall_ks=(3, 5), ndcg_k=6
    )
    assert plain.metrics == timed.metrics  # bit-for-bit, not approximately
    assert plain.n_users == timed.n_users
    assert 0.0 < plain.metrics["recall@3"][0] < 1.0  # the comparison is non-trivial


def test_time_aware_alpha_zero_equals_plain():
    model, matrix, split, iset = timed_setup()
    plain = evaluate_model(model, matrix, split, recall_ks=(3, 5), ndcg_k=6)
    idx = time_intervals(iset, 5, split.train_users)
    timed = evaluate_time_aware(
        model, iset, split, idx, alpha=0.0, recall_ks=(3, 5), ndcg_k=6
    )
    assert plain.metrics == timed.metrics


def test_time_aware_weighting_changes_ranks():
    model, matrix, split, iset = timed_setup()
    idx = time_intervals(iset, 5, split.train_users)
    a = evaluate_time_aware(model, iset, split, idx, alpha=0.0, recall_ks=(3,), ndcg_k=6)
    b = evaluate_time_aware(model, iset, split, idx, alpha=1.0, recall_ks=(3,), ndcg_k=6)
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
    model = DenseModel(p=pack(b + b.T), c=np.ones(4), lam=1.0)
    report = evaluate_time_aware(
        model, iset, split, idx, alpha=1.0, recall_ks=(1,), ndcg_k=2
    )
    assert report.metrics["recall@1"][0] == 1.0
    assert report.metrics["ndcg@2"][0] == 1.0
    assert report.n_users == 1


def test_time_aware_input_validation():
    model, matrix, split, iset = timed_setup()
    idx = time_intervals(iset, 2, split.train_users)

    rr = solve_rr(build_gram(matrix), lam=1.0)
    with pytest.raises(DataError, match="zero-diagonal"):
        evaluate_time_aware(rr, iset, split, idx, alpha=0.5)

    weighted = apply_item_rescaling(model, uniform_weights(model.n_items))
    with pytest.raises(DataError, match="unweighted"):
        evaluate_time_aware(weighted, iset, split, idx, alpha=0.5)

    bare = make_iset([(0, 0, 1.0), (0, 1, 1.0)])
    with pytest.raises(DataError, match="timestamp"):
        evaluate_time_aware(model, bare, split, idx, alpha=0.5)


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
    timed = evaluate_time_aware(model, iset, split, time_intervals(iset, 1, split.train_users),
                                **kwargs)
    assert plain.metrics == timed.metrics
    assert (plain.n_users, plain.n_skipped) == (timed.n_users, timed.n_skipped)

    idx = time_intervals(iset, 5, split.train_users)
    kept = values != 0.0
    stored = replace(iset, user_ids=iset.user_ids[kept], item_ids=iset.item_ids[kept],
                     values=values[kept], timestamps=iset.timestamps[kept])
    assert (evaluate_time_aware(model, iset, split, idx, **kwargs).to_json()
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
    best, reports, _ = grid_search_lambda(build, matrix, split, lams)
    assert best == 1.0
    curve = [reports[l].metrics["ndcg@100"][0] for l in lams]
    assert curve[3] > curve[0]
    assert curve[3] > curve[-1]
    assert set(reports) == set(lams)
    assert all(r.config["users"] == "validation" for r in reports.values())


def test_grid_search_tie_goes_to_smallest_lambda():
    # ndcg@100 saturates at 1.0 on this 6-item catalog, so every lambda ties
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
    best, reports, _ = grid_search_lambda(lambda: build_gram(tm), matrix6, split6, [8.0, 2.0, 4.0])
    assert all(r.metrics["ndcg@100"][0] == 1.0 for r in reports.values())
    assert best == 2.0


def test_grid_search_validation():
    build, matrix, split = grid_setup()
    with pytest.raises(DataError, match="empty"):
        grid_search_lambda(build, matrix, split, [])
    for lams in ([1.0, -2.0], [1.0, np.nan], [np.inf]):
        with pytest.raises(DataError, match="positive and finite"):
            grid_search_lambda(build, matrix, split, lams)


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
    sizes include 0, 1 and 2 events; rated logs include zero-valued events,
    which no protocol folds; cutoffs can exceed the item count."""
    n_items = draw(st.integers(1, 9))
    sizes = draw(st.lists(st.integers(0, n_items), min_size=1, max_size=12))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ratings = draw(st.booleans())
    events, stamps = [], []
    for u, size in enumerate(sizes):
        for it in r.choice(n_items, size, replace=False):
            events.append((u, int(it), float(r.integers(0, 6)) if ratings else 1.0))
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
    panel = draw(st.sampled_from([None, 1, 2, 3]))
    return iset, split, recall_ks, ndcg_k, (chunk, panel), r


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


def integer_read_off(r, n, kind):
    """A model that forms B from packed P, as a trained one does, with
    small integer entries of P, c, v, mu, kappa and w chosen so that B's
    entries are exact (exact sums in any order, many ties); ``nan`` puts
    NaNs in P off the diagonal.  Kinds: plain, nan, rr, centered and
    rescaled."""
    a = r.integers(-2, 3, (n, n)).astype(np.float64)
    a += a.T
    if kind == "nan":
        a[np.tril(r.random((n, n)) < 0.15, -1)] = np.nan
    c = r.choice([-1.0, 1.0, 0.5], n)
    centered = kind == "centered"
    v, mu = (r.integers(-1, 2, n).astype(np.float64) for _ in range(2)) if centered else (None, None)
    kappa = 2.0 if kind == "rr" else None
    model = DenseModel(p=pack(a), c=c, lam=1.0, v=v, mu=mu, kappa=kappa)
    if kind == "rescaled":
        model = apply_item_rescaling(model, ItemWeightVector(r.choice([0.5, 1.0, 2.0], n),
                                                             KIND_UNIFORM, 0.0))
    return model


def with_chunk(chunk, panel=None):
    """_CHUNK and PANEL patched (None leaves one as it is); a pair is
    (chunk, panel)."""
    if isinstance(chunk, tuple):
        chunk, panel = chunk
    stack = ExitStack()
    stack.enter_context(mock.patch.object(evaluation, "_CHUNK", chunk or evaluation._CHUNK))
    stack.enter_context(mock.patch.object(evaluation, "PANEL", panel or evaluation.PANEL))
    return stack


READ_OFF_KINDS = ["read-off-plain", "read-off-nan", "read-off-rr", "read-off-centered",
                  "read-off-rescaled"]


@settings(max_examples=300, deadline=None)
@given(eval_cases(), st.sampled_from(["float", "integer", "nan", "mu", "weights", "sparse",
                                      "popularity", "popularity-flat", *READ_OFF_KINDS]))
def test_evaluate_model_matches_per_user_sort(case, kind):
    iset, split, recall_ks, ndcg_k, chunk, r = case
    matrix = to_user_item_matrix(iset)
    n = iset.n_items
    model = DenseModel(p=r.standard_normal(size(n)), c=r.standard_normal(n), lam=1.0,
                       mu=r.standard_normal(n) if kind == "mu" else None)
    if kind in ("integer", "nan"):  # arbitrary B, ties and NaNs included
        model = every_entry_model(integer_b(r, n, nan=kind == "nan"))
    elif kind.startswith("read-off"):
        model = integer_read_off(r, n, kind.removeprefix("read-off-"))
    elif kind == "weights":
        model = apply_item_rescaling(
            model, popularity_weights(popularity(iset), alpha=0.5))
    elif kind == "sparse":
        model = mask_model(model, threshold_pattern(r.random((n, n)), theta=0.7))
    elif kind.startswith("popularity"):
        pop = popularity(iset) if kind == "popularity" else np.ones(n)
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
       st.sampled_from(["mu", "read-off-plain", "read-off-nan", "read-off-centered"]),
       st.booleans())
def test_evaluate_time_aware_matches_per_event_sort(case, n_intervals, alpha, kind, binarize):
    iset, split, recall_ks, ndcg_k, chunk, r = case
    n = iset.n_items
    if kind == "mu":  # target means without the centering term v*mu^T
        model = replace(integer_read_off(r, n, "plain"),
                        mu=r.integers(-2, 3, n).astype(np.float64))
    else:
        model = integer_read_off(r, n, kind.removeprefix("read-off-"))
    if binarize:  # the log as load_interactions(binarize=True) gives it
        iset = replace(iset, values=np.ones_like(iset.values))
    idx = time_intervals(iset, n_intervals, split.test_users)
    kwargs = dict(alpha=alpha, recall_ks=recall_ks, ndcg_k=ndcg_k)
    with with_chunk(chunk):
        got, expected = reports_or_errors(
            lambda: evaluate_time_aware(model, iset, split, idx, **kwargs),
            lambda: evaluate_time_aware_reference(model, iset, split, idx, **kwargs),
        )
    assert got == expected


GATHER_KINDS = ["zero-diag", "ridge", "centered", "ridge-centered", "weighted", "sparse",
                "every-entry", "popularity"]


def gather_model(r, n, kind):
    """A model of float entries, negatives included: dense models from a
    random packed P and read-off vectors, sparse ones masked from such a
    model or storing every entry of a random B, or popularity counts."""
    if kind == "popularity":
        return PopularityScorer(r.standard_normal(n))
    if kind == "every-entry":
        return every_entry_model(r.standard_normal((n, n)) * (r.random((n, n)) < 0.7))
    centered = kind.endswith("centered")
    model = DenseModel(p=r.standard_normal(size(n)), c=r.standard_normal(n), lam=1.0,
                       v=r.standard_normal(n) if centered else None,
                       mu=r.standard_normal(n) if centered else None,
                       kappa=float(r.standard_normal()) if kind.startswith("ridge") else None)
    if kind == "weighted":
        model = apply_item_rescaling(model, ItemWeightVector(r.random(n) * 3, KIND_UNIFORM, 0.0))
    elif kind == "sparse":
        model = mask_model(model, threshold_pattern(r.random((n, n)), theta=0.6))
    return model


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 7, 130, 257]), st.integers(1, 12), st.sampled_from(GATHER_KINDS),
       st.booleans(), st.sampled_from([None, 16, 40]), st.integers(0, 2**32 - 1))
def test_own_scores_are_bitwise_the_panel_products(n, n_users, kind, timed, chunk, seed):
    # each held-out event's own score, gathered from B's entries, is bitwise
    # its entry of the product with the panel that holds its item, before
    # and after the interval scale and the target means; input values and
    # B's entries include negatives, and an event's item may be an input
    r = np.random.default_rng(seed)
    model = gather_model(r, n, kind)
    x = r.standard_normal((n_users, n)) * (r.random((n_users, n)) < r.random())
    xin = sp.csr_matrix(x)
    rows = np.sort(r.integers(0, n_users, int(r.integers(1, 40))))
    items = r.integers(0, n, len(rows))
    events = r.permutation(3 * len(rows))[: len(rows)]
    scale = (r.standard_normal((3, n)), r.integers(0, 3, 3 * len(rows))) if timed else None
    width = int(r.choice([1, 3, evaluation.PANEL]))
    expected = np.empty(len(rows))
    for p, (u, i) in enumerate(zip(rows, items)):
        lo = i - i % width
        cols = model.columns(lo, lo + width)
        if isinstance(model, PopularityScorer):
            expected[p] = cols[i - lo]
        else:
            panel = xin @ cols
            expected[p] = (panel.toarray() if sp.issparse(panel) else panel)[u, i - lo]
    if scale is not None:
        expected *= scale[0][scale[1][events], items]
    if isinstance(model, DenseModel) and model.mu is not None:
        expected += model.mu[items]
    folds = evaluation._Folds(xin, rows, items, events, 0, {})
    with with_chunk(chunk):
        own = evaluation._own_scores(model, folds, scale)
    assert own.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_ranks_are_stable_descending_sort_positions(n, n_events, seed, special):
    """rank = position in argsort(-s, kind="stable") + 1, NaN and ±inf included."""
    r = np.random.default_rng(seed)
    pool = [0.0, 1.0, 2.0] + ([np.nan, np.inf, -np.inf] if special else [])
    rows = np.sort(r.integers(0, 3, n_events))
    items = r.integers(0, n, n_events)
    xin = sp.csr_matrix((3, n))
    folds = evaluation._Folds(xin, rows, items, np.arange(n_events), 0, {})
    table = r.choice(pool, (3, n))
    model = PopularityScorer(np.ones(n))
    with with_chunk(int(r.integers(1, 2 * n + 2)), panel=int(r.integers(1, n + 1))):
        ranks = evaluation._rank_held_out(model, folds, (table, rows))
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
    batch = folds
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
        evaluate_time_aware(model, iset, split, idx, alpha=0.5, ndcg_k=0)


def test_grid_search_draws_folds_once():
    build, matrix, split = grid_setup()
    with mock.patch.object(evaluation, "_draw_folds", wraps=evaluation._draw_folds) as draw:
        _, reports, _ = grid_search_lambda(build, matrix, split, [0.1, 1.0, 10.0])
    assert draw.call_count == 1
    for lam, report in reports.items():
        expected = evaluate_model(solve_zero_diag(build(), lam), matrix, split, users="validation")
        assert report.to_json() == expected.to_json()


@settings(max_examples=30, deadline=None)
@given(
    n_items=st.sampled_from([1, 3, 255, 256, 257, 600]),
    n_users=st.integers(2, 30),
    kind=st.sampled_from(["plain", "centered", "rr"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_trained_model_scores_bitwise_as_its_unpacked_b(n_items, n_users, kind, seed):
    # a trained model forms B's column panels from packed P; the scores are
    # bitwise those of the whole B, and so are its rows and columns
    r = np.random.default_rng(seed)
    xd = r.random((n_users, n_items)) * (r.random((n_users, n_items)) < 0.3)
    stats = build_gram(matrix_from_dense(xd), center=kind == "centered")
    model = (solve_rr if kind == "rr" else solve_zero_diag)(stats, 5.0)
    b = model.b
    for lo in range(0, n_items, 256):
        assert model.columns(lo, lo + 256).tobytes() == np.ascontiguousarray(
            b[:, lo : lo + 256]).tobytes()
    xin = sp.csr_matrix(r.random((7, n_items)) * (r.random((7, n_items)) < 0.2))
    expected = xin @ b
    if model.mu is not None:
        expected = expected + model.mu
    assert score_histories(model, xin).tobytes() == expected.tobytes()


@pytest.mark.parametrize("chunk", [None, 3 * 40, 40])
def test_trained_model_reports_as_its_unpacked_b(chunk):
    # the 60 users are scored 10 per pass over P with _CHUNK at n or 3n, else all at once
    r = np.random.default_rng(5)
    matrix = matrix_from_dense(r.random((160, 40)) < 0.2)
    split = SplitSpec(train_users=np.arange(100), validation_users=np.arange(100, 160),
                      test_users=np.arange(100, 160), fold_in_fraction=0.8, seed=3)
    build = lambda: build_gram(matrix.restrict_users(split.train_users))  # noqa: E731
    with with_chunk(chunk):
        _, reports, model = grid_search_lambda(build, matrix, split, [10.0])
        expected = evaluate_model_reference(model, matrix, split, users="validation")
        assert reports[10.0].to_json() == expected.to_json()
        got = evaluate_model(model, matrix, split)
        assert got.to_json() == evaluate_model_reference(model, matrix, split).to_json()


def trained_case(n_items):
    """A model trained on 100 users and 400 test users with at least five
    of ``n_items`` items each, so every test user is folded."""
    r = np.random.default_rng(7)
    x = r.random((500, n_items)) < 12 / n_items
    x[:, :5] = True
    matrix = matrix_from_dense(x)
    split = SplitSpec(train_users=np.arange(100), validation_users=np.arange(100, 500),
                      test_users=np.arange(100, 500), fold_in_fraction=0.8, seed=3)
    model = solve_zero_diag(build_gram(matrix.restrict_users(split.train_users)), 10.0)
    return model, matrix, split


@pytest.mark.parametrize("n_items,chunk", [(40, 40), (40, 3 * 40), (40, None), (600, None)],
                         ids=["n40-chunk-n", "n40-chunk-3n", "n40", "n600"])
def test_trained_model_forms_each_panel_once_per_range(n_items, chunk):
    # an evaluation forms each PANEL-column panel of B from packed P once,
    # however many users it scores: the own scores are gathered from P
    model, matrix, split = trained_case(n_items)
    for n_users in (1, 37, 400):
        some = replace(split, test_users=split.test_users[:n_users])
        with with_chunk(chunk), mock.patch.object(DenseModel, "columns", autospec=True,
                                                  side_effect=DenseModel.columns) as columns:
            report = evaluate_model(model, matrix, some)
        assert report.n_users == n_users
        assert columns.call_count == -(-n_items // evaluation.PANEL)


@pytest.mark.parametrize("chunk", [None, 40, 3 * 40])
@pytest.mark.parametrize("kind", ["dense", "sparse", "popularity"])
def test_loaded_model_scores_chunk_over_n_users_at_a_time(kind, chunk):
    # score blocks are _CHUNK // PANEL users (at least one) by a panel of at
    # most PANEL items; the one pass scores all 400 users against the one panel
    model, matrix, split = trained_case(40)
    model = {"dense": model,
             "sparse": mask_model(model, threshold_pattern(np.ones((40, 40)), theta=0.5)),
             "popularity": PopularityScorer(np.ones(40))}[kind]
    with with_chunk(chunk), mock.patch.object(evaluation, "_scores",
                                              wraps=evaluation._scores) as score:
        report = evaluate_model(model, matrix, split)
    heights = [call.args[0].shape[0] for call in score.call_args_list]
    assert sum(heights) == report.n_users == 400
    assert max(heights) == min(400, max(1, (chunk or evaluation._CHUNK) // evaluation.PANEL))
