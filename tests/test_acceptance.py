"""Top-level acceptance gate.

Each test prints one `ACCEPTANCE <n> [<label>]: PASS|FAIL` line (run with
``pytest tests/test_acceptance.py -s`` to see them) and then asserts, so a
failed criterion is both visible and red.  Tolerances are stated inline and
are not to be loosened to make a run pass.
"""

import filecmp
import json
import os
import sys
import time

import numpy as np
import pytest

from gramrec import (
    InteractionSchema,
    SplitSpec,
    build_gram,
    correlation_from_gram,
    evaluate_model,
    filter_activity,
    load_interactions,
    mask_model,
    popularity,
    solve_zero_diag,
    split_strong_generalization,
    threshold_pattern,
    to_user_item_matrix,
    train_sparse,
)
from gramrec.data import fold_in_indices
from gramrec.evaluation import PopularityScorer
from gramrec.gram import build_disjoint_gram
from gramrec.packed import unpack

from conftest import (
    constrained_ridge_oracle,
    every_entry_model,
    general_solve,
    gram_of,
    make_iset,
    ndcg_at_k,
    recall_at_k,
    run_cli,
    target_of,
)
from test_sparse import three_block_gram


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _oracle_instances():
    """102 random binary problems, small enough to brute-force per column."""
    rng = np.random.default_rng(1001)
    for _ in range(34):
        n_users = int(rng.integers(5, 41))
        n_items = int(rng.integers(3, 13))
        while True:
            dense = (rng.random((n_users, n_items)) < 0.45).astype(np.float64)
            if np.all(dense.sum(axis=0) > 0):
                break
        for lam in (0.1, 1.0, 10.0):
            yield dense, lam


def test_acceptance_1_closed_form_vs_brute_force():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for dense, lam in _oracle_instances():
        model = solve_zero_diag(gram_of(dense), lam=lam)
        reference = constrained_ridge_oracle(dense, dense, lam)
        worst = max(worst, float(np.max(np.abs(model.b - reference))))
        count += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "closed-form-vs-brute-force",
        count >= 100 and worst <= 1e-8 and elapsed < 10.0,
        f"{count} instances, max abs err {worst:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_2_self_target_shortcut_identity():
    worst = 0.0
    diag_ok = True
    for dense, lam in _oracle_instances():
        stats = gram_of(dense)
        assert stats.plain
        # the read-off (C is G) against the general P*C - P*diagMat(gamma) oracle
        g = unpack(stats.g)
        z, _ = general_solve(g, g, lam)
        e = solve_zero_diag(stats, lam=lam)
        scale = max(1.0, float(np.max(np.abs(z))))
        worst = max(worst, float(np.max(np.abs(z - e.b))) / scale)
        diag_ok &= bool(np.all(np.diag(z) == 0.0) and np.all(np.diag(e.b) == 0.0))
    _verdict(
        2,
        "self-target-shortcut-identity",
        worst <= 1e-10 and diag_ok,
        f"max rel diff {worst:.2e}, diagonals exactly zero: {diag_ok}",
    )


def test_acceptance_3_stationarity_at_optimum():
    worst_off = 0.0
    worst_gamma = 0.0
    for dense, lam in _oracle_instances():
        stats = gram_of(dense)
        g, c = unpack(stats.g), target_of(stats)
        model = solve_zero_diag(stats, lam=lam)
        grad = 2.0 * (g @ model.b - c + lam * model.b)
        scale = max(1.0, float(np.max(np.abs(np.diag(grad)))))
        off = grad - np.diag(np.diag(grad))
        worst_off = max(worst_off, float(np.max(np.abs(off))) / scale)
        gamma_from_grad = -np.diag(grad) / 2.0
        worst_gamma = max(
            worst_gamma, float(np.max(np.abs(gamma_from_grad - model.gamma))) / scale
        )
    _verdict(
        3,
        "stationarity-at-optimum",
        worst_off <= 1e-8 and worst_gamma <= 1e-8,
        f"off-diagonal {worst_off:.2e}, multiplier mismatch {worst_gamma:.2e}",
    )


def test_acceptance_4_rescaling_decomposition():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for dense, lam in _oracle_instances():
        w = rng.uniform(0.2, 3.0, size=dense.shape[1])
        # training against the column-scaled target Y = X·diagMat(w) directly
        direct, _ = general_solve(dense.T @ dense, dense.T @ (dense * w), lam)
        pulled = solve_zero_diag(gram_of(dense), lam=lam).b * w[None, :]
        worst = max(worst, float(np.max(np.abs(direct - pulled))))
    _verdict(4, "rescaling-decomposition", worst <= 1e-8, f"max abs diff {worst:.2e}")


def test_acceptance_5_disjoint_split_expectation():
    rng = np.random.default_rng(1005)
    p = 0.05
    n_splits = 10_000
    z = (rng.random((50, 10)) < 0.9).astype(np.float64)
    target = z.T @ z
    np.fill_diagonal(target, 0.0)
    assert np.all(target[~np.eye(10, dtype=bool)] > 0)

    mask = rng.random((n_splits, 50, 10)) < p
    y = z[None, :, :] * mask
    x = z[None, :, :] * ~mask
    averaged = np.einsum("kui,kuj->ij", x, y) / n_splits / (p * (1.0 - p))

    off = ~np.eye(10, dtype=bool)
    rel = np.abs(averaged[off] - target[off]) / target[off]
    diag_zero = bool(np.all(np.diag(averaged) == 0.0))

    # the library's closed-form expectation is the limit the average approaches
    from conftest import matrix_from_dense

    exact = build_disjoint_gram(matrix_from_dense(z), explicit_lambda=False, split_fraction=p)
    library_ok = bool(np.allclose(target_of(exact) / (p * (1.0 - p)), target, atol=1e-10))

    _verdict(
        5,
        "disjoint-split-expectation",
        float(rel.max()) <= 0.05 and diag_zero and library_ok,
        f"max rel dev {rel.max():.3%} over {n_splits} splits; closed form matches: {library_ok}",
    )


def test_acceptance_6_block_sparse_exactness():
    rng = np.random.default_rng(60)
    stats, expected = three_block_gram(rng, users_per_block=12, items_per_block=10)
    assert stats.n_items == 30
    pattern = threshold_pattern(correlation_from_gram(stats), theta=0.3, n_max=30)
    assert np.array_equal(pattern.a.toarray().astype(bool), expected)

    lam = 2.0
    sparse = train_sparse(stats, theta=0.3, n_max=30, lam=lam)
    dense = mask_model(solve_zero_diag(stats, lam=lam), pattern)
    diff = float(np.max(np.abs(sparse.values.toarray() - dense.values.toarray())))
    _verdict(6, "block-sparse-exactness", diff <= 1e-10, f"max abs diff {diff:.2e}")


def test_acceptance_7_ranking_metric_units():
    ranked = np.array([0, 1, 2])
    checks = [
        recall_at_k(ranked, np.array([0, 2]), 2) == 0.5,
        recall_at_k(ranked, np.array([0, 1]), 2) == 1.0,
        recall_at_k(ranked, np.array([2]), 3) == 1.0,  # cutoff covers the catalog
        ndcg_at_k(ranked, np.array([0]), 100) == 1.0,
        ndcg_at_k(ranked, np.array([1]), 100) == 1.0 / np.log2(3.0),
        ndcg_at_k(np.array([2, 1, 0]), np.array([0]), 2) == 0.0,
    ]

    # a model that maps each user's fold-in items straight to the held-out
    # ones must score 1.0 on every metric
    n_items = 30
    events = [(u, base + j, 1.0) for u, base in enumerate((0, 10, 20)) for j in range(8)]
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
        pin, pout = fold_in_indices(len(ids), 0.8, np.random.default_rng((split.seed, u)))
        b[np.ix_(ids[pin], ids[pout])] = 1.0
    report = evaluate_model(every_entry_model(b), matrix, split)
    checks.append(all(mean == 1.0 for mean, _ in report.metrics.values()))

    _verdict(7, "ranking-metric-units", all(checks), f"{sum(checks)}/{len(checks)} exact")


@pytest.mark.skipif(
    "GRAMREC_ML20M_RATINGS" not in os.environ,
    reason="full-scale check; set GRAMREC_ML20M_RATINGS=/path/to/ml-20m/ratings.csv",
)
def test_acceptance_8_ml20m_reproduction():
    path = os.environ["GRAMREC_ML20M_RATINGS"]
    schema = InteractionSchema(user="userId", item="movieId", value="rating", time="timestamp")
    iset = load_interactions(path, schema=schema, min_value=4.0, binarize=True)
    iset = filter_activity(iset, min_user_events=5)
    matrix = to_user_item_matrix(iset)
    split = split_strong_generalization(iset, n_val=10_000, n_test=10_000, seed=0)

    t0 = time.perf_counter()
    train_matrix = matrix.restrict_users(split.train_users)
    stats = build_gram(train_matrix)
    model = solve_zero_diag(stats, lam=500.0)
    train_seconds = time.perf_counter() - t0

    report = evaluate_model(model, matrix, split, recall_ks=(20, 50), ndcg_k=100)
    pop_report = evaluate_model(
        PopularityScorer(popularity(iset, split.train_users)), matrix, split,
        recall_ks=(20, 50), ndcg_k=100,
    )
    r20 = report.metrics["recall@20"][0]
    r50 = report.metrics["recall@50"][0]
    n100 = report.metrics["ndcg@100"][0]
    p20 = pop_report.metrics["recall@20"][0]
    ok = (
        abs(r20 - 0.391) <= 0.006
        and abs(r50 - 0.521) <= 0.006
        and abs(n100 - 0.420) <= 0.006
        and abs(p20 - 0.162) <= 0.006
        and train_seconds < 360.0
    )
    _verdict(
        8,
        "ml20m-reproduction",
        ok,
        f"recall@20 {r20:.3f}, recall@50 {r50:.3f}, ndcg@100 {n100:.3f}, "
        f"popularity recall@20 {p20:.3f}, train {train_seconds:.0f}s",
    )


def _run_pipeline(root):
    r = np.random.default_rng(9)
    rows = ["user,item,rating,ts"]
    for u in range(24):
        for it in map(int, r.choice(12, size=int(r.integers(4, 10)), replace=False)):
            rows.append(f"u{u:02d},i{it},{int(r.integers(1, 6))},{int(r.integers(0, 1000))}")
    raw = root / "raw.csv"
    raw.write_text("\n".join(rows) + "\n", encoding="utf-8")

    data, splits = root / "data.csv", root / "splits"
    model = root / "model.ease"
    sparse, weights = root / "model.easp", root / "weights.csv"
    rescaled, pop, report = root / "rescaled.ease", root / "pop.csv", root / "report.json"
    report_time, report_pop = root / "report_time.json", root / "report_pop.json"

    steps = [
        ["ingest", "--input", str(raw), "--output", str(data),
         "--user-col", "user", "--item-col", "item", "--value-col", "rating",
         "--time-col", "ts"],
        ["split", "--data", str(data), "--output-dir", str(splits),
         "--n-val", "4", "--n-test", "6", "--seed", "0"],
        ["train", "--data", str(data), "--split-dir", str(splits), "--seed", "0",
         "--lambda", "3.0", "--output", str(model)],
        ["train-sparse", "--data", str(data), "--split-dir", str(splits), "--seed", "0",
         "--lambda", "3.0", "--threshold", "0.05", "--output", str(sparse)],
        ["rescale", "--data", str(data), "--split-dir", str(splits), "--seed", "0",
         "--model", str(model), "--weights-out", str(weights), "--output", str(rescaled)],
        ["popularity", "--data", str(data), "--split-dir", str(splits),
         "--output", str(pop)],
        ["evaluate", "--data", str(data), "--split-dir", str(splits), "--seed", "0",
         "--model", str(model), "--report-json", str(report)],
        ["recommend", "--model", str(model), "--history", "i0,i1", "--top-k", "5"],
        ["evaluate", "--data", str(data), "--split-dir", str(splits), "--seed", "0",
         "--model", str(model), "--time-intervals", "3", "--report-json", str(report_time)],
        ["evaluate", "--data", str(data), "--split-dir", str(splits), "--seed", "0",
         "--baseline", "popularity", "--report-json", str(report_pop)],
    ]
    stdouts = []
    for step in steps:
        res = run_cli(step)
        assert res.returncode == 0, (step[0], res.stderr)
        stdouts.append(res.stdout)
    files = [data, model, sparse, weights, rescaled, pop, report, report_time, report_pop]
    files += [splits / name for name in
              ("train_users.txt", "validation_users.txt", "test_users.txt")]
    return files, stdouts


def test_acceptance_9_byte_determinism(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    files_a, out_a = _run_pipeline(a_dir)
    files_b, out_b = _run_pipeline(b_dir)
    same_files = all(
        filecmp.cmp(fa, fb, shallow=False) for fa, fb in zip(files_a, files_b)
    )
    same_stdout = out_a == out_b
    _verdict(
        9,
        "byte-determinism",
        same_files and same_stdout,
        f"{len(files_a)} artifacts byte-identical, command output identical",
    )
