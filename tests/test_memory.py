"""Peak memory of the training steps, in units of one n×n float64 matrix,
of the loader, in units of the arrays it returns, and of evaluation, in
units of a score batch or of the model it loads.

tracemalloc counts the allocations numpy makes (scipy's sparse products and
LAPACK's in-place calls allocate through numpy or not at all), so a peak
taken while G already exists is the memory a step needs beyond G.  G and P
are packed, 0.5 n²; the training budgets are that plus a few row panels
(PANEL·n floats, 0.25 n² at the fixture's 1,024 items).  Every budget is
below what the same step took when G and P were held in full storage.
"""

import tracemalloc

import numpy as np
import pytest

from gramrec import (
    DenseModel,
    InteractionSet,
    apply_item_rescaling,
    GramStats,
    SplitSpec,
    aggregate_blocks,
    block_partition,
    build_disjoint_gram,
    build_gram,
    correlation_from_gram,
    evaluate_model,
    filter_activity,
    grid_search_lambda,
    load_interactions,
    load_model,
    load_sparse_model,
    load_split_files,
    mask_model,
    popularity_weights,
    save_model,
    save_sparse_model,
    save_split_files,
    solve_blocks,
    solve_rr,
    split_strong_generalization,
    solve_zero_diag,
    threshold_pattern,
    time_intervals,
    train_sparse,
    to_user_item_matrix,
)
import gramrec.sparse as sparse
from gramrec import packed
import gramrec.cli
from gramrec.cli import main
from gramrec.data import save_interactions
from gramrec.evaluation import _CHUNK, _draw_folds
from gramrec.files import _CHUNK as _FILE_CHUNK
from gramrec.gram import PANEL
from gramrec.packed import pack

from conftest import binary_matrix, kept, make_iset, pattern_from_dense, write_canonical_reference


@pytest.fixture(scope="module")
def wide():
    x = binary_matrix(np.random.default_rng(7), 400, 1024, density=0.05)
    return x, build_gram(x)


def peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def peak_n2(fn, n: int) -> float:
    return peak_bytes(fn)[0] / (n * n * 8)


def packed_plus_panels(panels: float, n: int) -> float:
    """Packed G, or P, and ``panels`` row panels, in units of n²."""
    return 0.5 + panels * PANEL / n


def test_build_gram_holds_g_plus_panels(wide):
    """Packed G, a product panel in sparse and in dense form."""
    x, gram = wide
    assert peak_n2(lambda: build_gram(x), gram.n_items) < packed_plus_panels(2.5, gram.n_items)


def test_zero_diag_solve_holds_one_matrix_beyond_g(wide):
    """A caller that keeps G hands the solver a copy of it: 0.5 n², and the
    solve makes P in the copy and holds only vectors beyond it."""
    _, gram = wide
    assert peak_n2(lambda: solve_zero_diag(kept(gram), 50.0), gram.n_items) < 0.6


def test_zero_diag_solve_in_place_holds_panels_beyond_g(wide):
    x, _ = wide
    gram = build_gram(x)
    g = gram.g
    peak, model = peak_bytes(lambda: solve_zero_diag(gram, 50.0))
    assert np.shares_memory(model.p, g)
    assert peak < 0.05 * gram.n_items ** 2 * 8


def test_grid_holds_one_matrix_at_a_time(wide):
    """Three lambdas, whose winner is solved again: G is built for each and
    solved in place, and a model is dropped before the next G is built."""
    x, gram = wide
    split = SplitSpec(
        train_users=np.arange(300),
        validation_users=np.arange(300, 400),
        test_users=np.array([], dtype=np.int64),
        fold_in_fraction=0.8,
        seed=0,
    )
    tm = x.restrict_users(split.train_users)
    peak, (lam, reports, _) = peak_bytes(
        lambda: grid_search_lambda(lambda: build_gram(tm), x, split, [1e4, 1e6, 1e8])
    )
    assert len(reports) == 3 and lam == 1e6  # 1e8 ranks as 1e6 does; ties go to the smaller
    assert peak < packed_plus_panels(2.5, gram.n_items) * gram.n_items ** 2 * 8


def test_centered_build_and_solve_hold_one_matrix(wide):
    """G, with P made in its buffer and B read off it; the centering is the
    vectors s, μ and v = P·s, not a matrix C = XᵀX − s·μᵀ."""
    x, gram = wide
    peak = peak_n2(lambda: solve_zero_diag(build_gram(x, center=True), 50.0), gram.n_items)
    assert peak < packed_plus_panels(2.5, gram.n_items)


BUILDS = {
    "center": lambda x: build_gram(x, center=True),
    "disjoint": build_disjoint_gram,
    "exact": lambda x: build_disjoint_gram(x, split_fraction=0.05),
    "plain": build_gram,
}


@pytest.mark.parametrize("build,solver", [
    ("center", solve_rr),
    *[(name, solver) for name in ("disjoint", "exact") for solver in (solve_zero_diag, solve_rr)],
    ("plain", solve_rr),
])
def test_every_option_trains_in_one_matrix(wide, build, solver):
    """``train`` with --disjoint or --disjoint --exact-expectation in either
    variant, or plain or --center with --variant rr: G is built, and P is
    made in its buffer."""
    x, gram = wide
    assert peak_n2(lambda: solver(BUILDS[build](x), 50.0), gram.n_items) < packed_plus_panels(
        2.5, gram.n_items)


def test_train_sparse_holds_no_matrix_beyond_g(wide):
    """Packed G, a correlation panel and its mask, the pattern and a block."""
    _, gram = wide
    peak = peak_n2(lambda: train_sparse(gram, theta=0.1, n_max=50, lam=50.0), gram.n_items)
    assert 0.5 + peak < packed_plus_panels(1.6, gram.n_items)


def test_train_sparse_holds_one_block_at_a_time():
    """A Gram matrix written down directly, with G = 2·C over 2 users and
    zero column sums, so that the correlations are C: 56 hub items each
    correlate 0.5 with a shared core of 256 items and with 31 items of their
    own.  Each hub's column is one block of 288 items, so the blocks'
    solutions add up to 1.1 n² while the largest is 0.02 n².  Each is added
    into the pattern sums before the next is solved."""
    n, core, own = 2048, 256, 32
    c = np.eye(n)
    for hub in range(core, n, own):
        members = np.r_[:core, hub : hub + own]
        c[members, hub] = c[hub, members] = 0.5
        c[hub, hub] = 1.0
    gram = GramStats(g=pack(2.0 * c), n_users=2, colsum=np.zeros(n))
    del c
    pattern = threshold_pattern(correlation_from_gram(gram), theta=0.25, n_max=300)
    sizes = np.array([len(b) for b in block_partition(pattern)])
    assert len(sizes) == 56 and sizes.max() == 288 and np.sum(sizes**2.0) > 1.1 * n * n
    assert peak_n2(lambda: train_sparse(gram, theta=0.25, n_max=300, lam=50.0), n) < 0.6


@pytest.fixture(scope="module")
def wide_sparse(wide):
    """The pattern of the wide data at threshold 0.05 and cap 300, its
    blocks, and the sparse model trained on them."""
    _, gram = wide
    pattern = threshold_pattern(correlation_from_gram(gram), theta=0.05, n_max=300)
    return pattern, block_partition(pattern), train_sparse(gram, theta=0.05, n_max=300, lam=50.0)


def test_block_phase_holds_the_sums_and_one_packed_block(wide, wide_sparse):
    """Beyond G and the pattern, averaging the block solutions onto the
    pattern holds the sums (8 bytes a position), the counts (1 byte under
    256 blocks) and the mask of covered positions (1 byte), each item's
    place in its block (4 bytes an item), the largest block's packed Gram
    sub-matrix and the panel it is gathered in (PANEL·k floats), and one
    slice of the candidates' index temporaries.  Reading each block's k×k
    weights with whole-block index arrays and int32 counts peaked 1.8
    times as high."""
    _, gram = wide
    pattern, blocks, _ = wide_sparse
    n, nnz, k = gram.n_items, pattern.a.nnz, max(len(b) for b in blocks)
    assert len(blocks) < 256 and k == 300 and nnz > 250 * n
    peak, _ = peak_bytes(
        lambda: aggregate_blocks(blocks, solve_blocks(gram, blocks, 50.0), pattern, 50.0))
    assert peak <= (8 + 1 + 1) * nnz + 4 * n + 8 * (packed.size(k) + PANEL * k) + 96 * sparse._SLICE


@pytest.mark.parametrize("items", ["spread", "first_half", "second_half"])
def test_submatrix_holds_one_packed_block_and_a_panel(wide, items):
    """300 of G's 1,024 items, from both halves of its packed storage or from
    one: the sub-matrix is gathered into its packed array a panel at a
    time.  Gathering the whole k×k sub-matrix and then packing it held
    three times the packed size."""
    _, gram = wide
    pool = {"spread": np.arange(1024), "first_half": np.arange(512),
            "second_half": np.arange(512, 1024)}[items]
    idx = np.sort(np.random.default_rng(3).choice(pool, 300, replace=False))
    k = len(idx)
    peak, sub = peak_bytes(lambda: packed.submatrix(gram.g, idx))
    assert sub.nbytes == 8 * packed.size(k)
    assert peak <= 8 * (packed.size(k) + PANEL * k)


def test_save_sparse_model_holds_one_chunk_beyond_the_model(wide_sparse, tmp_path):
    """The 32-bit index arrays are widened to the file's <i8 a chunk at a
    time; widening them whole held 8 bytes a position."""
    *_, model = wide_sparse
    assert model.values.nnz > 4 * _FILE_CHUNK
    peak, _ = peak_bytes(lambda: save_sparse_model(tmp_path / "m.easp", model))
    assert peak <= 8 * _FILE_CHUNK + 64 * 1024


def test_load_sparse_model_holds_its_arrays_once(wide_sparse, tmp_path):
    """The weights as read (8 bytes an entry), the 32-bit index arrays the
    compressed-column matrix keeps, filled from the file's <i8 a chunk at a
    time, and that one chunk: no second copy of the structure beside the
    weights."""
    path = tmp_path / "m.easp"
    save_sparse_model(path, wide_sparse[2])
    peak, (model, _) = peak_bytes(lambda: load_sparse_model(path))
    v = model.values
    nnz, n = v.nnz, model.n_items
    assert nnz > 4 * _FILE_CHUNK and nnz > 20 * n and v.indices.dtype == v.indptr.dtype == np.int32
    assert peak <= 8 * nnz + v.indices.nbytes + v.indptr.nbytes + 8 * _FILE_CHUNK + 64 * 1024


@pytest.fixture(scope="module")
def canonical_log(tmp_path_factory):
    """A canonical CSV of 104,000 rated, timestamped events: 8,000 users with
    13 of 250 items each."""
    r = np.random.default_rng(11)
    events = [
        (u, int(i), float(v))
        for u in range(8000)
        for i, v in zip(r.choice(250, 13, replace=False), r.integers(1, 6, 13))
    ]
    iset = make_iset(events, timestamps=r.integers(8e8, 1.6e9, len(events)).tolist())
    path = tmp_path_factory.mktemp("memory") / "data.csv"
    write_canonical_reference(iset, path)
    return path


def test_load_holds_a_few_times_its_arrays(canonical_log):
    """Per-event Python objects kept across the file would cost several
    times the 32 bytes per event of the returned arrays."""
    peak, iset = peak_bytes(lambda: load_interactions(canonical_log))
    arrays = sum(a.nbytes for a in (iset.user_ids, iset.item_ids, iset.values, iset.timestamps))
    assert iset.n_events == 104_000
    assert peak <= 4 * arrays


def test_filter_activity_renumbers_in_a_few_id_arrays():
    """Of 186,813 events over 25,000 users, the 90 % that survive the
    filters come back as four arrays of 8 bytes per event.  Renumbering each
    id column scatters its first positions into a table over the keys, so
    beyond the result it holds the kept events' indices and two arrays of
    them.  Renumbering with ``np.unique``, which sorts every event, peaked
    at 69 bytes per event; the scatter peaks at 39."""
    r = np.random.default_rng(17)
    n_users, n_items = 25_000, 400
    per_user = r.integers(1, 15, n_users)
    n = int(per_user.sum())
    iset = InteractionSet(
        user_ids=r.permutation(np.repeat(np.arange(n_users), per_user)), item_ids=r.integers(0, n_items, n),
        values=np.ones(n), timestamps=r.integers(8e8, 1.6e9, n),
        user_keys=[f"u{u}" for u in range(n_users)], item_keys=[f"i{i}" for i in range(n_items)],
    )
    peak, kept = peak_bytes(lambda: filter_activity(iset, min_user_events=5, min_item_events=2))
    assert kept.n_users < n_users and 0.85 * n < kept.n_events < n
    assert peak <= 48 * n


@pytest.fixture(scope="module", params=["wide", "tall"])
def eval_case(request):
    """All users evaluated against a dense model of random packed P: 1,100 users with
    about 26 of 1,024 items each, or 1,500 users with 12 of 250 items."""
    r = np.random.default_rng(13)
    if request.param == "wide":
        matrix = binary_matrix(r, 1100, 1024, density=0.025)
    else:
        events = [(u, int(i), 1.0) for u in range(1500) for i in r.choice(250, 12, replace=False)]
        matrix = to_user_item_matrix(make_iset(events, n_items=250))
    n_users, n = matrix.matrix.shape
    split = SplitSpec(
        train_users=np.array([], dtype=np.int64),
        validation_users=np.array([], dtype=np.int64),
        test_users=np.arange(n_users),
        fold_in_fraction=0.8,
        seed=0,
    )
    return DenseModel(p=r.random(n * (n + 1) // 2), c=np.ones(n), lam=1.0), matrix, split


def _folds_bytes(matrix, split) -> int:
    """Bytes of the arrays the folds of the test users hold."""
    csr = matrix.matrix
    folds = _draw_folds(csr.indptr, csr.indices, csr.data, matrix.n_items, split, "test")
    return sum(a.nbytes for a in (folds.xin.data, folds.xin.indices, folds.xin.indptr,
                                  folds.rows, folds.items, folds.events))


def test_evaluate_peak_within_one_score_batch_and_a_quarter(eval_case):
    """Users are scored ``_CHUNK // PANEL`` at a time against one column panel
    of the model, so a score block and each comparison block hold at most
    _CHUNK floats, however many users there are.  The engine's blocks (four
    _CHUNK floats in all), the folds and at most twice as much again for
    the input rows sliced into score batches and the own-score gather's
    index arrays, and the model's column panel of at most PANEL·n floats,
    which a dense model forms from packed P, must hold the peak."""
    model, matrix, split = eval_case
    n = model.n_items
    peak, report = peak_bytes(lambda: evaluate_model(model, matrix, split))
    assert report.n_users == matrix.matrix.shape[0]
    assert peak <= 4 * _CHUNK * 8 + 3 * _folds_bytes(matrix, split) + min(PANEL, n) * n * 8


def test_draw_folds_marks_inputs_in_one_byte_per_event(eval_case):
    """The folds return 12 bytes per input event and 20 per held-out one.
    Marking the input positions in one int8 array over the folded rows'
    events, with no per-user arrays, peaks at 23 and 26 bytes per event on
    these users, the folds counted; sorting each user's two parts into
    lists of small arrays peaked at 38 and 50."""
    _, matrix, split = eval_case
    csr = matrix.matrix
    peak, folds = peak_bytes(
        lambda: _draw_folds(csr.indptr, csr.indices, csr.data, matrix.n_items, split, "test"))
    assert folds.n_skipped == 0 and folds.xin.nnz + len(folds.items) == csr.nnz
    assert peak <= 32 * csr.nnz


@pytest.fixture(scope="module")
def saved_trained(tmp_path_factory):
    """A zero-diagonal model of 1,024 items trained on 400 users and saved,
    with 700 test users of about 26 items each."""
    matrix = binary_matrix(np.random.default_rng(13), 1100, 1024, density=0.025)
    split = SplitSpec(
        train_users=np.arange(400),
        validation_users=np.array([], dtype=np.int64),
        test_users=np.arange(400, 1100),
        fold_in_fraction=0.8,
        seed=0,
    )
    model = solve_zero_diag(build_gram(matrix.restrict_users(split.train_users)), 50.0)
    path = tmp_path_factory.mktemp("trained") / "m.ease"
    save_model(path, model)
    return path, model, matrix, split


def test_evaluate_loaded_trained_model_holds_p_and_one_panel(saved_trained):
    """Loading and evaluating a trained model's file holds packed P, as the
    file stores it, one column panel of B (PANEL·n floats), the folds and
    at most 1.3 times as much again for the input rows sliced into score
    batches and the own-score gather's index arrays, and the engine's
    fixed blocks: a score block, its comparison block and masks, and the
    own-score gather's temporaries, four _CHUNK floats in all.  B is never
    formed whole, and a panel is formed once.  Ranking the held-out events
    in fold order holds no reordered copy of them: beyond P, the panel and
    the blocks, the peak is 2.15 times the folds here; with the events
    copied into chunk-then-item order it was 2.49."""
    path, model, matrix, split = saved_trained
    n = model.n_items
    folds_bytes = _folds_bytes(matrix, split)
    peak, report = peak_bytes(lambda: evaluate_model(load_model(path)[0], matrix, split))
    assert report.n_users == 700
    assert peak <= model.p.nbytes + PANEL * n * 8 + 4 * _CHUNK * 8 + 2.3 * folds_bytes


def test_rescaling_a_trained_model_allocates_no_matrix(saved_trained):
    """A model that holds P takes the weights as its column scale."""
    path, model, _, _ = saved_trained
    loaded, _ = load_model(path)
    weights = popularity_weights(np.arange(1.0, model.n_items + 1.0), 0.5)
    peak, rescaled = peak_bytes(lambda: apply_item_rescaling(loaded, weights))
    assert rescaled.p is loaded.p
    assert peak < 4 * model.n_items * 8


def test_mask_model_holds_one_column_panel(saved_trained):
    """Masking a trained model to its diagonal gathers the pattern's entries
    from one column panel of B (PANEL·n floats) at a time: B is never
    formed whole."""
    _, model, _, _ = saved_trained
    n = model.n_items
    pattern = pattern_from_dense(np.eye(n), theta=0.5)
    assert peak_n2(lambda: mask_model(model, pattern), n) < PANEL / n + 0.05


@pytest.fixture(scope="module")
def long_log(tmp_path_factory):
    """A canonical log of 300,000 timestamped events, 600 per item (20,000
    users with 15 of 500 items each), split 2,000/2,000, and a model
    trained on it."""
    r = np.random.default_rng(17)
    n_users, n_items, k = 20_000, 500, 15
    iset = filter_activity(InteractionSet(  # which numbers the items by first appearance
        user_ids=np.repeat(np.arange(n_users), k),
        item_ids=np.concatenate([r.choice(n_items, k, replace=False) for _ in range(n_users)]),
        values=np.ones(n_users * k), timestamps=r.integers(8e8, 1.6e9, n_users * k),
        user_keys=[f"u{u}" for u in range(n_users)], item_keys=[f"i{i}" for i in range(n_items)],
    ))
    root = tmp_path_factory.mktemp("long_log")
    save_interactions(root / "data.csv", iset)
    save_split_files(root / "split", split_strong_generalization(iset, 2000, 2000, seed=0),
                     iset.user_keys)
    assert main(["train", *_log_options(root), "--lambda", "100",
                 "--output", str(root / "m.ease")]) == 0
    return root


def _log_options(root):
    return ["--data", str(root / "data.csv"), "--split-dir", str(root / "split")]


@pytest.mark.parametrize("command,matrix", [
    (["train", "--lambda-grid", "10,100", "--output", "grid.ease"], True),
    (["evaluate", "--model", "m.ease"], False),
], ids=["train", "evaluate"])
def test_command_peaks_without_the_event_log(long_log, command, matrix, capsys):
    """Reading the log (32 bytes an event here) and the split peaks while
    the log is held, and so does building from it the matrix of every
    user, which ``train`` needs.  ``train --lambda-grid`` and ``evaluate``
    drop the log after that, before G is built or P is loaded, and
    ``evaluate`` builds the matrix of the evaluated users only; so neither
    peaks above what it reads, beyond 5 % of the log for the parser.  With
    the log kept beside G, P and the folds, ``train`` peaked 7.7 MB above,
    and ``evaluate`` 2.7 MB above even with the smaller matrix."""
    def read_log():
        iset = load_interactions(long_log / "data.csv")
        x = to_user_item_matrix(iset) if matrix else None
        return x, load_split_files(long_log / "split", iset.user_index)

    base, _ = peak_bytes(read_log)
    argv = [command[0], *_log_options(long_log),
            *[str(long_log / a) if a.endswith(".ease") else a for a in command[1:]]]
    peak, code = peak_bytes(lambda: main(argv))
    assert code == 0, capsys.readouterr().err
    assert peak <= base + 0.05 * 32 * 300_000


def test_evaluate_reads_only_the_evaluated_users_events(long_log, monkeypatch):
    """Up to the model's load, ``evaluate`` holds the 2,000 test users'
    30,000 events (32 bytes each), a byte per event of the log to mark
    them, a chunk of the container as it is read, and O(users) bytes: the
    user key table, the key index the split is read against and the split
    files' keys, under 192 bytes a user of these short keys.  Reading the
    whole log of 300,000 events first held over 13 MB."""
    class Loaded(Exception):
        pass

    def stop(path):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise Loaded

    peaks = []
    monkeypatch.setattr(gramrec.cli, "_load_any_model", stop)
    argv = ["evaluate", *_log_options(long_log), "--model", str(long_log / "m.ease")]
    with pytest.raises(Loaded):
        peak_bytes(lambda: main(argv))
    n_events, n_users, evaluated = 300_000, 20_000, 2_000 * 15
    assert peaks[0] <= 32 * evaluated + n_events + 2 * 8 * _FILE_CHUNK + 192 * n_users


def test_time_intervals_hold_three_event_arrays():
    """The subset's event indices are sorted by timestamp once, and each
    interval's popularity is one count over its slice of them: beyond the
    log, the indices, their timestamps and their order while sorting, three
    int64 arrays over the subset's events.  With copies of the sorted
    timestamps and of every event's slot it peaked at five."""
    r = np.random.default_rng(5)
    n_users, n_items, k = 20_000, 500, 15
    iset = InteractionSet(
        user_ids=np.repeat(np.arange(n_users), k), item_ids=r.integers(0, n_items, n_users * k),
        values=np.ones(n_users * k), timestamps=r.integers(8e8, 1.6e9, n_users * k),
        user_keys=[f"u{u}" for u in range(n_users)], item_keys=[f"i{i}" for i in range(n_items)],
    )
    subset = np.arange(0, n_users, 2)
    peak, index = peak_bytes(lambda: time_intervals(iset, 8, subset))
    assert index.counts.sum() == len(subset) * k
    assert peak < 3.5 * 8 * len(subset) * k
