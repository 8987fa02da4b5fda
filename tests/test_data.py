import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramrec import data, files
from gramrec import (
    DataError,
    InteractionSchema,
    SplitSpec,
    evaluate_model,
    filter_activity,
    load_interactions,
    load_split_files,
    popularity,
    save_split_files,
    split_strong_generalization,
    time_intervals,
    to_user_item_matrix,
)
from gramrec.cli import main
from gramrec.data import DEDUP_POLICIES, _csv_field, _dedup_indices, _reindex, fold_in_indices

from conftest import (
    assert_same_interactions,
    dedup_indices_reference,
    load_interactions_reference,
    make_iset,
    popularity_reference,
    reindex_reference,
    time_intervals_reference,
    write_canonical_reference,
    zero_model,
)


def write(tmp_path, text, name="log.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_basic_csv(tmp_path):
    path = write(
        tmp_path,
        "user,item,value,timestamp\n"
        "alice,x,3.0,100\n"
        "bob,y,2.0,200\n"
        "alice,y,4.0,300\n",
    )
    iset = load_interactions(path)
    assert iset.user_keys == ["alice", "bob"]
    assert iset.item_keys == ["x", "y"]
    assert iset.n_events == 3
    np.testing.assert_array_equal(iset.user_ids, [0, 1, 0])
    np.testing.assert_array_equal(iset.item_ids, [0, 1, 1])
    np.testing.assert_array_equal(iset.values, [3.0, 2.0, 4.0])
    np.testing.assert_array_equal(iset.timestamps, [100, 200, 300])
    assert iset.user_index == {"alice": 0, "bob": 1}


def test_load_without_value_column(tmp_path):
    path = write(tmp_path, "user,item\na,x\nb,y\n")
    iset = load_interactions(path)
    np.testing.assert_array_equal(iset.values, [1.0, 1.0])
    assert iset.timestamps is None


def test_load_tsv_and_schema(tmp_path):
    path = write(tmp_path, "userId\tmovieId\trating\nu1\tm1\t5.0\n", name="log.tsv")
    schema = InteractionSchema(user="userId", item="movieId", value="rating")
    iset = load_interactions(path, fmt="tsv", schema=schema)
    assert iset.user_keys == ["u1"]
    assert iset.values[0] == 5.0


def test_load_missing_column(tmp_path):
    path = write(tmp_path, "user,item\na,x\n")
    schema = InteractionSchema(user="user", item="item", value="rating")
    with pytest.raises(DataError, match="rating"):
        load_interactions(path, schema=schema)


def test_load_empty_file(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(DataError, match="empty file"):
        load_interactions(path)


def test_load_bad_value_reports_line(tmp_path):
    path = write(tmp_path, "user,item,value\na,x,1.0\nb,y,oops\n")
    with pytest.raises(DataError, match="line 3"):
        load_interactions(path)


def test_load_rejects_non_finite(tmp_path):
    path = write(tmp_path, "user,item,value\na,x,inf\n")
    with pytest.raises(DataError, match="finite"):
        load_interactions(path)


@pytest.mark.parametrize(
    "stamp", ["inf", "-inf", "nan", "1e300", "-1e300", "9.3e18", "9223372036854775807"]
)
def test_load_rejects_timestamps_outside_int64(tmp_path, stamp):
    path = write(tmp_path, f"user,item,value,timestamp\na,x,1,5\nb,y,1, {stamp}\n")
    with pytest.raises(DataError) as exc:
        load_interactions(path)
    assert str(exc.value) == f"line 3: column 'timestamp' is not a timestamp: {stamp!r}"


def test_load_timestamp_range_ends(tmp_path):
    path = write(tmp_path, "user,item,timestamp\na,x,-9223372036854775808\nb,y,9.2e18\nc,z,-7.9\n")
    np.testing.assert_array_equal(load_interactions(path).timestamps, [-(2**63), 9.2e18, -7])


def test_min_value_skips_row_before_its_timestamp(tmp_path):
    path = write(tmp_path, "user,item,value,timestamp\na,x,1,inf\nb,y,5,7\n")
    iset = load_interactions(path, min_value=2.0)
    assert iset.user_keys == ["b"]
    np.testing.assert_array_equal(iset.timestamps, [7])


def test_load_reads_utf8_and_rejects_other_bytes(tmp_path):
    path = tmp_path / "log.csv"
    path.write_bytes("user,item\nJosé,x\n".encode("utf-8"))
    assert load_interactions(path).user_keys == ["José"]
    path.write_bytes("user,item\nJosé,x\n".encode("latin-1"))
    with pytest.raises(DataError, match="not UTF-8"):
        load_interactions(path)


def test_load_reports_csv_reader_errors(tmp_path):
    path = write(tmp_path, 'user,item\n"' + "k" * 200_000 + '",x\n')
    with pytest.raises(DataError, match="field larger than field limit"):
        load_interactions(path)


@pytest.mark.parametrize("quote", ["", '"'])
def test_load_field_limit_on_both_parse_paths(tmp_path, quote):
    # an unquoted log is split with str.split, a quoted one is read by
    # csv.reader; both keep a key of exactly the limit and refuse a longer one
    limit = csv.field_size_limit()
    path = write(tmp_path, f"user,item\n{quote}{'k' * limit}{quote},x\n")
    assert load_interactions(path).user_keys == ["k" * limit]
    path = write(tmp_path, f"user,item\na,x\n{quote}{'k' * (limit + 1)}{quote},x\n")
    with pytest.raises(DataError) as exc:
        load_interactions(path)
    assert str(exc.value) == f"{path}: field larger than field limit ({limit})"


def test_load_rejects_empty_key(tmp_path):
    path = write(tmp_path, "user,item\na,x\n,y\n")
    with pytest.raises(DataError, match="line 3"):
        load_interactions(path)


def test_load_rejects_ragged_row(tmp_path):
    path = write(tmp_path, "user,item,value\na,x,1.0\nb,y\n")
    with pytest.raises(DataError, match="line 3"):
        load_interactions(path)


def test_load_unknown_format_and_policy(tmp_path):
    path = write(tmp_path, "user,item\na,x\n")
    with pytest.raises(DataError, match="format"):
        load_interactions(path, fmt="parquet")
    with pytest.raises(DataError, match="dedup"):
        load_interactions(path, dedup="first")


def test_min_value_filters_before_indexing(tmp_path):
    path = write(tmp_path, "user,item,value\na,x,1.0\nb,y,5.0\na,z,2.0\n")
    iset = load_interactions(path, min_value=2.0)
    assert iset.user_keys == ["b", "a"]
    assert iset.item_keys == ["y", "z"]
    assert iset.n_events == 2


def test_binarize(tmp_path):
    path = write(tmp_path, "user,item,value\na,x,3.5\nb,y,0.5\n")
    iset = load_interactions(path, binarize=True)
    np.testing.assert_array_equal(iset.values, [1.0, 1.0])


def test_dedup_keep_max(tmp_path):
    path = write(
        tmp_path,
        "user,item,value,timestamp\na,x,2.0,1\na,x,5.0,2\na,x,5.0,3\nb,x,1.0,4\n",
    )
    iset = load_interactions(path, dedup="keep_max")
    assert iset.n_events == 2
    row = np.flatnonzero(iset.user_ids == iset.user_index["a"])
    assert iset.values[row][0] == 5.0
    assert iset.timestamps[row][0] == 2  # earliest among tied maxima


def test_dedup_numbers_ids_over_retained_events(tmp_path):
    path = write(tmp_path, DEDUP_RENUMBERS[0])
    iset = load_interactions(path)
    assert iset.user_keys == ["u2", "u1"] and iset.item_keys == ["i2", "i1"]
    assert iset.user_ids.tolist() == [0, 1] and iset.item_ids.tolist() == [0, 1]
    assert iset.user_index == {"u2": 0, "u1": 1}
    np.testing.assert_array_equal(iset.values, [1.0, 5.0])


def test_dedup_keep_last(tmp_path):
    path = write(tmp_path, "user,item,value\na,x,9.0\na,x,1.0\n")
    iset = load_interactions(path, dedup="keep_last")
    assert iset.n_events == 1
    assert iset.values[0] == 1.0


def test_dedup_error_policy(tmp_path):
    path = write(tmp_path, "user,item\na,x\na,x\n")
    with pytest.raises(DataError, match="duplicate"):
        load_interactions(path, dedup="error")


def test_filter_activity_items_then_users():
    # u0 has two events but one sits on a rare item; after the item filter
    # u0 falls below the user threshold and is dropped in the same pass.
    iset = make_iset(
        [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 2, 1.0)]
    )
    out = filter_activity(iset, min_user_events=2, min_item_events=2)
    assert set(out.user_keys) == {"u1", "u2"}
    assert set(out.item_keys) == {"i1", "i2"}
    assert out.n_events == 4


def test_filter_activity_no_cascade_reruns():
    # dropping users may leave an item below threshold; a single pass keeps it
    iset = make_iset(
        [(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0), (2, 1, 1.0), (2, 2, 1.0), (3, 2, 1.0), (3, 1, 1.0)]
    )
    out = filter_activity(iset, min_user_events=2, min_item_events=2)
    assert "i0" in out.item_keys
    assert "u0" not in out.user_keys


def test_filter_activity_noop():
    iset = make_iset([(0, 0, 2.0), (1, 1, 3.0)])
    out = filter_activity(iset)
    assert out.n_events == 2
    np.testing.assert_array_equal(out.values, iset.values)


def test_to_matrix_shape_and_values():
    iset = make_iset([(0, 1, 2.0), (1, 0, 3.0)], n_users=3, n_items=2)
    uim = to_user_item_matrix(iset)
    assert uim.matrix.shape == (3, 2)
    dense = uim.matrix.toarray()
    assert dense[0, 1] == 2.0
    assert dense[1, 0] == 3.0
    assert dense[2].sum() == 0.0


def test_split_disjoint_and_covering():
    iset = make_iset([(u, 0, 1.0) for u in range(20)])
    split = split_strong_generalization(iset, n_val=4, n_test=5, seed=7)
    assert len(split.validation_users) == 4
    assert len(split.test_users) == 5
    assert len(split.train_users) == 11
    merged = np.concatenate([split.train_users, split.validation_users, split.test_users])
    np.testing.assert_array_equal(np.sort(merged), np.arange(20))


def test_split_deterministic():
    iset = make_iset([(u, 0, 1.0) for u in range(30)])
    a = split_strong_generalization(iset, n_val=5, n_test=5, seed=3)
    b = split_strong_generalization(iset, n_val=5, n_test=5, seed=3)
    np.testing.assert_array_equal(a.test_users, b.test_users)
    c = split_strong_generalization(iset, n_val=5, n_test=5, seed=4)
    assert not np.array_equal(a.test_users, c.test_users)


def test_split_requires_training_users():
    iset = make_iset([(u, 0, 1.0) for u in range(5)])
    with pytest.raises(DataError, match="training user"):
        split_strong_generalization(iset, n_val=3, n_test=2, seed=0)
    with pytest.raises(DataError, match="non-negative"):
        split_strong_generalization(iset, n_val=-1, n_test=1, seed=0)


def test_fold_in_single_event_goes_to_input():
    pos_in, pos_out = fold_in_indices(1, 0.8, np.random.default_rng(0))
    np.testing.assert_array_equal(pos_in, [0])
    assert len(pos_out) == 0


def test_fold_in_fraction_validated():
    """Folding refuses the fractions that leave one part always empty."""
    iset = make_iset([(u, i, 1.0) for u in range(3) for i in range(3)])
    matrix = to_user_item_matrix(iset)
    model = zero_model(3)
    for fraction in (1.0, 0.0):
        split = SplitSpec(train_users=np.array([0]), validation_users=np.array([1]),
                          test_users=np.array([2]), fold_in_fraction=fraction)
        with pytest.raises(DataError, match="fraction"):
            evaluate_model(model, matrix, split)


def test_fold_in_accepts_generator():
    """The split is drawn from the given generator alone, so a generator
    seeded as the evaluation seeds it, (seed, user), reproduces it."""
    a = fold_in_indices(10, 0.8, np.random.default_rng((5, 3)))
    b = fold_in_indices(10, 0.8, np.random.default_rng((5, 3)))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), frac=st.floats(0.05, 0.95), seed=st.integers(0, 2**20))
def test_fold_in_partition_properties(n, frac, seed):
    pos_in, pos_out = fold_in_indices(n, frac, np.random.default_rng(seed))
    assert len(pos_in) == int(np.ceil(frac * n))
    assert len(pos_in) + len(pos_out) == n
    assert np.all(np.diff(pos_in) > 0) and np.all(np.diff(pos_out) > 0)
    np.testing.assert_array_equal(np.sort(np.concatenate([pos_in, pos_out])), np.arange(n))


def test_fold_in_indices_rejects_empty():
    with pytest.raises(DataError):
        fold_in_indices(0, 0.8, np.random.default_rng(0))


def test_popularity_sums_values():
    iset = make_iset([(0, 0, 2.0), (1, 0, 3.0), (1, 1, 1.0)])
    np.testing.assert_array_equal(popularity(iset), [5.0, 1.0])
    np.testing.assert_array_equal(popularity(iset, np.array([1])), [3.0, 1.0])
    np.testing.assert_array_equal(popularity(iset, np.array([], dtype=np.int64)), [0.0, 0.0])


def test_popularity_additive_over_user_partition(rng):
    users, items = np.nonzero(rng.random((30, 8)) < 0.4)
    iset = make_iset([(int(u), int(i), 1.0) for u, i in zip(users, items)], n_users=30, n_items=8)
    users = rng.permutation(30)
    a, b = users[:12], users[12:]
    total = popularity(iset)
    np.testing.assert_allclose(popularity(iset, a) + popularity(iset, b), total)


@st.composite
def counted_logs(draw):
    """A log of distinct (user, item) pairs with small integer values, zeros
    included, timestamps with ties, and a user subset that can be empty or
    leave some items untouched."""
    n_users, n_items = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)),
                          unique=True, max_size=40))
    values = draw(st.lists(st.integers(-2, 5), min_size=len(pairs), max_size=len(pairs)))
    stamps = draw(st.lists(st.integers(0, 6), min_size=len(pairs), max_size=len(pairs)))
    iset = make_iset([(u, i, float(v)) for (u, i), v in zip(pairs, values)],
                     n_users=n_users, n_items=n_items, timestamps=stamps)
    subset = np.asarray(draw(st.lists(st.integers(0, n_users - 1), unique=True)), dtype=np.int64)
    return iset, subset


@settings(max_examples=200, deadline=None)
@given(counted_logs())
def test_popularity_matches_matrix_column_sums(log):
    iset, subset = log
    for users in (None, subset):
        got = popularity(iset, users)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, popularity_reference(iset, users))


@settings(max_examples=200, deadline=None)
@given(counted_logs(), st.integers(1, 6))
def test_time_intervals_match_add_at_loop(log, n_intervals):
    iset, subset = log
    try:
        want = time_intervals_reference(iset, n_intervals, subset)
    except DataError as exc:
        with pytest.raises(DataError, match=str(exc)):
            time_intervals(iset, n_intervals, subset)
        return
    got = time_intervals(iset, n_intervals, subset)
    for name in ("boundaries", "pops", "counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_time_intervals_counts_and_pops():
    events = [(0, i % 3, 1.0) for i in range(10)]
    iset = make_iset(events, timestamps=list(range(10)))
    idx = time_intervals(iset, 3, user_subset=np.array([0]))
    np.testing.assert_array_equal(np.sort(idx.counts), [3, 3, 4])
    assert idx.counts.sum() == 10
    np.testing.assert_allclose(idx.pops.sum(axis=0), popularity(iset))
    assert idx.boundaries[0] == 0
    assert idx.boundaries[-1] == 9


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 60),
    n_intervals=st.integers(1, 12),
    tie_every=st.integers(1, 5),
)
def test_time_intervals_balanced_even_with_ties(m, n_intervals, tie_every):
    events = [(0, 0, 1.0)] * m
    stamps = [t // tie_every for t in range(m)]
    iset = make_iset(events, timestamps=stamps)
    idx = time_intervals(iset, n_intervals, user_subset=np.array([0]))
    assert idx.counts.sum() == m
    assert idx.counts.max() - idx.counts.min() <= 1


def test_locate_ties_to_earlier_interval():
    iset = make_iset([(0, 0, 1.0)] * 9, timestamps=[10, 20, 30, 40, 50, 60, 70, 80, 90])
    idx = time_intervals(iset, 3, user_subset=np.array([0]))
    np.testing.assert_array_equal(idx.boundaries, [10, 40, 70, 90])
    np.testing.assert_array_equal(idx.locate([40, 41, 70, 89]), [0, 1, 1, 2])


def test_locate_outside_range_maps_to_nearest():
    iset = make_iset([(0, 0, 1.0)] * 6, timestamps=[10, 20, 30, 40, 50, 60])
    idx = time_intervals(iset, 2, user_subset=np.array([0]))
    np.testing.assert_array_equal(idx.locate([-5, 1000]), [0, 1])


def test_time_intervals_subset_restricts_events():
    iset = make_iset(
        [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)],
        timestamps=[1, 2, 3, 4],
    )
    idx = time_intervals(iset, 2, user_subset=np.array([0]))
    assert idx.counts.sum() == 2
    np.testing.assert_allclose(idx.pops.sum(axis=0), [1.0, 1.0])


def test_time_intervals_errors():
    no_time = make_iset([(0, 0, 1.0)])
    with pytest.raises(DataError, match="timestamps"):
        time_intervals(no_time, 2, user_subset=np.array([0]))
    timed = make_iset([(0, 0, 1.0)], timestamps=[1])
    with pytest.raises(DataError, match="n_intervals"):
        time_intervals(timed, 0, user_subset=np.array([0]))
    with pytest.raises(DataError, match="no events"):
        time_intervals(timed, 1, user_subset=np.array([], dtype=np.int64))


def test_split_files_round_trip(tmp_path):
    iset = make_iset([(u, 0, 1.0) for u in range(12)])
    split = split_strong_generalization(iset, n_val=3, n_test=3, seed=1)
    save_split_files(tmp_path / "split", split, iset.user_keys)
    loaded = load_split_files(tmp_path / "split", iset.user_index, fold_in_fraction=0.8, seed=0)
    np.testing.assert_array_equal(loaded.train_users, split.train_users)
    np.testing.assert_array_equal(loaded.validation_users, split.validation_users)
    np.testing.assert_array_equal(loaded.test_users, split.test_users)


def test_split_files_unknown_key(tmp_path):
    iset = make_iset([(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0)])
    split = split_strong_generalization(iset, n_val=1, n_test=1, seed=0)
    save_split_files(tmp_path / "split", split, iset.user_keys)
    with pytest.raises(DataError, match="unknown user"):
        load_split_files(tmp_path / "split", {"someone": 0})


@pytest.mark.parametrize("extra", [("train_users.txt", "u1"), ("test_users.txt", "u0")])
def test_split_files_refuse_a_user_listed_twice(tmp_path, extra):
    """Within one file, or across two, where a repeat would put a held-out
    user into training."""
    split = SplitSpec(train_users=np.array([0, 1]), validation_users=np.array([2]),
                      test_users=np.array([3]))
    keys = ["u0", "u1", "u2", "u3"]
    save_split_files(tmp_path, split, keys)
    name, key = extra
    with open(tmp_path / name, "a", encoding="utf-8") as fh:
        fh.write(key + "\n")
    with pytest.raises(DataError, match=f"user key '{key}' is already listed in"):
        load_split_files(tmp_path, {k: i for i, k in enumerate(keys)})


def test_split_files_missing_file(tmp_path):
    with pytest.raises(DataError, match="missing split file"):
        load_split_files(tmp_path / "nowhere", {})


# Keys the csv writer must quote (delimiters, quotes, line breaks) next to
# plain and space-padded ones; few enough that events repeat.
KEYS = ["a", "b", "u1", " pad ", "c,d", 'say "hi"', "two\nlines", "cr\r\nlf", "t\tab", "é"]
VALUES = ["1", "2.5", "0", "0.0", "-0.0", "-0", " 4 ", "5", "1e2", "3.5"]
STAMPS = ["100", "7", "5.9", "-3", " 42 ", "1e18", "-9223372036854775808"]
# Each corruption hits one field or record of an otherwise valid log.
DAMAGE = ["short", "long", "no_user", "no_item", "value", "timestamp", "timestamp"]
BAD = {"value": ["x", "", "nan", "inf", "1,5"], "timestamp": ["inf", "-inf", "1e300", "nan", "t", ""]}


@st.composite
def interaction_files(draw):
    """Text of an interaction log and the loader arguments to read it with."""
    fmt = draw(st.sampled_from(["csv", "tsv"]))
    columns = ["user", "item"] + draw(st.sampled_from([["value", "timestamp"], ["value"], ["timestamp"], []]))
    columns = draw(st.permutations(columns + draw(st.sampled_from([[], ["extra"]]))))
    buf = io.StringIO()
    terminator = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    writer = csv.writer(buf, delimiter="," if fmt == "csv" else "\t", lineterminator=terminator)
    writer.writerow([draw(st.sampled_from(["", " "])) + c for c in columns])
    n_rows = draw(st.integers(0, 30))
    damage = dict(draw(st.lists(st.tuples(st.integers(0, n_rows), st.sampled_from(DAMAGE)), max_size=2)))
    blank = draw(st.sets(st.integers(0, n_rows), max_size=3))
    for r in range(n_rows):
        if r in blank:
            buf.write(terminator)
        event = {
            "user": draw(st.sampled_from(KEYS)),
            "item": draw(st.sampled_from(KEYS)),
            "value": draw(st.sampled_from(VALUES)),
            "timestamp": draw(st.sampled_from(STAMPS)),
            "extra": "z",
        }
        kind = damage.get(r)
        if kind in ("no_user", "no_item"):
            event[kind[3:]] = draw(st.sampled_from(["", "  "]))
        if kind in BAD:
            event[kind] = draw(st.sampled_from(BAD[kind]))
        row = [event[c] for c in columns]
        if kind == "short":
            row.pop()
        if kind == "long":
            row.append("1")
        writer.writerow(row)
    text = buf.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix(terminator)
    kwargs = {
        "fmt": fmt,
        "dedup": draw(st.sampled_from(DEDUP_POLICIES)),
        "min_value": draw(st.sampled_from([None, 0.0, 2.0, 4.5])),
        "binarize": draw(st.booleans()),
    }
    return text, kwargs


def load_outcome(load, path, **kwargs):
    try:
        return load(path, **kwargs)
    except DataError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(case=interaction_files(), chunk=st.sampled_from([1, 8, 30, 100, 1 << 16]))
def test_load_matches_per_row_reference(tmp_path_factory, case, chunk):
    """Same ids, keys, indexes, values, timestamps, dedup choices and errors
    (with line numbers) as the per-row reader, with chunks small enough that
    records cross chunk boundaries and the first quote comes in a later chunk."""
    text, kwargs = case
    path = tmp_path_factory.mktemp("load") / "log.txt"
    path.write_text(text, encoding="utf-8", newline="")
    want = load_outcome(load_interactions_reference, path, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_CHUNK_CHARS", chunk)
        got = load_outcome(load_interactions, path, **kwargs)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert_same_interactions(got, want)


@st.composite
def pair_events(draw):
    """Up to 40 (user id, item id, value) events over four users from ``u0``
    and the items 0, 1, m - 1 and m, ids up to 10⁶: pairs repeat, and (u, m)
    sits beside (u + 1, 0), which a pair key ``u·m + i`` would merge."""
    u0, m = draw(st.integers(0, 10**6 - 3)), draw(st.integers(1, 10**6))
    return draw(st.lists(
        st.tuples(st.integers(u0, u0 + 3), st.sampled_from([0, 1, m - 1, m]),
                  st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0])),
        max_size=40,
    ))


@settings(max_examples=300, deadline=None)
@given(events=pair_events(), policy=st.sampled_from(DEDUP_POLICIES))
@example(events=[(0, 0, -0.0), (1, 0, 1.0), (0, 0, 0.0)], policy="keep_max")
@example(events=[(0, 0, 0.0), (0, 0, -0.0)], policy="keep_max")
@example(events=[(10**6, 10**6, 1.0), (10**6 - 1, 0, 1.0), (10**6 - 2, 10**6, 2.0)], policy="error")
def test_dedup_matches_group_loop(events, policy):
    """keep_max ties go to the earliest event, exactly as argmax, ±0.0
    included; errors name the same pair by the same keys."""
    uids = np.array([e[0] for e in events], dtype=np.int64)
    iids = np.array([e[1] for e in events], dtype=np.int64)
    vals = np.array([e[2] for e in events], dtype=np.float64)
    # key tables of 10⁶ entries would be slow to build per example; the
    # dicts name just the ids the events use
    user_keys = {u: f"u{u}" for u in uids.tolist()}
    item_keys = {i: f"i{i}" for i in iids.tolist()}
    outcome = []
    for dedup in (_dedup_indices, dedup_indices_reference):
        try:
            outcome.append(dedup(uids, iids, vals, policy, user_keys, item_keys).tolist())
        except DataError as exc:
            outcome.append(str(exc))
    assert outcome[0] == outcome[1]


@settings(max_examples=300, deadline=None)
@given(
    n_keys=st.sampled_from([7, 10**5]),
    ids=st.lists(st.tuples(st.integers(0, 10**5 - 1), st.integers(0, 10**5 - 1)), min_size=1, max_size=7),
    picks=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=40),
    keep=st.lists(st.booleans(), min_size=40, max_size=40),
    numbered=st.booleans(),
)
def test_reindex_matches_event_walk(n_keys, ids, picks, keep, numbered):
    """Ids up to 10⁵ from key tables with keys no event uses, any selection
    (the empty one included), and logs already numbered in order of first
    appearance, which come back with their own key tables."""
    pool = [(u % n_keys, i % n_keys) for u, i in ids]
    events = [(pool[a % len(pool)][0], pool[b % len(pool)][1], float(k)) for k, (a, b) in enumerate(picks)]
    iset = make_iset(events, n_users=n_keys, n_items=n_keys, timestamps=list(range(len(events))))
    idx = np.flatnonzero(keep[: len(events)])
    if numbered:
        iset, idx = reindex_reference(iset, np.arange(len(events))), np.arange(len(events))
    got = _reindex(iset, idx)
    assert_same_interactions(got, reindex_reference(iset, idx))
    if numbered:
        assert got.user_keys is iset.user_keys and got.item_keys is iset.item_keys


SIGNED_ZEROS = (
    "user,item,value\na,x,0\nb,x,-0.0\nc,y,-0\n",
    {"fmt": "csv", "dedup": "keep_max", "min_value": None, "binarize": False},
)


@settings(max_examples=150, deadline=None)
@given(case=interaction_files(), min_user_events=st.sampled_from([0, 2]))
@example(case=SIGNED_ZEROS, min_user_events=0)
def test_ingest_writes_reference_bytes(tmp_path_factory, case, min_user_events):
    text, kwargs = case
    root = tmp_path_factory.mktemp("ingest")
    raw = root / "raw.txt"
    raw.write_text(text, encoding="utf-8", newline="")
    want = load_outcome(load_interactions_reference, raw, **kwargs)
    if isinstance(want, str):
        return
    if min_user_events:
        want = filter_activity(want, min_user_events=min_user_events)
    write_canonical_reference(want, root / "want.csv")
    assert main(ingest_argv(raw, root / "got.csv", kwargs, min_user_events)) == 0
    assert (root / "got.csv").read_bytes() == (root / "want.csv").read_bytes()


@settings(max_examples=300, deadline=None)
@given(key=st.text(st.sampled_from([",", '"', "\r", "\n", "\t", " ", "0", "7", "a", "Z", "é", "日", "²"])
               | st.characters(), min_size=1))
@example(key="12345")
@example(key=" pad ")
@example(key="Müller")
def test_csv_field_is_the_field_csv_writer_writes(key):
    """Keys hold delimiters, quotes, line breaks, tabs, padding, digits
    only, or non-ASCII text; each is the field csv.writer puts in a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([key, "1.0"])
    assert _csv_field(key) + ",1.0\r\n" == buf.getvalue()


def ingest_argv(raw, output, kwargs, min_user_events):
    """``ingest`` of ``raw`` as :func:`interaction_files` says to read it."""
    argv = ["ingest", "--input", str(raw), "--output", str(output),
            "--format", kwargs["fmt"], "--dedup", kwargs["dedup"],
            "--min-user-events", str(min_user_events)]
    argv += ["--binarize"] if kwargs["binarize"] else []
    argv += [] if kwargs["min_value"] is None else ["--min-value", str(kwargs["min_value"])]
    return argv


class Parses:
    """Counts the loads that parse text (calls of ``data._chunks``)."""

    def __init__(self, monkeypatch):
        self.count = 0
        chunks = data._chunks

        def counted(*args, **kwargs):
            self.count += 1
            return chunks(*args, **kwargs)

        monkeypatch.setattr(data, "_chunks", counted)


# keep_max keeps u1's second event, so u2 appears first among the retained
# events: the loader gives user ids [0, 1] with keys [u2, u1], as re-reading
# the CSV does
DEDUP_RENUMBERS = (
    "user,item,value\nu1,i1,1\nu2,i2,1\nu1,i1,5\n",
    {"fmt": "csv", "dedup": "keep_max", "min_value": None, "binarize": False},
)


@settings(max_examples=150, deadline=None)
@given(case=interaction_files(), min_user_events=st.sampled_from([0, 2]))
@example(case=DEDUP_RENUMBERS, min_user_events=0)
@example(case=SIGNED_ZEROS, min_user_events=0)
def test_event_container_loads_what_parsing_gives(tmp_path_factory, case, min_user_events):
    text, kwargs = case
    root = tmp_path_factory.mktemp("container")
    raw = root / "raw.txt"
    raw.write_text(text, encoding="utf-8", newline="")
    if main(ingest_argv(raw, root / "data.csv", kwargs, min_user_events)) != 0:
        return  # the log is refused; ingest wrote nothing
    with pytest.MonkeyPatch.context() as mp:
        parses = Parses(mp)
        got = load_interactions(root / "data.csv")
    assert parses.count == 0
    (root / "data.csv.events").unlink()
    assert_same_interactions(got, load_interactions(root / "data.csv"))


CANONICAL_LOG = "user,item,value,timestamp\nu1,i1,1,10\nu2,i2,4,11\nu1,i1,5,12\nu3,i1,2,13\n"


def _rewrite(path, edit):
    path.write_bytes(edit(path.read_bytes()))


def _not_a_file(path):
    path.unlink()
    path.mkdir()


def _flip(offset):
    """An edit of the container that flips the low bit of one byte, so its
    size stays."""

    def edit(raw):
        raw = bytearray(raw)
        raw[offset] ^= 1
        return bytes(raw)

    return lambda d: _rewrite(d / "data.csv.events", edit)


# CANONICAL_LOG's container: a 24-byte head, the 32-byte sha256 of every
# other byte, a 355-byte JSON header (the event count of the first array's
# shape at byte 109, the user keys [u2, u1, u3] from byte 290), and the user
# ids, item ids, values and timestamps of its 3 events (24 bytes each).
_DIGEST_AT, _EVENT_COUNT_AT, _KEYS_AT, _COLUMNS_AT = 24, 109, 290, 24 + 32 + 355

# Each damages the CSV or its container after ingest; parsing must win.
BAD_CONTAINERS = {
    "csv_edited_same_size": lambda d: _rewrite(d / "data.csv", lambda b: b.replace(b"4.0", b"3.0")),
    "csv_row_appended": lambda d: _rewrite(d / "data.csv", lambda b: b + b"u4,i2,1.0,14.0\r\n"),
    "truncated": lambda d: _rewrite(d / "data.csv.events", lambda b: b[:-1]),
    "truncated_header": lambda d: _rewrite(d / "data.csv.events", lambda b: b[:20]),
    "one_byte_longer": lambda d: _rewrite(d / "data.csv.events", lambda b: b + b"\0"),
    "wrong_magic": lambda d: _rewrite(d / "data.csv.events", lambda b: b"EASE" + b[4:]),
    "other_version": lambda d: _rewrite(
        d / "data.csv.events", lambda b: b[:4] + (files._VERSION + 1).to_bytes(4, "little") + b[8:]),
    "event_count_edited": _flip(_EVENT_COUNT_AT),  # 3 -> 2
    "key_edited": _flip(_KEYS_AT),  # u2 -> t2
    "user_id_out_of_range": _flip(_COLUMNS_AT + 4),  # id 0 -> 2**32
    "value_edited_finite": _flip(_COLUMNS_AT + 2 * 24 + 6),  # 4.0 -> 4.25
    "timestamp_edited": _flip(_COLUMNS_AT + 3 * 24),
    "own_digest_edited": _flip(_DIGEST_AT),
    "not_a_file": lambda d: _not_a_file(d / "data.csv.events"),
}


@pytest.fixture
def ingested(tmp_path):
    raw = write(tmp_path, CANONICAL_LOG, "raw.csv")
    assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "data.csv")]) == 0
    return tmp_path


def parsed(directory, **kwargs):
    """The load with the container out of the way."""
    copy = directory / "parsed"
    copy.mkdir()
    (copy / "data.csv").write_bytes((directory / "data.csv").read_bytes())
    return load_outcome(load_interactions, copy / "data.csv", **kwargs)


def test_intact_container_is_read_without_parsing(ingested, monkeypatch):
    raw = (ingested / "data.csv.events").read_bytes()
    assert len(raw) == _COLUMNS_AT + 4 * 24
    assert raw[_EVENT_COUNT_AT : _EVENT_COUNT_AT + 2] == b"3]" and raw[_KEYS_AT : _KEYS_AT + 2] == b"u2"
    parses = Parses(monkeypatch)
    got = load_interactions(ingested / "data.csv")
    assert parses.count == 0
    assert got.user_keys == ["u2", "u1", "u3"] and got.values.tolist() == [4.0, 5.0, 2.0]
    assert_same_interactions(got, parsed(ingested))


@pytest.mark.parametrize("damage", list(BAD_CONTAINERS))
def test_bad_container_is_never_used(ingested, monkeypatch, damage):
    BAD_CONTAINERS[damage](ingested)
    parses = Parses(monkeypatch)
    got = load_interactions(ingested / "data.csv")
    assert parses.count == 1
    assert_same_interactions(got, parsed(ingested))


def test_binarized_load_reads_the_container(ingested, monkeypatch):
    parses = Parses(monkeypatch)
    got = load_interactions(ingested / "data.csv", binarize=True)
    assert parses.count == 0
    assert got.values.tolist() == [1.0, 1.0, 1.0]
    want = parsed(ingested, binarize=True)
    assert parses.count == 1
    assert_same_interactions(got, want)


@pytest.mark.parametrize("kwargs", [
    {"min_value": 3.0},
    {"dedup": "keep_last"},
    {"schema": InteractionSchema(user="user", item="item")},
    {"fmt": "tsv"},
], ids=["min_value", "keep_last", "schema", "tsv"])
def test_container_is_not_used_with_other_options(ingested, monkeypatch, kwargs):
    parses = Parses(monkeypatch)
    got = load_outcome(load_interactions, ingested / "data.csv", **kwargs)
    assert parses.count == 1
    want = parsed(ingested, **kwargs)
    if isinstance(want, str):
        assert got == want.replace(str(ingested / "parsed"), str(ingested))
    else:
        assert_same_interactions(got, want)
