"""Interaction-log ingestion, index maps, user splits, and popularity statistics.

Raw event logs (CSV/TSV with a header) are mapped onto dense integer user and
item ids in first-appearance order.  Everything downstream (matrices, Gram
statistics, models) works in that dense id space; the key tables are kept for
serialization and for talking to the outside world.

The canonical CSV that ``ingest`` writes gets an ``events`` container (see
:mod:`gramrec.files`) beside it, ``<name>.events``, holding the parsed
events and the sha256 of the CSV's bytes; a load of the CSV with default
options, binarizing aside, reads the container instead of parsing while
that digest matches.
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .files import atomic_write, read_container, write_container

DEDUP_POLICIES = ("keep_max", "keep_last", "error")
DEFAULT_FOLD_IN = 0.8  # fraction of an evaluated row fed to the model
_CHUNK_CHARS = 1 << 16  # characters of whole lines parsed at a time
_TIMESTAMP_BOUND = 2.0**63  # timestamps are int64
_ROWS_PER_WRITE = 4096  # canonical CSV rows per file write
_SPLIT_FILES = {"train": "train_users.txt", "validation": "validation_users.txt",
                "test": "test_users.txt"}  # each user set of a split, and its file


@dataclass
class InteractionSchema:
    """Column names of an interaction log. `value` and `time` are optional."""

    user: str
    item: str
    value: str | None = None
    time: str | None = None


@dataclass
class InteractionSet:
    """A deduplicated interaction log with dense user/item index maps.

    Events are stored as parallel arrays; ``user_keys[i]`` / ``item_keys[i]``
    recover the original opaque keys for dense id ``i``, and ``user_index``
    / ``item_index`` map them back.  At most one event exists per (user,
    item) pair.
    """

    user_ids: np.ndarray
    item_ids: np.ndarray
    values: np.ndarray
    timestamps: np.ndarray | None
    user_keys: list[str]
    item_keys: list[str]

    @cached_property
    def user_index(self) -> dict[str, int]:
        return dict(zip(self.user_keys, count()))

    @cached_property
    def item_index(self) -> dict[str, int]:
        return dict(zip(self.item_keys, count()))

    @property
    def n_users(self) -> int:
        return len(self.user_keys)

    @property
    def n_items(self) -> int:
        return len(self.item_keys)

    @property
    def n_events(self) -> int:
        return len(self.user_ids)


@dataclass
class UserItemMatrix:
    """Sparse user-by-item matrix; rows hold (item id, value) pairs."""

    matrix: sp.csr_matrix

    @property
    def n_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_items(self) -> int:
        return self.matrix.shape[1]

    def restrict_users(self, user_ids: np.ndarray) -> "UserItemMatrix":
        """New matrix containing only the given users' rows, in the given order."""
        return UserItemMatrix(matrix=self.matrix[np.asarray(user_ids, dtype=np.intp)])


@dataclass
class SplitSpec:
    """Disjoint user sets for strong-generalization evaluation."""

    train_users: np.ndarray
    validation_users: np.ndarray
    test_users: np.ndarray
    fold_in_fraction: float = DEFAULT_FOLD_IN
    seed: int = 0

    def users(self, which: str) -> np.ndarray:
        """The ``train``, ``validation`` or ``test`` users."""
        if which not in _SPLIT_FILES:
            raise DataError(f"users must be one of {tuple(_SPLIT_FILES)}, got {which!r}")
        return getattr(self, f"{which}_users")


@dataclass
class TimeIntervalIndex:
    """Equal-count time intervals with one popularity vector per interval.

    ``boundaries`` holds N+1 sorted timestamps.  A queried timestamp equal to
    an interior boundary belongs to the earlier interval; timestamps outside
    the covered range map to the nearest interval.
    """

    boundaries: np.ndarray
    pops: np.ndarray  # shape (n_intervals, n_items)
    counts: np.ndarray

    @property
    def n_intervals(self) -> int:
        return self.pops.shape[0]

    def locate(self, timestamps) -> np.ndarray:
        """Interval index for each timestamp (ties go to the earlier interval),
        by its value: a float t lies after an integer boundary exactly when
        ceil(t) does, and one at or beyond 2**63 after every boundary."""
        ts = np.atleast_1d(np.asarray(timestamps))
        inner = self.boundaries[1:-1]
        if ts.dtype.kind != "f":
            return np.searchsorted(inner, ts.astype(np.int64, copy=False), side="left")
        up = np.maximum(np.ceil(ts), -_TIMESTAMP_BOUND)
        beyond = up >= _TIMESTAMP_BOUND
        k = np.searchsorted(inner, np.where(beyond, 0.0, up).astype(np.int64), side="left")
        return np.where(beyond, len(inner), k)


def load_interactions(
    path: str | Path,
    fmt: str = "csv",
    schema: InteractionSchema | None = None,
    binarize: bool = False,
    dedup: str = "keep_max",
    min_value: float | None = None,
    users: Callable[[dict[str, int]], np.ndarray] | None = None,
) -> InteractionSet:
    """Read an interaction log into an :class:`InteractionSet`.

    Parameters
    ----------
    path:
        UTF-8 CSV or TSV file with a header row.  Quoted fields may hold
        delimiters, quotes and line breaks.
    fmt:
        ``"csv"`` or ``"tsv"``.
    schema:
        Column mapping; defaults to columns named ``user``, ``item`` and,
        when present in the header, ``value`` and ``timestamp``.
    binarize:
        Replace all retained values by 1.0, so that the matrix, popularity
        and time intervals built from the result all count interactions.
    dedup:
        Policy for repeated (user, item) pairs: ``keep_max`` (largest value
        wins), ``keep_last`` (file order wins), or ``error``.
    min_value:
        Drop events with value below this threshold before indexing.
    users:
        Called with the log's user key index (key to dense id) and returns
        the ids of the users whose events are kept; the others' events are
        dropped, as :func:`events_of` drops them.  Ids and key tables stay
        those of the whole log.

    Dense ids are assigned in first-appearance order of the retained events.
    A missing value column means every event has value 1.0.  Errors name the
    record (``line N``, the header being line 1) of the first bad event.

    With every option but ``binarize`` and ``users`` at its default, the
    event container ``ingest`` wrote beside ``path`` is read instead of the
    text, when it is intact, holds the sha256 of ``path``'s current bytes
    and passes its checks; it gives the same result, and only the kept
    users' events are read into memory.
    """
    if fmt not in ("csv", "tsv"):
        raise DataError(f"unknown format {fmt!r}; expected 'csv' or 'tsv'")
    if dedup not in DEDUP_POLICIES:
        raise DataError(f"unknown dedup policy {dedup!r}; expected one of {DEDUP_POLICIES}")
    path = Path(path)
    iset = None
    if (fmt, schema, dedup, min_value) == ("csv", None, "keep_max", None):
        iset = _load_events(path, users)
    if iset is None:
        iset = _parse_interactions(path, "," if fmt == "csv" else "\t", schema, dedup, min_value)
        if users is not None:
            iset = events_of(iset, users(dict(zip(iset.user_keys, count()))))
    if binarize:
        iset.values.fill(1.0)
    return iset


def _parse_interactions(path: Path, delimiter: str, schema: InteractionSchema | None, dedup: str,
                        min_value: float | None) -> InteractionSet:
    """The events of the text at ``path``, before :func:`load_interactions` binarizes."""
    user_index: defaultdict[str, int] = defaultdict(count().__next__)
    item_index: defaultdict[str, int] = defaultdict(count().__next__)

    def parse(n_fields: np.ndarray, fields: list[str], line_no: int):
        """Id, value and timestamp arrays of one chunk whose first record is
        line ``line_no``, laid out by the header (``col``, ``n_cols``, read
        below).  Each check looks only at the records before the first error
        found so far, so the error raised is the earliest one."""
        rows = np.flatnonzero(n_fields)  # blank records have no fields
        stop, error = len(rows), None
        ragged = np.flatnonzero(n_fields[rows] != n_cols)
        if len(ragged):
            stop = int(ragged[0])
            error = f"expected {n_cols} columns, got {n_fields[rows[stop]]}"

        def column(role: str) -> list[str]:
            return fields[col[role] : stop * n_cols : n_cols]

        users = list(map(str.strip, column("user")))
        items = list(map(str.strip, column("item")))
        empty = min(_find(users, ""), _find(items, ""))
        if empty < stop:
            stop, error = empty, "empty user or item key"
        if "value" in col:
            texts = column("value")
            values, bad = _floats(texts)
            if bad < stop:
                stop, error = bad, f"column {schema.value!r} is not a number: {texts[bad]!r}"
            nonfinite = np.flatnonzero(~np.isfinite(values))
            if len(nonfinite):
                stop = int(nonfinite[0])
                error = f"column {schema.value!r} is not finite: {texts[stop]!r}"
        else:
            values = np.ones(stop)
        kept = np.ones(stop, dtype=bool) if min_value is None else ~(values[:stop] < min_value)
        stamps = None
        if "time" in col:
            texts = list(map(str.strip, compress(column("time"), kept.tolist())))
            stamps, bad = _floats(texts)
            out = np.flatnonzero(~((stamps >= -_TIMESTAMP_BOUND) & (stamps < _TIMESTAMP_BOUND)))
            if len(out):
                bad = min(bad, int(out[0]))
            if bad < len(texts):
                stop = int(np.flatnonzero(kept)[bad])
                error = f"column {schema.time!r} is not a timestamp: {texts[bad]!r}"
        if error is not None:
            raise DataError(f"line {line_no + rows[stop]}: {error}")
        if min_value is not None:
            keep = kept.tolist()
            users, items = list(compress(users, keep)), list(compress(items, keep))
            values = values[kept]
        return (
            _ids(user_index, users),
            _ids(item_index, items),
            values,
            None if stamps is None else stamps.astype(np.int64),  # truncates toward zero, as int()
        )

    try:
        with path.open(encoding="utf-8-sig", newline="") as fh:  # a leading BOM is dropped
            chunks = _chunks(fh, delimiter)
            n_fields, fields = next(chunks, (None, None))
            if n_fields is None:
                raise DataError(f"{path}: empty file, expected a header row")
            header = [h.strip() for h in fields[: n_fields[0]]]
            if schema is None:
                schema = InteractionSchema(
                    user="user",
                    item="item",
                    value="value" if "value" in header else None,
                    time="timestamp" if "timestamp" in header else None,
                )
            col = {}
            for role, name in (
                ("user", schema.user),
                ("item", schema.item),
                ("value", schema.value),
                ("time", schema.time),
            ):
                if name is None:
                    continue
                if name not in header:
                    raise DataError(f"{path}: header has no column {name!r} (columns: {header})")
                col[role] = header.index(name)
            n_cols = len(header)

            parts = [parse(n_fields[1:], fields[n_fields[0] :], 2)]
            line_no = 1 + len(n_fields)
            for n_fields, fields in chunks:
                parts.append(parse(n_fields, fields, line_no))
                line_no += len(n_fields)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None

    user_arr, item_arr, value_arr, time_arr = (
        None if arrays[0] is None else np.concatenate(arrays) for arrays in zip(*parts)
    )
    del parts  # the chunks' arrays, before dedup allocates

    user_keys, item_keys = list(user_index), list(item_index)
    keep = _dedup_indices(user_arr, item_arr, value_arr, dedup, user_keys, item_keys)
    dropped = len(keep) < len(user_arr)
    user_arr, item_arr, value_arr = user_arr[keep], item_arr[keep], value_arr[keep]
    if time_arr is not None:
        time_arr = time_arr[keep]

    iset = InteractionSet(
        user_ids=user_arr,
        item_ids=item_arr,
        values=value_arr,
        timestamps=time_arr,
        user_keys=user_keys,
        item_keys=item_keys,
    )
    # ids were given over every parsed event; the dropped duplicates can
    # have been the first appearances
    return _reindex(iset, slice(None)) if dropped else iset


def _events_path(path: Path) -> Path:
    return path.with_name(path.name + ".events")


def _load_events(path: Path, users: Callable[[dict[str, int]], np.ndarray] | None) -> InteractionSet | None:
    """The events in the container beside ``path``, of the ``users`` only
    when that is given (see :func:`load_interactions`); None when there is
    no container, or it is unreadable, malformed, damaged or out of range,
    or was written for other bytes than ``path`` holds now.  A ``users``
    that raises is called again on the parsed log, whose keys decide."""
    select = None if users is None else ("user_ids", lambda keys: users(dict(zip(keys, count()))))
    try:
        c = read_container(_events_path(path), "events", verify=True, select=select,
                           ids={"user_ids": "users", "item_ids": "items"}, finite=("values",))
        user_ids = c.array("user_ids", (-1,))
        n = user_ids.shape
        iset = InteractionSet(
            user_ids=user_ids,
            item_ids=c.array("item_ids", n),
            values=c.array("values", n),
            timestamps=c.array("timestamps", n) if "timestamps" in c.arrays else None,
            user_keys=c.keys["users"],
            item_keys=c.keys["items"],
        )
        with path.open("rb") as csv_fh:
            if hashlib.file_digest(csv_fh, "sha256").hexdigest() != c.meta.get("csv_sha256"):
                return None
    except (OSError, KeyError, DataError):
        return None
    return iset


def save_interactions(path: str | Path, iset: InteractionSet) -> None:
    """Write ``iset`` as the canonical CSV at ``path`` (a ``user,item,value``
    header, plus ``timestamp`` when the events have them), then its event
    container beside it, each atomically.  The container holds what loading
    the CSV gives, so the ids must be numbered in first-appearance order, as
    :func:`load_interactions` and :func:`filter_activity` number them."""
    path = Path(path)
    # The rows csv.writer would write: each key's field and each distinct
    # value's repr is rendered once (bit patterns, so -0.0 stays apart from 0.0).
    user_fields = list(map(_csv_field, iset.user_keys))
    item_fields = list(map(_csv_field, iset.item_keys))
    bits, value_of = np.unique(iset.values.view(np.int64), return_inverse=True)
    value_texts = list(map(repr, bits.view(np.float64).tolist()))
    has_time = iset.timestamps is not None
    csv_digest = hashlib.sha256()
    with atomic_write(path, binary=True) as fh:

        def write(text: str) -> None:
            raw = text.encode("utf-8")
            csv_digest.update(raw)
            fh.write(raw)

        write("user,item,value" + (",timestamp" if has_time else "") + "\r\n")
        for lo in range(0, iset.n_events, _ROWS_PER_WRITE):
            rows = slice(lo, lo + _ROWS_PER_WRITE)
            cols = [
                map(user_fields.__getitem__, iset.user_ids[rows].tolist()),
                map(item_fields.__getitem__, iset.item_ids[rows].tolist()),
                map(value_texts.__getitem__, value_of[rows].tolist()),
            ]
            if has_time:
                cols.append(map(repr, iset.timestamps[rows].astype(float).tolist()))
            write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")
    columns = {"user_ids": iset.user_ids, "item_ids": iset.item_ids, "values": iset.values}
    if has_time:
        columns["timestamps"] = iset.timestamps
    write_container(_events_path(path), "events", iset.n_items, {"csv_sha256": csv_digest.hexdigest()},
                    columns, {"users": iset.user_keys, "items": iset.item_keys})


def _csv_field(key: str) -> str:
    """``key`` as csv.writer writes it within a row; letters and digits alone are never quoted."""
    if key.isalnum():
        return key
    buf = io.StringIO()
    csv.writer(buf).writerow((key,))
    return buf.getvalue()[:-2]


def _chunks(fh, delimiter: str):
    """The records of ``fh`` in chunks of about ``_CHUNK_CHARS`` characters,
    each as (field count per record, every field in file order); a blank
    record has 0 fields.

    A chunk with no quote and no lone carriage return is split with
    ``str.split``.  From the first chunk that has either, the rest of the
    file goes through ``csv.reader``, the only path that parses quoted
    fields, which may span lines.  Both paths refuse a field longer than
    ``csv.field_size_limit()``."""
    limit = csv.field_size_limit()
    while lines := fh.readlines(_CHUNK_CHARS):
        text = "".join(lines).replace("\r\n", "\n")
        if '"' in text or "\r" in text:
            reader = csv.reader(chain(lines, fh), delimiter=delimiter)
            # blocks of as many records as a chunk holds 16-character lines
            while block := list(islice(reader, _CHUNK_CHARS // 16 or 1)):
                yield np.fromiter(map(len, block), np.intp, len(block)), list(chain.from_iterable(block))
            return
        records = text.split("\n")
        if not records[-1]:
            records.pop()
        n_fields = np.fromiter(map(str.count, records, repeat(delimiter)), np.intp, len(records)) + 1
        if "" in records:
            n_fields *= np.fromiter(map(bool, records), bool, len(records))
            records = list(filter(None, records))
        fields = delimiter.join(records).split(delimiter) if records else []
        if len(text) > limit and max(map(len, fields)) > limit:  # as csv.reader would
            raise csv.Error(f"field larger than field limit ({limit})")
        yield n_fields, fields


def _find(keys: list[str], key: str) -> int:
    """Position of the first ``key`` in ``keys``, ``len(keys)`` if absent."""
    return keys.index(key) if key in keys else len(keys)


def _floats(texts: list[str]) -> tuple[np.ndarray, int]:
    """``float`` of each text up to the first one it rejects, and that
    position (``len(texts)`` when it accepts all)."""
    try:
        return np.fromiter(map(float, texts), np.float64, len(texts)), len(texts)
    except ValueError:
        parsed = []
        for text in texts:
            try:
                parsed.append(float(text))
            except ValueError:
                return np.asarray(parsed, dtype=np.float64), len(parsed)
        raise


def _ids(index: defaultdict[str, int], keys: list[str]) -> np.ndarray:
    """Dense id of each key in one pass of lookups; ``index`` gives each key
    new to it the next id, so new keys are numbered in order of first appearance."""
    return np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))


def _dedup_indices(uids: np.ndarray, iids: np.ndarray, vals: np.ndarray, policy: str,
                   user_keys: list[str], item_keys: list[str]) -> np.ndarray:
    """Indices of the surviving event per (user, item) pair, in file order.  Events are
    sorted on one key per pair, ``uid·n + iid`` with ``n`` above every item id; a group
    starts where it changes.  ``error`` names the smallest duplicated pair by its keys."""
    if len(uids) == 0:
        return np.empty(0, dtype=np.intp)
    pair = uids * (int(iids.max()) + 1) + iids
    # Stable sort, so file order holds within a pair (and within equal values
    # of a pair under keep_max, where -0.0 and 0.0 are equal as for argmax).
    order = np.lexsort((-vals, pair)) if policy == "keep_max" else np.argsort(pair, kind="stable")
    pair = pair[order]
    boundary = np.empty(len(order), dtype=bool)
    boundary[0] = True
    np.not_equal(pair[1:], pair[:-1], out=boundary[1:])
    del pair  # the sorted keys would set the peak of a load
    starts = np.flatnonzero(boundary)
    if len(starts) == len(order):
        return np.sort(order)

    if policy == "error":
        dup = order[np.flatnonzero(~boundary)[0]]
        raise DataError(
            "duplicate (user, item) events under dedup policy 'error' "
            f"(first duplicated pair: user {user_keys[uids[dup]]!r}, item {item_keys[iids[dup]]!r})"
        )
    if policy == "keep_last":
        return np.sort(order[np.append(starts[1:], len(order)) - 1])
    return np.sort(order[starts])  # keep_max: largest value, earliest on ties


def filter_activity(
    iset: InteractionSet,
    min_user_events: int = 0,
    min_item_events: int = 0,
) -> InteractionSet:
    """Drop low-activity items, then low-activity users (single pass each).

    Dense ids are reassigned in first-appearance order of the surviving
    events, so the result is a self-contained :class:`InteractionSet`.
    """
    keep = np.ones(iset.n_events, dtype=bool)
    if min_item_events > 0:
        item_counts = np.bincount(iset.item_ids, minlength=iset.n_items)
        keep &= item_counts[iset.item_ids] >= min_item_events
    if min_user_events > 0:
        user_counts = np.bincount(iset.user_ids[keep], minlength=iset.n_users)
        keep &= user_counts[iset.user_ids] >= min_user_events
    idx = np.flatnonzero(keep)
    return _reindex(iset, idx)


def _reindex(iset: InteractionSet, event_idx: np.ndarray | slice) -> InteractionSet:
    uids, user_keys = _first_appearance(iset.user_ids[event_idx], iset.user_keys)
    iids, item_keys = _first_appearance(iset.item_ids[event_idx], iset.item_keys)
    return InteractionSet(
        user_ids=uids,
        item_ids=iids,
        values=iset.values[event_idx],
        timestamps=None if iset.timestamps is None else iset.timestamps[event_idx],
        user_keys=user_keys,
        item_keys=item_keys,
    )


def _first_appearance(ids: np.ndarray, keys: list[str]) -> tuple[np.ndarray, list[str]]:
    """``ids`` renumbered from 0 in order of first appearance, and the keys
    of the new ids; ``ids`` and ``keys`` themselves when already so.  Each id's first position
    is scattered into a table over the keys; only those of the distinct ids are sorted."""
    if len(ids):
        # So numbered: each id is at most one above all before it, and the
        # largest is the last key's.
        peak = np.maximum.accumulate(ids)
        if ids[0] == 0 and peak[-1] == len(keys) - 1 and (ids[1:] <= peak[:-1] + 1).all():
            return ids, keys
    first = np.full(len(keys), len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    old = ids[np.sort(first[first < len(ids)])]
    new = np.empty(len(keys), dtype=np.int64)
    new[old] = np.arange(len(old))
    return new[ids], list(map(keys.__getitem__, old.tolist()))


def to_user_item_matrix(iset: InteractionSet) -> UserItemMatrix:
    """Build the full sparse user-item matrix from an interaction set."""
    mat = sp.csr_matrix(
        (iset.values, (iset.user_ids, iset.item_ids)),
        shape=(iset.n_users, iset.n_items),
        dtype=np.float64,
    )
    mat.sum_duplicates()
    mat.eliminate_zeros()  # stored values must be non-zero
    mat.sort_indices()
    return UserItemMatrix(matrix=mat)


def split_strong_generalization(
    iset: InteractionSet,
    n_val: int,
    n_test: int,
    seed: int,
) -> SplitSpec:
    """Partition users into disjoint train/validation/test sets.

    Deterministic for a fixed seed; all users not drawn for validation or
    test remain training users.
    """
    n_users = iset.n_users
    if n_val < 0 or n_test < 0:
        raise DataError("split sizes must be non-negative")
    if n_val + n_test >= n_users:
        raise DataError(
            f"cannot hold out {n_val}+{n_test} users from a set of {n_users}; "
            "at least one training user is required"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_users)
    val = np.sort(perm[:n_val])
    test = np.sort(perm[n_val : n_val + n_test])
    train = np.sort(perm[n_val + n_test :])
    return SplitSpec(
        train_users=train,
        validation_users=val,
        test_users=test,
        seed=seed,
    )


def popularity(iset: InteractionSet, user_subset: np.ndarray | None = None) -> np.ndarray:
    """Per-item sums of the event values (interaction counts once binarized)
    as float64, optionally over the events of a user subset only.  Each
    item's sum runs in event order."""
    items, values = iset.item_ids, iset.values
    if user_subset is not None:
        events = user_event_mask(iset, user_subset)
        items, values = items[events], values[events]
    pop = np.bincount(items, weights=values, minlength=iset.n_items)
    return pop.astype(np.float64, copy=False)  # bincount gives int64 zeros for no events


def user_event_mask(iset: InteractionSet, user_subset: np.ndarray) -> np.ndarray:
    """Whether each event's user is in ``user_subset``."""
    member = np.zeros(iset.n_users, dtype=bool)
    member[np.asarray(user_subset, dtype=np.intp)] = True
    return member[iset.user_ids]


def events_of(iset: InteractionSet, user_subset: np.ndarray) -> InteractionSet:
    """The events of the users in ``user_subset``, in their order, with the
    ids and key tables of ``iset``."""
    keep = user_event_mask(iset, user_subset)
    return replace(iset, user_ids=iset.user_ids[keep], item_ids=iset.item_ids[keep],
                   values=iset.values[keep],
                   timestamps=None if iset.timestamps is None else iset.timestamps[keep])


def time_intervals(
    iset: InteractionSet,
    n_intervals: int,
    user_subset: np.ndarray,
) -> TimeIntervalIndex:
    """Partition the subset's events into N equal-count time intervals.

    Events are assigned positionally after a stable sort by timestamp, so
    interval counts differ by at most one regardless of timestamp ties.
    Boundaries hold the min timestamp, each interval's first timestamp, and
    the max timestamp; :meth:`TimeIntervalIndex.locate` sends a timestamp
    equal to an interior boundary to the earlier interval.
    """
    if n_intervals < 1:
        raise DataError("n_intervals must be >= 1")
    if iset.timestamps is None:
        raise DataError("events carry no timestamps; a time column is required")
    ev = np.flatnonzero(user_event_mask(iset, user_subset))
    if len(ev) == 0:
        raise DataError("user subset has no events")
    ev = ev[np.argsort(iset.timestamps[ev], kind="stable")]

    m = len(ev)
    cuts = np.round(np.arange(n_intervals + 1) * (m / n_intervals)).astype(np.int64)
    pops = np.zeros((n_intervals, iset.n_items))
    for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        pops[k] = np.bincount(iset.item_ids[ev[lo:hi]], weights=iset.values[ev[lo:hi]],
                              minlength=iset.n_items)
    boundaries = iset.timestamps[ev[np.minimum(cuts, m - 1)]].astype(np.int64)
    return TimeIntervalIndex(boundaries=boundaries, pops=pops, counts=np.diff(cuts))


def save_split_files(split_dir: str | Path, split: SplitSpec, user_keys: list[str]) -> None:
    """Write the three user sets as newline-delimited user keys, one atomic file each.
    A key that is empty, holds a line break or starts with U+FEFF (which a
    reader drops as a byte-order mark) is refused before anything is written."""
    for key in user_keys:
        if key.splitlines() != [key] or key.startswith("\ufeff"):
            raise DataError(f"user key {key!r} cannot be written to a split file: it is empty, "
                            "holds a line break or starts with U+FEFF")
    split_dir = Path(split_dir)
    split_dir.mkdir(parents=True, exist_ok=True)
    for group, name in _SPLIT_FILES.items():
        with atomic_write(split_dir / name) as fh:
            fh.writelines(user_keys[i] + "\n" for i in split.users(group))


def load_split_files(
    split_dir: str | Path,
    user_index: dict[str, int],
    fold_in_fraction: float = DEFAULT_FOLD_IN,
    seed: int = 0,
) -> SplitSpec:
    """Read user-key files back into a :class:`SplitSpec` over dense ids.
    Keys are read in file order, so the first unknown key, or the first
    user listed twice, in one file or in two, is the one refused."""
    split_dir = Path(split_dir)
    names = list(_SPLIT_FILES.values())
    sets = {}
    # per user id, 1 + the index in names of the file that lists it, or 0
    listed = bytearray(len(user_index))
    for f, (group, name) in enumerate(_SPLIT_FILES.items(), 1):
        fpath = split_dir / name
        if not fpath.exists():
            raise DataError(f"missing split file {fpath}")
        try:
            keys = fpath.read_text(encoding="utf-8-sig").splitlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"{fpath}: not UTF-8 text ({exc.reason})") from None
        ids, m = np.empty(len(keys), dtype=np.int64), 0  # one buffer, never grown
        for key in filter(None, keys):
            uid = user_index.get(key)
            if uid is None:
                raise DataError(f"{fpath}: unknown user key {key!r}")
            if listed[uid]:
                raise DataError(f"{fpath}: user key {key!r} is already listed in "
                                f"{split_dir / names[listed[uid] - 1]}")
            listed[uid] = f
            ids[m] = uid
            m += 1
        ids = ids[:m]
        ids.sort()
        sets[f"{group}_users"] = ids
    return SplitSpec(**sets, fold_in_fraction=fold_in_fraction, seed=seed)
