"""File output, the one binary container every model and event file is
stored in, and the reader and writer of key-indexed CSVs.

A container is, in order:

- a fixed head ``<4sIQQ``: the magic ``GRMC``, the format version, the item
  count and the length of the header;
- the sha256 of every other byte of the file;
- the header, UTF-8 JSON with sorted keys: ``kind`` (``dense_model``,
  ``sparse_model`` or ``events``), ``meta`` (the kind's scalars), ``keys``
  (key tables as string lists; an ``items`` table has one key per item) and
  ``arrays`` (each array's name, dtype and shape, in file order);
- the arrays, C-order, as little-endian ``<f8`` or ``<i8``.

The item count sits at bytes 8-16, where the dense model format kept it,
so a model's size can be read without parsing the header, as
``perfbench/run.py`` does; and a trained dense model ends with packed P,
an entry of which ``perfbench/test_perfbench.py`` edits in place.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DataError

_MAGIC = b"GRMC"
_VERSION = 1
_HEAD = struct.Struct("<4sIQQ")  # magic, version, item count, header length
_DIGEST_SIZE = 32  # the sha256 that follows the head
_DTYPES = ("<f8", "<i8")
_CHUNK = 1 << 16  # entries an array is converted, hashed and written or read in at a time


@contextmanager
def atomic_write(path: str | Path, binary: bool = False):
    """Open a sibling ``<name>.tmp`` for writing, rename it onto ``path`` when
    the block completes, and remove it if the block raises.  Text files are
    UTF-8 with no newline translation, as ``csv`` expects."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (tmp.open("wb") if binary else tmp.open("w", newline="", encoding="utf-8")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class Container:
    """What a container holds, as :func:`read_container` read it."""

    path: str | Path
    kind: str
    n_items: int
    meta: dict
    keys: dict[str, list[str]]
    arrays: dict[str, np.ndarray]

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The array ``name``, which must have ``shape`` (-1 matches any length)."""
        arr = self.arrays.get(name)
        if arr is None:
            raise DataError(f"{self.path}: the {self.kind} container has no array {name!r}")
        if len(arr.shape) != len(shape) or any(s not in (-1, a) for s, a in zip(shape, arr.shape)):
            raise DataError(f"{self.path}: array {name!r} has shape {arr.shape}, expected {shape}")
        return arr

    def scalar(self, name: str, kind: type, choices=None):
        """The metadata entry ``name``, which must be a ``kind`` (and one of ``choices``)."""
        value = self.meta.get(name)
        if not isinstance(value, kind) or (choices is not None and value not in choices):
            raise DataError(f"{self.path}: metadata {name!r} is {value!r}")
        return value


def write_container(
    path: str | Path,
    kind: str,
    n_items: int,
    meta: dict,
    arrays: dict[str, np.ndarray],
    keys: dict[str, list[str] | None],
) -> None:
    """Write one container atomically.  Integer arrays are stored as ``<i8``,
    the others as ``<f8``, each in C order and _CHUNK entries at a time:
    a chunk is written from the array's own buffer when that already has
    the dtype and layout, and converted otherwise, so a C-contiguous array
    is never copied whole.  Key tables given as None are left out.  Every chunk is hashed
    as it is written, and the digest filled in after the last."""
    keys = {name: table for name, table in keys.items() if table is not None}
    if "items" in keys and len(keys["items"]) != n_items:
        raise DataError(f"expected {n_items} item keys, got {len(keys['items'])}")
    arrays = {name: (arr, "<i8" if np.issubdtype(arr.dtype, np.integer) else "<f8")
              for name, arr in arrays.items()}
    header = json.dumps(
        {"kind": kind, "meta": meta, "keys": keys,
         "arrays": [{"name": name, "dtype": dtype, "shape": arr.shape}
                    for name, (arr, dtype) in arrays.items()]},
        sort_keys=True, ensure_ascii=False, allow_nan=False, separators=(",", ":"),
    ).encode("utf-8")
    head = _HEAD.pack(_MAGIC, _VERSION, n_items, len(header))
    digest = hashlib.sha256(head)
    digest.update(header)
    with atomic_write(path, binary=True) as fh:
        fh.write(head)
        fh.write(bytes(_DIGEST_SIZE))
        fh.write(header)
        for arr, dtype in arrays.values():
            flat = np.ravel(arr)
            for lo in range(0, flat.size, _CHUNK):
                buf = memoryview(np.ascontiguousarray(flat[lo : lo + _CHUNK], dtype))
                digest.update(buf)
                fh.write(buf)
                del buf  # before the next chunk is converted
        fh.seek(_HEAD.size)
        fh.write(digest.digest())


def container_kind(path: str | Path) -> str:
    """The kind a container declares, read from its head and header only."""
    with open(path, "rb") as fh:
        return _read_header(fh, path, os.fstat(fh.fileno()).st_size)[3]["kind"]


def read_container(path: str | Path, kind: str, verify: bool, narrow: tuple[str, ...] = (),
                   ids: dict[str, str] | None = None, finite: tuple[str, ...] = (),
                   select: tuple[str, Callable[[list[str]], np.ndarray]] | None = None) -> Container:
    """Read a container of ``kind``, each array into its own buffer.  The
    ``<i8`` arrays named in ``narrow`` are read into int32 buffers a chunk
    at a time, and kept as int64 once a chunk holds a value int32 cannot.
    Each array ``ids`` maps to a key table must hold ids of that table, and
    each named in ``finite`` finite values; both are checked a chunk at a
    time as read.  With ``select = (name, keep)``, ``name`` one of ``ids``,
    ``keep(table)`` gets that array's key table once the header is read and
    returns the ids to keep.  Each entry of ``name`` is then marked, one
    byte an entry, when it holds one of them, and of ``name`` and of every
    later array of its length only the marked entries are kept, in buffers
    sized to them.  A file that is not a container, of another version or
    kind, truncated, with a malformed header or with an entry that fails
    its check is a DataError; with ``verify``, the stored bytes are hashed
    as they are read, and a file whose bytes fail its sha256 is too."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        digest, stored, n_items, header, specs = _read_header(fh, path, size)
        if header["kind"] != kind:
            raise DataError(f"{path}: holds a container of kind {header['kind']!r}, expected {kind!r}")
        expected = fh.tell() + sum(8 * math.prod(shape) for _, _, shape in specs)
        if size != expected:
            raise DataError(f"{path}: expected {expected} bytes, found {size}")
        tables = {name: header["keys"].get(table, []) for name, table in (ids or {}).items()}
        if select is not None:
            member = np.zeros(len(tables[select[0]]), dtype=bool)
            member[select[1](tables[select[0]])] = True
        arrays, marked = {}, None
        for name, dtype, shape in specs:
            count = math.prod(shape)
            checked = name in tables or name in finite
            if not (checked or name in narrow or select is not None):
                arrays[name] = np.fromfile(fh, dtype, count).reshape(shape)
                if verify:
                    digest.update(arrays[name])
                continue
            chunks = _chunks(fh, dtype, count, digest if verify else None)
            if checked:
                bound = len(tables[name]) if name in tables else None
                chunks = _checked(chunks, f"{path}: array {name!r} holds an entry out of range", bound)
            if select is not None and name == select[0]:
                marked = np.empty(count, dtype=bool)
                arrays[name] = _marking(chunks, dtype, member, marked)
            else:
                keep = marked if marked is not None and count == len(marked) else None
                out = _assemble(chunks, count, dtype, name in narrow and dtype == "<i8", keep)
                arrays[name] = out if keep is not None else out.reshape(shape)
    if verify and digest.digest() != stored:
        raise DataError(f"{path}: damaged: its bytes do not match their sha256")
    return Container(path, kind, n_items, header["meta"], header["keys"], arrays)


def _chunks(fh, dtype: str, count: int, digest):
    """The next ``count`` entries of the file, ``_CHUNK`` at a time, each
    hashed into ``digest`` unless it is None."""
    for lo in range(0, count, _CHUNK):
        chunk = np.fromfile(fh, dtype, min(_CHUNK, count - lo))
        if digest is not None:
            digest.update(chunk)
        yield chunk
        del chunk  # before the next is read


def _checked(chunks, message: str, bound: int | None):
    """The chunks, refused with ``message`` once one holds an entry outside
    [0, ``bound``), or one not finite when ``bound`` is None.  Each is
    judged by its min and max, which are NaN when an entry is, and which
    allocate nothing."""
    low, high = (-np.inf, np.inf) if bound is None else (-1, bound)
    for chunk in chunks:
        if len(chunk) and not (low < chunk.min() and chunk.max() < high):
            raise DataError(message)
        yield chunk
        del chunk


def _marking(chunks, dtype: str, member: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """The entries of ``chunks`` that ``member`` holds true at, each marked in ``marked``."""
    parts, lo = [np.empty(0, dtype)], 0
    for chunk in chunks:
        mark = marked[lo : lo + len(chunk)]
        mark[:] = member[chunk]
        parts.append(np.compress(mark, chunk))  # faster than chunk[mark] on scattered marks
        lo += len(chunk)
        del chunk
    return np.concatenate(parts)


def _assemble(chunks, count: int, dtype: str, narrow: bool, keep: np.ndarray | None) -> np.ndarray:
    """The ``count`` entries of ``chunks`` in one buffer, or only those
    ``keep`` marks; when ``narrow``, as int32 if all fit, as int64 otherwise."""
    out = np.empty(count if keep is None else int(np.count_nonzero(keep)),
                   np.int32 if narrow else dtype)
    limits = np.iinfo(np.int32)
    lo = at = 0
    for chunk in chunks:
        if keep is not None:
            lo, chunk = lo + len(chunk), np.compress(keep[lo : lo + len(chunk)], chunk)
        if out.dtype == np.int32 and len(chunk) and not (
                limits.min <= chunk.min() <= chunk.max() <= limits.max):
            out = out.astype(np.int64)
        out[at : at + len(chunk)] = chunk
        at += len(chunk)
        del chunk
    return out


def _read_header(fh, path, size: int):
    """The running digest after the head and header, the stored digest, the
    item count, the header, and each array's (name, dtype, shape)."""
    head = fh.read(_HEAD.size + _DIGEST_SIZE)
    if head[:4] != _MAGIC:
        raise DataError(f"{path}: not a gramrec container (magic {head[:4]!r})")
    if len(head) < _HEAD.size + _DIGEST_SIZE:
        raise DataError(f"{path}: truncated container")
    _, version, n_items, header_len = _HEAD.unpack_from(head)
    if version != _VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    if header_len > size - len(head):
        raise DataError(f"{path}: truncated container")
    raw = fh.read(header_len)
    digest = hashlib.sha256(head[: _HEAD.size])
    digest.update(raw)
    try:
        header = json.loads(raw.decode("utf-8"))
        del raw
        keys = header["keys"]
        if not (isinstance(header["kind"], str) and isinstance(header["meta"], dict)
                and isinstance(keys, dict) and all(isinstance(table, list) for table in keys.values())
                and all(set(map(type, table)) <= {str} for table in keys.values())):
            raise TypeError("kind, metadata or key tables of the wrong type")
        if "items" in keys and len(keys["items"]) != n_items:
            raise ValueError(f"{len(keys['items'])} item keys for {n_items} items")
        specs = [(spec["name"], spec["dtype"], tuple(spec["shape"])) for spec in header["arrays"]]
        for name, dtype, shape in specs:
            if not isinstance(name, str) or dtype not in _DTYPES or not all(
                    isinstance(s, int) and s >= 0 for s in shape):
                raise TypeError(f"array {name!r}")
    # UnicodeDecodeError is a ValueError; JSON nested too deep for the parser is a RecursionError
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DataError(f"{path}: malformed header ({exc})") from None
    return digest, head[_HEAD.size :], n_items, header, specs


def write_key_csv(path, keys: list[str], key_column: str, column: str, values,
                  comment: str = "") -> None:
    """A ``<key_column>,<column>`` CSV, written atomically, as :func:`read_key_csv`
    reads it: a ``# <comment>`` line when ``comment`` is given, the header
    row, and one row per key with its value as a full-precision float."""
    if len(keys) != len(values):
        raise DataError(f"expected {len(values)} {key_column} keys, got {len(keys)}")
    with atomic_write(path) as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow([key_column, column])
        writer.writerows((key, repr(float(val))) for key, val in zip(keys, values))


def read_key_csv(
    path, index: dict[str, int], key_column: str, column: str, fill: float
) -> tuple[np.ndarray, str]:
    """The ``column`` of a ``<key_column>,<column>`` CSV aligned to ``index``
    (``fill`` where no row names a key), and the file's leading ``#`` line,
    if any.  A key named by two rows is refused, and so is a line the csv
    module cannot parse, such as a field over ``csv.field_size_limit()``."""
    out = np.full(len(index), fill)
    seen = set()
    line_no = 0  # the last line read
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            first = fh.readline()
            comment = first if first.startswith("#") else ""
            line_no = 1 if comment else 0
            header = next(csv.reader([fh.readline() if comment else first]), None)
            if header is None or [h.strip().lower() for h in header] != [key_column, column]:
                raise DataError(f"{path}: expected the header row '{key_column},{column}'")
            line_no += 1
            for line_no, row in enumerate(csv.reader(fh), start=line_no + 1):
                if not row:
                    continue
                if len(row) != 2:
                    raise DataError(f"{path}: line {line_no}: expected 2 fields, got {len(row)}")
                key, val = row
                if key not in index:
                    raise DataError(f"{path}: line {line_no}: unknown {key_column} key {key!r}")
                if key in seen:
                    raise DataError(f"{path}: line {line_no}: {key_column} key {key!r} repeats")
                seen.add(key)
                try:
                    out[index[key]] = float(val)
                except ValueError:
                    raise DataError(f"{path}: line {line_no}: {column} is not a number: {val!r}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {line_no + 1}: {exc}") from None
    return out, comment
