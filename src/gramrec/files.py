"""File output, the one binary container every model and event file is
stored in, and the reader of key-indexed CSV columns.

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

import numpy as np

from .errors import DataError

_MAGIC = b"GRMC"
_VERSION = 1
_HEAD = struct.Struct("<4sIQQ")  # magic, version, item count, header length
_DIGEST_SIZE = 32  # the sha256 that follows the head
_DTYPES = ("<f8", "<i8")
_OLD_MAGIC = {b"EASE": "dense model", b"EASP": "sparse model"}  # formats containers replaced


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
    the others as ``<f8``, each from its own buffer when it already has that
    dtype and layout; key tables given as None are left out.  Every array
    is hashed as it is written, and the digest filled in after the last."""
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
            buf = memoryview(np.ascontiguousarray(arr, dtype))
            digest.update(buf)
            fh.write(buf)
        fh.seek(_HEAD.size)
        fh.write(digest.digest())


def container_kind(path: str | Path) -> str:
    """The kind a container declares, read from its head and header only."""
    with open(path, "rb") as fh:
        return _read_header(fh, path, os.fstat(fh.fileno()).st_size)[3]["kind"]


def read_container(path: str | Path, kind: str, verify: bool) -> Container:
    """Read a container of ``kind``, each array into its own buffer.  A file
    that is not a container, of another version or kind, truncated, or
    with a malformed header is a DataError; with ``verify``, each array is
    hashed in its buffer, and a file whose bytes fail its sha256 is too."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        digest, stored, n_items, header, specs = _read_header(fh, path, size)
        if header["kind"] != kind:
            raise DataError(f"{path}: holds a container of kind {header['kind']!r}, expected {kind!r}")
        expected = fh.tell() + sum(8 * math.prod(shape) for _, _, shape in specs)
        if size != expected:
            raise DataError(f"{path}: expected {expected} bytes, found {size}")
        arrays = {}
        for name, dtype, shape in specs:
            arrays[name] = np.fromfile(fh, dtype, math.prod(shape)).reshape(shape)
            if verify:
                digest.update(arrays[name])
    if verify and digest.digest() != stored:
        raise DataError(f"{path}: damaged: its bytes do not match their sha256")
    return Container(path, kind, n_items, header["meta"], header["keys"], arrays)


def _read_header(fh, path, size: int):
    """The running digest after the head and header, the stored digest, the
    item count, the header, and each array's (name, dtype, shape)."""
    head = fh.read(_HEAD.size + _DIGEST_SIZE)
    if head[:4] != _MAGIC:
        magic = head[:4]
        if magic in _OLD_MAGIC:
            raise DataError(f"{path}: a {_OLD_MAGIC[magic]} file in the format before "
                            f"containers (magic {magic!r}); write it again")
        raise DataError(f"{path}: not a gramrec container (magic {magic!r})")
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
                and all(isinstance(k, str) for table in keys.values() for k in table)):
            raise TypeError("kind, metadata or key tables of the wrong type")
        if "items" in keys and len(keys["items"]) != n_items:
            raise ValueError(f"{len(keys['items'])} item keys for {n_items} items")
        specs = [(spec["name"], spec["dtype"], tuple(spec["shape"])) for spec in header["arrays"]]
        for name, dtype, shape in specs:
            if not isinstance(name, str) or dtype not in _DTYPES or not all(
                    isinstance(s, int) and s >= 0 for s in shape):
                raise TypeError(f"array {name!r}")
    except (ValueError, KeyError, TypeError) as exc:  # UnicodeDecodeError is a ValueError
        raise DataError(f"{path}: malformed header ({exc})") from None
    return digest, head[_HEAD.size :], n_items, header, specs


def read_key_csv(
    path, index: dict[str, int], key_column: str, column: str, fill: float
) -> tuple[np.ndarray, str]:
    """The ``column`` of a ``<key_column>,<column>`` CSV aligned to ``index``
    (``fill`` where no row names a key), and the file's leading ``#`` line,
    if any.  A key named by two rows is refused."""
    out = np.full(len(index), fill)
    seen = set()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            first = fh.readline()
            comment = first if first.startswith("#") else ""
            header = next(csv.reader([fh.readline() if comment else first]), None)
            if header is None or [h.strip().lower() for h in header] != [key_column, column]:
                raise DataError(f"{path}: expected the header row '{key_column},{column}'")
            for line_no, row in enumerate(csv.reader(fh), start=3 if comment else 2):
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
    return out, comment
