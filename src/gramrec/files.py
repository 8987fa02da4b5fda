"""File output, the pieces of the binary formats shared by every writer and
reader in the package, and the reader of key-indexed CSV columns."""

from __future__ import annotations

import csv
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError

_COUNT = struct.Struct("<Q")
_KEY_LEN = struct.Struct("<I")


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


def write_array(fh, arr, dtype: str) -> None:
    """Write ``arr`` row-major as ``dtype``, straight from its buffer when it
    already has that dtype and layout (no ``tobytes`` copy)."""
    fh.write(memoryview(np.ascontiguousarray(arr, dtype=dtype)))


def write_keys(fh, keys: list[str] | None) -> None:
    """Key table: a u64 count (0 for none), then u32-length-prefixed UTF-8."""
    keys = keys if keys is not None else []
    fh.write(_COUNT.pack(len(keys)))
    for key in keys:
        raw = key.encode("utf-8")
        fh.write(_KEY_LEN.pack(len(raw)))
        fh.write(raw)


def read_record(fh, record: struct.Struct) -> tuple:
    """One fixed-size record from ``fh``; a short read raises struct.error."""
    return record.unpack(fh.read(record.size))


def read_keys(fh, path, n: int) -> list[str] | None:
    """The key table :func:`write_keys` wrote, None when it is empty; a short
    read raises struct.error, a key that is not UTF-8 a DataError."""
    (n_keys,) = read_record(fh, _COUNT)
    if not n_keys:
        return None
    if n_keys != n:
        raise DataError(f"{path}: key table has {n_keys} entries for {n} items")
    keys = []
    for k in range(n_keys):
        (klen,) = read_record(fh, _KEY_LEN)
        try:
            keys.append(fh.read(klen).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: key {k} is not UTF-8 ({exc.reason})") from None
    return keys


def read_key_csv(
    path, index: dict[str, int], key_column: str, column: str, fill: float
) -> tuple[np.ndarray, str]:
    """The ``column`` of a ``<key_column>,<column>`` CSV aligned to ``index``
    (``fill`` where no row names a key), and the file's leading ``#`` line,
    if any.  A key named by two rows is refused."""
    out = np.full(len(index), fill)
    seen = set()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
