"""Atomic file output shared by every writer in the package."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


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
