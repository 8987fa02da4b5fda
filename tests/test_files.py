import errno
from pathlib import Path

import numpy as np
import pytest

from gramrec import (
    DataError,
    SplitSpec,
    build_gram,
    load_model,
    load_sparse_model,
    save_model,
    save_sparse_model,
    save_split_files,
    save_weights_csv,
    solve_zero_diag,
    train_sparse,
    uniform_weights,
)
from gramrec.cli import _write_text, main
from gramrec.files import read_key_csv
from gramrec.solver import _MODEL_HEADER
from gramrec.sparse import _SPARSE_HEADER

from conftest import matrix_from_dense

_DISK_BYTES = 8


class _FullDisk:
    """Writable file that takes the first few bytes and then fails with
    ENOSPC, as a disk that fills up part-way through a write would."""

    def __init__(self, fh):
        self.fh = fh
        self.room = _DISK_BYTES

    def write(self, data):
        self.fh.write(data[: self.room])
        if len(data) > self.room:
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return len(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def _stats():
    x = matrix_from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
    return build_gram(x)


_SPLIT = SplitSpec(
    train_users=np.array([0, 1, 2]),
    validation_users=np.array([3]),
    test_users=np.array([4]),
)

# Each writer, given the target path and a canonical interactions CSV; a
# failed write raises OSError, or from the command line exits with code 2.
_WRITERS = {
    "ingest": lambda t, data: main(["ingest", "--input", str(data), "--output", str(t)]),
    "popularity": lambda t, data: main(["popularity", "--data", str(data), "--output", str(t)]),
    "report_json": lambda t, data: _write_text(t, '{"metrics": {}}\n'),
    "model": lambda t, data: save_model(t, solve_zero_diag(_stats(), 1.0), ["a", "b", "c"]),
    "sparse_model": lambda t, data: save_sparse_model(
        t, train_sparse(_stats(), theta=0.0, n_max=3, lam=1.0), ["a", "b", "c"]
    ),
    "weights": lambda t, data: save_weights_csv(t, uniform_weights(3), ["a", "b", "c"]),
    "split": lambda t, data: save_split_files(t, _SPLIT, ["u0", "u1", "u2", "u3", "u4"]),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_failed_write_leaves_no_target_and_no_tmp(tmp_path, monkeypatch, writer):
    data = tmp_path / "data.csv"
    data.write_text(
        "user,item,value\n" + "".join(f"u{u},i{u % 3},1.0\nu{u},i{(u + 1) % 3},1.0\n" for u in range(5)),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    out.mkdir()
    target = out / "target"

    real_open = Path.open

    def open_on_full_disk(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return _FullDisk(fh) if "w" in mode else fh

    monkeypatch.setattr(Path, "open", open_on_full_disk)
    try:
        code = _WRITERS[writer](target, data)
    except OSError as exc:
        assert exc.errno == errno.ENOSPC
        code = 2
    assert code == 2
    if writer == "split":  # the target is a directory of three files
        assert list(target.iterdir()) == []
    else:
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("comment", ["", "# kind=uniform alpha=0.0\n"])
def test_key_csv_refuses_a_repeated_key(tmp_path, comment):
    path = tmp_path / "weights.csv"
    path.write_text(comment + "item,weight\na,1.0\nb,2.0\na,3.0\n", encoding="utf-8")
    line = 5 if comment else 4
    with pytest.raises(DataError, match=f"line {line}: item key 'a' repeats"):
        read_key_csv(path, {"a": 0, "b": 1}, "item", "weight", 0.0)


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_model_key_table_not_utf8(tmp_path, capsys, kind):
    """One key byte set to 0xff: loading refuses the file, and ``recommend``
    exits with code 2 and no traceback."""
    path = tmp_path / "model"
    if kind == "dense":
        save_model(path, solve_zero_diag(_stats(), 1.0), ["a", "b", "c"])
        header, load = _MODEL_HEADER, load_model
    else:
        save_sparse_model(path, train_sparse(_stats(), theta=0.0, n_max=3, lam=1.0), ["a", "b", "c"])
        header, load = _SPARSE_HEADER, load_sparse_model
    raw = bytearray(path.read_bytes())
    first_key = header.size + 8 + 4  # after the key count and the first key's length
    assert raw[first_key : first_key + 1] == b"a"
    raw[first_key] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=f"{path}: key 0 is not UTF-8"):
        load(path)
    assert main(["recommend", "--model", str(path), "--history", "b"]) == 2
    assert f"{path}: key 0 is not UTF-8" in capsys.readouterr().err
