import ast
import errno
import re
import tempfile
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gramrec
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
)
from gramrec.cli import _write_text, main
from gramrec.data import _load_events, load_interactions, save_interactions
from gramrec.files import read_key_csv, write_container

from conftest import assert_same_interactions, make_iset, matrix_from_dense, uniform_weights

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
        load = load_model
    else:
        save_sparse_model(path, train_sparse(_stats(), theta=0.0, n_max=3, lam=1.0), ["a", "b", "c"])
        load = load_sparse_model
    raw = bytearray(path.read_bytes())
    first_key = raw.index(b'"items":["a"') + len(b'"items":["')  # in the JSON header
    raw[first_key] = 0xFF
    path.write_bytes(bytes(raw))
    message = f"{path}: malformed header ('utf-8' codec can't decode byte 0xff"
    with pytest.raises(DataError, match=re.escape(message)):
        load(path)
    assert main(["recommend", "--model", str(path), "--history", "b"]) == 2
    assert message in capsys.readouterr().err


def _events():
    return make_iset([(0, 0, 1.0), (1, 1, 4.0), (0, 1, 2.5), (2, 0, 1.0)], timestamps=[10, 11, 12, 13])


@cache
def _container_bytes():
    """The bytes of a saved dense model, sparse model, and event container
    with the CSV beside it."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_model(tmp / "m.ease", solve_zero_diag(_stats(), 1.0), ["a", "b", "c"])
        save_sparse_model(tmp / "m.easp", train_sparse(_stats(), theta=0.0, n_max=3, lam=1.0), ["a", "b", "c"])
        save_interactions(tmp / "data.csv", _events())
        return {name: (tmp / name).read_bytes() for name in ("m.ease", "m.easp", "data.csv", "data.csv.events")}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["m.ease", "m.easp", "data.csv.events"]), at=st.integers(0, 2**32),
       mask=st.integers(1, 255))
def test_any_flipped_byte_is_refused(tmp_path_factory, name, at, mask):
    """Any one byte of a container changed: both model loaders, verifying,
    raise a DataError, and loading the CSV ignores its event container and
    parses."""
    saved = _container_bytes()
    raw = bytearray(saved[name])
    raw[at % len(raw)] ^= mask
    d = tmp_path_factory.mktemp("flip")
    (d / name).write_bytes(bytes(raw))
    if name == "data.csv.events":
        (d / "data.csv").write_bytes(saved["data.csv"])
        assert _load_events(d / "data.csv") is None
        assert_same_interactions(load_interactions(d / "data.csv"), _events())
    else:
        with pytest.raises(DataError):
            (load_model if name == "m.ease" else load_sparse_model)(d / name, verify=True)


def test_unverified_load_uses_the_weights_as_stored(tmp_path):
    """Without ``verify``, an entry of P edited in place loads as edited,
    so B formed from it, as an in-process check of B such as the
    benchmark's stationarity gate reads it, changes at that entry's two
    off-diagonal positions; a trained dense model file ends with packed P."""
    path = tmp_path / "m.ease"
    model = solve_zero_diag(_stats(), 1.0)
    save_model(path, model, ["a", "b", "c"])
    raw = bytearray(path.read_bytes())
    p = model.p.copy()
    assert raw[-8 * len(p):] == p.tobytes()
    p[-1] += 0.5  # P[1, 2] of the three items' packed P
    raw[-8:] = p[-1:].tobytes()
    path.write_bytes(bytes(raw))
    b = load_model(path)[0].b
    assert b.tobytes() == replace(model, p=p).b.tobytes()
    assert sorted(zip(*np.nonzero(b != model.b))) == [(1, 2), (2, 1)]
    with pytest.raises(DataError, match="do not match their sha256"):
        load_model(path, verify=True)


def _old_dense_model(path):
    """The head of a dense model file in the format containers replaced."""
    path.write_bytes(b"EASE" + (1).to_bytes(4, "little") + (3).to_bytes(8, "little") + bytes(64))


def _dense_model_file(path, meta, arrays, items=None):
    """A dense model container of three items with the metadata ``meta`` and
    the arrays ``arrays``."""
    write_container(path, "dense_model", 3, {"lam": 1.0, "variant": "zero_diag", **meta}, arrays,
                    {"items": items})


# Each writes a malformed model file; loading it is a DataError naming what is wrong.
MALFORMED = {
    "old_format": (_old_dense_model, "a dense model file in the format before containers"),
    "b_layout": (lambda p: _dense_model_file(p, {}, {"b": np.zeros((3, 3))}, ["a", "b", "c"]),
                 "a dense model file in the layout that holds B (array 'b') and not packed P; "
                 "train the model again"),
    "rr_without_kappa": (lambda p: _dense_model_file(p, {"variant": "rr"},
                                                     {"c": np.ones(3), "p": np.zeros(6)}),
                         "metadata 'variant' is 'rr' but 'kappa' is absent"),
    "zero_diag_with_kappa": (lambda p: _dense_model_file(p, {"kappa": 2.0},
                                                         {"c": np.ones(3), "p": np.zeros(6)}),
                             "metadata 'variant' is 'zero_diag' but 'kappa' is 2.0"),
    "wrong_kind": (lambda p: p.write_bytes(_container_bytes()["data.csv.events"]),
                   "holds a container of kind 'events'"),
    "missing_array": (lambda p: _dense_model_file(p, {}, {"c": np.ones(3)}),
                      "the dense_model container has no array 'p'"),
    "v_without_mu": (lambda p: _dense_model_file(p, {}, {"c": np.ones(3), "v": np.ones(3),
                                                         "p": np.zeros(6)}),
                     "the dense_model container has no array 'mu'"),
    "misshaped_array": (lambda p: _dense_model_file(p, {}, {"c": np.ones(3), "p": np.zeros(5)},
                                                    ["a", "b", "c"]),
                        "array 'p' has shape (5,), expected (6,)"),
    "truncated": (lambda p: p.write_bytes(b"GRMC" + bytes(10)), "truncated container"),
    "key_table_length": (lambda p: p.write_bytes(_container_bytes()["m.ease"].replace(
                             b'"items":["a","b","c"]', b'"items":["abcde","f"]')),
                         'malformed header (2 item keys for 3 items)'),
    "key_table_not_strings": (lambda p: _dense_model_file(p, {}, {"c": np.ones(3), "p": np.zeros(6)},
                                                          [1, 2, 3]),
                              "malformed header (kind, metadata or key tables of the wrong type)"),
    "metadata_not_an_object": (lambda p: write_container(p, "dense_model", 3, [1.0, "rr"],
                                                         {"c": np.ones(3), "p": np.zeros(6)}, {}),
                               "malformed header (kind, metadata or key tables of the wrong type)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_model_exits_2(tmp_path, capsys, case):
    """Loading the file raises, and every command that reads a model exits
    with code 2 and the message."""
    write, message = MALFORMED[case]
    path = tmp_path / "model.ease"
    write(path)
    with pytest.raises(DataError, match=re.escape(message)):
        load_model(path)
    events = _events()
    save_interactions(tmp_path / "data.csv", events)
    save_split_files(tmp_path / "split", SplitSpec(np.array([0]), np.array([1]), np.array([2])),
                     events.user_keys)
    data = ["--data", str(tmp_path / "data.csv"), "--split-dir", str(tmp_path / "split")]
    for argv in (["recommend", "--model", str(path), "--history", "a"],
                 ["evaluate", *data, "--model", str(path)],
                 ["rescale", *data, "--model", str(path), "--output", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_container_format_is_decided_in_files_only():
    """Among the package's modules only files.py imports struct or reads
    arrays with np.fromfile."""
    holders = set()
    for module in Path(gramrec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names):
                holders.add(module.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "struct":
                holders.add(module.name)
            elif isinstance(node, ast.Attribute) and node.attr == "fromfile":
                holders.add(module.name)
    assert holders == {"files.py"}
