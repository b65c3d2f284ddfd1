"""The write contract: one writer of every file, atomic where a reader could see a torn file.

``errors.write_file`` replaces its target in one rename, and a checkpoint
re-save unpublishes the old manifest before it overwrites any blob. The
guard at the end keeps every other module from writing a file itself.
"""

import ast
import json
from pathlib import Path

import pytest

import cliplta
from cliplta import SynthConfig, TrainConfig, generate, load_checkpoint, save_checkpoint, train
from cliplta import errors, model
from cliplta.cli import main
from cliplta.errors import write_file

SRC = Path(cliplta.__file__).parent


class TestWriteFile:
    def test_str_is_utf8_and_the_directory_is_made(self, tmp_path):
        path = tmp_path / "a" / "b" / "f.json"
        write_file(path, "café\n")
        assert path.read_bytes() == "café\n".encode("utf-8")
        write_file(path, b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"
        assert [p.name for p in path.parent.iterdir()] == ["f.json"]

    def test_failed_rename_keeps_the_old_bytes_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        path.write_bytes(b"old\n")

        def interrupted(src, dst):
            raise OSError("interrupted before the rename")

        monkeypatch.setattr(errors.os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            write_file(path, "new\n")
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_file(tmp_path / "f.json", 3)
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("write_path")
    data = generate(SynthConfig(n_train=8, n_val=4, N=2, c=4, d_video=4, Z=2, n_verbs=3, n_nouns=3, seed=1),
                    root / "data")
    ckpt, _ = train(TrainConfig(variant="img_plus_clip", store=str(data.store_path), gt=str(data.gt_train_path),
                                taxonomy=str(data.taxonomy_path), out_dir=str(root / "run"),
                                epochs=1, batch_size=4, n_layers=1, n_heads_agg=2))
    return data, ckpt


def test_interrupted_checkpoint_resave_leaves_no_manifest(run, tmp_path, monkeypatch, capsys):
    data, ckpt = run
    trained = load_checkpoint(ckpt)
    save_checkpoint(trained, tmp_path / "checkpoint")
    for value in trained.named_parameters().values():
        value += 1.0  # a re-save with new values, so old and new blobs differ
    calls = []

    def write_blob(path, array):
        if len(calls) == 3:
            raise OSError("interrupted during a blob write")
        calls.append(path)
        errors.write_blob(path, array)

    monkeypatch.setattr(model, "write_blob", write_blob)
    with pytest.raises(OSError, match="interrupted"):
        save_checkpoint(trained, tmp_path / "checkpoint")
    assert len(calls) == 3 and not (tmp_path / "checkpoint" / "params.json").exists()
    assert main(["eval", "--checkpoint", str(tmp_path / "checkpoint"), "--store", str(data.store_path),
                 "--gt", str(data.gt_val_path), "--taxonomy", str(data.taxonomy_path),
                 "--out-dir", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing params.json" in err, err
    assert not (tmp_path / "eval").exists()


def test_resave_over_a_checkpoint_loads_the_new_values(run, tmp_path):
    _, ckpt = run
    trained = load_checkpoint(ckpt)
    save_checkpoint(trained, tmp_path / "checkpoint")
    for value in trained.named_parameters().values():
        value *= 2.0
    save_checkpoint(trained, tmp_path / "checkpoint")
    reloaded = load_checkpoint(tmp_path / "checkpoint").named_parameters()
    for name, value in trained.named_parameters().items():
        assert reloaded[name].tobytes() == value.tobytes(), name
    assert json.loads((tmp_path / "checkpoint" / "params.json").read_text(encoding="utf-8")).keys() == reloaded.keys()
    assert not list((tmp_path / "checkpoint").glob("*.tmp"))


_WRITE_METHODS = {"write_bytes", "write_text", "tofile"}
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _mode(call: ast.Call, index: int):
    """The mode argument of an ``open`` call: positional ``index`` or ``mode=``."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    return call.args[index] if len(call.args) > index else None


def file_writes(source: str) -> list[int]:
    """Line numbers of the calls in ``source`` that write a file.

    ``open`` (builtin or a method) with a constant mode holding w, a, x or
    +; ``os.open`` with a write flag; ``write_bytes``, ``write_text``,
    ``tofile``; and ``json.dump``.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
        if name == "open" and owner == "os":
            writes = any(isinstance(n, ast.Attribute) and n.attr in _WRITE_FLAGS for n in ast.walk(node))
        elif name == "open":
            mode = _mode(node, 1 if owner is None else 0)
            writes = isinstance(mode, ast.Constant) and isinstance(mode.value, str) and bool(set(mode.value) & set("wax+"))
        else:
            writes = name in _WRITE_METHODS or (name == "dump" and owner == "json")
        if writes:
            lines.append(node.lineno)
    return lines


def test_only_errors_writes_files():
    writers = {path.name: file_writes(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert writers.pop("errors.py"), "the detector finds no write in errors.py, so it finds nothing"
    assert {name: lines for name, lines in writers.items() if lines} == {}


@pytest.mark.parametrize("line", [
    'open(p, "w")', 'open(p, mode="ab")', 'p.open("x")', 'open(p, "r+")', "os.open(p, os.O_WRONLY)",
    "p.write_bytes(b)", "p.write_text(t)", "a.tofile(p)", "json.dump(x, f)",
])
def test_guard_flags_each_kind_of_write(line):
    assert file_writes(line) == [1]


@pytest.mark.parametrize("line", [
    "open(p)", 'open(p, "rb")', 'open(p, encoding="utf-8")', "os.open(p, os.O_RDONLY)",
    "FeatureStore.open(root)", "json.dumps(x)", "json.load(f)",
])
def test_guard_passes_each_read(line):
    assert file_writes(line) == []
