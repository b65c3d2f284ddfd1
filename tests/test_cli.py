import json
import subprocess
import sys

import numpy as np
import pytest

from cliplta import cli
from cliplta.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-synth -> train -> eval through the CLI, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    cfg = root / "synth.json"
    cfg.write_text(json.dumps({
        "n_train": 16, "n_val": 8, "N": 3, "c": 8, "d_video": 8,
        "Z": 3, "n_verbs": 4, "n_nouns": 4, "seed": 9,
    }), encoding="utf-8")
    assert main(["gen-synth", "--config", str(cfg), "--out", str(data)]) == 0
    assert main([
        "train", "--variant", "img_plus_clip",
        "--store", str(data / "store"), "--gt", str(data / "gt_train.json"),
        "--taxonomy", str(data / "taxonomy.json"), "--out-dir", str(run),
        "--epochs", "2", "--batch-size", "4", "--base-lr", "0.001",
        "--n-layers", "1", "--n-heads-agg", "2", "--seed", "0",
    ]) == 0
    assert main([
        "eval", "--checkpoint", str(run / "checkpoint"),
        "--store", str(data / "store"), "--gt", str(data / "gt_val.json"),
        "--taxonomy", str(data / "taxonomy.json"), "--k", "3", "--seed", "1",
        "--out-dir", str(run),
    ]) == 0
    return root


class TestPipeline:
    def test_artifacts_exist(self, workspace):
        assert (workspace / "data" / "store" / "manifest.json").is_file()
        assert (workspace / "run" / "checkpoint" / "config.json").is_file()
        assert (workspace / "run" / "runlog.jsonl").is_file()
        assert (workspace / "run" / "predictions.json").is_file()
        assert (workspace / "run" / "report.json").is_file()

    def test_prediction_file_schema(self, workspace):
        payload = json.loads((workspace / "run" / "predictions.json").read_text())
        assert payload["version"] == 1
        assert payload["Z"] == 3 and payload["K"] == 3
        example = next(iter(payload["predictions"].values()))
        assert len(example["verb"]) == 3 and len(example["verb"][0]) == 3

    def test_report_command_table(self, workspace, capsys):
        assert main(["report", "--runs", str(workspace / "run")]) == 0
        out = capsys.readouterr().out
        assert "Method" in out and "img_plus_clip" in out

    def test_report_command_json(self, workspace, capsys):
        assert main(["report", "--runs", str(workspace / "run"), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["method"] == "img_plus_clip"
        assert 0.0 <= rows[0]["verb"] <= 1.0

    def test_probe_outputs_json_lines(self, workspace, capsys):
        assert main([
            "probe", "--store", str(workspace / "data" / "store"),
            "--taxonomy", str(workspace / "data" / "taxonomy.json"),
            "--clip", "train_00000#0",
        ]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3  # one record per frame
        record = json.loads(lines[0])
        assert set(record) == {"frame", "place", "scenario", "verbs", "nouns", "names"}
        assert len(record["nouns"]) == 3

    def test_flag_overrides_config(self, workspace, tmp_path, capsys):
        # config says 20 epochs, flag forces 1
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({
            "variant": "baseline",
            "store": str(workspace / "data" / "store"),
            "gt": str(workspace / "data" / "gt_train.json"),
            "taxonomy": str(workspace / "data" / "taxonomy.json"),
            "out_dir": str(tmp_path / "run"),
            "epochs": 20, "batch_size": 4, "n_layers": 1, "n_heads_agg": 2,
        }), encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--epochs", "1"]) == 0
        lines = (tmp_path / "run" / "runlog.jsonl").read_text().strip().split("\n")
        assert len(lines) == 1


class TestCrossProcessDeterminism:
    def test_fresh_processes_reproduce_prediction_bytes(self, workspace, tmp_path):
        # the strongest form of the reproducibility contract: two separate
        # interpreter invocations, identical artifacts
        def run_once(tag):
            run_dir = tmp_path / tag
            for argv in (
                ["train", "--variant", "img_plus_clip",
                 "--store", str(workspace / "data" / "store"),
                 "--gt", str(workspace / "data" / "gt_train.json"),
                 "--taxonomy", str(workspace / "data" / "taxonomy.json"),
                 "--out-dir", str(run_dir), "--epochs", "2", "--batch-size", "4",
                 "--n-layers", "1", "--n-heads-agg", "2", "--seed", "7"],
                ["eval", "--checkpoint", str(run_dir / "checkpoint"),
                 "--store", str(workspace / "data" / "store"),
                 "--gt", str(workspace / "data" / "gt_val.json"),
                 "--taxonomy", str(workspace / "data" / "taxonomy.json"),
                 "--k", "5", "--seed", "7", "--out-dir", str(run_dir)],
            ):
                proc = subprocess.run([sys.executable, "-m", "cliplta.cli", *argv],
                                      capture_output=True, text=True)
                assert proc.returncode == 0, proc.stderr
            return (run_dir / "predictions.json").read_bytes()

        assert run_once("a") == run_once("b")


class TestExitCodes:
    def test_validation_error_is_2(self, workspace, tmp_path):
        code = main([
            "train", "--variant", "img_plus_clip",
            "--store", str(workspace / "data" / "store"),
            "--gt", str(workspace / "data" / "gt_train.json"),
            "--taxonomy", str(workspace / "data" / "taxonomy.json"),
            "--out-dir", str(tmp_path / "r"), "--epochs", "0",
        ])
        assert code == 2

    def test_unexpected_exception_propagates(self, monkeypatch, tmp_path):
        def broken(args):
            raise KeyError("no such key")

        monkeypatch.setitem(cli._COMMANDS, "report", broken)
        with pytest.raises(KeyError, match="no such key"):
            main(["report", "--runs", str(tmp_path)])

    def test_os_error_is_3(self, monkeypatch, tmp_path, capsys):
        def denied(args):
            raise PermissionError(f"permission denied: {tmp_path}")

        monkeypatch.setitem(cli._COMMANDS, "report", denied)
        assert main(["report", "--runs", str(tmp_path)]) == 3
        assert "permission denied" in capsys.readouterr().err

    def test_missing_config_is_2(self, tmp_path):
        assert main(["gen-synth", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_clip_is_2(self, workspace):
        assert main([
            "probe", "--store", str(workspace / "data" / "store"),
            "--taxonomy", str(workspace / "data" / "taxonomy.json"),
            "--clip", "no_such#0",
        ]) == 2

    def test_corrupt_blob_is_2_and_named(self, workspace, tmp_path, capsys):
        import shutil

        store_copy = tmp_path / "store"
        shutil.copytree(workspace / "data" / "store", store_copy)
        blob = store_copy / "clip_000000.frames.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
        assert main([
            "probe", "--store", str(store_copy),
            "--taxonomy", str(workspace / "data" / "taxonomy.json"),
            "--clip", "train_00000#0",
        ]) == 2
        err = capsys.readouterr().err
        assert f"{store_copy / 'manifest.json'}: clips[0].frames_file: " in err and "holds 92 bytes" in err, err

    def test_out_of_range_ground_truth_id_is_2_before_training(self, workspace, tmp_path, capsys):
        gt = tmp_path / "gt_train.json"
        payload = json.loads((workspace / "data" / "gt_train.json").read_text(encoding="utf-8"))
        last = max(payload["examples"])
        payload["examples"][last]["verb"][-1] = 99
        gt.write_text(json.dumps(payload), encoding="utf-8")
        assert main([
            "train", "--variant", "img_plus_clip",
            "--store", str(workspace / "data" / "store"), "--gt", str(gt),
            "--taxonomy", str(workspace / "data" / "taxonomy.json"),
            "--out-dir", str(tmp_path / "r"), "--epochs", "2", "--batch-size", "4",
            "--n-layers", "1", "--n-heads-agg", "2",
        ]) == 2
        err = capsys.readouterr().err
        assert str(gt) in err and repr(last) in err and "verb[2] = 99" in err, err
        assert not (tmp_path / "r").exists()

    def test_non_finite_checkpoint_is_numeric_error_and_3(self, workspace, tmp_path, capsys):
        import shutil

        import numpy as np

        from cliplta import NumericError, run_eval

        ckpt = shutil.copytree(workspace / "run" / "checkpoint", tmp_path / "checkpoint")
        blob = ckpt / "verb_head.W.bin"
        weights = np.frombuffer(blob.read_bytes(), dtype="<f4").copy()
        weights[0] = np.nan
        blob.write_bytes(weights.tobytes())
        data = workspace / "data"
        paths = (str(data / "store"), str(data / "gt_val.json"), str(data / "taxonomy.json"))
        with pytest.raises(NumericError, match="non-finite"):
            run_eval(ckpt, *paths, out_dir=tmp_path / "e")
        assert main(["eval", "--checkpoint", str(ckpt), "--store", paths[0], "--gt", paths[1],
                     "--taxonomy", paths[2], "--out-dir", str(tmp_path / "e")]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_truncated_ground_truth_is_2_and_named(self, workspace, tmp_path, capsys):
        gt = tmp_path / "gt_val.json"
        gt.write_bytes((workspace / "data" / "gt_val.json").read_bytes()[:-20])
        assert main([
            "eval", "--checkpoint", str(workspace / "run" / "checkpoint"),
            "--store", str(workspace / "data" / "store"), "--gt", str(gt),
            "--taxonomy", str(workspace / "data" / "taxonomy.json"),
            "--out-dir", str(tmp_path / "e"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(gt) in err


def _set_first_example(payload, value):
    payload["examples"][min(payload["examples"])] = value


def _set_first_id(payload, field, value):
    payload["examples"][min(payload["examples"])][field][0] = value


def _set_clip_field(payload, clip_id, field, value):
    next(clip for clip in payload["clips"] if clip["id"] == clip_id)[field] = value


STORE = "data/store/manifest.json"
PARAMS = "run/checkpoint/params.json"
TAXONOMY = "data/taxonomy.json"

# case -> (file under the workspace, edit to its JSON, text its error message must hold)
MALFORMED_FIELDS = {
    "config_extra_key": ("run/checkpoint/config.json", lambda p: p.update(extra=1), "extra"),
    "config_missing_key": ("run/checkpoint/config.json", lambda p: p.pop("n_verbs"), "n_verbs"),
    "manifest_entry_without_file": ("run/checkpoint/params.json",
                                    lambda p: p["pos_embed"].pop("file"), "'file'"),
    "gt_examples_not_object": ("data/gt_val.json", lambda p: p.update(examples=[1]), "'examples'"),
    "gt_entry_not_object": ("data/gt_val.json", lambda p: _set_first_example(p, 1), "val_00000"),
    "gt_no_examples": ("data/gt_val.json", lambda p: p.update(examples={}), "'examples'"),
    "gt_z_string": ("data/gt_val.json", lambda p: p.update(Z="x"), "'Z'"),
    "gt_z_zero": ("data/gt_val.json", lambda p: p.update(Z=0), "'Z'"),
    "gt_verb_id_string": ("data/gt_val.json", lambda p: _set_first_id(p, "verb", "a"), "'val_00000' verb[0]"),
    "gt_verb_id_float": ("data/gt_val.json", lambda p: _set_first_id(p, "verb", 1.5), "'val_00000' verb[0]"),
    "gt_verb_id_bool": ("data/gt_val.json", lambda p: _set_first_id(p, "verb", True), "'val_00000' verb[0]"),
    "gt_noun_id_null": ("data/gt_val.json", lambda p: _set_first_id(p, "noun", None), "'val_00000' noun[0]"),
    "store_without_c": (STORE, lambda p: p.pop("c"), "'c'"),
    "store_d_video_string": (STORE, lambda p: p.update(d_video="8"), "'d_video'"),
    "store_without_clips": (STORE, lambda p: p.pop("clips"), "'clips'"),
    "store_clip_not_object": (STORE, lambda p: p["clips"].__setitem__(0, 1), "clips[0]"),
    "store_clip_id_not_string": (STORE, lambda p: p["clips"][0].update(id=3), "clips[0].id"),
    "store_clip_n_frames_zero": (STORE, lambda p: p["clips"][0].update(n_frames=0), "clips[0].n_frames"),
    "store_clip_n_frames_float": (STORE, lambda p: p["clips"][0].update(n_frames=3.0), "clips[0].n_frames"),
    "store_clip_without_frames_file": (STORE, lambda p: p["clips"][0].pop("frames_file"),
                                       "clips[0].frames_file"),
    "store_clip_video_file_null": (STORE, lambda p: p["clips"][0].update(video_file=None),
                                   "clips[0].video_file"),
    # a blob name is a plain file name inside the manifest's directory, and the blob must exist
    "manifest_file_outside": (PARAMS, lambda p: p["pos_embed"].update(file="../checkpoint/pos_embed.bin"),
                              "'pos_embed' 'file'"),
    "manifest_file_absolute": (PARAMS, lambda p: p["pos_embed"].update(file="/etc/hostname"),
                               "'pos_embed' 'file'"),
    "manifest_file_empty": (PARAMS, lambda p: p["pos_embed"].update(file=""), "'pos_embed' 'file'"),
    "manifest_file_dot": (PARAMS, lambda p: p["pos_embed"].update(file="."), "'pos_embed' 'file'"),
    "manifest_file_dotdot": (PARAMS, lambda p: p["pos_embed"].update(file=".."), "'pos_embed' 'file'"),
    "manifest_file_missing": (PARAMS, lambda p: p["pos_embed"].update(file="absent.bin"),
                              "'pos_embed' 'file'"),
    "store_frames_file_outside": (STORE, lambda p: p["clips"][0].update(frames_file="../store/clip_000000.frames.bin"),
                                  "clips[0].frames_file"),
    "store_video_file_absolute": (STORE, lambda p: p["clips"][0].update(video_file="/etc/hostname"),
                                  "clips[0].video_file"),
    "store_frames_file_dot": (STORE, lambda p: p["clips"][0].update(frames_file="."), "clips[0].frames_file"),
    # 16 training examples x 2 clips come first, so the first clip eval reads is clips[32]
    "store_video_file_missing": (STORE, lambda p: _set_clip_field(p, "val_00000#0", "video_file", "absent.bin"),
                                 "clips[32].video_file"),
    # eval loads the taxonomy before the ground truth checks its hash
    "taxonomy_verb_not_string": (TAXONOMY, lambda p: p["verbs"].__setitem__(0, 3), "'verbs'[0] must be a string"),
    "taxonomy_verb_blank": (TAXONOMY, lambda p: p["verbs"].__setitem__(2, " "), "'verbs'[2] is blank"),
    "taxonomy_noun_duplicate": (TAXONOMY, lambda p: p["nouns"].__setitem__(1, p["nouns"][0]),
                                "'nouns'[1]"),
    "taxonomy_places_empty": (TAXONOMY, lambda p: p.update(places=[]), "'places' is empty"),
    "taxonomy_scenarios_not_array": (TAXONOMY, lambda p: p.update(scenarios="cooking"),
                                     "'scenarios' must be a list"),
    "taxonomy_without_nouns": (TAXONOMY, lambda p: p.pop("nouns"), "'nouns'"),
}


def _eval_copy_is_2(workspace, tmp_path, capsys, rel, change) -> str:
    """``cliplta eval`` on a copy of the workspace whose file ``rel`` is ``change``d; its stderr."""
    import shutil

    ckpt = shutil.copytree(workspace / "run" / "checkpoint", tmp_path / "run" / "checkpoint")
    store = shutil.copytree(workspace / "data" / "store", tmp_path / "data" / "store")
    gt = shutil.copy(workspace / "data" / "gt_val.json", tmp_path / "data" / "gt_val.json")
    taxonomy = shutil.copy(workspace / TAXONOMY, tmp_path / TAXONOMY)
    target = tmp_path / rel
    target.write_bytes(change(target.read_bytes()))
    assert main([
        "eval", "--checkpoint", str(ckpt), "--store", str(store),
        "--gt", str(gt), "--taxonomy", str(taxonomy),
        "--out-dir", str(tmp_path / "e"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "runtime error" not in err and "Traceback" not in err, err
    return err


@pytest.mark.parametrize("case", MALFORMED_FIELDS)
def test_malformed_field_is_2_and_named(workspace, tmp_path, capsys, case):
    rel, change, field = MALFORMED_FIELDS[case]

    def edit(text: bytes) -> bytes:
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload).encode("utf-8")

    err = _eval_copy_is_2(workspace, tmp_path, capsys, rel, edit)
    assert str(tmp_path / rel) in err and field in err, err


def _nan_first_value(blob: bytes) -> bytes:
    return np.float32(np.nan).tobytes() + blob[4:]


# 16 training examples x 2 clips come first, so the first clip eval reads is clips[32]
# case -> (blob under the workspace, edit to its bytes, manifest naming it, text its error message must hold)
MALFORMED_BLOBS = {
    "store_frames_cut": ("data/store/clip_000032.frames.bin", lambda b: b[:-4], STORE,
                         "clips[32].frames_file: blob 'clip_000032.frames.bin' holds 92 bytes, expected 96"),
    "store_video_long": ("data/store/clip_000032.video.bin", lambda b: b + b"\0", STORE,
                         "clips[32].video_file: blob 'clip_000032.video.bin' holds 33 bytes, expected 32"),
    "checkpoint_cut": ("run/checkpoint/pos_embed.bin", lambda b: b[:-4], PARAMS,
                       "entry 'pos_embed' 'file': blob 'pos_embed.bin' holds 124 bytes, expected 128"),
    "checkpoint_long": ("run/checkpoint/pos_embed.bin", lambda b: b + b"\0", PARAMS,
                        "entry 'pos_embed' 'file': blob 'pos_embed.bin' holds 129 bytes, expected 128"),
    "store_nan": ("data/store/clip_000032.frames.bin", _nan_first_value, STORE,
                  "clips[32].frames_file: frames for clip 'val_00000#0' contain non-finite values"),
}


@pytest.mark.parametrize("case", MALFORMED_BLOBS)
def test_malformed_blob_is_2_and_named(workspace, tmp_path, capsys, case):
    rel, change, manifest, field = MALFORMED_BLOBS[case]
    err = _eval_copy_is_2(workspace, tmp_path, capsys, rel, change)
    assert f"{tmp_path / manifest}: " in err and field in err, err


# case -> (file under the run directory, its new text, text its error message must hold)
MALFORMED_RUNS = {
    "config_truncated": ("train_config.json", lambda text: text[:-20], "not valid JSON"),
    "report_truncated": ("report.json", lambda text: text[:-20], "not valid JSON"),
    "report_empty_object": ("report.json", lambda text: "{}", "'verb_ed'"),
    "report_without_n_examples": ("report.json",
                                  lambda text: json.dumps({"verb_ed": 0.5, "noun_ed": 0.5}), "'n_examples'"),
    "report_ed_string": ("report.json",
                         lambda text: json.dumps({"verb_ed": "x", "noun_ed": 0.5, "n_examples": 1}), "'verb_ed'"),
}


@pytest.mark.parametrize("case", MALFORMED_RUNS)
def test_report_on_malformed_run_is_2_and_named(workspace, tmp_path, capsys, case):
    import shutil

    name, change, field = MALFORMED_RUNS[case]
    run = shutil.copytree(workspace / "run", tmp_path / "run")
    target = run / name
    target.write_text(change(target.read_text(encoding="utf-8")), encoding="utf-8")
    assert main(["report", "--runs", str(run)]) == 2
    err = capsys.readouterr().err
    assert str(target) in err and field in err, err
    assert "runtime error" not in err
