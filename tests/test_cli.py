import dataclasses
import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from cliplta import SynthConfig, TrainConfig, cli
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

    @pytest.mark.parametrize("flags, table_args", [
        pytest.param([], {}, id="defaults"),
        pytest.param(["--template", "{} x", "--text-seed", "3"], {"prompt_template": "{} x", "text_seed": 3}, id="flags"),
    ])
    def test_probe_output_is_the_per_frame_probe(self, workspace, capsys, flags, table_args):
        from cliplta import FeatureStore, load_taxonomy
        from cliplta.harness import build_label_tables
        from helpers import reference_probe_records

        data = workspace / "data"
        assert main(["probe", "--store", str(data / "store"), "--taxonomy", str(data / "taxonomy.json"),
                     "--clip", "val_00002#1", *flags]) == 0
        taxonomy, store = load_taxonomy(data / "taxonomy.json"), FeatureStore.open(data / "store")
        tables = build_label_tables(taxonomy, store.c, **table_args)
        records = reference_probe_records(store.read_clip("val_00002#1")[0], tables, taxonomy)
        assert capsys.readouterr().out == "".join(json.dumps(record) + "\n" for record in records)

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

    def test_integer_past_the_digit_limit_is_2_and_named(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text('{"n_train": 1' + "0" * 5000 + "}", encoding="utf-8")
        assert main(["gen-synth", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config} is not valid JSON: "), err
        assert not (tmp_path / "out").exists()

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

    def test_zero_frame_is_2_and_names_the_clip_and_frame(self, workspace, tmp_path, capsys):
        import shutil

        store_copy = shutil.copytree(workspace / "data" / "store", tmp_path / "store")
        c = json.loads((store_copy / "manifest.json").read_text(encoding="utf-8"))["c"]
        blob = store_copy / "clip_000000.frames.bin"
        values = np.frombuffer(blob.read_bytes(), dtype="<f4").copy()
        values[c:2 * c] = 0.0
        blob.write_bytes(values.tobytes())
        assert main([
            "probe", "--store", str(store_copy),
            "--taxonomy", str(workspace / "data" / "taxonomy.json"),
            "--clip", "train_00000#0",
        ]) == 2
        err = capsys.readouterr().err
        assert err == "error: clip 'train_00000#0': frame 1 is a zero vector; cannot rank labels against it\n", err

    def test_zero_clip_in_text_training_is_2_and_names_the_clip_and_entry(self, workspace, tmp_path, capsys):
        import shutil

        store_copy = shutil.copytree(workspace / "data" / "store", tmp_path / "store")
        blob = store_copy / "clip_000000.frames.bin"
        blob.write_bytes(bytes(len(blob.read_bytes())))
        assert main([
            "train", "--variant", "img_plus_clip_text",
            "--store", str(store_copy), "--gt", str(workspace / "data" / "gt_train.json"),
            "--taxonomy", str(workspace / "data" / "taxonomy.json"), "--out-dir", str(tmp_path / "run"),
            "--epochs", "1", "--n-layers", "1", "--n-heads-agg", "2",
        ]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: store manifest {store_copy / 'manifest.json'}: clips[0].frames_file: "
                       "clip 'train_00000#0': cannot rank labels against a zero query vector\n"), err

    @pytest.mark.parametrize("command, clip_id, change", [
        ("train", "train_00002#1", "missing"), ("train", "train_00002#2", "extra"),
        ("eval", "val_00001#1", "missing"), ("eval", "val_00001#2", "extra"),
    ])
    def test_missing_or_extra_clip_is_2_and_names_its_files_before_any_read(self, workspace, tmp_path, capsys,
                                                                            monkeypatch, command, clip_id, change):
        import shutil

        from cliplta import FeatureStore

        store = shutil.copytree(workspace / "data" / "store", tmp_path / "store")
        manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
        example_id = clip_id.split("#")[0]
        if change == "missing":
            manifest["clips"] = [entry for entry in manifest["clips"] if entry["id"] != clip_id]
        else:
            entry = next(entry for entry in manifest["clips"] if entry["id"] == f"{example_id}#1")
            manifest["clips"].append({**entry, "id": clip_id})
        (store / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        reads = []
        read_clip = FeatureStore.read_clip
        monkeypatch.setattr(FeatureStore, "read_clip", lambda self, cid: reads.append(cid) or read_clip(self, cid))
        data = workspace / "data"
        gt = data / ("gt_train.json" if command == "train" else "gt_val.json")
        args = ["--store", str(store), "--gt", str(gt), "--taxonomy", str(data / "taxonomy.json"),
                "--out-dir", str(tmp_path / "r")]
        if command == "train":
            args += ["--variant", "img_plus_clip", "--epochs", "1", "--n-layers", "1", "--n-heads-agg", "2"]
        else:
            args += ["--checkpoint", str(workspace / "run" / "checkpoint")]
        assert main([command, *args]) == 2
        err = capsys.readouterr().err
        first = example_id.split("_")[0] + "_00000"
        verb = "has no" if change == "missing" else "has an extra"
        assert err == (f"error: ground truth {gt}: example {example_id!r}: "
                       f"store manifest {store / 'manifest.json'} {verb} clip {clip_id!r} "
                       f"(every example needs 2 clips, as {first!r} has)\n"), err
        assert reads == []
        assert not (tmp_path / "r").exists()

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

    @pytest.mark.parametrize("temperature", ["1e-320", "inf"])
    def test_non_finite_or_overflowing_temperature_is_2_and_named(self, workspace, tmp_path, capsys, temperature):
        data = workspace / "data"
        assert main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint"), "--store", str(data / "store"),
                     "--gt", str(data / "gt_val.json"), "--taxonomy", str(data / "taxonomy.json"),
                     "--temperature", temperature, "--out-dir", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: temperature") and temperature in err, err
        assert not (tmp_path / "e").exists()

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
CONFIG = "run/checkpoint/config.json"
PARAMS = "run/checkpoint/params.json"
TAXONOMY = "data/taxonomy.json"

# case -> (file under the workspace, edit to its JSON, text its error message must hold)
MALFORMED_FIELDS = {
    "config_extra_key": ("run/checkpoint/config.json", lambda p: p.update(extra=1), "extra"),
    "config_missing_key": ("run/checkpoint/config.json", lambda p: p.pop("n_verbs"), "n_verbs"),
    # each config value must have its field's type; a bool is not an integer
    "config_n_layers_float": (CONFIG, lambda p: p.update(n_layers=1.5), "'n_layers' must be an integer"),
    "config_n_verbs_bool": (CONFIG, lambda p: p.update(n_verbs=True), "'n_verbs' must be an integer"),
    "config_c_string": (CONFIG, lambda p: p.update(c="8"), "'c' must be an integer"),
    "config_variant_not_string": (CONFIG, lambda p: p.update(variant=3), "'variant' must be a string"),
    "config_learned_query_string": (CONFIG, lambda p: p.update(learned_query="no"),
                                    "'learned_query' must be a boolean"),
    "config_z_zero": (CONFIG, lambda p: p.update(Z=0), "config field Z must be >= 1"),
    "config_n_heads_ca_zero": (CONFIG, lambda p: p.update(n_heads_ca=0), "config field n_heads_ca must be >= 1"),
    "config_d_ff_negative": (CONFIG, lambda p: p.update(d_ff=-5), "config field d_ff must be >= 0, got -5"),
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
    "store_dtype_f16": (STORE, lambda p: p.update(dtype="f16"), "'dtype'"),
    "store_clip_id_repeated": (STORE, lambda p: p["clips"][1].update(id=p["clips"][0]["id"]), "clips[1].id"),
    "gt_version_2": ("data/gt_val.json", lambda p: p.update(version=2), "'version'"),
    "manifest_entry_missing": (PARAMS, lambda p: p.pop("pos_embed"), "'pos_embed'"),
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
    "config_variant_not_string": ("train_config.json", lambda text: json.dumps({**json.loads(text), "variant": 3}),
                                  "'variant' must be a string"),
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


# case -> (command, edit to a valid config of that command, text its error message must hold)
MALFORMED_CONFIGS = {
    "train_batch_size_float": ("train", lambda p: p.update(batch_size=2.5), "'batch_size' must be an integer"),
    "train_n_layers_float": ("train", lambda p: p.update(n_layers=1.5), "'n_layers' must be an integer"),
    "train_epochs_string": ("train", lambda p: p.update(epochs="3"), "'epochs' must be an integer"),
    "train_base_lr_bool": ("train", lambda p: p.update(base_lr=True), "'base_lr' must be a number"),
    "train_learned_query_string": ("train", lambda p: p.update(learned_query="yes"),
                                   "'learned_query' must be a boolean"),
    "train_val_gt_number": ("train", lambda p: p.update(val_gt=3), "'val_gt' must be a string"),
    "train_seed_negative": ("train", lambda p: p.update(seed=-1), "seed must be >= 0, got -1"),
    "train_unknown_key": ("train", lambda p: p.update(extra=1), "unknown keys ['extra']"),
    "train_without_variant": ("train", lambda p: p.pop("variant"), "missing key 'variant'"),
    # the model's sizes fail here, before the store or the ground truth is read
    "train_n_heads_ca_zero": ("train", lambda p: p.update(n_heads_ca=0), "n_heads_ca must be >= 1, got 0"),
    "train_n_heads_ca_negative": ("train", lambda p: p.update(n_heads_ca=-2), "n_heads_ca must be >= 1, got -2"),
    "train_d_ff_negative": ("train", lambda p: p.update(d_ff=-5), "d_ff must be >= 0, got -5"),
    "train_d_attn_negative": ("train", lambda p: p.update(d_attn=-4), "d_attn must be >= 0, got -4"),
    "train_eval_every_negative": ("train", lambda p: p.update(eval_every=-1), "eval_every must be >= 0, got -1"),
    "train_momentum_negative": ("train", lambda p: p.update(momentum=-0.5), "momentum must be in [0, 1), got -0.5"),
    "train_momentum_above_one": ("train", lambda p: p.update(momentum=1.5), "momentum must be in [0, 1), got 1.5"),
    "train_temperature_zero": ("train", lambda p: p.update(temperature=0),
                               "temperature must be a finite number > 0, got 0"),
    "synth_N_float": ("gen-synth", lambda p: p.update(N=2.5), "'N' must be an integer"),
    "synth_n_train_string": ("gen-synth", lambda p: p.update(n_train="4"), "'n_train' must be an integer"),
    "synth_noise_std_string": ("gen-synth", lambda p: p.update(noise_std="0.1"), "'noise_std' must be a number"),
    "synth_signal_mode_number": ("gen-synth", lambda p: p.update(signal_mode=3), "'signal_mode' must be a string"),
    "synth_seed_negative": ("gen-synth", lambda p: p.update(seed=-1), "seed must be >= 0, got -1"),
    "synth_unknown_key": ("gen-synth", lambda p: p.update(extra=1), "unknown keys ['extra']"),
    # json.dumps writes NaN and Infinity; a config number must be finite
    "synth_noise_std_nan": ("gen-synth", lambda p: p.update(noise_std=float("nan")),
                            "'noise_std' must be a finite number, got nan"),
    "synth_noise_std_infinity": ("gen-synth", lambda p: p.update(noise_std=float("inf")),
                                 "'noise_std' must be a finite number, got inf"),
    "train_base_lr_infinity": ("train", lambda p: p.update(base_lr=float("inf")),
                               "'base_lr' must be a finite number, got inf"),
    "train_base_lr_beyond_float": ("train", lambda p: p.update(base_lr=10**400),
                                   "'base_lr' must be a finite number, got 1000"),
}


@pytest.mark.parametrize("case", MALFORMED_CONFIGS)
def test_malformed_config_file_is_2_and_named(workspace, tmp_path, capsys, case):
    command, change, field = MALFORMED_CONFIGS[case]
    data = workspace / "data"
    if command == "train":
        payload = {"variant": "baseline", "store": str(data / "store"), "gt": str(data / "gt_train.json"),
                   "taxonomy": str(data / "taxonomy.json"), "out_dir": str(tmp_path / "out"),
                   "epochs": 1, "batch_size": 4, "n_layers": 1, "n_heads_agg": 2}
        argv = ["train"]
    else:
        payload = {"n_train": 4, "n_val": 2, "N": 2, "c": 4, "d_video": 4, "Z": 2, "n_verbs": 3, "n_nouns": 3}
        argv = ["gen-synth", "--out", str(tmp_path / "out")]
    change(payload)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert main([*argv, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"config file {config}: " in err and field in err, err
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_is_2(tmp_path, capsys):
    assert main(["gen-synth", "--out", str(tmp_path / "out"), "--n-train", "2", "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--noise-std", "inf"], ["--noise-std", "nan"], ["--noise-std=-inf"]])
def test_non_finite_flag_is_2_and_named(tmp_path, capsys, flags):
    assert main(["gen-synth", "--out", str(tmp_path / "out"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: command line: 'noise_std' must be a finite number, got "), err
    assert not (tmp_path / "out").exists()


def _train_config_file(workspace, tmp_path, **values):
    """A train config file of the shared workspace's data, the smallest model, and ``values``."""
    data = workspace / "data"
    payload = {"variant": "baseline", "store": str(data / "store"), "gt": str(data / "gt_train.json"),
               "taxonomy": str(data / "taxonomy.json"), "out_dir": str(tmp_path / "out"),
               "epochs": 1, "batch_size": 4, "n_layers": 1, "n_heads_agg": 2, **values}
    config = tmp_path / "train.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    return config, payload


def test_non_finite_flag_over_a_config_file_names_the_command_line(workspace, tmp_path, capsys):
    config, _ = _train_config_file(workspace, tmp_path)
    assert main(["train", "--config", str(config), "--base-lr", "inf"]) == 2
    err = capsys.readouterr().err
    assert "command line: 'base_lr' must be a finite number, got inf" in err and "runtime error" not in err, err
    assert not (tmp_path / "out").exists()


# a value other than the default for each config field, set by its flag
TRAIN_FLAG_VALUES = {
    "variant": "clip_attention", "store": "data/store", "gt": "data/gt_train.json", "taxonomy": "data/taxonomy.json",
    "out_dir": "out", "val_gt": "data/gt_val.json", "epochs": 2, "batch_size": 3, "base_lr": 0.002,
    "momentum": 0.5, "seed": 3, "eval_every": 1, "K": 3, "temperature": 0.5, "n_layers": 2, "n_heads_agg": 4,
    "d_ff": 6, "d_attn": 4, "n_heads_ca": 2, "learned_query": True, "attention_prompt": "hands at work",
    "text_seed": 7, "prompt_template": "an image of {}",
}
REQUIRED_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig) if f.default is dataclasses.MISSING}
SYNTH_FLAG_VALUES = {
    "n_train": 5, "n_val": 3, "n_input_clips": 3, "N": 3, "c": 6, "d_video": 5, "Z": 3, "n_verbs": 5,
    "n_nouns": 6, "signal_mode": "split", "noise_std": 0.25, "seed": 4,
}


def _flag(name: str, value) -> list[str]:
    flag = "--" + name.replace("_", "-")
    return [flag] if value is True else [flag, str(value)]


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TrainConfig)])
def test_every_train_config_field_is_a_flag(workspace, tmp_path, name):
    config, payload = _train_config_file(workspace, tmp_path)
    value = TRAIN_FLAG_VALUES[name]
    if name in ("store", "gt", "taxonomy", "val_gt"):
        value = str(workspace / value)
    elif name == "out_dir":
        value = str(tmp_path / value)
    if name in REQUIRED_TRAIN_KEYS:  # left out of the file, so only the flag can give it
        config.write_text(json.dumps({k: v for k, v in payload.items() if k != name}), encoding="utf-8")
    else:  # the flag changes the config
        assert value != payload.get(name, getattr(TrainConfig, name))
    assert main(["train", "--config", str(config), *_flag(name, value)]) == 0
    written = json.loads((tmp_path / "out" / "train_config.json").read_text(encoding="utf-8"))
    assert written == asdict(TrainConfig(**{**payload, name: value})), written


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SynthConfig)])
def test_every_synth_config_field_is_a_flag(tmp_path, name):
    value = SYNTH_FLAG_VALUES[name]
    payload = {"n_train": 4, "n_val": 2, "N": 2, "c": 4, "d_video": 4, "Z": 2, "n_verbs": 3, "n_nouns": 3}
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["gen-synth", "--config", str(config), "--out", str(tmp_path / "out"), *_flag(name, value)]) == 0
    written = json.loads((tmp_path / "out" / "synth_config.json").read_text(encoding="utf-8"))
    assert written == asdict(SynthConfig(**{**payload, name: value})), written


def test_todays_spellings_parse_to_the_same_configs(workspace, tmp_path):
    data = workspace / "data"
    assert main(["gen-synth", "--out", str(tmp_path / "synth"), "--N", "3", "--Z", "3", "--c", "6",
                 "--n-train", "5", "--signal-mode", "split"]) == 0
    written = json.loads((tmp_path / "synth" / "synth_config.json").read_text(encoding="utf-8"))
    assert written == asdict(SynthConfig(N=3, Z=3, c=6, n_train=5, signal_mode="split"))
    assert main(["train", "--variant", "baseline", "--store", str(data / "store"), "--gt", str(data / "gt_train.json"),
                 "--taxonomy", str(data / "taxonomy.json"), "--val-gt", str(data / "gt_val.json"),
                 "--out-dir", str(tmp_path / "run"), "--k", "3", "--batch-size", "4", "--epochs", "1",
                 "--n-layers", "1", "--n-heads-agg", "2"]) == 0
    written = json.loads((tmp_path / "run" / "train_config.json").read_text(encoding="utf-8"))
    assert written == asdict(TrainConfig(variant="baseline", store=str(data / "store"), gt=str(data / "gt_train.json"),
                                         taxonomy=str(data / "taxonomy.json"), val_gt=str(data / "gt_val.json"),
                                         out_dir=str(tmp_path / "run"), K=3, batch_size=4, epochs=1, n_layers=1,
                                         n_heads_agg=2))


def test_learned_query_flag_trains_as_the_config_key_does(workspace, tmp_path):
    """``--learned-query`` and ``--no-learned-query`` give the checkpoint bytes of the config key."""
    def checkpoint_bytes(run: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted((run / "checkpoint").iterdir())}

    runs = {}
    for tag, in_file, flags in (("key", True, []), ("flag", False, ["--learned-query"]),
                                ("no_key", False, []), ("no_flag", True, ["--no-learned-query"])):
        (tmp_path / tag).mkdir()
        config, _ = _train_config_file(workspace, tmp_path / tag, variant="clip_attention",
                                       **({"learned_query": True} if in_file else {}))
        assert main(["train", "--config", str(config), *flags]) == 0
        runs[tag] = checkpoint_bytes(tmp_path / tag / "out")
    assert json.loads(runs["flag"]["config.json"])["learned_query"] is True
    assert runs["flag"] == runs["key"] and runs["no_flag"] == runs["no_key"] and runs["flag"] != runs["no_flag"]
