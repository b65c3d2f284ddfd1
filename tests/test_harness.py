import json
from pathlib import Path

import numpy as np
import pytest

from cliplta import (
    FeatureStore,
    SynthConfig,
    TrainConfig,
    ValidationError,
    generate,
    load_checkpoint,
    run_eval,
    train,
)
from cliplta import harness
from cliplta.harness import _predict_dataset, load_split
from cliplta.metrics import read_ground_truth, write_ground_truth
from cliplta.model import VARIANTS, read_predictions
from cliplta.taxonomy import ActionLabel, GroundTruthSequence, load_taxonomy


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    cfg = SynthConfig(n_train=24, n_val=8, n_input_clips=2, N=3, c=8, d_video=8,
                      Z=3, n_verbs=4, n_nouns=4, noise_std=0.1, seed=5)
    return generate(cfg, root)


def gt_sequences(example_ids, verb, noun):
    """Ground-truth sequences from (N, Z) id arrays, for write_ground_truth."""
    return [GroundTruthSequence(eid, tuple(ActionLabel(int(v), int(n)) for v, n in zip(vs, ns)))
            for eid, vs, ns in zip(example_ids, verb, noun)]


def train_config(ds, out_dir, **kw):
    defaults = dict(
        variant="img_plus_clip", store=str(ds.store_path), gt=str(ds.gt_train_path),
        taxonomy=str(ds.taxonomy_path), out_dir=str(out_dir),
        epochs=2, batch_size=4, base_lr=1e-3, seed=0, n_layers=1, n_heads_agg=2,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrain:
    def test_loss_decreases_over_two_epochs(self, synth, tmp_path):
        # statistical smoke test: a short run should make progress for
        # nearly every seed
        wins = 0
        for seed in range(10):
            _, log = train(train_config(synth, tmp_path / f"r{seed}", seed=seed))
            wins += log.records[1]["train_loss"] < log.records[0]["train_loss"]
        assert wins >= 9

    def test_zero_epochs_rejected(self, synth, tmp_path):
        with pytest.raises(ValidationError, match="epochs"):
            train_config(synth, tmp_path, epochs=0)

    def test_runlog_written(self, synth, tmp_path):
        out = tmp_path / "run"
        ckpt, log = train(train_config(synth, out, val_gt=str(synth.gt_val_path), eval_every=2))
        lines = (out / "runlog.jsonl").read_text().strip().split("\n")
        assert len(lines) == 2
        last = json.loads(lines[-1])
        assert last["epoch"] == 2
        assert "val_verb_ed" in last and "val_noun_ed" in last
        assert Path(ckpt).is_dir()

    def test_deterministic_run(self, synth, tmp_path):
        cfg_a = train_config(synth, tmp_path / "a", seed=11)
        cfg_b = train_config(synth, tmp_path / "b", seed=11)
        ckpt_a, log_a = train(cfg_a)
        ckpt_b, log_b = train(cfg_b)
        assert [r["train_loss"] for r in log_a.records] == [r["train_loss"] for r in log_b.records]
        pred_a, _ = run_eval(ckpt_a, synth.store_path, synth.gt_val_path, synth.taxonomy_path,
                             K=3, seed=2)
        pred_b, _ = run_eval(ckpt_b, synth.store_path, synth.gt_val_path, synth.taxonomy_path,
                             K=3, seed=2)
        assert pred_a.read_bytes() == pred_b.read_bytes()

    def test_clip_attention_variant_trains(self, synth, tmp_path):
        _, log = train(train_config(synth, tmp_path / "ca", variant="clip_attention",
                                    n_heads_ca=2, epochs=2))
        assert np.isfinite(log.records[-1]["train_loss"])

    @pytest.mark.parametrize("variant", ["baseline", "clip_img_only", "img_plus_clip_text"])
    def test_other_variants_train_and_eval(self, synth, tmp_path, variant):
        ckpt, log = train(train_config(synth, tmp_path / variant, variant=variant, epochs=1))
        assert np.isfinite(log.records[-1]["train_loss"])
        _, report = run_eval(ckpt, synth.store_path, synth.gt_val_path, synth.taxonomy_path,
                             K=2, seed=0, out_dir=tmp_path / f"{variant}_eval")
        assert 0.0 <= report.verb_ed <= 1.0

    @pytest.mark.parametrize("variant, tables_built", [("img_plus_clip_text", 1), ("img_plus_clip", 0)])
    def test_label_tables_built_once_and_only_for_text(self, synth, tmp_path, monkeypatch,
                                                        variant, tables_built):
        calls = []
        real = harness.build_text_table
        monkeypatch.setattr(harness, "build_text_table", lambda *a: calls.append(a[1]) or real(*a))
        ckpt, _ = train(train_config(synth, tmp_path / "r", variant=variant, epochs=1,
                                     val_gt=str(synth.gt_val_path), eval_every=1))
        assert len(calls) == 4 * tables_built  # one table per category
        run_eval(ckpt, synth.store_path, synth.gt_val_path, synth.taxonomy_path, K=2,
                 out_dir=tmp_path / "e")
        assert len(calls) == 8 * tables_built

    def test_val_split_with_other_horizon_rejected(self, synth, tmp_path):
        example_ids, verb, noun, gt_hash = read_ground_truth(synth.gt_val_path)
        short = gt_sequences(example_ids, verb[:, :2], noun[:, :2])
        write_ground_truth(tmp_path / "gt_short.json", short, 2, gt_hash)
        with pytest.raises(ValidationError, match="horizon Z=2"):
            train(train_config(synth, tmp_path / "r", val_gt=str(tmp_path / "gt_short.json")))

    def test_runlog_enforces_ordering_and_finiteness(self):
        from cliplta import RunLog

        log = RunLog()
        log.append({"epoch": 1, "train_loss": 0.5})
        with pytest.raises(ValidationError, match="increasing"):
            log.append({"epoch": 1, "train_loss": 0.4})
        with pytest.raises(ValidationError, match="finite"):
            log.append({"epoch": 2, "train_loss": float("nan")})

    def test_mismatched_taxonomy_rejected(self, synth, tmp_path):
        bad_tax = tmp_path / "tax.json"
        bad_tax.write_text(json.dumps({
            "verbs": ["v0", "v1", "v2", "v3"], "nouns": ["n0", "n1", "n2", "n3"],
            "scenarios": ["s"], "places": ["p"]}), encoding="utf-8")
        with pytest.raises(ValidationError, match="hash"):
            train(train_config(synth, tmp_path / "x", taxonomy=str(bad_tax)))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_optimizer_state_stays_float32(self, synth, tmp_path, monkeypatch, variant):
        steps = []
        real_step = harness._sgd_momentum_step

        def spy(slots, lr, momentum):
            assert type(lr) is float  # an np.float64 lr would upcast the update
            assert all(g.dtype == np.float32 for _, g, _ in slots)
            real_step(slots, lr, momentum)
            steps.append(slots)

        monkeypatch.setattr(harness, "_sgd_momentum_step", spy)
        train(train_config(synth, tmp_path / "r", variant=variant, epochs=1, n_heads_ca=2))
        assert len(steps) == 6  # 24 examples in batches of 4
        assert all(p.dtype == v.dtype == np.float32 for p, _, v in steps[-1])


@pytest.fixture(scope="module")
def trained(synth, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    ckpt, _ = train(train_config(synth, out, epochs=3))
    return ckpt


class TestRunEval:
    def test_checkpoint_round_trip_evaluation(self, synth, trained, tmp_path):
        model = load_checkpoint(trained)
        pred_mem, rep_mem = run_eval(model, synth.store_path, synth.gt_val_path,
                                     synth.taxonomy_path, K=3, seed=4, out_dir=tmp_path / "mem")
        pred_disk, rep_disk = run_eval(trained, synth.store_path, synth.gt_val_path,
                                       synth.taxonomy_path, K=3, seed=4, out_dir=tmp_path / "disk")
        assert pred_mem.read_bytes() == pred_disk.read_bytes()
        assert rep_mem == rep_disk

    def test_self_consistency_on_own_argmax(self, synth, trained, tmp_path):
        # ground truth copied from the model's own greedy predictions must
        # score exactly zero
        model = load_checkpoint(trained)
        taxonomy = load_taxonomy(synth.taxonomy_path)
        store = FeatureStore.open(synth.store_path)
        dataset = load_split(store, synth.gt_val_path, taxonomy, model.config.variant, None)
        Z = model.config.Z
        verb, noun = _predict_dataset(model, dataset, K=1, temperature=1.0, seed=0)
        argmax_gt = gt_sequences(dataset.example_ids, verb[:, 0], noun[:, 0])
        gt_file = tmp_path / "argmax_gt.json"
        write_ground_truth(gt_file, argmax_gt, Z, taxonomy.sha256())
        _, report = run_eval(trained, synth.store_path, gt_file, synth.taxonomy_path,
                             K=3, seed=9, out_dir=tmp_path / "self")
        assert report.verb_ed == 0.0 and report.noun_ed == 0.0

    def test_k5_no_worse_than_k1(self, synth, trained, tmp_path):
        _, rep1 = run_eval(trained, synth.store_path, synth.gt_val_path, synth.taxonomy_path,
                           K=1, seed=3, out_dir=tmp_path / "k1")
        _, rep5 = run_eval(trained, synth.store_path, synth.gt_val_path, synth.taxonomy_path,
                           K=5, seed=3, out_dir=tmp_path / "k5")
        assert rep5.verb_ed <= rep1.verb_ed
        assert rep5.noun_ed <= rep1.noun_ed

    def test_tampered_gt_hash_rejected(self, synth, trained, tmp_path):
        payload = json.loads(Path(synth.gt_val_path).read_text())
        payload["taxonomy_sha256"] = "0" * 64
        bad = tmp_path / "bad_gt.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match="hash"):
            run_eval(trained, synth.store_path, bad, synth.taxonomy_path,
                     K=2, seed=0, out_dir=tmp_path / "t")

    def test_report_written(self, synth, trained, tmp_path):
        _, report = run_eval(trained, synth.store_path, synth.gt_val_path, synth.taxonomy_path,
                             K=2, seed=0, out_dir=tmp_path / "r")
        saved = json.loads((tmp_path / "r" / "report.json").read_text())
        assert saved["verb_ed"] == report.verb_ed
        assert saved["n_examples"] == report.n_examples

    def test_multi_batch_predictions_are_byte_identical(self, tmp_path):
        # 70 examples span a full eval batch of 64 and a partial one
        data = generate(SynthConfig(n_train=8, n_val=70, n_input_clips=2, N=4, c=8, d_video=8,
                                    Z=3, n_verbs=5, n_nouns=6, seed=2), tmp_path / "data")
        ckpt, _ = train(train_config(data, tmp_path / "run", variant="clip_attention",
                                     epochs=1, n_heads_ca=2))
        files = [run_eval(ckpt, data.store_path, data.gt_val_path, data.taxonomy_path,
                          K=5, seed=1, out_dir=tmp_path / tag)[0].read_bytes() for tag in ("a", "b")]
        assert files[0] == files[1]
        assert len(json.loads(files[0])["predictions"]) == 70


class TestMalformedJson:
    @pytest.mark.parametrize("target", ["gt", "predictions", "store", "ckpt_config", "ckpt_manifest"])
    def test_truncated_file_is_validation_error_naming_it(self, synth, trained, tmp_path, target):
        import shutil

        pred_file, _ = run_eval(trained, synth.store_path, synth.gt_val_path, synth.taxonomy_path,
                                K=2, seed=0, out_dir=tmp_path / "eval")
        store = shutil.copytree(synth.store_path, tmp_path / "store")
        ckpt = shutil.copytree(trained, tmp_path / "ckpt")
        gt = shutil.copy(synth.gt_val_path, tmp_path / "gt.json")
        path, read = {
            "gt": (gt, lambda: read_ground_truth(gt)),
            "predictions": (pred_file, lambda: read_predictions(pred_file)),
            "store": (store / "manifest.json", lambda: FeatureStore.open(store)),
            "ckpt_config": (ckpt / "config.json", lambda: load_checkpoint(ckpt)),
            "ckpt_manifest": (ckpt / "params.json", lambda: load_checkpoint(ckpt)),
        }[target]
        path = Path(path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ValidationError, match="not valid JSON") as info:
            read()
        assert str(path) in str(info.value)
