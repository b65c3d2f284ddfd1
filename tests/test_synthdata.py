import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from cliplta import FeatureStore, SynthConfig, ValidationError, generate, mean_pool
from cliplta.model import write_predictions
from cliplta.synthdata import frame_prototype, label_sequence, video_prototype


def tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def small_cfg(**kw):
    defaults = dict(n_train=12, n_val=6, n_input_clips=2, N=3, c=8, d_video=8,
                    Z=3, n_verbs=4, n_nouns=4, noise_std=0.1, seed=7)
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestGenerate:
    def test_byte_identical_regeneration(self, tmp_path):
        cfg = small_cfg()
        generate(cfg, tmp_path / "a")
        generate(cfg, tmp_path / "b")
        assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")

    def test_compact_json_writers_match_json_dump(self, tmp_path):
        # the writers encode with json.dumps (C encoder); the bytes must be
        # those json.dump (pure-Python encoder) gives for the same payload
        data = generate(small_cfg(), tmp_path / "d")
        write_predictions(tmp_path / "pred.json", ["b", "a"],
                          np.array([[[0, 1, 2]], [[1, 1, 0]]]), np.array([[[3, 2, 1]], [[0, 0, 0]]]),
                          taxonomy_sha256="f" * 64)
        for path in (data.gt_train_path, data.gt_val_path, data.root / "latents.json",
                     tmp_path / "pred.json"):
            written = Path(path).read_text(encoding="utf-8")
            expected = io.StringIO()
            json.dump(json.loads(written), expected, sort_keys=True, separators=(",", ":"))
            assert written == expected.getvalue() + "\n", path

    def test_different_seed_changes_bytes(self, tmp_path):
        generate(small_cfg(seed=1), tmp_path / "a")
        generate(small_cfg(seed=2), tmp_path / "b")
        assert tree_hash(tmp_path / "a") != tree_hash(tmp_path / "b")

    def test_zero_noise_dense_frames_equal_prototype(self, tmp_path):
        cfg = small_cfg(noise_std=0.0)
        ds = generate(cfg, tmp_path / "d")
        store = FeatureStore.open(ds.store_path)
        for example_id, latent in list(ds.latents.items())[:4]:
            proto = frame_prototype(cfg, latent["z_noun"]).astype(np.float32)
            for t in range(cfg.n_input_clips):
                frames, _ = store.read_clip(f"{example_id}#{t}")
                np.testing.assert_array_equal(frames.frames, np.tile(proto, (cfg.N, 1)))

    def test_gt_lengths_and_ranges(self, tmp_path):
        cfg = small_cfg()
        ds = generate(cfg, tmp_path / "d")
        assert len(ds.gt_train) == cfg.n_train and len(ds.gt_val) == cfg.n_val
        for gt in ds.gt_train + ds.gt_val:
            assert len(gt.actions) == cfg.Z
            assert all(0 <= a.verb_id < cfg.n_verbs for a in gt.actions)
            assert all(0 <= a.noun_id < cfg.n_nouns for a in gt.actions)

    def test_labels_are_function_of_latent(self, tmp_path):
        cfg = small_cfg()
        ds = generate(cfg, tmp_path / "d")
        for gt in ds.gt_train:
            latent = ds.latents[gt.example_id]
            expected = label_sequence(cfg, gt.example_id, latent["z_verb"], latent["z_noun"])
            assert gt == expected

    def test_nearest_prototype_recovers_latent(self, tmp_path):
        # direct nearest-neighbor oracle on the generated features
        cfg = small_cfg(n_train=500, n_val=1, c=64, noise_std=0.1, n_verbs=8, n_nouns=8, N=4)
        ds = generate(cfg, tmp_path / "d")
        store = FeatureStore.open(ds.store_path)
        protos = np.stack([frame_prototype(cfg, z) for z in range(cfg.n_classes)])
        correct = 0
        for gt in ds.gt_train:
            frames, _ = store.read_clip(f"{gt.example_id}#0")
            pooled = mean_pool(frames.frames)
            z_hat = int(np.argmax(protos @ (pooled / np.linalg.norm(pooled))))
            correct += z_hat == ds.latents[gt.example_id]["z_noun"]
        assert correct / cfg.n_train >= 0.99

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            small_cfg(n_train=0)
        with pytest.raises(ValidationError):
            small_cfg(noise_std=-0.5)
        with pytest.raises(ValidationError):
            small_cfg(signal_mode="sparse")


class TestSignalModes:
    def test_single_frame_dilution_is_monotone(self, tmp_path):
        means = []
        for N in (2, 8, 32):
            cfg = small_cfg(n_train=200, n_val=1, c=32, N=N, noise_std=0.5,
                            signal_mode="single_frame", n_verbs=8, n_nouns=8, seed=13)
            ds = generate(cfg, tmp_path / f"n{N}")
            store = FeatureStore.open(ds.store_path)
            cosines = []
            for gt in ds.gt_train:
                frames, _ = store.read_clip(f"{gt.example_id}#0")
                pooled = mean_pool(frames.frames)
                proto = frame_prototype(cfg, ds.latents[gt.example_id]["z_noun"])
                cosines.append(float(pooled @ proto / np.linalg.norm(pooled)))
            means.append(np.mean(cosines))
        assert means[0] > means[1] > means[2]

    def test_single_frame_has_one_signal_frame_at_zero_noise(self, tmp_path):
        cfg = small_cfg(noise_std=0.0, signal_mode="single_frame", N=5)
        ds = generate(cfg, tmp_path / "sf")
        store = FeatureStore.open(ds.store_path)
        example_id = ds.gt_train[0].example_id
        frames, _ = store.read_clip(f"{example_id}#0")
        norms = np.linalg.norm(frames.frames, axis=1)
        assert np.sum(norms > 0.5) == 1

    def test_split_mode_draws_independent_latents(self, tmp_path):
        cfg = small_cfg(n_train=100, signal_mode="split", n_verbs=8, n_nouns=8)
        ds = generate(cfg, tmp_path / "sp")
        pairs = [(l["z_verb"], l["z_noun"]) for l in ds.latents.values()]
        assert any(zv != zn for zv, zn in pairs)

    def test_split_mode_video_carries_verb_class(self, tmp_path):
        cfg = small_cfg(n_train=50, signal_mode="split", noise_std=0.05, n_verbs=8, n_nouns=8)
        ds = generate(cfg, tmp_path / "sp")
        store = FeatureStore.open(ds.store_path)
        protos = np.stack([video_prototype(cfg, z) for z in range(cfg.n_classes)])
        for gt in ds.gt_train[:20]:
            _, video = store.read_clip(f"{gt.example_id}#0")
            z_hat = int(np.argmax(protos @ video.vector))
            assert z_hat == ds.latents[gt.example_id]["z_verb"]
