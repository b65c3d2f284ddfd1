"""Acceptance suite: one test per release criterion.

Each test prints a `[criterion] PASS` line on success (run with -s or -v to
see them); tolerances and budgets are pinned in the asserts. The behavioral
checks run the real training loop on synthetic data at desk scale.
"""

import itertools
import json
import time

import jsonschema
import numpy as np
import pytest

from cliplta import (
    CrossAttention,
    FeatureStore,
    LtaModel,
    SynthConfig,
    TrainConfig,
    ed_at_zk,
    edit_distance,
    generate,
    img_text_concat,
    load_checkpoint,
    mean_pool,
    rank_labels,
    run_eval,
    save_checkpoint,
    train,
    zero_shot_probe,
)
from cliplta.model import LtaModelConfig, batch_loss_and_grads
from helpers import attend, brute_force_edit_distance, finite_difference, max_rel_err, move_off_init

RNG = lambda seed: np.random.default_rng(seed)


def _passed(name):
    print(f"\n[{name}] PASS")


class TestEditDistanceOracle:
    def test_dp_equals_brute_force(self):
        start = time.time()
        universe = [tuple(p) for L in range(5) for p in itertools.product(range(3), repeat=L)]
        for a in universe:
            for b in universe:
                assert edit_distance(a, b) == brute_force_edit_distance(a, b), (a, b)

        rng = RNG(424242)
        for _ in range(500):
            sigma = int(rng.integers(2, 6))
            a = tuple(int(x) for x in rng.integers(0, sigma, rng.integers(0, 7)))
            b = tuple(int(x) for x in rng.integers(0, sigma, rng.integers(0, 7)))
            assert edit_distance(a, b) == brute_force_edit_distance(a, b), (a, b)
        elapsed = time.time() - start
        assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s"
        _passed("edit-distance-oracle")


class TestMetricProtocol:
    def test_worked_examples_and_monotonicity(self):
        def score(pred_verbs, pred_nouns, gt_verbs, gt_nouns):
            verb, noun = ed_at_zk(np.array([pred_verbs]), np.array([pred_nouns]),
                                  np.array([gt_verbs]), np.array([gt_nouns]))
            return float(verb[0]), float(noun[0])

        gt = ([0, 1, 2, 9], [0, 1, 2, 9])
        assert score([[0, 1, 2, 9]], [[0, 1, 2, 9]], *gt) == (0.0, 0.0)

        gt_plain = ([0, 1, 2, 3], [0, 1, 2, 3])
        assert score([[9, 8, 7, 6]], [[9, 8, 7, 6]], *gt_plain) == (1.0, 1.0)

        assert score([[0, 1, 2, 3], [9, 9, 9, 9]], [[0, 1, 2, 3], [9, 9, 9, 9]], *gt) == (0.25, 0.25)

        rng = RNG(7)
        for _ in range(200):
            Z = int(rng.integers(2, 10))
            gt_r = rng.integers(0, 6, Z), rng.integers(0, 6, Z)
            verbs = rng.integers(0, 6, (5, Z))
            nouns = rng.integers(0, 6, (5, Z))
            prev = (1.0, 1.0)
            for k in range(1, 6):
                scores = score(verbs[:k], nouns[:k], *gt_r)
                assert 0.0 <= scores[0] <= 1.0 and 0.0 <= scores[1] <= 1.0
                assert scores[0] <= prev[0] and scores[1] <= prev[1]
                prev = scores
        _passed("metric-protocol")


class TestAggregationInvariants:
    def test_invariants(self, stub_tables):
        rng = RNG(11)
        c = 16
        frames = rng.standard_normal((12, c))
        params = CrossAttention(rng, c=c, d_attn=c, n_heads=4)
        query = rng.standard_normal(c)
        tables = stub_tables(c=c)

        pooled = mean_pool(frames)
        attended, weights = attend(params, query, frames)
        concat = img_text_concat(frames, tables)
        assert pooled.shape == (c,)
        assert attended.shape == (c,)
        assert concat.shape == (5 * c,)

        for _ in range(10):
            perm = rng.permutation(len(frames))
            np.testing.assert_allclose(mean_pool(frames[perm]), pooled, atol=1e-6)
            np.testing.assert_allclose(attend(params, query, frames[perm])[0], attended, atol=1e-6)

        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)

        base_ids = [rank_labels(pooled, tables[cat], 1)[0].tolist()
                    for cat in ("noun", "verb", "scenario", "place")]
        for scale in (0.25, 3.0, 40.0):
            scaled_ids = [rank_labels(scale * pooled, tables[cat], 1)[0].tolist()
                          for cat in ("noun", "verb", "scenario", "place")]
            assert scaled_ids == base_ids
        scaled_concat = img_text_concat(5.0 * frames, tables)
        np.testing.assert_allclose(scaled_concat[c:], concat[c:], atol=1e-9)
        _passed("aggregation-invariants")


class TestGradientCorrectness:
    def test_attention_aggregator_and_end_to_end(self):
        start = time.time()
        rng = RNG(2024)

        # clip_attention with a learned query: the aggregator's five gradients are checked in the model
        for trial in range(20):
            cfg = LtaModelConfig(variant="clip_attention", n_verbs=3, n_nouns=3, c=3, d_video=3,
                                 n_input_clips=2, Z=2, n_layers=1, n_heads_agg=2, d_ff=4,
                                 d_attn=4, n_heads_ca=2, learned_query=True, seed=trial)
            model = LtaModel(cfg, dtype=np.float64)
            move_off_init(model, rng)
            batch = {
                "video": rng.standard_normal((1, 2, 3)),
                "frames": rng.standard_normal((1, 2, 2, 3)),
            }
            verb_ids = rng.integers(0, 3, (1, 2))
            noun_ids = rng.integers(0, 3, (1, 2))

            def loss():
                v, n, _ = model.forward_batch(batch)
                value, _, _ = batch_loss_and_grads(v, n, verb_ids, noun_ids)
                return value

            v, n, cache = model.forward_batch(batch)
            _, dv, dn = batch_loss_and_grads(v, n, verb_ids, noun_ids)
            model.zero_grad()
            model.backward_batch(cache, dv, dn)
            grads = model.named_grads()
            for name, arr in model.named_parameters().items():
                assert max_rel_err(grads[name], finite_difference(loss, arr)) < 1e-4, name

        elapsed = time.time() - start
        assert elapsed < 120.0, f"gradient checks took {elapsed:.1f}s"
        _passed("gradient-correctness")


@pytest.fixture(scope="module")
def dense_set(tmp_path_factory):
    cfg = SynthConfig(n_train=200, n_val=64, n_input_clips=2, N=4, c=32, d_video=32,
                      Z=4, n_verbs=8, n_nouns=8, signal_mode="dense", noise_std=0.1, seed=11)
    return cfg, generate(cfg, tmp_path_factory.mktemp("dense"))


def _train_and_score(ds, out_dir, variant, seed, epochs=30):
    cfg = TrainConfig(
        variant=variant, store=str(ds.store_path), gt=str(ds.gt_train_path),
        taxonomy=str(ds.taxonomy_path), out_dir=str(out_dir),
        epochs=epochs, batch_size=8, base_lr=3e-3, seed=seed,
        n_layers=2, n_heads_agg=4, n_heads_ca=4,
    )
    ckpt, _ = train(cfg)
    _, report = run_eval(ckpt, ds.store_path, ds.gt_val_path, ds.taxonomy_path,
                         K=5, temperature=1.0, seed=seed)
    return report


class TestLearningSmoke:
    def test_fusion_variant_learns_dense_task(self, dense_set, tmp_path):
        _, ds = dense_set
        chance = 1.0 - 1.0 / 8  # 0.875
        for seed in (0, 1, 2):
            start = time.time()
            report = _train_and_score(ds, tmp_path / f"s{seed}", "img_plus_clip", seed)
            elapsed = time.time() - start
            assert elapsed < 300.0, f"seed {seed} took {elapsed:.0f}s"
            assert report.verb_ed < 0.30, f"seed {seed}: verb_ed {report.verb_ed} (chance {chance})"
            assert report.noun_ed < 0.30, f"seed {seed}: noun_ed {report.noun_ed} (chance {chance})"
        _passed("learning-smoke")


class TestVariantOrdering:
    def test_attention_beats_mean_pool_on_sparse_signal(self, tmp_path):
        start = time.time()
        cfg = SynthConfig(n_train=200, n_val=64, n_input_clips=2, N=16, c=32, d_video=32,
                          Z=4, n_verbs=8, n_nouns=8, signal_mode="single_frame",
                          noise_std=0.5, seed=21)
        ds = generate(cfg, tmp_path / "data")
        wins = 0
        for seed in (0, 1, 2):
            rep_attn = _train_and_score(ds, tmp_path / f"attn{seed}", "clip_attention", seed)
            rep_mean = _train_and_score(ds, tmp_path / f"mean{seed}", "clip_img_only", seed)
            print(f"\nseed {seed}: clip_attention noun_ed={rep_attn.noun_ed:.4f} "
                  f"clip_img mean-pool noun_ed={rep_mean.noun_ed:.4f}")
            wins += rep_attn.noun_ed <= rep_mean.noun_ed
        elapsed = time.time() - start
        assert elapsed < 900.0, f"variant ordering took {elapsed:.0f}s"
        assert wins >= 2, f"attention no better than mean pool in {3 - wins} of 3 seeds"
        _passed("variant-ordering")


class TestFusionComplementarity:
    def test_fused_beats_single_encoders_on_split_signal(self, tmp_path):
        cfg = SynthConfig(n_train=200, n_val=64, n_input_clips=2, N=4, c=32, d_video=32,
                          Z=4, n_verbs=8, n_nouns=8, signal_mode="split",
                          noise_std=0.1, seed=31)
        ds = generate(cfg, tmp_path / "data")
        wins = 0
        for seed in (0, 1, 2):
            sums = {}
            for variant in ("baseline", "clip_img_only", "img_plus_clip"):
                rep = _train_and_score(ds, tmp_path / f"{variant}{seed}", variant, seed)
                sums[variant] = rep.verb_ed + rep.noun_ed
            print(f"\nseed {seed}: " + " ".join(f"{k}={v:.3f}" for k, v in sums.items()))
            wins += (sums["img_plus_clip"] < sums["baseline"]
                     and sums["img_plus_clip"] < sums["clip_img_only"])
        assert wins >= 2, f"fusion beat both single encoders in only {wins} of 3 seeds"
        _passed("fusion-complementarity")


PROBE_RECORD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["frame", "place", "scenario", "verbs", "nouns", "names"],
    "additionalProperties": False,
    "properties": {
        "frame": {"type": "integer", "minimum": 0},
        "place": {"type": "array", "prefixItems": [{"type": "integer"}, {"type": "number"}],
                  "minItems": 2, "maxItems": 2},
        "scenario": {"type": "array", "prefixItems": [{"type": "integer"}, {"type": "number"}],
                     "minItems": 2, "maxItems": 2},
        "verbs": {"type": "array", "minItems": 3, "maxItems": 3,
                  "items": {"type": "array", "prefixItems": [{"type": "integer"}, {"type": "number"}],
                            "minItems": 2, "maxItems": 2}},
        "nouns": {"type": "array", "minItems": 3, "maxItems": 3,
                  "items": {"type": "array", "prefixItems": [{"type": "integer"}, {"type": "number"}],
                            "minItems": 2, "maxItems": 2}},
        "names": {
            "type": "object",
            "required": ["place", "scenario", "verbs", "nouns"],
            "properties": {
                "place": {"type": "string"},
                "scenario": {"type": "string"},
                "verbs": {"type": "array", "items": {"type": "string"}},
                "nouns": {"type": "array", "items": {"type": "string"}},
            },
        },
    },
}


class TestZeroShotProbe:
    def test_noisy_prototype_retrieval_and_schema(self, stub_tables, small_taxonomy):
        rng = RNG(77)
        tables = stub_tables(c=64)
        n_nouns = len(tables["noun"])
        validator = jsonschema.Draft202012Validator(PROBE_RECORD_SCHEMA)
        noun_ids = np.arange(100) % n_nouns
        frames = tables["noun"].embeddings[noun_ids] + 0.01 * rng.standard_normal((100, 64))
        records = zero_shot_probe(frames, tables, small_taxonomy)
        hits = sum(record["nouns"][0][0] == noun_id for record, noun_id in zip(records, noun_ids))
        for record in records:
            validator.validate(json.loads(json.dumps(record)))
        assert hits == 100, f"top-1 noun retrieval {hits}/100"
        _passed("zero-shot-probe")


class TestDeterminismAndRoundTrips:
    def test_reruns_and_round_trips_are_exact(self, dense_set, tmp_path):
        _, ds = dense_set

        # identical config + seed -> byte-identical prediction files and losses
        logs, pred_bytes = [], []
        for tag in ("a", "b"):
            cfg = TrainConfig(
                variant="clip_attention", store=str(ds.store_path), gt=str(ds.gt_train_path),
                taxonomy=str(ds.taxonomy_path), out_dir=str(tmp_path / tag),
                epochs=3, batch_size=8, base_lr=1e-3, seed=5,
                n_layers=1, n_heads_agg=4, n_heads_ca=4,
            )
            ckpt, log = train(cfg)
            pred_file, _ = run_eval(ckpt, ds.store_path, ds.gt_val_path, ds.taxonomy_path,
                                    K=5, temperature=1.0, seed=5)
            logs.append([r["train_loss"] for r in log.records])
            pred_bytes.append(pred_file.read_bytes())
        assert logs[0] == logs[1]
        assert pred_bytes[0] == pred_bytes[1]

        # feature-store round trip is bit-exact, awkward values included
        tricky = np.array([[-0.0, np.finfo(np.float32).tiny, 1e-45, 1.5]], dtype=np.float32)
        store = FeatureStore.create(tmp_path / "store", c=4, d_video=4)
        store.write_clip("x", tricky, tricky[0])
        store.seal()
        frames, video = FeatureStore.open(tmp_path / "store").read_clip("x")
        assert frames.tobytes() == tricky.tobytes()
        assert video.tobytes() == tricky[0].tobytes()

        # checkpoint round trip reproduces the forward pass bitwise
        ckpt_dir = tmp_path / "a" / "checkpoint"
        model = load_checkpoint(ckpt_dir)
        rng = RNG(3)
        batch = {
            "video": rng.standard_normal((2, 2, 32)).astype(np.float32),
            "frames": rng.standard_normal((2, 2, 4, 32)).astype(np.float32),
        }
        v1, n1, _ = model.forward_batch(batch)
        save_checkpoint(model, tmp_path / "resaved")
        reloaded = load_checkpoint(tmp_path / "resaved")
        v2, n2, _ = reloaded.forward_batch(batch)
        assert v1.tobytes() == v2.tobytes()
        assert n1.tobytes() == n2.tobytes()
        _passed("determinism-round-trips")
