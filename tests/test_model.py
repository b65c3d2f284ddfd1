import math

import numpy as np
import pytest

from cliplta import (
    ClipDescriptor,
    GroundTruthSequence,
    LtaModel,
    LtaModelConfig,
    StepLogits,
    ValidationError,
    VideoDescriptor,
    anticipation_loss,
    fuse,
    load_checkpoint,
    sample_candidates,
    save_checkpoint,
)
from cliplta.model import VARIANTS, batch_loss_and_grads
from cliplta.taxonomy import ActionLabel
from helpers import finite_difference, max_rel_err


def tiny_config(variant="img_plus_clip", **kw):
    defaults = dict(variant=variant, n_verbs=4, n_nouns=5, c=4, d_video=4,
                    n_input_clips=2, Z=3, n_layers=1, n_heads_agg=2, d_ff=8,
                    d_attn=4, n_heads_ca=2, seed=3)
    defaults.update(kw)
    return LtaModelConfig(**defaults)


def make_batch(cfg, rng, B=2, N=3):
    batch = {}
    if cfg.uses_video:
        batch["video"] = rng.standard_normal((B, cfg.n_input_clips, cfg.d_video))
    if cfg.variant == "clip_attention":
        batch["frames"] = rng.standard_normal((B, cfg.n_input_clips, N, cfg.c))
    elif cfg.d_clip > 0:
        batch["clip_desc"] = rng.standard_normal((B, cfg.n_input_clips, cfg.d_clip))
    return batch


class TestConfig:
    def test_variant_widths(self):
        assert tiny_config("baseline").d_model == 4
        assert tiny_config("clip_img_only").d_model == 4
        assert tiny_config("img_plus_clip").d_model == 8
        assert tiny_config("img_plus_clip_text").d_model == 24
        assert tiny_config("clip_attention").d_model == 8

    def test_unknown_variant(self):
        with pytest.raises(ValidationError, match="variant"):
            tiny_config("mystery")

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValidationError, match="divisible"):
            tiny_config("baseline", n_heads_agg=3)


class TestFuse:
    def test_concatenation(self):
        cfg = tiny_config("img_plus_clip", c=1, d_video=2, n_heads_agg=1)
        token = fuse(VideoDescriptor(clip_id="a", vector=np.array([1.0, 2.0])),
                     ClipDescriptor(vector=np.array([3.0])), cfg)
        np.testing.assert_array_equal(token.vector, [1.0, 2.0, 3.0])

    def test_zero_descriptor_tail(self, rng):
        cfg = tiny_config("img_plus_clip")
        video = rng.standard_normal(cfg.d_video)
        token = fuse(video, np.zeros(cfg.c), cfg)
        np.testing.assert_array_equal(token.vector[:cfg.d_video], video)
        np.testing.assert_array_equal(token.vector[cfg.d_video:], 0.0)

    def test_wrong_clip_width_rejected(self, rng):
        cfg = tiny_config("img_plus_clip")
        with pytest.raises(ValidationError, match="width"):
            fuse(rng.standard_normal(cfg.d_video), rng.standard_normal(5 * cfg.c), cfg)

    def test_baseline_ignores_clip(self, rng):
        cfg = tiny_config("baseline")
        video = rng.standard_normal(cfg.d_video)
        assert fuse(video, None, cfg).width == cfg.d_video


class TestForward:
    def test_deterministic(self, rng):
        cfg = tiny_config()
        model = LtaModel(cfg, dtype=np.float64)
        batch = make_batch(cfg, rng)
        v1, n1, _ = model.forward_batch(batch)
        v2, n2, _ = model.forward_batch(batch)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(n1, n2)

    def test_logit_shapes(self, rng):
        cfg = tiny_config()
        model = LtaModel(cfg, dtype=np.float64)
        v, n, _ = model.forward_batch(make_batch(cfg, rng, B=3))
        assert v.shape == (3, cfg.Z, cfg.n_verbs)
        assert n.shape == (3, cfg.Z, cfg.n_nouns)

    def test_clip_order_matters(self, rng):
        # positional embeddings make the aggregator order-sensitive
        cfg = tiny_config()
        model = LtaModel(cfg, dtype=np.float64)
        tokens = rng.standard_normal((1, 2, cfg.d_model))
        v1, _, _ = model.forward_tokens(tokens)
        v2, _, _ = model.forward_tokens(tokens[:, ::-1])
        assert not np.allclose(v1, v2)

    def test_single_example_api(self, rng):
        cfg = tiny_config()
        model = LtaModel(cfg, dtype=np.float64)
        tokens = [rng.standard_normal(cfg.d_model) for _ in range(2)]
        logits = model.forward(tokens)
        assert logits.verb_logits.shape == (cfg.Z, cfg.n_verbs)
        batch_v, _, _ = model.forward_tokens(np.stack(tokens)[None])
        np.testing.assert_array_equal(logits.verb_logits, batch_v[0])

    def test_wrong_token_count(self, rng):
        cfg = tiny_config()
        model = LtaModel(cfg, dtype=np.float64)
        with pytest.raises(ValidationError, match="tokens"):
            model.forward([rng.standard_normal(cfg.d_model)])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradients_every_variant(self, variant, rng):
        cfg = tiny_config(variant, n_verbs=3, n_nouns=3, learned_query=True)
        model = LtaModel(cfg, dtype=np.float64)
        batch = make_batch(cfg, rng, B=2)
        verb_ids = rng.integers(0, 3, (2, cfg.Z))
        noun_ids = rng.integers(0, 3, (2, cfg.Z))

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
            numeric = finite_difference(loss, arr)
            assert max_rel_err(grads[name], numeric) < 1e-4, f"{variant}:{name}"


def cached_arrays(obj):
    """Every ndarray inside a nested forward cache."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from cached_arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from cached_arrays(value)


class TestFloat32:
    """A float32 model computes in float32 end to end, whatever dtype its inputs have."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_cache_and_grads_stay_float32(self, variant, rng):
        cfg = tiny_config(variant, learned_query=True)
        model = LtaModel(cfg)
        batch = make_batch(cfg, rng, B=3)  # float64 inputs
        v, n, cache = model.forward_batch(batch)
        assert v.dtype == np.float32 and n.dtype == np.float32
        arrays = list(cached_arrays(cache))
        assert arrays
        assert [a.dtype for a in arrays] == [np.float32] * len(arrays)
        _, dv, dn = batch_loss_and_grads(v, n, rng.integers(0, cfg.n_verbs, (3, cfg.Z)),
                                         rng.integers(0, cfg.n_nouns, (3, cfg.Z)))
        model.zero_grad()
        model.backward_batch(cache, dv, dn)
        for name, grad in model.named_grads().items():
            assert grad.dtype == np.float32, name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_logits_independent_of_batch_size(self, variant, rng):
        # the 2-D GEMMs sum in an order that depends on the row count, so
        # batch 64 and batch 1 may differ in the last bits, never by more
        cfg = tiny_config(variant, c=16, d_video=16, d_ff=32, d_attn=16, n_heads_agg=4,
                          n_heads_ca=4, n_verbs=11, n_nouns=13, Z=5)
        model = LtaModel(cfg)
        batch = make_batch(cfg, rng, B=64, N=6)
        v64, n64, _ = model.forward_batch(batch)
        for b in range(64):
            v1, n1, _ = model.forward_batch({k: x[b:b + 1] for k, x in batch.items()})
            for one, many in ((v1[0], v64[b]), (n1[0], n64[b])):
                assert np.abs(one - many).max() <= 1e-5 * np.abs(many).max(), b


class TestLoss:
    def test_uniform_logits_give_log_c(self):
        logits = StepLogits(verb_logits=np.zeros((2, 4)), noun_logits=np.zeros((2, 4)))
        gt = GroundTruthSequence("e", (ActionLabel(1, 2), ActionLabel(0, 3)))
        assert anticipation_loss(logits, gt) == pytest.approx(math.log(4) + math.log(4), abs=1e-12)

    def test_saturated_logits_give_zero(self):
        verb = np.zeros((2, 4))
        noun = np.zeros((2, 4))
        verb[0, 1] = verb[1, 0] = 30.0
        noun[0, 2] = noun[1, 3] = 30.0
        logits = StepLogits(verb_logits=verb, noun_logits=noun)
        gt = GroundTruthSequence("e", (ActionLabel(1, 2), ActionLabel(0, 3)))
        assert anticipation_loss(logits, gt) < 1e-9

    def test_matches_scalar_arithmetic(self):
        verb = np.array([[0.5, -0.25, 0.0], [1.0, 2.0, -1.0]])
        noun = np.array([[0.0, 1.0], [3.0, -0.5]])
        gt = GroundTruthSequence("e", (ActionLabel(2, 0), ActionLabel(1, 1)))

        def ce(row, target):
            z = sum(math.exp(x) for x in row)
            return -math.log(math.exp(row[target]) / z)

        expected = ((ce(verb[0], 2) + ce(noun[0], 0)) + (ce(verb[1], 1) + ce(noun[1], 1))) / 2
        got = anticipation_loss(StepLogits(verb_logits=verb, noun_logits=noun), gt)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_shift_invariance(self, rng):
        verb = rng.standard_normal((3, 5))
        noun = rng.standard_normal((3, 4))
        gt = GroundTruthSequence("e", tuple(ActionLabel(int(v), int(n)) for v, n in
                                            zip(rng.integers(0, 5, 3), rng.integers(0, 4, 3))))
        base = anticipation_loss(StepLogits(verb_logits=verb, noun_logits=noun), gt)
        shifted = anticipation_loss(
            StepLogits(verb_logits=verb + 7.5, noun_logits=noun - 3.25), gt)
        assert abs(base - shifted) <= 1e-6

    def test_out_of_range_target(self):
        logits = StepLogits(verb_logits=np.zeros((1, 4)), noun_logits=np.zeros((1, 4)))
        gt = GroundTruthSequence("e", (ActionLabel(9, 0),))
        with pytest.raises(ValidationError, match="range"):
            anticipation_loss(logits, gt)

    def test_length_mismatch(self):
        logits = StepLogits(verb_logits=np.zeros((2, 4)), noun_logits=np.zeros((2, 4)))
        gt = GroundTruthSequence("e", (ActionLabel(0, 0),))
        with pytest.raises(ValidationError, match="horizon"):
            anticipation_loss(logits, gt)


class TestSampleCandidates:
    def test_k1_is_argmax(self, rng):
        logits = StepLogits(verb_logits=rng.standard_normal((4, 6)),
                            noun_logits=rng.standard_normal((4, 5)))
        pred = sample_candidates(logits, K=1, temperature=1.0, seed=0)
        np.testing.assert_array_equal(pred.verb_seqs[0], np.argmax(logits.verb_logits, axis=1))
        np.testing.assert_array_equal(pred.noun_seqs[0], np.argmax(logits.noun_logits, axis=1))

    def test_degenerate_softmax_collapses(self):
        verb = np.zeros((3, 4))
        noun = np.zeros((3, 4))
        verb[:, 2] = 1e9
        noun[:, 1] = 1e9
        pred = sample_candidates(StepLogits(verb_logits=verb, noun_logits=noun),
                                 K=5, temperature=1.0, seed=123)
        assert np.all(pred.verb_seqs == 2)
        assert np.all(pred.noun_seqs == 1)

    def test_seeded_reproducibility(self, rng):
        logits = StepLogits(verb_logits=rng.standard_normal((4, 6)),
                            noun_logits=rng.standard_normal((4, 5)))
        p1 = sample_candidates(logits, K=4, temperature=0.7, seed=99)
        p2 = sample_candidates(logits, K=4, temperature=0.7, seed=99)
        np.testing.assert_array_equal(p1.verb_seqs, p2.verb_seqs)
        np.testing.assert_array_equal(p1.noun_seqs, p2.noun_seqs)

    def test_ids_always_in_range(self, rng):
        for _ in range(20):
            logits = StepLogits(verb_logits=rng.standard_normal((5, 3)) * 50,
                                noun_logits=rng.standard_normal((5, 7)) * 50)
            pred = sample_candidates(logits, K=5, temperature=2.0, seed=int(rng.integers(1 << 31)))
            assert pred.verb_seqs.min() >= 0 and pred.verb_seqs.max() < 3
            assert pred.noun_seqs.min() >= 0 and pred.noun_seqs.max() < 7

    def test_bad_temperature(self, rng):
        logits = StepLogits(verb_logits=np.zeros((2, 3)), noun_logits=np.zeros((2, 3)))
        with pytest.raises(ValidationError, match="temperature"):
            sample_candidates(logits, K=2, temperature=0.0, seed=0)


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path, rng):
        cfg = tiny_config("clip_attention")
        model = LtaModel(cfg)  # float32 reference path
        batch = make_batch(cfg, rng)
        v_before, n_before, _ = model.forward_batch(batch)
        save_checkpoint(model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        v_after, n_after, _ = loaded.forward_batch(batch)
        assert v_before.tobytes() == v_after.tobytes()
        assert n_before.tobytes() == n_after.tobytes()

    def test_config_survives(self, tmp_path):
        cfg = tiny_config("img_plus_clip_text", Z=4)
        save_checkpoint(LtaModel(cfg), tmp_path / "ckpt")
        assert load_checkpoint(tmp_path / "ckpt").config == cfg

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(ValidationError, match="checkpoint"):
            load_checkpoint(tmp_path / "void")

    def test_checkpoint_layout(self, tmp_path):
        import json

        cfg = tiny_config("img_plus_clip")
        model = LtaModel(cfg)
        save_checkpoint(model, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "params.json").read_text())
        params = model.named_parameters()
        assert set(manifest) == set(params)
        for name, entry in manifest.items():
            assert entry["shape"] == list(params[name].shape)
            blob = (tmp_path / "ckpt" / entry["file"]).read_bytes()
            assert len(blob) == params[name].size * 4  # float32 little-endian
        saved_cfg = json.loads((tmp_path / "ckpt" / "config.json").read_text())
        assert saved_cfg["variant"] == "img_plus_clip" and saved_cfg["seed"] == cfg.seed
