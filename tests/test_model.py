import hashlib
import math

import numpy as np
import pytest

from cliplta import (
    LtaModel,
    LtaModelConfig,
    NumericError,
    ValidationError,
    load_checkpoint,
    sample_candidates,
    save_checkpoint,
)
from cliplta.model import VARIANTS, batch_loss_and_grads
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
    if cfg.clip_source == "attention":
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
    """featurize_batch builds each clip token as [video ‖ clip descriptor]."""

    def test_concatenation(self):
        cfg = tiny_config("img_plus_clip", c=1, d_video=2, n_heads_agg=1)
        model = LtaModel(cfg, dtype=np.float64)
        tokens, _ = model.featurize_batch({"video": np.array([[[1.0, 2.0], [4.0, 5.0]]]),
                                           "clip_desc": np.array([[[3.0], [6.0]]])})
        np.testing.assert_array_equal(tokens, [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])

    def test_zero_descriptor_tail(self, rng):
        cfg = tiny_config("img_plus_clip")
        model = LtaModel(cfg, dtype=np.float64)
        video = rng.standard_normal((2, cfg.n_input_clips, cfg.d_video))
        tokens, _ = model.featurize_batch({"video": video,
                                           "clip_desc": np.zeros((2, cfg.n_input_clips, cfg.c))})
        np.testing.assert_array_equal(tokens[..., :cfg.d_video], video)
        np.testing.assert_array_equal(tokens[..., cfg.d_video:], 0.0)

    def test_wrong_clip_width_rejected(self, rng):
        cfg = tiny_config("img_plus_clip")
        model = LtaModel(cfg, dtype=np.float64)
        batch = {"video": rng.standard_normal((1, cfg.n_input_clips, cfg.d_video)),
                 "clip_desc": rng.standard_normal((1, cfg.n_input_clips, 5 * cfg.c))}
        with pytest.raises(ValidationError, match="clip_desc"):
            model.featurize_batch(batch)

    def test_baseline_ignores_clip(self, rng):
        cfg = tiny_config("baseline")
        model = LtaModel(cfg, dtype=np.float64)
        video = rng.standard_normal((1, cfg.n_input_clips, cfg.d_video))
        tokens, _ = model.featurize_batch({"video": video,
                                           "clip_desc": rng.standard_normal((1, cfg.n_input_clips, cfg.c))})
        np.testing.assert_array_equal(tokens, video)


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

    def test_wrong_token_count(self, rng):
        cfg = tiny_config()
        model = LtaModel(cfg, dtype=np.float64)
        batch = make_batch(tiny_config(n_input_clips=1), rng)
        with pytest.raises(ValidationError, match="input clips"):
            model.forward_batch(batch)

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
    """batch_loss_and_grads: mean over (B, Z) of verb plus noun cross-entropy."""

    def test_uniform_logits_give_log_c(self):
        loss, _, _ = batch_loss_and_grads(np.zeros((2, 2, 4)), np.zeros((2, 2, 4)),
                                          np.array([[1, 0], [3, 2]]), np.array([[2, 3], [0, 1]]))
        assert loss == pytest.approx(math.log(4) + math.log(4), abs=1e-12)

    def test_saturated_logits_give_zero(self):
        verb = np.zeros((1, 2, 4))
        noun = np.zeros((1, 2, 4))
        verb[0, 0, 1] = verb[0, 1, 0] = 30.0
        noun[0, 0, 2] = noun[0, 1, 3] = 30.0
        loss, _, _ = batch_loss_and_grads(verb, noun, np.array([[1, 0]]), np.array([[2, 3]]))
        assert loss < 1e-9

    def test_matches_scalar_arithmetic(self):
        verb = np.array([[[0.5, -0.25, 0.0], [1.0, 2.0, -1.0]]])
        noun = np.array([[[0.0, 1.0], [3.0, -0.5]]])

        def ce(row, target):
            z = sum(math.exp(x) for x in row)
            return -math.log(math.exp(row[target]) / z)

        expected = ((ce(verb[0, 0], 2) + ce(noun[0, 0], 0)) + (ce(verb[0, 1], 1) + ce(noun[0, 1], 1))) / 2
        loss, _, _ = batch_loss_and_grads(verb, noun, np.array([[2, 1]]), np.array([[0, 1]]))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_shift_invariance(self, rng):
        verb = rng.standard_normal((2, 3, 5))
        noun = rng.standard_normal((2, 3, 4))
        verb_ids, noun_ids = rng.integers(0, 5, (2, 3)), rng.integers(0, 4, (2, 3))
        base, _, _ = batch_loss_and_grads(verb, noun, verb_ids, noun_ids)
        shifted, _, _ = batch_loss_and_grads(verb + 7.5, noun - 3.25, verb_ids, noun_ids)
        assert abs(base - shifted) <= 1e-6

    def test_out_of_range_target(self):
        with pytest.raises(ValidationError, match="range"):
            batch_loss_and_grads(np.zeros((1, 1, 4)), np.zeros((1, 1, 4)),
                                 np.array([[9]]), np.array([[0]]))


class TestSampleCandidates:
    def test_k1_is_argmax(self, rng):
        verb, noun = rng.standard_normal((1, 4, 6)), rng.standard_normal((1, 4, 5))
        pred_verb, pred_noun = sample_candidates(verb, noun, K=1, temperature=1.0, seeds=[0])
        np.testing.assert_array_equal(pred_verb[:, 0], np.argmax(verb, axis=-1))
        np.testing.assert_array_equal(pred_noun[:, 0], np.argmax(noun, axis=-1))

    def test_degenerate_softmax_collapses(self):
        verb = np.zeros((1, 3, 4))
        noun = np.zeros((1, 3, 4))
        verb[..., 2] = 1e9
        noun[..., 1] = 1e9
        pred_verb, pred_noun = sample_candidates(verb, noun, K=5, temperature=1.0, seeds=[123])
        assert np.all(pred_verb == 2)
        assert np.all(pred_noun == 1)

    def test_seeded_reproducibility(self, rng):
        verb, noun = rng.standard_normal((1, 4, 6)), rng.standard_normal((1, 4, 5))
        p1 = sample_candidates(verb, noun, K=4, temperature=0.7, seeds=[99])
        p2 = sample_candidates(verb, noun, K=4, temperature=0.7, seeds=[99])
        np.testing.assert_array_equal(p1[0], p2[0])
        np.testing.assert_array_equal(p1[1], p2[1])

    def test_ids_always_in_range(self, rng):
        for _ in range(20):
            verb = rng.standard_normal((1, 5, 3)) * 50
            noun = rng.standard_normal((1, 5, 7)) * 50
            pred_verb, pred_noun = sample_candidates(verb, noun, K=5, temperature=2.0,
                                                     seeds=[int(rng.integers(1 << 31))])
            assert pred_verb.min() >= 0 and pred_verb.max() < 3
            assert pred_noun.min() >= 0 and pred_noun.max() < 7

    def test_bad_temperature(self, rng):
        with pytest.raises(ValidationError, match="temperature"):
            sample_candidates(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), K=2, temperature=0.0, seeds=[0])

    def test_non_finite_logits_are_numeric_error(self):
        verb = np.zeros((2, 3, 4))
        verb[1, 2, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            sample_candidates(verb, np.zeros((2, 3, 5)), K=2, temperature=1.0, seeds=[0, 1])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValidationError, match="seeds"):
            sample_candidates(np.zeros((2, 3, 4)), np.zeros((2, 3, 5)), K=2, temperature=1.0, seeds=[0])
        with pytest.raises(ValidationError, match="K must be"):
            sample_candidates(np.zeros((1, 3, 4)), np.zeros((1, 3, 5)), K=0, temperature=1.0, seeds=[0])


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


def _block_names(prefix):
    """Parameter names of one attention + feed-forward block (encoder layer or decoder)."""
    return ([f"{prefix}.attn.{p}_proj.{w}" for p in "qkvo" for w in "Wb"]
            + [f"{prefix}.{ln}.{g}" for ln in ("ln1", "ln2") for g in ("gamma", "beta")]
            + [f"{prefix}.ffn.lin{i}.{w}" for i in (1, 2) for w in "Wb"])


CHECKPOINT_NAMES = ["pos_embed", "step_queries", *_block_names("encoder.0"), *_block_names("encoder.1"),
                    *_block_names("decoder"), "verb_head.W", "verb_head.b", "noun_head.W", "noun_head.b"]
AGGREGATOR_NAMES = ["aggregator.W_q", "aggregator.W_k", "aggregator.W_v", "aggregator.W_o",
                    "aggregator.query"]

# sha256 over (name, <f4 init bytes) in sorted name order, recorded before the
# parameter registry was rewritten: a renamed parameter or a reordered init
# draw changes it
INIT_SHA256 = {
    ("baseline", False): "0a6d982004cd1eade9367d7743addca6daab7f9359a4c6a790d795e5e7e0a1c5",
    ("clip_img_only", False): "06d278edcf6d11c85a480b6206ddeb09cea9bc457142867e23968ce76b8cdd85",
    ("img_plus_clip", False): "0756a1ad30f4e5d1df48267dba736ec542def4993ccdfceaf9de37c4b9553d8a",
    ("img_plus_clip_text", False): "e226df9641b3920e9eb0747b2853bb3ee8610cc0e8e6f842663cbec982fa8b69",
    ("clip_attention", False): "52136627e48fe89610b10fb5f3d9f39767d39b1e5cb74e324071e7b5fd2fbafb",
    ("clip_attention", True): "899290d4a351603a62c50525ceb7d20e85682acfdcea1a398ad2963fcb4a40c3",
}


def contract_config(variant, learned_query):
    # c != d_video, and two encoder layers so their order is pinned too
    return LtaModelConfig(variant=variant, n_verbs=4, n_nouns=5, c=4, d_video=6, n_input_clips=2,
                          Z=3, n_layers=2, n_heads_agg=2, d_ff=8, d_attn=4, n_heads_ca=2,
                          learned_query=learned_query, seed=3)


class TestCheckpointContract:
    def test_cases_cover_every_variant(self):
        assert {variant for variant, _ in INIT_SHA256} == set(VARIANTS)

    @pytest.mark.parametrize("variant, learned_query", list(INIT_SHA256))
    def test_names_and_init_bytes(self, variant, learned_query):
        params = LtaModel(contract_config(variant, learned_query)).named_parameters()
        expected = CHECKPOINT_NAMES + (AGGREGATOR_NAMES if variant == "clip_attention" else [])
        assert sorted(params) == sorted(expected)
        digest = hashlib.sha256()
        for name in sorted(params):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(params[name], dtype="<f4").tobytes())
        assert digest.hexdigest() == INIT_SHA256[(variant, learned_query)]

    @pytest.mark.parametrize("variant, learned_query", list(INIT_SHA256))
    def test_save_load_is_bit_identical(self, variant, learned_query, tmp_path):
        model = LtaModel(contract_config(variant, learned_query))
        rng = np.random.default_rng(0)
        for value in model.named_parameters().values():
            # values the constructor cannot reproduce, so they must come from the blobs
            value[...] = rng.standard_normal(value.shape)
        save_checkpoint(model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt").named_parameters()
        params = model.named_parameters()
        assert loaded.keys() == params.keys()
        for name, value in params.items():
            assert loaded[name].dtype == value.dtype and loaded[name].shape == value.shape, name
            assert loaded[name].tobytes() == value.tobytes(), name
