import math

import numpy as np
import pytest

from cliplta import (
    CrossAttention,
    Taxonomy,
    TextEmbeddingTable,
    ValidationError,
    img_text_concat,
    mean_pool,
    rank_labels,
    zero_shot_probe,
)
from cliplta.aggregate import (
    cross_attention_backward,
    cross_attention_forward,
    probe_record,
)
from helpers import attend, finite_difference, max_rel_err


class TestMeanPool:
    def test_single_frame_identity(self):
        v = np.array([[3.0, -1.0, 2.0]])
        np.testing.assert_array_equal(mean_pool(v), v[0])

    def test_two_frame_average(self):
        frames = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(mean_pool(frames), [0.5, 0.5])

    def test_permutation_invariance(self, rng):
        frames = rng.standard_normal((9, 6))
        base = mean_pool(frames)
        for _ in range(5):
            perm = rng.permutation(9)
            np.testing.assert_allclose(mean_pool(frames[perm]), base, atol=1e-6)

    def test_output_width_is_c(self, rng):
        assert mean_pool(rng.standard_normal((4, 11))).shape == (11,)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mean_pool(np.zeros((0, 4)))


def table_from_rows(rows, category="noun"):
    return TextEmbeddingTable(category=category, embeddings=np.asarray(rows, dtype=float),
                              prompt_template="a photo of {}")


class TestRankLabels:
    def test_hand_computed_cosine(self):
        table = table_from_rows([[1.0, 0.0], [0.0, 1.0]])
        [top_id], [score] = rank_labels(np.array([0.9, 0.1]), table, 1)
        assert top_id == 0
        assert score == pytest.approx(0.9 / math.hypot(0.9, 0.1), abs=1e-12)
        assert score == pytest.approx(0.9939, abs=1e-4)

    def test_scale_invariance(self, rng):
        table = table_from_rows(rng.standard_normal((5, 4)))
        q = rng.standard_normal(4)
        base_ids, base_scores = rank_labels(q, table, 5)
        scaled_ids, scaled_scores = rank_labels(5.0 * q, table, 5)
        np.testing.assert_array_equal(base_ids, scaled_ids)
        np.testing.assert_allclose(base_scores, scaled_scores, atol=1e-12)

    def test_row_scale_invariance(self, rng):
        rows = rng.standard_normal((5, 4))
        q = rng.standard_normal(4)
        base_ids, base_scores = rank_labels(q, table_from_rows(rows), 5)
        rows2 = rows * rng.uniform(0.1, 10.0, (5, 1))
        scaled_ids, scaled_scores = rank_labels(q, table_from_rows(rows2), 5)
        np.testing.assert_array_equal(base_ids, scaled_ids)
        np.testing.assert_allclose(base_scores, scaled_scores, atol=1e-9)

    def test_self_similarity(self):
        table = table_from_rows([[1.0, 0.0], [0.0, 2.0]])
        [top_id], [score] = rank_labels(np.array([0.0, 1.0]), table, 1)
        assert top_id == 1
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_scores_sorted_and_ties_break_low(self):
        table = table_from_rows([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ids, scores = rank_labels(np.array([1.0, 0.0]), table, 3)
        assert ids.tolist() == [0, 1, 2]
        assert scores.tolist() == sorted(scores.tolist(), reverse=True)

    def test_zero_query_rejected(self):
        table = table_from_rows([[1.0, 0.0]])
        with pytest.raises(ValidationError, match="zero"):
            rank_labels(np.zeros(2), table, 1)

    def test_k_out_of_range(self):
        table = table_from_rows([[1.0, 0.0]])
        with pytest.raises(ValidationError, match="k="):
            rank_labels(np.array([1.0, 0.0]), table, 2)


class TestImgTextConcat:
    def make_tables(self):
        return {
            "noun": table_from_rows([[1.0, 0.0], [0.0, 1.0]], "noun"),
            "verb": table_from_rows([[1.0, 0.0]], "verb"),
            "scenario": table_from_rows([[1.0, 0.0]], "scenario"),
            "place": table_from_rows([[1.0, 0.0]], "place"),
        }

    def test_hand_worked_concat(self):
        frames = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = img_text_concat(frames, self.make_tables())
        np.testing.assert_allclose(out, [1, 0, 1, 0, 1, 0, 1, 0, 1, 0], atol=1e-12)
        assert out.shape == (10,)

    def test_output_width_is_5c(self, rng, stub_tables):
        tables = stub_tables(c=16)
        frames = rng.standard_normal((3, 16))
        assert img_text_concat(frames, tables).shape == (5 * 16,)

    def test_frame_scaling_keeps_selections(self, rng, stub_tables):
        tables = stub_tables(c=16)
        frames = rng.standard_normal((4, 16))
        base = img_text_concat(frames, tables)
        scaled = img_text_concat(3.0 * frames, tables)
        # text blocks (everything past the image block) are unchanged
        np.testing.assert_allclose(scaled[16:], base[16:], atol=1e-9)
        np.testing.assert_allclose(scaled[:16], 3.0 * base[:16], atol=1e-9)

    def test_frame_permutation_invariance(self, rng, stub_tables):
        tables = stub_tables(c=16)
        frames = rng.standard_normal((5, 16))
        base = img_text_concat(frames, tables)
        np.testing.assert_allclose(img_text_concat(frames[::-1], tables), base, atol=1e-6)

    def test_missing_table_rejected(self, rng):
        tables = self.make_tables()
        del tables["place"]
        with pytest.raises(ValidationError, match="place"):
            img_text_concat(np.ones((2, 2)), tables)

    def test_width_mismatch_rejected(self, rng, stub_tables):
        with pytest.raises(ValidationError, match="width"):
            img_text_concat(rng.standard_normal((2, 8)), stub_tables(c=16))


class TestBatchedCalls:
    def test_batched_call_equals_per_clip_calls_bytewise(self, rng, stub_tables):
        # one call over (B, T, N, c) must give the bytes of B*T single-clip calls,
        # and a single-query ranking the bytes of the plain per-vector formula
        tables = stub_tables(c=16)
        frames = rng.standard_normal((10, 5, 6, 16)).astype(np.float32)
        pooled = mean_pool(frames)
        concat = img_text_concat(frames, tables)
        ids, scores = rank_labels(pooled, tables["noun"], 3)
        assert pooled.shape == (10, 5, 16) and concat.shape == (10, 5, 80)
        assert concat.dtype == np.float32
        assert ids.shape == scores.shape == (10, 5, 3)
        assert ids.dtype == np.int64 and scores.dtype == np.float64
        normalized = tables["noun"].normalized()
        for b in range(10):
            for t in range(5):
                assert mean_pool(frames[b, t]).tobytes() == pooled[b, t].tobytes()
                assert img_text_concat(frames[b, t], tables).tobytes() == concat[b, t].tobytes()
                one_ids, one_scores = rank_labels(pooled[b, t], tables["noun"], 3)
                assert one_ids.tobytes() == ids[b, t].tobytes()
                assert one_scores.tobytes() == scores[b, t].tobytes()
                q = pooled[b, t].astype(np.float64)
                reference = normalized @ (q / np.linalg.norm(q))
                assert one_scores.tobytes() == reference[one_ids].tobytes()


class TestCrossAttention:
    def test_single_key_ignores_query(self, rng):
        params = CrossAttention(rng, c=6, d_attn=6, n_heads=2)
        frame = rng.standard_normal((1, 6))
        out1, _ = attend(params, rng.standard_normal(6), frame)
        out2, _ = attend(params, rng.standard_normal(6), frame)
        expected = (frame[0] @ params.W_v) @ params.W_o
        np.testing.assert_allclose(out1, expected, atol=1e-10)
        np.testing.assert_allclose(out2, expected, atol=1e-10)

    def test_identical_frames_match_single_frame(self, rng):
        params = CrossAttention(rng, c=6, d_attn=6, n_heads=3)
        query = rng.standard_normal(6)
        frame = rng.standard_normal(6)
        single, _ = attend(params, query, frame[None, :])
        repeated, _ = attend(params, query, np.tile(frame, (7, 1)))
        np.testing.assert_allclose(repeated, single, atol=1e-10)

    def test_weights_are_probability_vectors(self, rng):
        params = CrossAttention(rng, c=8, d_attn=8, n_heads=4)
        _, weights = attend(params, rng.standard_normal(8), rng.standard_normal((11, 8)))
        assert weights.shape == (4, 11)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)

    def test_permutation_invariance(self, rng):
        params = CrossAttention(rng, c=8, d_attn=8, n_heads=2)
        query = rng.standard_normal(8)
        frames = rng.standard_normal((10, 8))
        base, _ = attend(params, query, frames)
        for _ in range(5):
            perm = rng.permutation(10)
            out, _ = attend(params, query, frames[perm])
            np.testing.assert_allclose(out, base, atol=1e-6)

    def test_output_width_is_c(self, rng):
        params = CrossAttention(rng, c=12, d_attn=8, n_heads=2)
        out, _ = attend(params, rng.standard_normal(12), rng.standard_normal((3, 12)))
        assert out.shape == (12,)

    def test_dimension_mismatch_rejected(self, rng):
        params = CrossAttention(rng, c=8, d_attn=8, n_heads=2)
        with pytest.raises(ValidationError):
            attend(params, rng.standard_normal(8), rng.standard_normal((3, 5)))

    def test_invalid_params_rejected(self, rng):
        with pytest.raises(ValidationError, match="divisible"):
            CrossAttention(rng, c=8, d_attn=6, n_heads=4)

    def test_gradients_match_finite_differences(self, rng):
        # central differences with step 1e-5 against the hand-written backward
        for trial in range(20):
            params = CrossAttention(rng, c=4, d_attn=4, n_heads=2)
            query = rng.standard_normal(4)
            frames = rng.standard_normal((3, 4))
            probe = rng.standard_normal((1, 4))

            def loss():
                out, _ = cross_attention_forward(params, query, frames[None])
                return float((out * probe).sum())

            out, cache = cross_attention_forward(params, query, frames[None])
            d_query, d_frames = cross_attention_backward(params, cache, probe)
            grads = params.grads

            for name in ("W_q", "W_k", "W_v", "W_o"):
                numeric = finite_difference(loss, getattr(params, name))
                assert max_rel_err(grads[name], numeric) < 1e-4, name
            assert max_rel_err(d_query, finite_difference(loss, query)) < 1e-4
            assert max_rel_err(d_frames[0], finite_difference(loss, frames)) < 1e-4


class TestZeroShotProbe:
    def test_exact_row_match(self, stub_tables):
        tables = stub_tables(c=16)
        frame = tables["noun"].embeddings[2]
        report = zero_shot_probe(frame, tables)
        assert report.top3_nouns[0][0] == 2
        assert report.top3_nouns[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_small_perturbation_keeps_top1(self, rng, stub_tables):
        tables = stub_tables(c=64)
        for noun_id in range(3):
            base = tables["noun"].embeddings[noun_id]
            frame = base + 0.01 * rng.standard_normal(64)
            report = zero_shot_probe(frame, tables)
            assert report.top3_nouns[0][0] == noun_id

    def test_scores_non_increasing(self, rng, stub_tables):
        tables = stub_tables(c=16)
        report = zero_shot_probe(rng.standard_normal(16), tables)
        for ranked in (report.top3_verbs, report.top3_nouns):
            scores = [s for _, s in ranked]
            assert scores == sorted(scores, reverse=True)

    def test_small_vocabulary_rejected(self, stub_tables):
        tables = stub_tables(c=16)
        tiny = Taxonomy(verbs=("a", "b"), nouns=("x", "y", "z"), scenarios=("s",), places=("p",))
        rows = tables["verb"].embeddings[:2]
        tables["verb"] = TextEmbeddingTable(category="verb", embeddings=rows, prompt_template="{}")
        with pytest.raises(ValidationError, match="too small"):
            zero_shot_probe(np.ones(16), tables)

    def test_frame_matrix_rejected(self, stub_tables):
        with pytest.raises(ValidationError, match="vector"):
            zero_shot_probe(np.ones((2, 16)), stub_tables(c=16))

    def test_probe_record_shape(self, rng, stub_tables, small_taxonomy):
        tables = stub_tables(c=16)
        record = probe_record(zero_shot_probe(rng.standard_normal(16), tables), 4, small_taxonomy)
        assert record["frame"] == 4
        assert len(record["verbs"]) == 3 and len(record["nouns"]) == 3
        assert record["names"]["place"] in small_taxonomy.places
        assert all(name in small_taxonomy.nouns for name in record["names"]["nouns"])
