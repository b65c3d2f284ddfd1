"""Derandomized property tests of the batched sampler, the ED@(Z,K) scorer and
the edit distance.

``derandomize=True`` makes hypothesis draw the same examples on every run,
so these tests are as reproducible as the seeded ones.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliplta import ed_at_zk, edit_distance, sample_candidates
from helpers import reference_sample_candidates

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@PROPERTY
@given(B=st.integers(1, 5), Z=st.integers(1, 6), n_verbs=st.integers(1, 30), n_nouns=st.integers(1, 30),
       K=st.integers(1, 6), temperature=st.sampled_from([0.3, 1.0, 2.0]),
       scale=st.sampled_from([0.1, 1.0, 50.0]), seed=st.integers(0, 2**32 - 1),
       sample_seeds=st.lists(st.integers(0, 2**64 - 1), min_size=5, max_size=5))
def test_sampler_equals_one_example_reference(B, Z, n_verbs, n_nouns, K, temperature, scale, seed,
                                              sample_seeds):
    rng = np.random.default_rng(seed)
    verb = (rng.standard_normal((B, Z, n_verbs)) * scale).astype(np.float32)
    noun = (rng.standard_normal((B, Z, n_nouns)) * scale).astype(np.float32)
    seeds = sample_seeds[:B]
    pred_verb, pred_noun = sample_candidates(verb, noun, K, temperature, seeds)
    assert pred_verb.dtype == pred_noun.dtype == np.int64 and pred_verb.shape == pred_noun.shape == (B, K, Z)
    for b in range(B):
        ref_verb, ref_noun = reference_sample_candidates(verb[b], noun[b], K, temperature, seeds[b])
        assert pred_verb[b].tobytes() == ref_verb.astype(np.int64).tobytes()
        assert pred_noun[b].tobytes() == ref_noun.astype(np.int64).tobytes()


@PROPERTY
@given(B=st.integers(1, 4), K=st.integers(1, 5), Z=st.integers(1, 7), n_classes=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_ed_at_zk_is_bounded_monotone_min_of_scalar_distances(B, K, Z, n_classes, seed):
    rng = np.random.default_rng(seed)
    pred_verb, pred_noun = rng.integers(0, n_classes, (2, B, K, Z))
    gt_verb, gt_noun = rng.integers(0, n_classes, (2, B, Z))
    prev_verb = prev_noun = np.ones(B)
    for k in range(1, K + 1):
        verb, noun = ed_at_zk(pred_verb[:, :k], pred_noun[:, :k], gt_verb, gt_noun)
        assert verb.dtype == noun.dtype == np.float64 and verb.shape == noun.shape == (B,)
        assert np.all((0.0 <= verb) & (0.0 <= noun))
        assert np.all(verb <= prev_verb) and np.all(noun <= prev_noun)
        prev_verb, prev_noun = verb, noun
    for b in range(B):
        assert verb[b] == min(edit_distance(row, gt_verb[b]) for row in pred_verb[b]) / Z
        assert noun[b] == min(edit_distance(row, gt_noun[b]) for row in pred_noun[b]) / Z


# three integer strings of length 0-8 over one alphabet of 2-6 symbols
STRINGS = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), max_size=8), min_size=3, max_size=3))


@PROPERTY
@given(strings=STRINGS)
# "CA" -> "ABC" is 2 edits; a DP that only swaps adjacent symbols charges 3,
# more than "CA" -> "AC" -> "ABC"
@example(strings=[[2, 0], [0, 1, 2], [0, 2]])
def test_edit_distance_is_a_bounded_metric(strings):
    a, b, c = strings
    d = edit_distance(a, b)
    assert d == edit_distance(b, a)
    assert d <= edit_distance(a, c) + edit_distance(c, b)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
    assert edit_distance(a, a) == 0
