"""Derandomized property tests of the batched sampler, the ED@(Z,K) scorer,
the edit distance (a bounded metric, equal to the reference table), the
store reader (byte-equal to the reference loader) and the label files
(a write then a read gives the arrays back, in ``json.dump``'s bytes).

``derandomize=True`` makes hypothesis draw the same examples on every run,
so these tests are as reproducible as the seeded ones.
"""

import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliplta import FeatureStore, ed_at_zk, edit_distance, sample_candidates
from cliplta.harness import load_dataset
from cliplta.metrics import read_ground_truth, read_predictions, write_ground_truth, write_predictions
from helpers import reference_edit_distance, reference_load_dataset, reference_sample_candidates

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


def _strings_over(n_symbols):
    """Length 0-20 strings over ``n_symbols`` ids, half of them one id repeated,
    as a greedy candidate row is."""
    symbol = st.integers(0, n_symbols - 1)
    return st.one_of(st.lists(symbol, max_size=20),
                     st.builds(lambda s, n: [s] * n, symbol, st.integers(0, 20)))


# two strings over one alphabet: small ones transpose often, 115 and 478 are the
# Ego4D verb and noun counts
PAIRS = st.sampled_from([2, 3, 8, 115, 478]).flatmap(lambda n: st.tuples(_strings_over(n), _strings_over(n)))


@PROPERTY
@given(pair=PAIRS)
@example(pair=([2, 0], [0, 1, 2]))
@example(pair=([7] * 20, [3, 7, 1, 7, 7, 0, 2, 7, 5, 4, 7, 6, 1, 7, 3, 7, 0, 7, 7, 2]))
def test_edit_distance_equals_reference_table(pair):
    a, b = pair
    assert edit_distance(a, b) == reference_edit_distance(a, b)
    assert edit_distance(b, a) == reference_edit_distance(b, a)


F32 = np.finfo(np.float32)
# -0.0, the smallest subnormal, the largest subnormal, the smallest normal and +-max
EDGE_VALUES = np.array([-0.0, 1e-45, F32.smallest_normal - 1e-45, F32.smallest_normal, F32.max, -F32.max],
                       dtype=np.float32)


def _finite_float32(rng, shape) -> np.ndarray:
    """Float32 values of any finite bit pattern; about one in eight is an edge value."""
    values = rng.integers(0, 2**32, shape, dtype=np.uint32).view(np.float32)
    values[~np.isfinite(values)] = 1.0
    edge = rng.random(shape) < 0.125
    values[edge] = rng.choice(EDGE_VALUES, int(edge.sum()))
    return values


@PROPERTY
@given(B=st.integers(1, 6), T=st.integers(1, 6), N=st.integers(1, 40), c=st.integers(2, 64),
       d_video=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
def test_load_dataset_is_byte_equal_to_reference(B, T, N, c, d_video, seed):
    B = max(1, min(B, 6 // T))  # 1-6 clips in all
    rng = np.random.default_rng(seed)
    frames = _finite_float32(rng, (B, T, N, c))
    video = _finite_float32(rng, (B, T, d_video))
    example_ids = [f"e{b}" for b in range(B)]
    verb_ids = noun_ids = np.zeros((B, 1), dtype=np.int64)
    with tempfile.TemporaryDirectory() as root:
        store = FeatureStore.create(root, c, d_video)
        for b, eid in enumerate(example_ids):
            for t in range(T):
                store.write_clip(f"{eid}#{t}", frames[b, t], video[b, t])
        store.seal()
        store = FeatureStore.open(root)
        got = load_dataset(store, example_ids, verb_ids, noun_ids, T)
        want = reference_load_dataset(root, example_ids, verb_ids, noun_ids, T)
        assert set(got.inputs) == set(want.inputs) == {"frames", "video"}
        for name, g in got.inputs.items():
            w = want.inputs[name]
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        assert got.inputs["frames"].tobytes() == frames.tobytes()
        assert got.inputs["video"].tobytes() == video.tobytes()
        # each array read_clip returns is its own: writing into it leaves the next read unchanged
        clip_frames, clip_video = store.read_clip("e0#0")
        for array in (clip_frames, clip_video):
            assert array.flags.writeable and array.flags.owndata
            array[...] = 7.0
        again_frames, again_video = store.read_clip("e0#0")
        assert again_frames.tobytes() == frames[0, 0].tobytes()
        assert again_video.tobytes() == video[0, 0].tobytes()


INT64 = np.iinfo(np.int64)


@PROPERTY
@given(example_ids=st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True),
       inner=st.sampled_from([(), (1,), (3,)]), Z=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       taxonomy_sha256=st.text(max_size=8))
@example(example_ids=["é", "a", "\u6f22"], inner=(2,), Z=3, seed=0, taxonomy_sha256="f" * 64)
def test_label_files_round_trip_in_json_dump_bytes(example_ids, inner, Z, seed, taxonomy_sha256):
    """``inner`` is () for a ground-truth file, (K,) for a prediction file; ids span the int64 range."""
    write, read = (write_predictions, read_predictions) if inner else (write_ground_truth, read_ground_truth)
    rng = np.random.default_rng(seed)
    shape = (len(example_ids), *inner, Z)
    verb, noun = rng.integers(INT64.min, INT64.max, (2, *shape), dtype=np.int64, endpoint=True)
    verb.flat[0], noun.flat[-1] = INT64.min, INT64.max
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "labels.json"
        write(path, example_ids, verb, noun, taxonomy_sha256)
        written = path.read_text(encoding="utf-8")
        ids, read_verb, read_noun, read_hash = read(path)
    order = sorted(range(len(example_ids)), key=example_ids.__getitem__)
    assert ids == sorted(example_ids) and read_hash == taxonomy_sha256
    assert read_verb.dtype == read_noun.dtype == np.int64
    assert read_verb.tobytes() == verb[order].tobytes() and read_noun.tobytes() == noun[order].tobytes()
    expected = io.StringIO()
    json.dump(json.loads(written), expected, sort_keys=True, separators=(",", ":"))
    assert written == expected.getvalue() + "\n"
