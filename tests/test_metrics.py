import numpy as np
import pytest

from cliplta import (
    GroundTruthSequence,
    ValidationError,
    ed_at_zk,
    edit_distance,
    evaluate,
)
from cliplta.metrics import write_ground_truth
from cliplta.model import read_predictions, write_predictions
from cliplta.taxonomy import ActionLabel
from helpers import brute_force_edit_distance


class TestEditDistance:
    def test_identity(self):
        assert edit_distance([1, 2, 3], [1, 2, 3]) == 0

    def test_single_transposition(self):
        # brute-force script search confirms one adjacent swap suffices
        assert brute_force_edit_distance((1, 2, 3, 4), (1, 3, 2, 4)) == 1
        assert edit_distance([1, 2, 3, 4], [1, 3, 2, 4]) == 1

    def test_mixed_script(self):
        # two substitutions plus one insertion, confirmed by script search
        assert brute_force_edit_distance((1, 2), (3, 4, 5)) == 3
        assert edit_distance([1, 2], [3, 4, 5]) == 3

    def test_empty_sequences(self):
        assert edit_distance([], []) == 0
        assert edit_distance([], [1, 2]) == 2
        assert edit_distance([1, 2], []) == 2

    def test_unrestricted_transposition(self):
        # the swapped pair may be edited into afterwards: CA -> AC -> ABC
        assert edit_distance([2, 0], [0, 1, 2]) == 2

    def test_matches_brute_force_on_random_pairs(self, rng):
        for _ in range(150):
            sigma = int(rng.integers(2, 6))
            a = [int(x) for x in rng.integers(0, sigma, rng.integers(0, 7))]
            b = [int(x) for x in rng.integers(0, sigma, rng.integers(0, 7))]
            assert edit_distance(a, b) == brute_force_edit_distance(a, b), (a, b)

    def test_metric_axioms_on_random_triples(self, rng):
        for _ in range(300):
            seqs = [[int(x) for x in rng.integers(0, 4, rng.integers(0, 6))] for _ in range(3)]
            a, b, c = seqs
            assert edit_distance(a, a) == 0
            assert edit_distance(a, b) == edit_distance(b, a)
            assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def gt_of(example_id, verbs, nouns):
    return GroundTruthSequence(example_id,
                               tuple(ActionLabel(v, n) for v, n in zip(verbs, nouns)))


def score_one(pred_verbs, pred_nouns, gt_verbs, gt_nouns):
    """ED@(Z,K) of one example through the batched scorer, as Python floats."""
    verb, noun = ed_at_zk(np.array([pred_verbs]), np.array([pred_nouns]),
                          np.array([gt_verbs]), np.array([gt_nouns]))
    return float(verb[0]), float(noun[0])


class TestEdAtZK:
    def test_exact_candidate_scores_zero(self):
        assert score_one([[0, 1, 2, 3], [5, 5, 5, 5]], [[3, 2, 1, 0], [5, 5, 5, 5]],
                         [0, 1, 2, 3], [3, 2, 1, 0]) == (0.0, 0.0)

    def test_all_substitutions_score_one(self):
        assert score_one([[9, 8, 7, 6]], [[9, 8, 7, 6]], [0, 1, 2, 3], [0, 1, 2, 3]) == (1.0, 1.0)

    def test_min_over_candidates(self):
        verb, noun = score_one([[0, 1, 2, 3], [9, 9, 9, 9]], [[0, 1, 2, 3], [9, 9, 9, 9]],
                               [0, 1, 2, 9], [0, 1, 2, 9])
        assert verb == 0.25 and noun == 0.25

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="horizon"):
            score_one([[0, 1, 2]], [[0, 1, 2]], [0, 1], [0, 1])

    def test_no_candidates_rejected(self):
        empty = np.zeros((2, 0, 3), dtype=np.int64)
        gt = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValidationError, match=r"candidates \(2, 0, 3\) .* ground truth \(2, 3\)"):
            ed_at_zk(empty, empty, gt, gt)

    def test_verb_and_noun_batches_must_agree(self):
        with pytest.raises(ValidationError, match=r"verb candidates \(2, 1, 3\) and noun candidates \(3, 1, 3\)"):
            ed_at_zk(np.zeros((2, 1, 3), dtype=np.int64), np.zeros((3, 1, 3), dtype=np.int64),
                     np.zeros((2, 3), dtype=np.int64), np.zeros((3, 3), dtype=np.int64))

    def test_monotone_in_k(self, rng):
        for _ in range(100):
            Z = int(rng.integers(2, 8))
            gt_verbs = [int(x) for x in rng.integers(0, 5, Z)]
            gt_nouns = [int(x) for x in rng.integers(0, 5, Z)]
            verbs = rng.integers(0, 5, (4, Z))
            nouns = rng.integers(0, 5, (4, Z))
            prev_v = prev_n = 1.0
            for k in range(1, 5):
                v, n = score_one(verbs[:k], nouns[:k], gt_verbs, gt_nouns)
                assert v <= prev_v + 1e-12 and n <= prev_n + 1e-12
                prev_v, prev_n = v, n

    def test_scores_bounded(self, rng):
        for _ in range(100):
            Z = int(rng.integers(1, 9))
            gt_verbs = [int(x) for x in rng.integers(0, 9, Z)]
            gt_nouns = [int(x) for x in rng.integers(0, 9, Z)]
            v, n = score_one(rng.integers(0, 9, (3, Z)), rng.integers(0, 9, (3, Z)), gt_verbs, gt_nouns)
            assert 0.0 <= v <= 1.0 and 0.0 <= n <= 1.0


@pytest.fixture
def eval_setup(tmp_path, small_taxonomy):
    """Two-example gt/pred file pair builder."""

    def build(pred_rows, gt_rows, Z=2, tamper_hash=False):
        tax_hash = small_taxonomy.sha256()
        gt_file = tmp_path / "gt.json"
        sequences = [gt_of(eid, verbs, nouns) for eid, verbs, nouns in gt_rows]
        write_ground_truth(gt_file, sequences, Z, tax_hash)
        pred_file = tmp_path / "pred.json"
        write_predictions(pred_file, [eid for eid, _, _ in pred_rows],
                          np.array([verbs for _, verbs, _ in pred_rows]),
                          np.array([nouns for _, _, nouns in pred_rows]),
                          "0" * 64 if tamper_hash else tax_hash)
        return pred_file, gt_file

    return build


class TestEvaluate:
    def test_perfect_predictions(self, eval_setup, small_taxonomy):
        gt_rows = [("a", [0, 1], [1, 0]), ("b", [2, 3], [3, 2])]
        pred_rows = [(eid, [verbs, verbs], [nouns, nouns]) for eid, verbs, nouns in gt_rows]
        pred_file, gt_file = eval_setup(pred_rows, gt_rows)
        report = evaluate(pred_file, gt_file, small_taxonomy)
        assert report.verb_ed == 0.0 and report.noun_ed == 0.0
        assert report.n_examples == 2 and report.Z == 2 and report.K == 2

    def test_dataset_mean(self, eval_setup, small_taxonomy):
        gt_rows = [("a", [0, 1], [0, 1]), ("b", [2, 3], [2, 3])]
        pred_rows = [
            ("a", [[0, 1], [0, 0]], [[0, 1], [0, 0]]),      # score 0.0
            ("b", [[2, 0], [1, 1]], [[2, 0], [1, 1]]),      # score 0.5
        ]
        pred_file, gt_file = eval_setup(pred_rows, gt_rows)
        report = evaluate(pred_file, gt_file, small_taxonomy)
        assert report.verb_ed == pytest.approx(0.25)
        assert report.noun_ed == pytest.approx(0.25)
        assert report.per_example == [("a", 0.0, 0.0), ("b", 0.5, 0.5)]

    def test_missing_example_rejected(self, eval_setup, small_taxonomy):
        gt_rows = [("a", [0, 1], [0, 1]), ("b", [2, 3], [2, 3])]
        pred_rows = [("a", [[0, 1], [0, 0]], [[0, 1], [0, 0]])]
        pred_file, gt_file = eval_setup(pred_rows, gt_rows)
        with pytest.raises(ValidationError, match="missing example 'b'"):
            evaluate(pred_file, gt_file, small_taxonomy)

    def test_hash_mismatch_rejected(self, eval_setup, small_taxonomy):
        gt_rows = [("a", [0, 1], [0, 1])]
        pred_rows = [("a", [[0, 1], [0, 0]], [[0, 1], [0, 0]])]
        pred_file, gt_file = eval_setup(pred_rows, gt_rows, tamper_hash=True)
        with pytest.raises(ValidationError, match="hash"):
            evaluate(pred_file, gt_file, small_taxonomy)

    def test_out_of_range_id_rejected(self, eval_setup, small_taxonomy):
        gt_rows = [("a", [0, 1], [0, 1])]
        pred_rows = [("a", [[0, 99], [0, 0]], [[0, 1], [0, 0]])]
        pred_file, gt_file = eval_setup(pred_rows, gt_rows)
        with pytest.raises(ValidationError, match="range"):
            evaluate(pred_file, gt_file, small_taxonomy)

    def test_z_mismatch_rejected(self, tmp_path, small_taxonomy, eval_setup):
        tax_hash = small_taxonomy.sha256()
        gt_file = tmp_path / "gt3.json"
        write_ground_truth(gt_file, [gt_of("a", [0, 1, 2], [0, 1, 2])], 3, tax_hash)
        pred_file = tmp_path / "pred2.json"
        write_predictions(pred_file, ["a"], np.array([[[0, 1]]]), np.array([[[0, 1]]]), tax_hash)
        with pytest.raises(ValidationError, match="Z"):
            evaluate(pred_file, gt_file, small_taxonomy)

    def test_k_mismatch_rejected(self, tmp_path, small_taxonomy, eval_setup):
        import json

        pred_file, gt_file = eval_setup(
            [("a", [[0, 1], [0, 0]], [[0, 1], [0, 0]])], [("a", [0, 1], [0, 1])])
        payload = json.loads(pred_file.read_text())
        payload["predictions"]["a"]["verb"] = payload["predictions"]["a"]["verb"][:1]
        payload["predictions"]["a"]["noun"] = payload["predictions"]["a"]["noun"][:1]
        pred_file.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match="K"):
            evaluate(pred_file, gt_file, small_taxonomy)


# case -> (edit to the prediction file's JSON, text the error message must hold)
MALFORMED_PREDICTIONS = {
    "version_2": (lambda p: p.update(version=2), "'version'"),
    "z_string": (lambda p: p.update(Z="x"), "'Z'"),
    "k_bool": (lambda p: p.update(K=True), "'K'"),
    "verb_id_float": (lambda p: p["predictions"]["a"]["verb"][1].__setitem__(0, 1.5), "'a' 'verb'"),
    "noun_id_bool": (lambda p: p["predictions"]["b"]["noun"][0].__setitem__(2, True), "'b' 'noun'"),
    "ragged_rows": (lambda p: p["predictions"]["b"]["noun"][0].append(0), "'b' 'noun'"),
    "entry_not_object": (lambda p: p["predictions"].update(b=[1]), "'b'"),
    "predictions_not_object": (lambda p: p.update(predictions=[]), "'predictions'"),
}


class TestReadPredictions:
    def test_round_trip(self, tmp_path):
        verb = np.arange(12).reshape(2, 3, 2)
        write_predictions(tmp_path / "p.json", ["b", "a"], verb, verb + 1, "f" * 64)
        ids, read_verb, read_noun, tax_hash = read_predictions(tmp_path / "p.json")
        assert ids == ["a", "b"] and tax_hash == "f" * 64
        assert read_verb.dtype == read_noun.dtype == np.int64
        np.testing.assert_array_equal(read_verb, verb[::-1])
        np.testing.assert_array_equal(read_noun, verb[::-1] + 1)

    @pytest.mark.parametrize("case", MALFORMED_PREDICTIONS)
    def test_malformed_file_is_validation_error_naming_it(self, tmp_path, case):
        import json

        change, field = MALFORMED_PREDICTIONS[case]
        pred_file = tmp_path / "pred.json"
        write_predictions(pred_file, ["a", "b"], np.zeros((2, 2, 3), np.int64), np.ones((2, 2, 3), np.int64),
                          "f" * 64)
        payload = json.loads(pred_file.read_text(encoding="utf-8"))
        change(payload)
        pred_file.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            read_predictions(pred_file)
        assert str(pred_file) in str(info.value) and field in str(info.value), info.value

    def test_writer_rejects_mismatched_shapes(self, tmp_path):
        with pytest.raises(ValidationError, match="matching"):
            write_predictions(tmp_path / "p.json", ["a"], np.zeros((1, 2, 3)), np.zeros((1, 2, 2)), "f" * 64)
        with pytest.raises(ValidationError, match="matching"):
            write_predictions(tmp_path / "p.json", ["a", "b"], np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), "f" * 64)
