import pytest

from cliplta import (
    GroundTruthSequence,
    PredictionSet,
    ValidationError,
    ed_at_zk,
    edit_distance,
    evaluate,
)
from cliplta.metrics import write_ground_truth
from cliplta.model import write_predictions
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


class TestEdAtZK:
    def test_exact_candidate_scores_zero(self):
        gt = gt_of("e", [0, 1, 2, 3], [3, 2, 1, 0])
        pred = PredictionSet("e", [[0, 1, 2, 3], [5, 5, 5, 5]], [[3, 2, 1, 0], [5, 5, 5, 5]])
        assert ed_at_zk(pred, gt) == (0.0, 0.0)

    def test_all_substitutions_score_one(self):
        gt = gt_of("e", [0, 1, 2, 3], [0, 1, 2, 3])
        pred = PredictionSet("e", [[9, 8, 7, 6]], [[9, 8, 7, 6]])
        assert ed_at_zk(pred, gt) == (1.0, 1.0)

    def test_min_over_candidates(self):
        gt = gt_of("e", [0, 1, 2, 9], [0, 1, 2, 9])
        pred = PredictionSet("e", [[0, 1, 2, 3], [9, 9, 9, 9]], [[0, 1, 2, 3], [9, 9, 9, 9]])
        verb, noun = ed_at_zk(pred, gt)
        assert verb == 0.25 and noun == 0.25

    def test_length_mismatch_rejected(self):
        gt = gt_of("e", [0, 1], [0, 1])
        pred = PredictionSet("e", [[0, 1, 2]], [[0, 1, 2]])
        with pytest.raises(ValidationError, match="horizon"):
            ed_at_zk(pred, gt)

    def test_monotone_in_k(self, rng):
        for _ in range(100):
            Z = int(rng.integers(2, 8))
            gt = gt_of("e", [int(x) for x in rng.integers(0, 5, Z)],
                       [int(x) for x in rng.integers(0, 5, Z)])
            verbs = rng.integers(0, 5, (4, Z))
            nouns = rng.integers(0, 5, (4, Z))
            prev_v = prev_n = 1.0
            for k in range(1, 5):
                v, n = ed_at_zk(PredictionSet("e", verbs[:k], nouns[:k]), gt)
                assert v <= prev_v + 1e-12 and n <= prev_n + 1e-12
                prev_v, prev_n = v, n

    def test_scores_bounded(self, rng):
        for _ in range(100):
            Z = int(rng.integers(1, 9))
            gt = gt_of("e", [int(x) for x in rng.integers(0, 9, Z)],
                       [int(x) for x in rng.integers(0, 9, Z)])
            pred = PredictionSet("e", rng.integers(0, 9, (3, Z)), rng.integers(0, 9, (3, Z)))
            v, n = ed_at_zk(pred, gt)
            assert 0.0 <= v <= 1.0 and 0.0 <= n <= 1.0


@pytest.fixture
def eval_setup(tmp_path, small_taxonomy):
    """Two-example gt/pred file pair builder."""

    def build(pred_rows, gt_rows, Z=2, K=2, tamper_hash=False):
        tax_hash = small_taxonomy.sha256()
        gt_file = tmp_path / "gt.json"
        sequences = [gt_of(eid, verbs, nouns) for eid, verbs, nouns in gt_rows]
        write_ground_truth(gt_file, sequences, Z, tax_hash)
        pred_file = tmp_path / "pred.json"
        preds = [PredictionSet(eid, verbs, nouns) for eid, verbs, nouns in pred_rows]
        write_predictions(pred_file, preds, Z, K,
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
        write_predictions(pred_file, [PredictionSet("a", [[0, 1]], [[0, 1]])], 2, 1, tax_hash)
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
