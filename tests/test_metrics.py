import ast
import json
import re
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import cliplta
from cliplta import ValidationError, ed_at_zk, edit_distance, evaluate
from cliplta.metrics import read_ground_truth, read_predictions, write_ground_truth, write_predictions
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

    def build(pred_rows, gt_rows, tamper_hash=False):
        tax_hash = small_taxonomy.sha256()
        gt_file = tmp_path / "gt.json"
        write_ground_truth(gt_file, [eid for eid, _, _ in gt_rows], np.array([verbs for _, verbs, _ in gt_rows]),
                           np.array([nouns for _, _, nouns in gt_rows]), tax_hash)
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
        with pytest.raises(ValidationError, match=re.escape(f"prediction file {pred_file} is missing example 'b'")):
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
        write_ground_truth(gt_file, ["a"], np.array([[0, 1, 2]]), np.array([[0, 1, 2]]), tax_hash)
        pred_file = tmp_path / "pred2.json"
        write_predictions(pred_file, ["a"], np.array([[[0, 1]]]), np.array([[[0, 1]]]), tax_hash)
        with pytest.raises(ValidationError, match=re.escape(
                f"prediction file {pred_file}: horizon Z=2 does not match ground truth Z=3")):
            evaluate(pred_file, gt_file, small_taxonomy)

    def test_k_mismatch_rejected(self, tmp_path, small_taxonomy, eval_setup):
        pred_file, gt_file = eval_setup(
            [("a", [[0, 1], [0, 0]], [[0, 1], [0, 0]])], [("a", [0, 1], [0, 1])])
        payload = json.loads(pred_file.read_text())
        payload["predictions"]["a"]["verb"] = payload["predictions"]["a"]["verb"][:1]
        payload["predictions"]["a"]["noun"] = payload["predictions"]["a"]["noun"][:1]
        pred_file.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match="K"):
            evaluate(pred_file, gt_file, small_taxonomy)


class LabelFile(NamedTuple):
    write: Callable
    read: Callable
    key: str            # the key of the entries
    outer: str          # the outer dimension of each entry's ids: Z in ground truth, K in predictions
    shape: tuple        # of the id arrays the tests write

    def ids(self, payload, example, field, k):
        """The id list of ``example``'s ``field``: candidate ``k``'s in a prediction file."""
        value = payload[self.key][example][field]
        return value[k] if self.key == "predictions" else value


LABEL_FILES = {
    "ground_truth": LabelFile(write_ground_truth, read_ground_truth, "examples", "Z", (2, 3)),
    "predictions": LabelFile(write_predictions, read_predictions, "predictions", "K", (2, 2, 3)),
}

# case -> (edit to a label file's JSON, text the error message must hold for ground truth, for predictions)
MALFORMED_LABEL_FILES = {
    "version_2": (lambda f, p: p.update(version=2), "'version'", "'version'"),
    "version_true": (lambda f, p: p.update(version=True), "'version'", "'version'"),
    "z_string": (lambda f, p: p.update(Z="x"), "'Z'", "'Z'"),
    "z_zero": (lambda f, p: p.update(Z=0), "'Z'", "'Z'"),
    "outer_bool": (lambda f, p: p.update({f.outer: True}), "'Z'", "'K'"),
    "outer_zero": (lambda f, p: p.update({f.outer: 0}), "'Z'", "'K'"),
    "without_taxonomy_sha256": (lambda f, p: p.pop("taxonomy_sha256"), "'taxonomy_sha256'", "'taxonomy_sha256'"),
    "entries_not_object": (lambda f, p: p.update({f.key: []}), "'examples'", "'predictions'"),
    "entry_not_object": (lambda f, p: p[f.key].update(b=[1]), "'b'", "'b'"),
    "without_noun": (lambda f, p: p[f.key]["b"].pop("noun"), "'b' noun", "'b' noun"),
    "verb_id_float": (lambda f, p: f.ids(p, "a", "verb", 1).__setitem__(0, 1.5), "'a' verb[0]", "'a' verb[1][0]"),
    "verb_id_null": (lambda f, p: f.ids(p, "b", "verb", 1).__setitem__(1, None), "'b' verb[1]", "'b' verb[1][1]"),
    "noun_id_bool": (lambda f, p: f.ids(p, "b", "noun", 0).__setitem__(2, True), "'b' noun[2]", "'b' noun[0][2]"),
    "ragged_rows": (lambda f, p: f.ids(p, "b", "noun", 0).append(0), "'b' noun", "'b' noun[0]"),
    "id_2_pow_63": (lambda f, p: f.ids(p, "a", "noun", 1).__setitem__(1, 2**63), "'a' noun[1]", "'a' noun[1][1]"),
    "id_below_int64": (lambda f, p: f.ids(p, "b", "verb", 0).__setitem__(0, -2**63 - 1), "'b' verb[0]",
                       "'b' verb[0][0]"),
}


class TestLabelFiles:
    @pytest.mark.parametrize("kind", LABEL_FILES)
    def test_round_trip(self, tmp_path, kind):
        f = LABEL_FILES[kind]
        verb = np.arange(np.prod(f.shape)).reshape(f.shape) - 3
        f.write(tmp_path / "labels.json", ["b", "a"], verb, verb + 1, "f" * 64)
        ids, read_verb, read_noun, tax_hash = f.read(tmp_path / "labels.json")
        assert ids == ["a", "b"] and tax_hash == "f" * 64
        assert read_verb.dtype == read_noun.dtype == np.int64
        np.testing.assert_array_equal(read_verb, verb[::-1])
        np.testing.assert_array_equal(read_noun, verb[::-1] + 1)

    @pytest.mark.parametrize("kind", LABEL_FILES)
    @pytest.mark.parametrize("case", MALFORMED_LABEL_FILES)
    def test_malformed_file_is_validation_error_naming_it(self, tmp_path, kind, case):
        f = LABEL_FILES[kind]
        change, *fields = MALFORMED_LABEL_FILES[case]
        path = tmp_path / "labels.json"
        f.write(path, ["a", "b"], np.zeros(f.shape, np.int64), np.ones(f.shape, np.int64), "f" * 64)
        payload = json.loads(path.read_text(encoding="utf-8"))
        change(f, payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            f.read(path)
        field = fields[list(LABEL_FILES).index(kind)]
        assert str(path) in str(info.value) and field in str(info.value), info.value

    @pytest.mark.parametrize("kind", LABEL_FILES)
    def test_writer_rejects_mismatched_shapes(self, tmp_path, kind):
        f = LABEL_FILES[kind]
        wider = f.shape[:-1] + (f.shape[-1] + 1,)
        for ids, verb, noun in ((["a", "b"], np.zeros(f.shape), np.zeros(wider)),
                                (["a"], np.zeros(f.shape), np.zeros(f.shape)),
                                (["a", "b"], np.zeros(f.shape[:-1]), np.zeros(f.shape[:-1]))):
            with pytest.raises(ValidationError, match="matching"):
                f.write(tmp_path / "labels.json", ids, verb, noun, "f" * 64)
        assert not (tmp_path / "labels.json").exists()

    @pytest.mark.parametrize("kind", LABEL_FILES)
    def test_writer_rejects_repeated_example_id(self, tmp_path, kind):
        f = LABEL_FILES[kind]
        path = tmp_path / "labels.json"
        with pytest.raises(ValidationError) as info:
            f.write(path, ["b", "a", "b"], np.zeros((3, *f.shape[1:])), np.zeros((3, *f.shape[1:])), "f" * 64)
        assert str(path) in str(info.value) and "'b' is repeated" in str(info.value), info.value
        assert not path.exists()


SRC = Path(cliplta.__file__).parent


def test_label_files_are_built_only_in_metrics():
    """metrics does not reach into the model, and no other module builds a label-file payload."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    imports = set()
    for node in ast.walk(trees["metrics.py"]):
        if isinstance(node, ast.Import):
            imports |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):  # "from .model import f" and "from . import model" alike
            imports |= {node.module or ""} | {f"{node.module or ''}.{alias.name}".lstrip(".") for alias in node.names}
    assert not imports & {"model", "cliplta.model"}, imports
    builders = {name for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.Dict) and any(isinstance(k, ast.Constant) and k.value == "taxonomy_sha256"
                                                      for k in node.keys)}
    assert builders == {"metrics.py"}
