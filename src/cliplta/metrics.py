"""Evaluation protocol: normalized edit distance at horizon Z, min over K.

Verb and noun sequences are scored independently (the minimizing candidate
may differ between the two), each as edit_distance / Z, then averaged over
examples with equal weight. Lower is better; equal-length sequences can
never exceed 1.0 after normalization.

The distance is the unrestricted Damerau-Levenshtein distance: unit-cost
insert, delete, substitute, and adjacent transposition, with no restriction
on later edits touching a transposed pair. Unlike the cheaper
"optimal string alignment" shortcut, the unrestricted form is a true metric
(symmetric, triangle inequality), which the min-over-K protocol implicitly
assumes.

Scoring works on arrays over the batch: ``ed_at_zk`` takes (B, K, Z)
candidates and (B, Z) ground truth, as ``read_ground_truth`` returns it.
``score`` is the one scorer that turns those arrays into an ``EvalReport``:
``evaluate`` calls it on the files it reads and checks, and
``harness.run_eval`` on the arrays it already holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError, read_json_object, require
from .model import read_predictions
from .taxonomy import GroundTruthSequence, Taxonomy


def edit_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Minimum number of unit edits turning ``a`` into ``b``.

    Dynamic program over prefix pairs, O(len(a) * len(b)) time per pair. The
    transposition case tracks, for each symbol, the last position it occurred
    at in either string, so swaps separated by since-deleted material are
    still charged correctly (d("CA","ABC") is 2, not 3).

    Row ``i`` of the table is the distance from ``a[:i]`` to every prefix of
    ``b``. ``last_row[j - 1]`` is the last row before ``i`` whose symbol is
    ``b[j - 1]``, and ``last_col`` the last column before ``j`` whose symbol
    is ``a[i - 1]``; the transposition term is read only when both exist.
    A matching cell takes its diagonal, which no edit through an earlier
    match can undercut, and a row whose symbol is not in ``b`` cannot
    transpose, so it runs plain Levenshtein.
    """
    a = list(a)
    b = list(b)
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    cols_of: dict[int, list[int]] = {}
    for j, symbol in enumerate(b, 1):
        cols_of.setdefault(symbol, []).append(j)
    if cols_of.keys().isdisjoint(a):
        # no symbol in common: every aligned pair is a substitution
        return max(la, lb)

    last_row = [0] * lb
    prev = list(range(lb + 1))
    rows = [prev]
    for i, x in enumerate(a, 1):
        cols = cols_of.get(x)
        cur = [i]
        left = i
        if cols is None:
            for bj, diag, up in zip(b, prev, prev[1:]):
                if bj == x:
                    left = diag
                elif diag < up:
                    left = diag + 1 if diag < left else left + 1
                else:
                    left = up + 1 if up < left else left + 1
                cur.append(left)
        else:
            last_col = 0
            for j, (bj, diag, up, r) in enumerate(zip(b, prev, prev[1:], last_row), 1):
                if bj == x:
                    left = diag
                    last_col = j
                else:
                    if diag < up:
                        left = diag + 1 if diag < left else left + 1
                    else:
                        left = up + 1 if up < left else left + 1
                    if r and last_col:
                        swap = rows[r - 1][last_col - 1] + (i - r - 1) + 1 + (j - last_col - 1)
                        if swap < left:
                            left = swap
                cur.append(left)
            for j in cols:
                last_row[j - 1] = i
        rows.append(cur)
        prev = cur
    return prev[lb]


def ed_at_zk(pred_verb: np.ndarray, pred_noun: np.ndarray,
             gt_verb: np.ndarray, gt_noun: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-example (verb (B,), noun (B,)) float64 scores: min over K of distance / Z.

    pred_verb/pred_noun: (B, K, Z) candidate ids with K, Z >= 1; gt_verb/gt_noun:
    (B, Z). ``edit_distance`` runs once per (example, candidate, verb|noun).
    """
    kinds = [(np.asarray(pred), np.asarray(gt)) for pred, gt in ((pred_verb, gt_verb), (pred_noun, gt_noun))]
    for pred, gt in kinds:
        if pred.ndim != 3 or pred.shape[::2] != gt.shape or 0 in pred.shape[1:]:
            raise ValidationError(f"candidates {pred.shape} do not match ground truth {gt.shape}: "
                                  "expected (B, K, Z) and (B, Z) with the same horizon Z and K, Z >= 1")
    (verb, _), (noun, _) = kinds
    if len(verb) != len(noun):
        raise ValidationError(f"verb candidates {verb.shape} and noun candidates {noun.shape} "
                              "hold different numbers of examples B")
    scores = []
    for pred, gt in kinds:
        B, K, Z = pred.shape
        dist = [edit_distance(row, target) for cands, target in zip(pred.tolist(), gt.tolist()) for row in cands]
        scores.append(np.array(dist, dtype=np.float64).reshape(B, K).min(axis=1) / Z)
    return scores[0], scores[1]


def check_label_ids(path: str | Path, example_ids: list[str], verb: np.ndarray, noun: np.ndarray,
                    taxonomy: Taxonomy) -> None:
    """Raise ValidationError naming the file, example and field of the first id outside ``taxonomy``.

    verb/noun: id arrays whose leading axis runs over ``example_ids``.
    """
    for field, ids, n_classes in (("verb", verb, len(taxonomy.verbs)), ("noun", noun, len(taxonomy.nouns))):
        bad = (ids < 0) | (ids >= n_classes)
        if bad.any():
            first = np.argwhere(bad)[0]
            where = "".join(f"[{i}]" for i in first[1:])
            raise ValidationError(
                f"{path}: example {example_ids[first[0]]!r} {field}{where} = {ids[tuple(first)]} "
                f"is out of range for {n_classes} {field}s"
            )


@dataclass(frozen=True)
class EvalReport:
    verb_ed: float
    noun_ed: float
    n_examples: int
    per_example: list[tuple[str, float, float]]
    Z: int
    K: int

    def to_dict(self) -> dict:
        return {
            "verb_ed": self.verb_ed,
            "noun_ed": self.noun_ed,
            "n_examples": self.n_examples,
            "Z": self.Z,
            "K": self.K,
            "per_example": [[eid, v, n] for eid, v, n in self.per_example],
        }


# ---------------------------------------------------------------------------
# ground-truth file format
# ---------------------------------------------------------------------------


def write_ground_truth(path: str | Path, sequences: list[GroundTruthSequence], Z: int,
                       taxonomy_sha256: str) -> None:
    for seq in sequences:
        if len(seq.actions) != Z:
            raise ValidationError(f"ground truth for {seq.example_id!r} has length {len(seq.actions)}, expected {Z}")
    payload = {
        "version": 1,
        "Z": Z,
        "taxonomy_sha256": taxonomy_sha256,
        "examples": {
            seq.example_id: {"verb": seq.verb_ids, "noun": seq.noun_ids}
            for seq in sorted(sequences, key=lambda s: s.example_id)
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        # dumps, unlike dump, uses the C encoder; the bytes are the same
        f.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def read_ground_truth(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray, str]:
    """Returns (example ids in sorted order, verb (N, Z) int64, noun (N, Z) int64, taxonomy_sha256)."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"ground truth file not found: {path}")
    payload = read_json_object(path, "ground truth file")
    if payload.get("version") != 1:
        raise ValidationError(f"unsupported ground truth file version {payload.get('version')!r}")
    what = f"ground truth file {path}"
    Z = require(payload.get("Z"), int, f"{what}: 'Z'")
    if Z < 1:
        raise ValidationError(f"{what}: 'Z' must be >= 1, got {Z}")
    taxonomy_sha256 = require(payload.get("taxonomy_sha256"), str, f"{what}: 'taxonomy_sha256'")
    examples = require(payload.get("examples"), dict, f"{what}: 'examples'")
    example_ids = sorted(examples)
    rows = {"verb": [], "noun": []}
    for example_id in example_ids:
        entry = require(examples[example_id], dict, f"{what}: example {example_id!r}")
        for field, out in rows.items():
            ids = entry.get(field)
            if not (isinstance(ids, list) and len(ids) == Z):
                raise ValidationError(f"{what}: example {example_id!r} '{field}' must be a list of Z={Z} ids")
            for i, label_id in enumerate(ids):
                require(label_id, int, f"{what}: example {example_id!r} {field}[{i}]")
            out.append(ids)
    try:
        verb, noun = (np.array(rows[field], dtype=np.int64).reshape(len(example_ids), Z) for field in rows)
    except OverflowError as e:
        raise ValidationError(f"{what}: 'examples' holds an id outside the int64 range") from e
    return example_ids, verb, noun, taxonomy_sha256


def evaluate(pred_file: str | Path, gt_file: str | Path, taxonomy: Taxonomy) -> EvalReport:
    """Score a prediction file against a ground-truth file.

    Fails loudly on any inconsistency (missing example, Z mismatch, taxonomy
    hash mismatch, out-of-range id) instead of scoring a corrupted pairing.
    Predictions for examples outside the ground truth are ignored.
    """
    gt_ids, gt_verb, gt_noun, gt_hash = read_ground_truth(gt_file)
    pred_ids, pred_verb, pred_noun, pred_hash = read_predictions(pred_file)
    tax_hash = taxonomy.sha256()
    if gt_hash != tax_hash:
        raise ValidationError("ground truth taxonomy hash does not match the provided taxonomy")
    if pred_hash != tax_hash:
        raise ValidationError("prediction taxonomy hash does not match the provided taxonomy")
    n_examples, Z = gt_verb.shape
    pred_z = pred_verb.shape[2]
    if pred_z != Z:
        raise ValidationError(f"prediction horizon Z={pred_z} does not match ground truth Z={Z}")
    if n_examples == 0:
        raise ValidationError("ground truth file contains no examples")
    check_label_ids(gt_file, gt_ids, gt_verb, gt_noun, taxonomy)

    row_of = dict(zip(pred_ids, range(len(pred_ids))))
    missing = set(gt_ids).difference(row_of)
    if missing:
        raise ValidationError(f"prediction file is missing example {min(missing)!r}")
    rows = np.fromiter(map(row_of.get, gt_ids), dtype=np.int64, count=n_examples)
    pred_verb, pred_noun = pred_verb[rows], pred_noun[rows]
    check_label_ids(pred_file, gt_ids, pred_verb, pred_noun, taxonomy)
    return score(gt_ids, pred_verb, pred_noun, gt_verb, gt_noun)


def score(example_ids: list[str], pred_verb: np.ndarray, pred_noun: np.ndarray,
          gt_verb: np.ndarray, gt_noun: np.ndarray) -> EvalReport:
    """The report of candidates (B, K, Z) against ground truth (B, Z), row b being ``example_ids[b]``.

    Inputs must already be checked against each other and the taxonomy, as
    ``evaluate`` does for files and ``harness.run_eval`` for the split it
    predicted. The per-example rows keep the order of ``example_ids``.
    """
    verb, noun = ed_at_zk(pred_verb, pred_noun, gt_verb, gt_noun)
    verb, noun = verb.tolist(), noun.tolist()
    n_examples = len(example_ids)
    return EvalReport(
        # a left-to-right sum of Python floats; np.mean's pairwise sum can differ in the last bit
        verb_ed=sum(verb) / n_examples,
        noun_ed=sum(noun) / n_examples,
        n_examples=n_examples,
        per_example=list(zip(example_ids, verb, noun)),
        Z=gt_verb.shape[1],
        K=pred_verb.shape[1],
    )
