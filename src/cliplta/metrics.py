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

    Dynamic program over prefix pairs; the transposition case tracks, for
    each symbol, the last position it occurred at in either string, so swaps
    separated by since-deleted material are still charged correctly
    (d("CA","ABC") is 2, not 3).
    """
    a = list(a)
    b = list(b)
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la

    maxdist = la + lb
    # (la + 2) x (lb + 2) table with a sentinel border for the transposition case
    d = [[maxdist] * (lb + 2) for _ in range(la + 2)]
    for i in range(la + 1):
        d[i + 1][1] = i
    for j in range(lb + 1):
        d[1][j + 1] = j

    last_row: dict[int, int] = {}
    for i in range(1, la + 1):
        last_col = 0
        for j in range(1, lb + 1):
            row = last_row.get(b[j - 1], 0)
            col = last_col
            if a[i - 1] == b[j - 1]:
                cost = 0
                last_col = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,                            # substitute / match
                d[i + 1][j] + 1,                           # insert
                d[i][j + 1] + 1,                           # delete
                d[row][col] + (i - row - 1) + 1 + (j - col - 1),  # transpose
            )
        last_row[a[i - 1]] = i
    return d[la + 1][lb + 1]


def ed_at_zk(pred_verb: np.ndarray, pred_noun: np.ndarray,
             gt_verb: np.ndarray, gt_noun: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-example (verb (B,), noun (B,)) float64 scores: min over K of distance / Z.

    pred_verb/pred_noun: (B, K, Z) candidate ids; gt_verb/gt_noun: (B, Z).
    """
    scores = []
    for pred, gt in ((pred_verb, gt_verb), (pred_noun, gt_noun)):
        pred, gt = np.asarray(pred), np.asarray(gt)
        if pred.ndim != 3 or pred.shape[::2] != gt.shape:
            raise ValidationError(f"candidates {pred.shape} do not match ground truth {gt.shape}: "
                                  "expected (B, K, Z) and (B, Z) with the same horizon Z")
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
    _, K, pred_z = pred_verb.shape
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

    verb, noun = ed_at_zk(pred_verb, pred_noun, gt_verb, gt_noun)
    verb, noun = verb.tolist(), noun.tolist()
    return EvalReport(
        # a left-to-right sum of Python floats; np.mean's pairwise sum can differ in the last bit
        verb_ed=sum(verb) / n_examples,
        noun_ed=sum(noun) / n_examples,
        n_examples=n_examples,
        per_example=list(zip(gt_ids, verb, noun)),
        Z=Z,
        K=K,
    )
