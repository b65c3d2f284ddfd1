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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import ValidationError, read_json_object, require
from .model import PredictionSet, read_predictions
from .taxonomy import ActionLabel, GroundTruthSequence, Taxonomy


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


def ed_at_zk(pred: PredictionSet, gt: GroundTruthSequence) -> tuple[float, float]:
    """Per-example (verb, noun) scores: min over candidates of distance / Z."""
    Z = len(gt.actions)
    if pred.Z != Z:
        raise ValidationError(
            f"prediction horizon {pred.Z} does not match ground truth length {Z} "
            f"for example {gt.example_id!r}"
        )
    gt_verbs = gt.verb_ids
    gt_nouns = gt.noun_ids
    verb = min(edit_distance(row.tolist(), gt_verbs) for row in pred.verb_seqs)
    noun = min(edit_distance(row.tolist(), gt_nouns) for row in pred.noun_seqs)
    return verb / Z, noun / Z


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


def read_ground_truth(path: str | Path) -> tuple[list[GroundTruthSequence], int, str]:
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"ground truth file not found: {path}")
    payload = read_json_object(path, "ground truth file")
    if payload.get("version") != 1:
        raise ValidationError(f"unsupported ground truth file version {payload.get('version')!r}")
    for key in ("Z", "taxonomy_sha256", "examples"):
        if key not in payload:
            raise ValidationError(f"ground truth file missing key '{key}'")
    Z = require(payload["Z"], int, f"ground truth file {path}: 'Z'")
    if Z < 1:
        raise ValidationError(f"ground truth file {path}: 'Z' must be >= 1, got {Z}")
    examples = payload["examples"]
    if not isinstance(examples, dict):
        raise ValidationError(f"ground truth file {path}: 'examples' must be an object of id -> entry")
    sequences = []
    for example_id in sorted(examples):
        entry = examples[example_id]
        if not isinstance(entry, dict):
            raise ValidationError(f"ground truth file {path}: example {example_id!r} must be an object")
        verbs, nouns = entry.get("verb"), entry.get("noun")
        if not isinstance(verbs, list) or not isinstance(nouns, list):
            raise ValidationError(f"ground truth for {example_id!r} must hold verb/noun id lists")
        if len(verbs) != Z or len(nouns) != Z:
            raise ValidationError(f"ground truth for {example_id!r} does not have length Z={Z}")
        for field, ids in (("verb", verbs), ("noun", nouns)):
            for i, label_id in enumerate(ids):
                require(label_id, int, f"ground truth file {path}: example {example_id!r} {field}[{i}]")
        sequences.append(
            GroundTruthSequence(
                example_id=example_id,
                actions=tuple(ActionLabel(v, n) for v, n in zip(verbs, nouns)),
            )
        )
    return sequences, Z, payload["taxonomy_sha256"]


def evaluate(pred_file: str | Path, gt_file: str | Path, taxonomy: Taxonomy) -> EvalReport:
    """Score a prediction file against a ground-truth file.

    Fails loudly on any inconsistency (missing example, Z mismatch, taxonomy
    hash mismatch, out-of-range id) instead of scoring a corrupted pairing.
    """
    gt_sequences, Z, gt_hash = read_ground_truth(gt_file)
    predictions, pred_z, K, pred_hash = read_predictions(pred_file)
    tax_hash = taxonomy.sha256()
    if gt_hash != tax_hash:
        raise ValidationError("ground truth taxonomy hash does not match the provided taxonomy")
    if pred_hash != tax_hash:
        raise ValidationError("prediction taxonomy hash does not match the provided taxonomy")
    if pred_z != Z:
        raise ValidationError(f"prediction horizon Z={pred_z} does not match ground truth Z={Z}")

    n_verbs, n_nouns = len(taxonomy.verbs), len(taxonomy.nouns)
    per_example = []
    for gt in gt_sequences:
        for a in gt.actions:
            if not (0 <= a.verb_id < n_verbs and 0 <= a.noun_id < n_nouns):
                raise ValidationError(f"ground truth id out of range in example {gt.example_id!r}")
        entry = predictions.get(gt.example_id)
        if entry is None:
            raise ValidationError(f"prediction file is missing example {gt.example_id!r}")
        pred = PredictionSet(
            example_id=gt.example_id,
            verb_seqs=entry["verb"],
            noun_seqs=entry["noun"],
        )
        if pred.K != K or pred.Z != Z:
            raise ValidationError(f"prediction for {gt.example_id!r} does not have shape (K={K}, Z={Z})")
        if pred.verb_seqs.min() < 0 or pred.verb_seqs.max() >= n_verbs:
            raise ValidationError(f"verb id out of range in prediction for {gt.example_id!r}")
        if pred.noun_seqs.min() < 0 or pred.noun_seqs.max() >= n_nouns:
            raise ValidationError(f"noun id out of range in prediction for {gt.example_id!r}")
        v, n = ed_at_zk(pred, gt)
        per_example.append((gt.example_id, v, n))

    n_examples = len(per_example)
    if n_examples == 0:
        raise ValidationError("ground truth file contains no examples")
    return EvalReport(
        verb_ed=sum(v for _, v, _ in per_example) / n_examples,
        noun_ed=sum(n for _, _, n in per_example) / n_examples,
        n_examples=n_examples,
        per_example=per_example,
        Z=Z,
        K=K,
    )
