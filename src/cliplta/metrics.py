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

Ground truth, (N, Z) ids per field, and predictions, (P, K, Z), are one
label-file format that differs only in its dimensions: their public readers
and writers share one private reader and one writer over id arrays, and
``check_labels`` is the one check of a file's labels against the taxonomy.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError, read_json_object, require, write_file
from .taxonomy import Taxonomy


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
# label files: ground truth and predictions
# ---------------------------------------------------------------------------

# (what, entries key, dimensions) of each label file: ground truth holds (N, Z) ids per
# field, predictions (P, K, Z)
_GROUND_TRUTH = ("ground truth file", "examples", ("Z",))
_PREDICTIONS = ("prediction file", "predictions", ("K", "Z"))


def write_ground_truth(path: str | Path, example_ids: list[str], verb: np.ndarray, noun: np.ndarray,
                       taxonomy_sha256: str) -> None:
    """Write ground truth verb/noun (N, Z) of examples ``example_ids``; Z comes from the shape."""
    _write_label_file(path, *_GROUND_TRUTH, example_ids, verb, noun, taxonomy_sha256)


def read_ground_truth(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray, str]:
    """Returns (example ids in sorted order, verb (N, Z) int64, noun (N, Z) int64, taxonomy_sha256)."""
    return _read_label_file(path, *_GROUND_TRUTH)


def write_predictions(path: str | Path, example_ids: list[str], verb: np.ndarray, noun: np.ndarray,
                      taxonomy_sha256: str) -> None:
    """Write candidates verb/noun (P, K, Z) of examples ``example_ids``; K and Z come from the shape."""
    _write_label_file(path, *_PREDICTIONS, example_ids, verb, noun, taxonomy_sha256)


def read_predictions(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray, str]:
    """Returns (example ids in sorted order, verb (P, K, Z) int64, noun (P, K, Z) int64, taxonomy_sha256)."""
    return _read_label_file(path, *_PREDICTIONS)


def _write_label_file(path: str | Path, what: str, key: str, dims: tuple[str, ...], example_ids: list[str],
                      verb: np.ndarray, noun: np.ndarray, taxonomy_sha256: str) -> None:
    """Write one label file: its dimensions from the arrays' shape, entries keyed and sorted by example id.

    Each example id must appear once; a repeated one raises ValidationError and writes nothing.
    """
    verb = np.asarray(verb, dtype=np.int64)
    noun = np.asarray(noun, dtype=np.int64)
    if verb.ndim != 1 + len(dims) or verb.shape != noun.shape or len(verb) != len(example_ids):
        raise ValidationError(
            f"cannot write {what} {path}: verb and noun must be matching (N, {', '.join(dims)}) id arrays "
            f"for N={len(example_ids)} examples; got {verb.shape} and {noun.shape}"
        )
    entries = {example_id: {"verb": v, "noun": n}
               for example_id, v, n in zip(example_ids, verb.tolist(), noun.tolist())}
    if len(entries) != len(example_ids):
        repeated = next(example_id for example_id, n in Counter(example_ids).items() if n > 1)
        raise ValidationError(f"cannot write {what} {path}: example id {repeated!r} is repeated")
    # sort_keys orders the entries by example id
    payload = {"version": 1, **dict(zip(dims, verb.shape[1:])), "taxonomy_sha256": taxonomy_sha256, key: entries}
    write_file(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _read_label_file(path: str | Path, what: str, key: str,
                     dims: tuple[str, ...]) -> tuple[list[str], np.ndarray, np.ndarray, str]:
    """(sorted example ids, verb, noun, taxonomy_sha256) of one label file; verb/noun are (N, *dims) int64.

    Every field is checked: ``version`` is 1, each dimension an integer >= 1,
    ``taxonomy_sha256`` a string, the entries an object of objects, and each
    entry's ``verb`` and ``noun`` nested lists of the file's shape holding
    JSON integers (not bools) inside the int64 range. Each check runs over
    all entries at once; only a failed one looks for its location, and the
    ValidationError names the file, the example and the index.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"{what} not found: {path}")
    payload = read_json_object(path, what)
    where = f"{what} {path}"
    version = payload.get("version")
    if type(version) is not int or version != 1:
        raise ValidationError(f"{where}: 'version' must be 1, got {version!r}")
    shape = []
    for dim in dims:
        size = require(payload.get(dim), int, f"{where}: '{dim}'")
        if size < 1:
            raise ValidationError(f"{where}: '{dim}' must be >= 1, got {size}")
        shape.append(size)
    taxonomy_sha256 = require(payload.get("taxonomy_sha256"), str, f"{where}: 'taxonomy_sha256'")
    entries = require(payload.get(key), dict, f"{where}: '{key}'")
    example_ids = sorted(entries)
    rows = [entries[example_id] for example_id in example_ids]
    if not set(map(type, rows)) <= {dict}:
        bad = next(i for i, row in enumerate(rows) if type(row) is not dict)
        raise ValidationError(f"{where}: example {example_ids[bad]!r} must be an object, got {rows[bad]!r}")
    verb, noun = (_label_ids(where, example_ids, field, [row.get(field) for row in rows], dims, shape)
                  for field in ("verb", "noun"))
    return example_ids, verb, noun, taxonomy_sha256


def _label_ids(where: str, example_ids: list[str], field: str, values: list, dims: tuple[str, ...],
               shape: list[int]) -> np.ndarray:
    """``values``, one nested list per example, as an int64 array (N, *shape).

    The lists are checked and flattened one level at a time; a failed check
    unravels the flat position of its first failure into the example and
    the index, e.g. ``example 'a' verb[1][0]``.
    """
    def error(depth: int, flat: int, problem: str) -> ValidationError:
        example, *index = np.unravel_index(flat, (len(example_ids), *shape[:depth]))
        location = field + "".join(f"[{i}]" for i in index)
        return ValidationError(f"{where}: example {example_ids[example]!r} {location} {problem}")

    for depth, (dim, size) in enumerate(zip(dims, shape)):
        if not (set(map(type, values)) <= {list} and set(map(len, values)) <= {size}):
            bad = next(i for i, v in enumerate(values) if type(v) is not list or len(v) != size)
            inner = "lists" if depth + 1 < len(dims) else "ids"
            raise error(depth, bad, f"must be a list of {dim}={size} {inner}, got {values[bad]!r}")
        values = list(chain.from_iterable(values))
    if not set(map(type, values)) <= {int}:  # type(...) is int: JSON integers, not bools
        bad = next(i for i, v in enumerate(values) if type(v) is not int)
        raise error(len(dims), bad, f"must be an integer, got {values[bad]!r}")
    try:
        return np.array(values, dtype=np.int64).reshape(len(example_ids), *shape)
    except OverflowError:
        bad = next(i for i, v in enumerate(values) if not -2**63 <= v < 2**63)
        raise error(len(dims), bad, f"= {values[bad]} is outside the int64 range") from None


def check_labels(path: str | Path, example_ids: list[str], verb: np.ndarray, noun: np.ndarray,
                 taxonomy_sha256: str, taxonomy: Taxonomy) -> None:
    """Raise ValidationError naming ``path`` unless its labels fit ``taxonomy``.

    The file's ``taxonomy_sha256`` must be the taxonomy's hash, ``example_ids``
    must not be empty, and every id of verb/noun, arrays whose leading axis
    runs over ``example_ids``, must lie in the taxonomy; the first id outside
    it is named by its example and index. A prediction file is checked on
    the rows of the ground truth's examples, which are checked first.
    """
    if taxonomy_sha256 != taxonomy.sha256():
        raise ValidationError(f"{path}: 'taxonomy_sha256' is not the hash of the taxonomy")
    if not example_ids:
        raise ValidationError(f"{path}: 'examples' is empty")
    for field, ids, n_classes in (("verb", verb, len(taxonomy.verbs)), ("noun", noun, len(taxonomy.nouns))):
        bad = (ids < 0) | (ids >= n_classes)
        if bad.any():
            first = np.argwhere(bad)[0]
            where = "".join(f"[{i}]" for i in first[1:])
            raise ValidationError(
                f"{path}: example {example_ids[first[0]]!r} {field}{where} = {ids[tuple(first)]} "
                f"is out of range for {n_classes} {field}s"
            )


def evaluate(pred_file: str | Path, gt_file: str | Path, taxonomy: Taxonomy) -> EvalReport:
    """Score a prediction file against a ground-truth file.

    Fails loudly on any inconsistency (missing example, Z mismatch, taxonomy
    hash mismatch, out-of-range id) instead of scoring a corrupted pairing.
    Predictions for examples outside the ground truth are ignored.
    """
    gt_ids, gt_verb, gt_noun, gt_hash = read_ground_truth(gt_file)
    pred_ids, pred_verb, pred_noun, pred_hash = read_predictions(pred_file)
    check_labels(gt_file, gt_ids, gt_verb, gt_noun, gt_hash, taxonomy)
    n_examples, Z = gt_verb.shape
    pred_z = pred_verb.shape[2]
    if pred_z != Z:
        raise ValidationError(f"prediction file {pred_file}: horizon Z={pred_z} does not match ground truth Z={Z}")

    row_of = dict(zip(pred_ids, range(len(pred_ids))))
    missing = set(gt_ids).difference(row_of)
    if missing:
        raise ValidationError(f"prediction file {pred_file} is missing example {min(missing)!r}")
    rows = np.fromiter(map(row_of.get, gt_ids), dtype=np.int64, count=n_examples)
    pred_verb, pred_noun = pred_verb[rows], pred_noun[rows]
    check_labels(pred_file, gt_ids, pred_verb, pred_noun, pred_hash, taxonomy)
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
