"""Shared test utilities: the brute-force edit oracle, the reference edit
distance, gradient checking, single-clip attention, the one-example
reference sampler, and run-output fingerprints."""

import hashlib
import json
from pathlib import Path

import numpy as np

from cliplta import nn
from cliplta.aggregate import cross_attention_forward


def attend(params, query, frames):
    """One (N, c) clip through the batched forward pass: (descriptor (c,), weights (H, N))."""
    out, cache = cross_attention_forward(params, query, np.asarray(frames)[None])
    return out[0], cache["weights"][0]


def edit_neighbors(s: tuple, alphabet: tuple, max_len: int) -> set:
    """All strings one unit edit away (insert, delete, substitute, adjacent swap)."""
    out = set()
    L = len(s)
    if L < max_len:
        for i in range(L + 1):
            for a in alphabet:
                out.add(s[:i] + (a,) + s[i:])
    for i in range(L):
        out.add(s[:i] + s[i + 1:])
        for a in alphabet:
            if a != s[i]:
                out.add(s[:i] + (a,) + s[i + 1:])
    for i in range(L - 1):
        if s[i] != s[i + 1]:
            out.add(s[:i] + (s[i + 1], s[i]) + s[i + 2:])
    return out


def brute_force_edit_distance(a, b, max_extra: int = 2) -> int:
    """Shortest edit script by bidirectional breadth-first search.

    Independent of any dynamic program: the search walks the space of
    strings itself. Every edit op has a unit-cost inverse, so the edit graph
    is undirected and meeting frontiers bound the distance; the search stops
    once no shorter meeting is possible. Intermediate strings are restricted
    to the symbols of a and b and to length max(len) + max_extra, neither of
    which an optimal unit-cost script needs to exceed.
    """
    a, b = tuple(a), tuple(b)
    if a == b:
        return 0
    alphabet = tuple(sorted(set(a) | set(b)))
    cap = max(len(a), len(b)) + max_extra
    dist_a, dist_b = {a: 0}, {b: 0}
    front_a, front_b = {a}, {b}
    radius_a = radius_b = 0
    best = len(a) + len(b) + 1
    while radius_a + radius_b < best:
        if len(front_a) <= len(front_b):
            front, dist, other = front_a, dist_a, dist_b
        else:
            front, dist, other = front_b, dist_b, dist_a
        new_front = set()
        for s in front:
            for t in edit_neighbors(s, alphabet, cap):
                if t not in dist:
                    dist[t] = dist[s] + 1
                    new_front.add(t)
                    if t in other:
                        best = min(best, dist[t] + other[t])
        if dist is dist_a:
            front_a = new_front
            radius_a += 1
        else:
            front_b = new_front
            radius_b += 1
    return best


def reference_edit_distance(a, b) -> int:
    """The scalar Lowrance-Wagner table that ``edit_distance`` must equal.

    Minimum number of unit edits turning ``a`` into ``b``.

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


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def finite_difference(loss_fn, array: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. one array.

    Mutates entries in place and restores them, so the array must be the
    same object the loss function reads.
    """
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def reference_sample_candidates(verb_logits, noun_logits, K: int, temperature: float, seed: int):
    """One example's (verb (K, Z), noun (K, Z)) candidates, one ``rng.choice`` per step.

    Argmax, then per candidate Z verb draws and Z noun draws from a generator
    seeded with ``seed``: the per-step form whose ids the batched
    ``sample_candidates`` must give exactly.
    """
    verb = np.asarray(verb_logits, dtype=np.float64)
    noun = np.asarray(noun_logits, dtype=np.float64)
    Z = verb.shape[0]
    verb_rows = [np.argmax(verb, axis=1)]
    noun_rows = [np.argmax(noun, axis=1)]
    if K > 1:
        rng = np.random.default_rng(seed)
        p_verb = nn.softmax(verb / temperature)
        p_noun = nn.softmax(noun / temperature)
        for _ in range(1, K):
            verb_rows.append(np.array([rng.choice(p_verb.shape[1], p=p_verb[z]) for z in range(Z)]))
            noun_rows.append(np.array([rng.choice(p_noun.shape[1], p=p_noun[z]) for z in range(Z)]))
    return np.stack(verb_rows), np.stack(noun_rows)


def output_fingerprints(run_dir) -> dict[str, str]:
    """sha256 of each output of a train + eval run, keyed by path relative to ``run_dir``.

    Covers every file of ``checkpoint/`` (each parameter blob, ``config.json``
    and ``params.json``), ``predictions.json``, ``report.json``, and
    ``runlog.jsonl`` with ``wall_time``, the one field a rerun changes,
    taken out of each record.
    """
    run_dir = Path(run_dir)
    files = [*sorted((run_dir / "checkpoint").iterdir()), run_dir / "predictions.json", run_dir / "report.json"]
    out = {str(path.relative_to(run_dir)): hashlib.sha256(path.read_bytes()).hexdigest() for path in files}
    records = [json.loads(line) for line in (run_dir / "runlog.jsonl").read_text(encoding="utf-8").splitlines()]
    for record in records:
        del record["wall_time"]
    out["runlog.jsonl"] = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    return out
