#!/usr/bin/env python3
"""The evaluation protocol, from single edits up to a dataset report.

Walks through the unrestricted Damerau-Levenshtein distance (insert,
delete, substitute, adjacent transposition, all unit cost), the per-example
ED@(Z,K) score (normalized by the horizon, minimized over candidates), and
a two-example dataset mean.
"""

import numpy as np

from cliplta import edit_distance, ed_at_zk

print("single edits, all unit cost:")
for a, b, note in [
    ([1, 2, 3], [1, 2, 3], "identical"),
    ([1, 2, 3, 4], [1, 3, 2, 4], "one adjacent transposition"),
    ([1, 2], [3, 4, 5], "two substitutions + one insertion"),
    ([2, 0], [0, 1, 2], "swap, then insert between the swapped pair"),
]:
    print(f"  d({a}, {b}) = {edit_distance(a, b)}   # {note}")

print("\nthe last case is why the unrestricted form matters: the cheaper")
print("'optimal string alignment' shortcut would report 3 and break the")
print("triangle inequality; this implementation is a true metric.\n")

# --- ED@(Z,K): normalized, min over K candidates ------------------------
# ed_at_zk scores a batch: candidates (B, K, Z) against ground truth (B, Z),
# here a batch of one example
Z = 4
gt_verb = np.array([[0, 1, 2, 7]])
gt_noun = np.array([[3, 3, 1, 0]])

pred_verb = np.array([[[0, 1, 2, 3],    # 1 substitution from gt verbs
                       [7, 7, 7, 7]]])  # 3 substitutions
pred_noun = np.array([[[3, 3, 1, 0],    # exact
                       [0, 0, 0, 0]]])
verb, noun = ed_at_zk(pred_verb, pred_noun, gt_verb, gt_noun)
print(f"ED@(Z={Z},K=2) for one example: verb={verb[0]} noun={noun[0]}")
print("  verb: min(1, 3)/4 = 0.25; noun: a candidate matches exactly -> 0.0\n")

# --- min over K never hurts ---------------------------------------------
rng = np.random.default_rng(0)
gt_verb, gt_noun = rng.integers(0, 5, (1, Z)), rng.integers(0, 5, (1, Z))
verbs = rng.integers(0, 5, (1, 5, Z))
nouns = rng.integers(0, 5, (1, 5, Z))
print("appending candidates is monotone:")
for k in range(1, 6):
    v, n = ed_at_zk(verbs[:, :k], nouns[:, :k], gt_verb, gt_noun)
    print(f"  K={k}: verb={v[0]:.2f} noun={n[0]:.2f}")
