#!/usr/bin/env python3
"""The three frame-aggregation strategies side by side.

Builds a clip whose frames are mostly noise with one informative frame,
then compares mean pooling, image+text concatenation, and cross-attention
aggregation. Mean pooling and the concat take frames of any leading
shape; the cross-attention forward pass takes a batch, so the one clip goes
in with a leading axis of 1. Also demonstrates the properties the test
suite pins down: frame-permutation invariance and per-head attention
weights that form a probability distribution.
"""

import numpy as np

from cliplta import (
    CrossAttention,
    Taxonomy,
    build_text_table,
    img_text_concat,
    mean_pool,
    stub_embed,
)
from cliplta.aggregate import cross_attention_forward
from cliplta.taxonomy import CATEGORIES

C = 32
N = 12
rng = np.random.default_rng(1)

# one informative frame buried in noise
signal = stub_embed(5, "the-signal-direction", C)
frames = 0.4 * rng.standard_normal((N, C))
signal_pos = 7
frames[signal_pos] += signal

print(f"clip: {N} frames of width {C}, signal planted at frame {signal_pos}\n")

# --- variant 1: mean pooling -------------------------------------------
pooled = mean_pool(frames)
print(f"mean_pool         -> width {pooled.shape[-1]}, "
      f"cosine to signal {float(pooled @ signal / np.linalg.norm(pooled)):.3f} "
      f"(signal diluted by 1/{N})")

# --- variant 2: image descriptor + top-1 text embeddings ---------------
taxonomy = Taxonomy(
    verbs=("take", "put", "cut"), nouns=("cup", "knife", "pan"),
    scenarios=("cooking", "cleaning"), places=("kitchen", "garden"),
)
tables = {cat: build_text_table(taxonomy, cat, "a photo of {}", 100, C) for cat in CATEGORIES}
concat = img_text_concat(frames, tables)
print(f"img_text_concat   -> width {concat.shape[-1]} (= 5 x {C}: image block + "
      "top-1 noun/verb/scenario/place blocks)")

# --- variant 3: cross-attention aggregation ----------------------------
params = CrossAttention(rng, c=C, d_attn=C, n_heads=4)
query = stub_embed(100, "a video of a person performing an action", C)
out, cache = cross_attention_forward(params, query, frames[None])
attended, weights = out[0], cache["weights"][0, :, 0]   # (H, N): one query row per head
print(f"cross_attention   -> width {attended.shape[-1]}, "
      f"per-head weights shape {weights.shape}, row sums {weights.sum(axis=1).round(6)}")
print("  (at random init the weights are near-uniform; training moves them"
      " toward informative frames)")

# --- shared property: no positional information ------------------------
perm = rng.permutation(N)
drift_mean = np.abs(mean_pool(frames[perm]) - pooled).max()
drift_attn = np.abs(cross_attention_forward(params, query, frames[perm][None])[0][0] - attended).max()
print(f"\nframe order is irrelevant inside a clip: after a random permutation, "
      f"max drift mean_pool={drift_mean:.2e}, attention={drift_attn:.2e}")
