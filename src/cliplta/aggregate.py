"""Clip-level descriptors from per-frame embeddings.

Three aggregation strategies turn an (N, c) frame-embedding matrix into a
single clip descriptor:

* ``mean_pool`` - plain temporal average, width c.
* ``img_text_concat`` - the mean-pooled image descriptor concatenated with
  the top-1 noun / verb / scenario / place text embeddings retrieved by
  cosine similarity, width 5c.
* ``cross_attention_aggregate`` - a single text-prompt query attends over
  the frames through multi-head attention; the weighted average of the
  projected frames is the descriptor, width c.

None of these apply positional information, so all three are invariant to
frame order. A cosine-ranking probe over the four label vocabularies is
included for zero-shot inspection of individual frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .featurestore import FrameEmbeddingSequence, TextEmbeddingTable
from .nn import softmax, softmax_backward

# fixed order of the text blocks inside the 5c concat variant
CONCAT_CATEGORIES = ("noun", "verb", "scenario", "place")


@dataclass(frozen=True)
class ClipDescriptor:
    vector: np.ndarray

    def __post_init__(self):
        vector = np.asarray(self.vector)
        if vector.ndim != 1:
            raise ValidationError(f"clip descriptor must be 1-d, got shape {vector.shape}")
        if not np.all(np.isfinite(vector)):
            raise ValidationError("clip descriptor contains non-finite values")
        object.__setattr__(self, "vector", vector)

    @property
    def width(self) -> int:
        return self.vector.shape[0]


def _as_frames_array(frames) -> np.ndarray:
    if isinstance(frames, FrameEmbeddingSequence):
        return frames.frames
    arr = np.asarray(frames)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValidationError(f"expected a non-empty (N, c) frame matrix, got shape {arr.shape}")
    return arr


def mean_pool(frames) -> ClipDescriptor:
    """Average the frame embeddings over time: out[j] = (1/N) * sum_r frames[r, j]."""
    arr = _as_frames_array(frames)
    return ClipDescriptor(vector=arr.mean(axis=0))


def rank_labels(query: np.ndarray, table: TextEmbeddingTable, k: int) -> list[tuple[int, float]]:
    """Top-k taxonomy ids by cosine similarity between query and table rows.

    Both sides are L2-normalized, so the ranking (and the scores) are
    invariant to positive rescaling of the query or of any row. Ties break
    toward the lower id for cross-platform determinism.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1:
        raise ValidationError(f"query must be a vector, got shape {query.shape}")
    if query.shape[0] != table.width:
        raise ValidationError(f"query width {query.shape[0]} does not match table width {table.width}")
    norm = np.linalg.norm(query)
    if norm == 0:
        raise ValidationError("cannot rank labels against a zero query vector")
    if k < 1 or k > len(table):
        raise ValidationError(f"k={k} out of range for a table with {len(table)} rows")
    scores = table.normalized() @ (query / norm)
    order = np.lexsort((np.arange(len(table)), -scores))
    return [(int(i), float(scores[i])) for i in order[:k]]


def img_text_concat(frames, tables: dict[str, TextEmbeddingTable]) -> ClipDescriptor:
    """Mean-pooled image descriptor plus the top-1 text embedding per category.

    The mean-pooled descriptor is the retrieval query for all four
    categories. Selected rows are L2-normalized before concatenation, and the
    block order is fixed: image, noun, verb, scenario, place. Output width 5c.
    """
    arr = _as_frames_array(frames)
    c = arr.shape[1]
    for category in CONCAT_CATEGORIES:
        if category not in tables:
            raise ValidationError(f"missing text table for category {category!r}")
        if tables[category].width != c:
            raise ValidationError(
                f"text table {category!r} width {tables[category].width} does not match frame width {c}"
            )
    image = arr.mean(axis=0)
    blocks = [image]
    for category in CONCAT_CATEGORIES:
        table = tables[category]
        top_id, _ = rank_labels(image, table, 1)[0]
        row = table.embeddings[top_id]
        blocks.append(row / np.linalg.norm(row))
    return ClipDescriptor(vector=np.concatenate(blocks))


# ---------------------------------------------------------------------------
# cross-attention aggregation
# ---------------------------------------------------------------------------


@dataclass
class CrossAttentionParams:
    """Projections for single-query multi-head attention over frames.

    W_q, W_k, W_v: (c, d_attn); W_o: (d_attn, c); no biases. d_attn must be
    divisible by n_heads.
    """

    W_q: np.ndarray
    W_k: np.ndarray
    W_v: np.ndarray
    W_o: np.ndarray
    n_heads: int

    def __post_init__(self):
        for name in ("W_q", "W_k", "W_v", "W_o"):
            mat = np.asarray(getattr(self, name))
            if not np.all(np.isfinite(mat)):
                raise ValidationError(f"attention parameter {name} contains non-finite values")
            setattr(self, name, mat)
        c, d_attn = self.W_q.shape
        if self.W_k.shape != (c, d_attn) or self.W_v.shape != (c, d_attn):
            raise ValidationError("W_q, W_k, W_v must share the shape (c, d_attn)")
        if self.W_o.shape != (d_attn, c):
            raise ValidationError(f"W_o must have shape ({d_attn}, {c}), got {self.W_o.shape}")
        if self.n_heads < 1 or d_attn % self.n_heads != 0:
            raise ValidationError(f"d_attn={d_attn} must be divisible by n_heads={self.n_heads}")

    @property
    def c(self) -> int:
        return self.W_q.shape[0]

    @property
    def d_attn(self) -> int:
        return self.W_q.shape[1]

    @property
    def d_head(self) -> int:
        return self.d_attn // self.n_heads

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {"W_q": self.W_q, "W_k": self.W_k, "W_v": self.W_v, "W_o": self.W_o}


def init_cross_attention(rng: np.random.Generator, c: int, d_attn: int, n_heads: int,
                         dtype=np.float64) -> CrossAttentionParams:
    """Symmetric-uniform init scaled by 1/sqrt(fan_in)."""
    if d_attn % n_heads != 0:
        raise ValidationError(f"d_attn={d_attn} must be divisible by n_heads={n_heads}")
    bq = 1.0 / np.sqrt(c)
    bo = 1.0 / np.sqrt(d_attn)
    return CrossAttentionParams(
        W_q=rng.uniform(-bq, bq, (c, d_attn)).astype(dtype),
        W_k=rng.uniform(-bq, bq, (c, d_attn)).astype(dtype),
        W_v=rng.uniform(-bq, bq, (c, d_attn)).astype(dtype),
        W_o=rng.uniform(-bo, bo, (d_attn, c)).astype(dtype),
        n_heads=n_heads,
    )


def cross_attention_forward(params: CrossAttentionParams, query: np.ndarray,
                            frames: np.ndarray) -> tuple[np.ndarray, dict]:
    """Batched forward pass; frames has shape (B, N, c), query (c,).

    Per head h the frames are projected into keys and values, the projected
    query scores every key, and softmax(q_h . K_h^T / sqrt(d_head)) weights
    the values. Head outputs are concatenated and projected back to width c.
    The projections run as 2-D GEMMs over all B*N frames; the per-head
    products are batched matmuls over (B, H).

    Returns (descriptors (B, c), cache) where the cache carries everything
    the backward pass needs, including the attention weights (B, H, N).
    """
    query = np.asarray(query)
    frames = np.asarray(frames)
    if frames.ndim != 3:
        raise ValidationError(f"batched frames must have shape (B, N, c), got {frames.shape}")
    B, N, c = frames.shape
    if query.shape != (c,):
        raise ValidationError(f"query must have shape ({c},), got {query.shape}")
    if c != params.c:
        raise ValidationError(f"frame width {c} does not match attention params width {params.c}")
    H, dh = params.n_heads, params.d_head

    rows = frames.reshape(B * N, c)
    qh = (query @ params.W_q).reshape(H, dh)
    Kh = _split_heads(rows @ params.W_k, B, N, H)           # (B, H, N, dh)
    Vh = _split_heads(rows @ params.W_v, B, N, H)
    # a Python-float divisor keeps float32 scores in float32
    scores = (Kh @ qh[:, :, None])[..., 0] / math.sqrt(dh)  # (B, H, N)
    weights = softmax(scores)
    concat = (weights[:, :, None, :] @ Vh).reshape(B, H * dh)
    out = concat @ params.W_o                   # (B, c)
    cache = {
        "query": query, "rows": rows, "qh": qh, "Kh": Kh, "Vh": Vh,
        "weights": weights, "concat": concat,
    }
    return out, cache


def _split_heads(x: np.ndarray, B: int, N: int, H: int) -> np.ndarray:
    """(B*N, H*dh) -> (B, H, N, dh) view."""
    return x.reshape(B, N, H, -1).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, H, N, dh) -> (B*N, H*dh)."""
    B, H, N, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B * N, H * dh)


def cross_attention_backward(params: CrossAttentionParams, cache: dict,
                             d_out: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Gradients of the batched forward pass.

    Returns (param_grads, d_query, d_frames); d_query is summed over the
    batch because the query is shared.
    """
    weights, Kh, Vh, qh = cache["weights"], cache["Kh"], cache["Vh"], cache["qh"]
    rows = cache["rows"]
    B, H, N, dh = Kh.shape

    dW_o = cache["concat"].T @ d_out
    d_heads = (d_out @ params.W_o.T).reshape(B, H, dh)

    d_weights = (Vh @ d_heads[..., None])[..., 0]           # (B, H, N)
    dVh = weights[..., None] * d_heads[:, :, None, :]       # (B, H, N, dh)
    d_scores = softmax_backward(weights, d_weights) / math.sqrt(dh)

    dq = (d_scores[:, :, None, :] @ Kh).sum(axis=0).reshape(H * dh)
    dKh = d_scores[..., None] * qh[:, None, :]
    dW_q = np.outer(cache["query"], dq)
    d_query = params.W_q @ dq

    dK, dV = _merge_heads(dKh), _merge_heads(dVh)           # (B*N, d_attn)
    dW_k = rows.T @ dK
    dW_v = rows.T @ dV
    d_frames = (dK @ params.W_k.T + dV @ params.W_v.T).reshape(B, N, -1)

    grads = {"W_q": dW_q, "W_k": dW_k, "W_v": dW_v, "W_o": dW_o}
    return grads, d_query, d_frames


def cross_attention_aggregate(params: CrossAttentionParams, query: np.ndarray, frames) -> ClipDescriptor:
    """Single-clip convenience wrapper around the batched forward pass."""
    arr = _as_frames_array(frames)
    out, _ = cross_attention_forward(params, query, arr[None, :, :])
    return ClipDescriptor(vector=out[0])


def cross_attention_weights(params: CrossAttentionParams, query: np.ndarray, frames) -> np.ndarray:
    """Per-head attention weights (n_heads, N); each row sums to 1."""
    arr = _as_frames_array(frames)
    _, cache = cross_attention_forward(params, query, arr[None, :, :])
    return cache["weights"][0]


# ---------------------------------------------------------------------------
# zero-shot probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    top1_place: tuple[int, float]
    top1_scenario: tuple[int, float]
    top3_verbs: list[tuple[int, float]]
    top3_nouns: list[tuple[int, float]]


def zero_shot_probe(frame: np.ndarray, tables: dict[str, TextEmbeddingTable]) -> ProbeReport:
    """Rank labels for a single frame embedding against all four categories.

    Top-1 for place and scenario, top-3 for verbs and nouns; verbs and nouns
    vocabularies therefore need at least 3 entries.
    """
    for category in CONCAT_CATEGORIES:
        if category not in tables:
            raise ValidationError(f"missing text table for category {category!r}")
    for category in ("verb", "noun"):
        if len(tables[category]) < 3:
            raise ValidationError(
                f"{category} vocabulary too small for a top-3 probe ({len(tables[category])} rows)"
            )
    return ProbeReport(
        top1_place=rank_labels(frame, tables["place"], 1)[0],
        top1_scenario=rank_labels(frame, tables["scenario"], 1)[0],
        top3_verbs=rank_labels(frame, tables["verb"], 3),
        top3_nouns=rank_labels(frame, tables["noun"], 3),
    )


def probe_record(report: ProbeReport, frame_index: int, taxonomy) -> dict:
    """One JSON-ready probe line: ids and scores plus resolved names."""
    return {
        "frame": int(frame_index),
        "place": [report.top1_place[0], report.top1_place[1]],
        "scenario": [report.top1_scenario[0], report.top1_scenario[1]],
        "verbs": [[i, s] for i, s in report.top3_verbs],
        "nouns": [[i, s] for i, s in report.top3_nouns],
        "names": {
            "place": taxonomy.places[report.top1_place[0]],
            "scenario": taxonomy.scenarios[report.top1_scenario[0]],
            "verbs": [taxonomy.verbs[i] for i, _ in report.top3_verbs],
            "nouns": [taxonomy.nouns[i] for i, _ in report.top3_nouns],
        },
    }
