"""Clip-level descriptors from per-frame embeddings.

Every aggregator maps a frame array of shape (..., N, c), any leading shape
(one clip, an example's T clips, a whole split of (B, T) clips), to one
descriptor per clip:

* ``mean_pool`` - plain temporal average, (..., N, c) -> (..., c).
* ``img_text_concat`` - the mean-pooled image descriptor concatenated with
  the top-1 noun / verb / scenario / place text embeddings retrieved by
  cosine similarity, (..., N, c) -> (..., 5c).
* ``cross_attention_forward`` - a single text-prompt query attends over the
  frames through multi-head attention; the weighted average of the projected
  frames is the descriptor, (B, N, c) -> (B, c). It is the one trainable
  aggregator, so it also has a backward pass, ``cross_attention_backward``,
  which follows the layer protocol of :mod:`cliplta.nn`.

None of these apply positional information, so all three are invariant to
frame order. ``rank_labels`` is the one cosine label ranker: it maps query
rows (..., c) to the top-k ids (..., k) int64 and their scores (..., k)
float64. ``img_text_concat`` retrieves with it, and so does the zero-shot
probe of individual frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .featurestore import TextEmbeddingTable
from .nn import Module, init_uniform, softmax, softmax_backward

# fixed order of the text blocks inside the 5c concat variant
CONCAT_CATEGORIES = ("noun", "verb", "scenario", "place")


def mean_pool(frames: np.ndarray) -> np.ndarray:
    """Average the frame embeddings over time: out[..., j] = (1/N) * sum_r frames[..., r, j]."""
    frames = np.asarray(frames)
    if frames.ndim < 2 or frames.shape[-2] < 1:
        raise ValidationError(f"expected frames of shape (..., N, c) with N >= 1, got shape {frames.shape}")
    return frames.mean(axis=-2)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norms of the rows of ``x`` (..., c), kept as a trailing axis (..., 1).

    One stacked dot product per row sums in the same order as
    ``np.linalg.norm`` of that row alone, so a batched call gives the bytes
    of the per-row calls.
    """
    return np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0]


def rank_labels(queries: np.ndarray, table: TextEmbeddingTable, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k taxonomy ids per query row by cosine similarity against the table rows.

    Returns (ids (..., k) int64, scores (..., k) float64) for queries of
    shape (..., c). Both sides are L2-normalized, so the ranking (and the
    scores) are invariant to positive rescaling of a query or of any row.
    Ties break toward the lower id for cross-platform determinism. The
    scores are one mat-vec product per query, so they do not depend on how
    many queries share the call.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim < 1 or queries.shape[-1] != table.width:
        raise ValidationError(f"query shape {queries.shape} does not match table width {table.width}")
    norms = _row_norms(queries)
    if np.any(norms == 0):
        raise ValidationError("cannot rank labels against a zero query vector")
    if k < 1 or k > len(table):
        raise ValidationError(f"k={k} out of range for a table with {len(table)} rows")
    scores = np.matmul(table.normalized(), (queries / norms)[..., None])[..., 0]   # (..., V)
    ids = np.argsort(-scores, axis=-1, kind="stable")[..., :k].astype(np.int64, copy=False)
    return ids, np.take_along_axis(scores, ids, axis=-1)


def img_text_concat(frames: np.ndarray, tables: dict[str, TextEmbeddingTable]) -> np.ndarray:
    """Mean-pooled image descriptor plus the top-1 text embedding per category.

    The mean-pooled descriptor is the retrieval query for all four
    categories. Selected rows are L2-normalized before concatenation, and the
    block order is fixed: image, noun, verb, scenario, place. Maps
    (..., N, c) to (..., 5c) in the dtype of ``frames``.
    """
    image = mean_pool(frames)
    c = image.shape[-1]
    for category in CONCAT_CATEGORIES:
        if category not in tables:
            raise ValidationError(f"missing text table for category {category!r}")
        if tables[category].width != c:
            raise ValidationError(
                f"text table {category!r} width {tables[category].width} does not match frame width {c}"
            )
    blocks = [image]
    for category in CONCAT_CATEGORIES:
        ids, _ = rank_labels(image, tables[category], 1)
        rows = tables[category].embeddings[ids[..., 0]]
        blocks.append(rows / _row_norms(rows))
    return np.concatenate(blocks, axis=-1, dtype=image.dtype)


# ---------------------------------------------------------------------------
# cross-attention aggregation
# ---------------------------------------------------------------------------


class CrossAttention(Module):
    """Projections for single-query multi-head attention over frames.

    W_q, W_k, W_v: (c, d_attn); W_o: (d_attn, c); no biases; symmetric-uniform
    init scaled by 1/sqrt(fan_in). d_attn must be divisible by n_heads.
    :func:`cross_attention_backward` writes the projection gradients into
    ``grads``. ``LtaModel`` also registers the query it attends with here,
    as ``query``.
    """

    def __init__(self, rng: np.random.Generator | None, c: int, d_attn: int, n_heads: int, dtype=np.float64):
        super().__init__()
        if d_attn % n_heads != 0:
            raise ValidationError(f"d_attn={d_attn} must be divisible by n_heads={n_heads}")
        self.n_heads = n_heads
        bq = 1.0 / np.sqrt(c)
        bo = 1.0 / np.sqrt(d_attn)
        self.W_q, self.dW_q = self.param("W_q", init_uniform(rng, bq, (c, d_attn), dtype))
        self.W_k, self.dW_k = self.param("W_k", init_uniform(rng, bq, (c, d_attn), dtype))
        self.W_v, self.dW_v = self.param("W_v", init_uniform(rng, bq, (c, d_attn), dtype))
        self.W_o, self.dW_o = self.param("W_o", init_uniform(rng, bo, (d_attn, c), dtype))

    @property
    def c(self) -> int:
        return self.W_q.shape[0]

    @property
    def d_head(self) -> int:
        return self.W_q.shape[1] // self.n_heads


def cross_attention_forward(params: CrossAttention, query: np.ndarray,
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


def cross_attention_backward(params: CrossAttention, cache: dict,
                             d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward of the batched forward pass; d_out is (B, c).

    Writes the W_q, W_k, W_v and W_o gradients into ``params.grads``,
    overwriting what they held, and returns (d_query (c,), d_frames
    (B, N, c)); d_query is summed over the batch because the query is
    shared.
    """
    weights, Kh, Vh, qh = cache["weights"], cache["Kh"], cache["Vh"], cache["qh"]
    rows = cache["rows"]
    B, H, N, dh = Kh.shape

    np.matmul(cache["concat"].T, d_out, out=params.dW_o)
    d_heads = (d_out @ params.W_o.T).reshape(B, H, dh)

    d_weights = (Vh @ d_heads[..., None])[..., 0]           # (B, H, N)
    dVh = weights[..., None] * d_heads[:, :, None, :]       # (B, H, N, dh)
    d_scores = softmax_backward(weights, d_weights) / math.sqrt(dh)

    dq = (d_scores[:, :, None, :] @ Kh).sum(axis=0).reshape(H * dh)
    dKh = d_scores[..., None] * qh[:, None, :]
    np.outer(cache["query"], dq, out=params.dW_q)
    d_query = params.W_q @ dq

    dK, dV = _merge_heads(dKh), _merge_heads(dVh)           # (B*N, d_attn)
    np.matmul(rows.T, dK, out=params.dW_k)
    np.matmul(rows.T, dV, out=params.dW_v)
    d_frames = (dK @ params.W_k.T + dV @ params.W_v.T).reshape(B, N, -1)
    return d_query, d_frames


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
    frame = np.asarray(frame)
    if frame.ndim != 1:
        raise ValidationError(f"probe frame must be a vector, got shape {frame.shape}")
    for category in CONCAT_CATEGORIES:
        if category not in tables:
            raise ValidationError(f"missing text table for category {category!r}")
    for category in ("verb", "noun"):
        if len(tables[category]) < 3:
            raise ValidationError(
                f"{category} vocabulary too small for a top-3 probe ({len(tables[category])} rows)"
            )

    def top(category: str, k: int) -> list[tuple[int, float]]:
        ids, scores = rank_labels(frame, tables[category], k)
        return [(int(i), float(s)) for i, s in zip(ids, scores)]

    return ProbeReport(
        top1_place=top("place", 1)[0],
        top1_scenario=top("scenario", 1)[0],
        top3_verbs=top("verb", 3),
        top3_nouns=top("noun", 3),
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
