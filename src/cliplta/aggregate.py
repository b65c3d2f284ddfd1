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
  which writes every gradient of its :class:`CrossAttention`, the query's
  too, as the layers of :mod:`cliplta.nn` do.

None of these apply positional information, so all three are invariant to
frame order. ``rank_labels`` is the one cosine label ranker: it maps query
rows (..., c) to the top-k ids (..., k) int64 and their scores (..., k)
float64. ``img_text_concat`` retrieves with it, and so does the zero-shot
probe of every frame of a clip, ``zero_shot_probe``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .featurestore import TextEmbeddingTable
from .nn import Module, attention, attention_backward, init_uniform, merge_heads, split_heads
from .taxonomy import Taxonomy

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
    The owner registers the query it attends with here, as ``query``
    (``LtaModel`` does); :func:`cross_attention_backward` writes the
    gradients of all five into ``grads``.
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


def cross_attention_forward(params: CrossAttention, query: np.ndarray,
                            frames: np.ndarray) -> tuple[np.ndarray, dict]:
    """Batched forward pass; frames has shape (B, N, c), query (c,).

    The query and the frames are projected, :func:`cliplta.nn.attention`
    lets the one query row of each head (H, 1, d_head), broadcast over the
    batch, attend over the frames' keys and values, and the merged heads
    are projected back to width c. The projections run as 2-D GEMMs over
    all B*N frames.

    Returns (descriptors (B, c), cache) where the cache carries everything
    the backward pass needs, including the attention weights (B, H, 1, N).
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
    H = params.n_heads

    rows = frames.reshape(B * N, c)
    Qh = split_heads((query @ params.W_q)[None], H)         # (H, 1, dh)
    Kh = split_heads((rows @ params.W_k).reshape(B, N, -1), H)   # (B, H, N, dh)
    Vh = split_heads((rows @ params.W_v).reshape(B, N, -1), H)
    ctx, weights = attention(Qh, Kh, Vh)
    concat = merge_heads(ctx).reshape(B, -1)
    out = concat @ params.W_o                   # (B, c)
    cache = {
        "query": query, "rows": rows, "Qh": Qh, "Kh": Kh, "Vh": Vh,
        "weights": weights, "concat": concat,
    }
    return out, cache


def cross_attention_backward(params: CrossAttention, cache: dict, d_out: np.ndarray) -> None:
    """Backward of the batched forward pass; d_out is (B, c).

    Writes the W_q, W_k, W_v, W_o and ``query`` gradients into
    ``params.grads``, overwriting what they held; the query gradient is
    summed over the batch because the query is shared. Frames are inputs,
    not parameters, so no frame gradient is computed.
    """
    Qh, Kh, Vh, rows = cache["Qh"], cache["Kh"], cache["Vh"], cache["rows"]
    B, H, N, _ = Kh.shape

    np.matmul(cache["concat"].T, d_out, out=params.dW_o)
    d_ctx = split_heads((d_out @ params.W_o.T)[:, None], H)  # (B, H, 1, dh)
    dQh, dKh, dVh = attention_backward(Qh, Kh, Vh, cache["weights"], d_ctx)

    dq = dQh.sum(axis=0).reshape(-1)
    np.outer(cache["query"], dq, out=params.dW_q)
    np.matmul(params.W_q, dq, out=params.grads["query"])
    np.matmul(rows.T, merge_heads(dKh).reshape(B * N, -1), out=params.dW_k)
    np.matmul(rows.T, merge_heads(dVh).reshape(B * N, -1), out=params.dW_v)


# ---------------------------------------------------------------------------
# zero-shot probe
# ---------------------------------------------------------------------------


# the probe's record keys in record order: (key, category, k); a top-1 key holds one [id, score] pair
_PROBE = (("place", "place", 1), ("scenario", "scenario", 1), ("verbs", "verb", 3), ("nouns", "noun", 3))


def zero_shot_probe(frames: np.ndarray, tables: dict[str, TextEmbeddingTable], taxonomy: Taxonomy) -> list[dict]:
    """Rank labels for every frame embedding of ``frames`` (N, c); one JSON-ready record per frame.

    A record holds the frame index, the top-1 place and scenario and the
    top-3 verbs and nouns as [id, score] pairs, and their names under
    ``names``; verb and noun vocabularies therefore need at least 3 entries.
    Each category is one ``rank_labels`` call over all frames.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValidationError(f"probe frames must have shape (N, c), got shape {frames.shape}")
    for category in CONCAT_CATEGORIES:
        if category not in tables:
            raise ValidationError(f"missing text table for category {category!r}")
    for category in ("verb", "noun"):
        if len(tables[category]) < 3:
            raise ValidationError(
                f"{category} vocabulary too small for a top-3 probe ({len(tables[category])} rows)"
            )
    zero = np.flatnonzero(_row_norms(frames)[:, 0] == 0)
    if zero.size:
        raise ValidationError(f"frame {zero[0]} is a zero vector; cannot rank labels against it")
    ranked = [(key, taxonomy.vocab(category), k, *rank_labels(frames, tables[category], k))
              for key, category, k in _PROBE]
    records = []
    for i in range(len(frames)):
        record, names = {"frame": i}, {}
        for key, vocab, k, ids, scores in ranked:
            pairs = [[j, score] for j, score in zip(ids[i].tolist(), scores[i].tolist())]
            labels = [vocab[j] for j, _ in pairs]
            record[key], names[key] = (pairs[0], labels[0]) if k == 1 else (pairs, labels)
        record["names"] = names
        records.append(record)
    return records
