"""Anticipation pipeline: fuse per-clip descriptors, aggregate, decode.

Per input clip, the video-network descriptor and the frame-aggregation
descriptor are concatenated across channels into one token. A stack of
transformer encoder layers with learned positional embeddings mixes the
input-clip tokens (clip order matters here, unlike frame order inside a
clip). The decoder is one ``nn.TransformerLayer`` whose Z learned step
queries attend over the encoder output. Two linear heads emit per-step verb
and noun logits.

Variants select what goes into the token. ``VARIANTS`` is their one
definition: every site that depends on the variant reads it there.

* ``baseline``            - video descriptor only
* ``clip_img_only``       - mean-pooled frame embeddings only
* ``img_plus_clip``       - video + mean pool
* ``img_plus_clip_text``  - video + mean pool + top-1 text embeddings (5c)
* ``clip_attention``      - video + cross-attention aggregation, trained
                            end-to-end through the aggregator

All forward/backward passes are deterministic functions of (parameters,
inputs). Candidate sampling and the prediction file work on (B, K, Z)
arrays; sampling takes one explicit seed per example.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import nn
from .aggregate import CrossAttention, cross_attention_backward, cross_attention_forward
from .errors import NumericError, ValidationError, read_blob, read_json_object, require, require_file_name
from .featurestore import stub_embed


class Variant(NamedTuple):
    uses_video: bool
    clip_source: str    # "none", "mean", "text" or "attention"


# the ablation: the one definition of each variant
VARIANTS = {
    "baseline": Variant(uses_video=True, clip_source="none"),
    "clip_img_only": Variant(uses_video=False, clip_source="mean"),
    "img_plus_clip": Variant(uses_video=True, clip_source="mean"),
    "img_plus_clip_text": Variant(uses_video=True, clip_source="text"),
    "clip_attention": Variant(uses_video=True, clip_source="attention"),
}

# width of the clip descriptor from each source, in multiples of c
CLIP_WIDTH = {"none": 0, "mean": 1, "text": 5, "attention": 1}


def variant_spec(name: str) -> Variant:
    """The table row of variant ``name``; an unknown name is a validation error."""
    if name not in VARIANTS:
        raise ValidationError(f"unknown variant {name!r}; expected one of {tuple(VARIANTS)}")
    return VARIANTS[name]


DEFAULT_ATTENTION_PROMPT = "a video of a person performing an action"


@dataclass
class LtaModelConfig:
    variant: str
    n_verbs: int
    n_nouns: int
    c: int = 512
    d_video: int = 2048
    n_input_clips: int = 2
    Z: int = 20
    n_layers: int = 6
    n_heads_agg: int = 8
    d_ff: int = 0               # 0 -> 4 * d_model
    d_attn: int = 0             # 0 -> c (clip_attention only)
    n_heads_ca: int = 8
    learned_query: bool = False
    attention_prompt: str = DEFAULT_ATTENTION_PROMPT
    label_template: str = "a photo of {}"
    text_seed: int = 100
    seed: int = 0

    def __post_init__(self):
        variant_spec(self.variant)
        for name in ("n_verbs", "n_nouns", "c", "d_video", "n_input_clips", "Z", "n_layers", "n_heads_agg"):
            if getattr(self, name) < 1:
                raise ValidationError(f"config field {name} must be >= 1")
        if self.d_model % self.n_heads_agg != 0:
            raise ValidationError(
                f"d_model={self.d_model} (variant {self.variant!r}) not divisible by n_heads_agg={self.n_heads_agg}"
            )
        if self.clip_source == "attention" and self.attn_width % self.n_heads_ca != 0:
            raise ValidationError(
                f"d_attn={self.attn_width} not divisible by n_heads_ca={self.n_heads_ca}"
            )

    @property
    def uses_video(self) -> bool:
        return VARIANTS[self.variant].uses_video

    @property
    def clip_source(self) -> str:
        return VARIANTS[self.variant].clip_source

    @property
    def d_clip(self) -> int:
        """Width of the frame-aggregation descriptor entering the fused token."""
        return CLIP_WIDTH[self.clip_source] * self.c

    @property
    def d_model(self) -> int:
        return (self.d_video if self.uses_video else 0) + self.d_clip

    @property
    def ffn_width(self) -> int:
        return self.d_ff if self.d_ff > 0 else 4 * self.d_model

    @property
    def attn_width(self) -> int:
        return self.d_attn if self.d_attn > 0 else self.c


class LtaModel(nn.Module):
    """Aggregator + decoder with hand-written backward passes.

    Parameters live in the :class:`nn.Module` registry (see
    ``named_parameters``) and are updated in place by the training loop.
    Construction is fully determined by (config, dtype): initialization
    draws come from one seeded generator in a fixed order. With
    ``init=False`` it draws nothing and leaves the parameters
    uninitialised; :func:`load_checkpoint` builds the model that way and
    then fills every parameter from its blob.
    """

    def __init__(self, config: LtaModelConfig, dtype=np.float32, *, init: bool = True):
        super().__init__()
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(config.seed) if init else None
        D = config.d_model

        self.aggregator = None
        if config.clip_source == "attention":
            self.aggregator = self.child("aggregator", CrossAttention(
                rng, config.c, config.attn_width, config.n_heads_ca, dtype))
            if config.learned_query or rng is None:
                # without a generator the loader fills the query from its blob
                query = nn.init_uniform(rng, 1.0 / np.sqrt(config.c), config.c, dtype)
            else:
                # prompt embedded by the same stub text encoder the harness
                # uses for label tables; a real deployment overwrites this
                # buffer from the checkpoint produced by the adapter
                query = stub_embed(config.text_seed, config.attention_prompt, config.c).astype(dtype)
            self.aggregator.param("query", query)

        bound = 1.0 / np.sqrt(D)
        self.pos_embed, self._d_pos_embed = self.param(
            "pos_embed", nn.init_uniform(rng, bound, (config.n_input_clips, D), dtype))

        def layer():
            return nn.TransformerLayer(rng, D, config.n_heads_agg, config.ffn_width, dtype)

        self.encoder = [self.child(f"encoder.{i}", layer()) for i in range(config.n_layers)]
        self.step_queries, self._d_step_queries = self.param(
            "step_queries", nn.init_uniform(rng, bound, (config.Z, D), dtype))
        self.decoder = d = self.child("decoder", layer())
        # the same objects under the names perfbench/spans.py wraps
        self.dec_attn, self.dec_ln1, self.dec_ffn, self.dec_ln2 = d.attn, d.ln1, d.ffn, d.ln2
        self.verb_head = self.child("verb_head", nn.Linear(rng, D, config.n_verbs, dtype))
        self.noun_head = self.child("noun_head", nn.Linear(rng, D, config.n_nouns, dtype))

    def trainable_names(self) -> list[str]:
        names = list(self.named_parameters())
        if self.aggregator is not None and not self.config.learned_query:
            names.remove("aggregator.query")
        return names

    # -- forward / backward ----------------------------------------------

    def featurize_batch(self, batch: dict) -> tuple[np.ndarray, dict | None]:
        """Fused tokens (B, T, d_model) from raw batch arrays.

        For clip_attention the aggregation runs inside the graph (frames
        (B, T, N, c) required); other variants take precomputed descriptors
        under "clip_desc".
        """
        cfg = self.config
        parts = []
        ca_cache = None
        if cfg.uses_video:
            video = np.asarray(batch["video"], dtype=self.dtype)
            if video.ndim != 3 or video.shape[2] != cfg.d_video:
                raise ValidationError(f"video batch must be (B, T, {cfg.d_video}), got {video.shape}")
            parts.append(video)
        if cfg.clip_source == "attention":
            frames = np.asarray(batch["frames"], dtype=self.dtype)
            if frames.ndim != 4 or frames.shape[3] != cfg.c:
                raise ValidationError(f"frames batch must be (B, T, N, {cfg.c}), got {frames.shape}")
            B, T, N, c = frames.shape
            agg = self.aggregator
            out, ca_cache = cross_attention_forward(agg, agg.params["query"], frames.reshape(B * T, N, c))
            parts.append(out.reshape(B, T, c))
        elif cfg.d_clip > 0:
            desc = np.asarray(batch["clip_desc"], dtype=self.dtype)
            if desc.ndim != 3 or desc.shape[2] != cfg.d_clip:
                raise ValidationError(f"clip_desc batch must be (B, T, {cfg.d_clip}), got {desc.shape}")
            parts.append(desc)
        tokens = np.concatenate(parts, axis=-1) if len(parts) > 1 else parts[0]
        if tokens.shape[1] != cfg.n_input_clips:
            raise ValidationError(
                f"expected {cfg.n_input_clips} input clips per example, got {tokens.shape[1]}"
            )
        return tokens, ca_cache

    def forward_batch(self, batch: dict):
        """Logits verb (B, Z, n_verbs) and noun (B, Z, n_nouns) of a raw batch, plus the cache."""
        tokens, ca_cache = self.featurize_batch(batch)
        x = tokens + self.pos_embed
        enc_caches = []
        for layer in self.encoder:
            x, c = layer.forward(x, x)
            enc_caches.append(c)
        B = tokens.shape[0]
        qb = np.broadcast_to(self.step_queries, (B,) + self.step_queries.shape).astype(self.dtype, copy=False)
        y, c_dec = self.decoder.forward(qb, x)
        verb_logits, c_vh = self.verb_head.forward(y)
        noun_logits, c_nh = self.noun_head.forward(y)
        return verb_logits, noun_logits, (ca_cache, enc_caches, c_dec, c_vh, c_nh)

    def backward_batch(self, cache, d_verb: np.ndarray, d_noun: np.ndarray) -> None:
        """Write every parameter gradient of the batch, overwriting the last step's.

        Each module's ``backward`` runs exactly once here and writes its own
        gradients, so no gradient needs zeroing first and none is summed
        over two calls.
        """
        ca_cache, enc_caches, c_dec, c_vh, c_nh = cache
        dy = self.verb_head.backward(c_vh, d_verb) + self.noun_head.backward(c_nh, d_noun)
        dqb, dx = self.decoder.backward(c_dec, dy)
        dqb.sum(axis=0, out=self._d_step_queries)
        for layer, c in zip(reversed(self.encoder), reversed(enc_caches)):
            dx, d_memory = layer.backward(c, dx)
            dx = dx + d_memory
        dx.sum(axis=0, out=self._d_pos_embed)
        if ca_cache is not None:
            B, T, _ = dx.shape
            d_clip = dx[..., -self.config.c:].reshape(B * T, -1)
            d_query, _ = cross_attention_backward(self.aggregator, ca_cache, d_clip)
            self.aggregator.grads["query"][...] = d_query


def batch_loss_and_grads(verb_logits: np.ndarray, noun_logits: np.ndarray,
                         verb_ids: np.ndarray, noun_ids: np.ndarray):
    """Batched anticipation loss and logit gradients.

    Loss is the mean over examples of the per-example loss (itself a mean
    over Z of the two cross-entropies), i.e. mean over (B, Z) of the summed
    verb/noun nll.
    """
    B, Z, _ = verb_logits.shape
    nll_v, d_v = nn.cross_entropy_with_logits(verb_logits, verb_ids)
    nll_n, d_n = nn.cross_entropy_with_logits(noun_logits, noun_ids)
    loss = float((nll_v + nll_n).mean())
    scale = 1.0 / (B * Z)
    return loss, d_v * scale, d_n * scale


def sample_candidates(verb_logits: np.ndarray, noun_logits: np.ndarray, K: int, temperature: float,
                      seeds: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Candidates verb, noun (B, K, Z) int64 from (B, Z, classes) logits: argmax, then samples.

    Example b draws ``default_rng(seeds[b]).random((K-1, 2, Z))``: per
    candidate, Z verb then Z noun uniforms. A step's id is the number of
    entries of its normalized float64 CDF of softmax(logits / temperature)
    that are <= its uniform, the id ``Generator.choice(p=...)`` gives.
    """
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")
    if not temperature > 0:
        raise ValidationError(f"temperature must be > 0, got {temperature}")
    verb = np.asarray(verb_logits, dtype=np.float64)
    noun = np.asarray(noun_logits, dtype=np.float64)
    if verb.ndim != 3 or noun.ndim != 3 or verb.shape[:2] != noun.shape[:2] or len(seeds) != len(verb):
        raise ValidationError(
            f"step logits must be (B, Z, n_verbs) and (B, Z, n_nouns) with B seeds; "
            f"got {verb.shape}, {noun.shape} and {len(seeds)} seeds"
        )
    if not (np.isfinite(verb).all() and np.isfinite(noun).all()):
        raise NumericError("step logits contain non-finite values")
    B, Z, _ = verb.shape
    if K > 1:
        uniforms = np.stack([np.random.default_rng(seed).random((K - 1, 2, Z)) for seed in seeds])
    out = []
    for kind, logits in enumerate((verb, noun)):
        ids = np.empty((B, K, Z), dtype=np.int64)
        ids[:, 0] = logits.argmax(axis=-1)
        if K > 1:
            cdf = np.cumsum(nn.softmax(logits / temperature), axis=-1)
            cdf /= cdf[..., -1:]
            ids[:, 1:] = (cdf[:, None] <= uniforms[:, :, kind, :, None]).sum(axis=-1)
        out.append(ids)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# checkpoint and prediction-file formats
# ---------------------------------------------------------------------------

PARAMS_MANIFEST = "params.json"
CONFIG_FILE = "config.json"


def save_checkpoint(model: LtaModel, ckpt_dir: str | Path) -> None:
    """Write config.json plus one float32 little-endian blob per parameter."""
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    with open(ckpt_dir / CONFIG_FILE, "w", encoding="utf-8") as f:
        json.dump(asdict(model.config), f, indent=2)
        f.write("\n")
    manifest = {}
    for name, arr in sorted(model.named_parameters().items()):
        filename = f"{name}.bin"
        (ckpt_dir / filename).write_bytes(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        manifest[name] = {"shape": list(arr.shape), "file": filename}
    with open(ckpt_dir / PARAMS_MANIFEST, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(ckpt_dir: str | Path, dtype=np.float32) -> LtaModel:
    """The model saved under ``ckpt_dir``, with parameters in ``dtype``.

    The model is built through ``LtaModel.__init__`` with ``init=False``, so
    loading draws no random init: each parameter is allocated once and filled
    by one copy from its ``<f4`` blob, read by ``errors.read_blob``, the
    store's reader. The checks stay: the config must be a valid
    :class:`LtaModelConfig`; the manifest must list exactly the model's
    parameters, each with its shape and a plain file name inside
    ``ckpt_dir``; each blob must exist and hold exactly that many float32
    values. A failed check raises ValidationError naming the manifest, the
    entry and the field.
    """
    ckpt_dir = Path(ckpt_dir)
    config_path = ckpt_dir / CONFIG_FILE
    if not config_path.is_file():
        raise ValidationError(f"no checkpoint at {ckpt_dir} (missing {CONFIG_FILE})")
    try:
        config = LtaModelConfig(**read_json_object(config_path, "checkpoint config"))
    except TypeError as e:
        raise ValidationError(f"checkpoint config {config_path}: {e}") from e
    manifest_path = ckpt_dir / PARAMS_MANIFEST
    manifest = read_json_object(manifest_path, "checkpoint manifest")
    model = LtaModel(config, dtype=dtype, init=False)
    params = model.named_parameters()
    if set(manifest) != set(params):
        missing = set(params) - set(manifest)
        extra = set(manifest) - set(params)
        raise ValidationError(f"checkpoint parameter mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    prefix = os.path.join(ckpt_dir, "")
    for name, entry in manifest.items():
        what = f"checkpoint manifest {manifest_path}: entry {name!r}"
        if not (isinstance(entry, dict) and isinstance(entry.get("shape"), list)
                and isinstance(entry.get("file"), str)):
            raise ValidationError(f"{what} must be an object with a list 'shape' and a string 'file'")
        filename = require_file_name(entry["file"], f"{what} 'file'")
        target = params[name]
        if list(target.shape) != entry["shape"]:
            raise ValidationError(f"{what} 'shape' {entry['shape']} does not match the model's {list(target.shape)}")
        try:
            target[...] = read_blob(prefix + filename, target.shape)
        except ValidationError as e:
            raise ValidationError(f"{what} 'file': {e}") from e
    return model


def write_predictions(path: str | Path, example_ids: list[str], verb: np.ndarray, noun: np.ndarray,
                      taxonomy_sha256: str) -> None:
    """Write candidates verb/noun (P, K, Z) of examples ``example_ids``; K and Z come from the shape."""
    verb = np.asarray(verb, dtype=np.int64)
    noun = np.asarray(noun, dtype=np.int64)
    if verb.ndim != 3 or verb.shape != noun.shape or len(example_ids) != len(verb):
        raise ValidationError(
            f"predictions must be matching (P, K, Z) id arrays for P={len(example_ids)} examples; "
            f"got {verb.shape} and {noun.shape}"
        )
    _, K, Z = verb.shape
    payload = {
        "version": 1,
        "Z": Z,
        "K": K,
        "taxonomy_sha256": taxonomy_sha256,
        # sort_keys orders the examples by id
        "predictions": {
            example_id: {"verb": v, "noun": n}
            for example_id, v, n in zip(example_ids, verb.tolist(), noun.tolist())
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        # dumps, unlike dump, uses the C encoder; the bytes are the same
        f.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def read_predictions(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray, str]:
    """Returns (example ids in sorted order, verb (P, K, Z) int64, noun (P, K, Z) int64, taxonomy_sha256).

    Every field is checked; a malformed file raises ValidationError naming
    the file, the example and the field.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"prediction file not found: {path}")
    payload = read_json_object(path, "prediction file")
    if payload.get("version") != 1:
        raise ValidationError(f"unsupported prediction file version {payload.get('version')!r}")
    what = f"prediction file {path}"
    Z = require(payload.get("Z"), int, f"{what}: 'Z'")
    K = require(payload.get("K"), int, f"{what}: 'K'")
    if Z < 1 or K < 1:
        raise ValidationError(f"{what}: 'Z' and 'K' must be >= 1, got Z={Z}, K={K}")
    taxonomy_sha256 = require(payload.get("taxonomy_sha256"), str, f"{what}: 'taxonomy_sha256'")
    predictions = require(payload.get("predictions"), dict, f"{what}: 'predictions'")
    example_ids = sorted(predictions)
    rows = {"verb": [], "noun": []}
    for example_id in example_ids:
        entry = require(predictions[example_id], dict, f"{what}: example {example_id!r}")
        for field, out in rows.items():
            seqs = entry.get(field)
            # type(...) is int: JSON integers, not bools
            if not (isinstance(seqs, list) and len(seqs) == K and all(
                    isinstance(seq, list) and len(seq) == Z and all(type(i) is int for i in seq)
                    for seq in seqs)):
                raise ValidationError(
                    f"{what}: example {example_id!r} '{field}' must be K={K} lists of Z={Z} integers"
                )
            out.append(seqs)
    try:
        verb, noun = (np.array(rows[field], dtype=np.int64).reshape(len(example_ids), K, Z) for field in rows)
    except OverflowError as e:
        raise ValidationError(f"{what}: 'predictions' holds an id outside the int64 range") from e
    return example_ids, verb, noun, taxonomy_sha256
