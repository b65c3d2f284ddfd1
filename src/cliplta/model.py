"""Anticipation pipeline: fuse per-clip descriptors, aggregate, decode.

Per input clip, the video-network descriptor and the frame-aggregation
descriptor are concatenated across channels into one token. A stack of
transformer encoder layers with learned positional embeddings mixes the
input-clip tokens (clip order matters here, unlike frame order inside a
clip), and a decoder block of Z learned step queries cross-attends to the
encoder output. Two linear heads emit per-step verb and noun logits.

Variants select what goes into the token:

* ``baseline``            - video descriptor only
* ``clip_img_only``       - mean-pooled frame embeddings only
* ``img_plus_clip``       - video + mean pool
* ``img_plus_clip_text``  - video + mean pool + top-1 text embeddings (5c)
* ``clip_attention``      - video + cross-attention aggregation, trained
                            end-to-end through the aggregator

All forward/backward passes are deterministic functions of (parameters,
inputs); sampling takes an explicit seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn
from .aggregate import (
    CrossAttentionParams,
    cross_attention_backward,
    cross_attention_forward,
    init_cross_attention,
)
from .errors import ValidationError, read_json_object
from .featurestore import stub_embed
from .taxonomy import GroundTruthSequence

VARIANTS = ("baseline", "clip_img_only", "img_plus_clip", "img_plus_clip_text", "clip_attention")

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
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        for name in ("n_verbs", "n_nouns", "c", "d_video", "n_input_clips", "Z", "n_layers", "n_heads_agg"):
            if getattr(self, name) < 1:
                raise ValidationError(f"config field {name} must be >= 1")
        if self.d_model % self.n_heads_agg != 0:
            raise ValidationError(
                f"d_model={self.d_model} (variant {self.variant!r}) not divisible by n_heads_agg={self.n_heads_agg}"
            )
        if self.variant == "clip_attention" and self.attn_width % self.n_heads_ca != 0:
            raise ValidationError(
                f"d_attn={self.attn_width} not divisible by n_heads_ca={self.n_heads_ca}"
            )

    @property
    def uses_video(self) -> bool:
        return self.variant != "clip_img_only"

    @property
    def d_clip(self) -> int:
        """Width of the frame-aggregation descriptor entering the fused token."""
        if self.variant == "baseline":
            return 0
        if self.variant == "img_plus_clip_text":
            return 5 * self.c
        return self.c

    @property
    def d_model(self) -> int:
        return (self.d_video if self.uses_video else 0) + self.d_clip

    @property
    def ffn_width(self) -> int:
        return self.d_ff if self.d_ff > 0 else 4 * self.d_model

    @property
    def attn_width(self) -> int:
        return self.d_attn if self.d_attn > 0 else self.c


@dataclass(frozen=True)
class FusedClipToken:
    vector: np.ndarray

    def __post_init__(self):
        vector = np.asarray(self.vector)
        if vector.ndim != 1 or vector.shape[0] < 1:
            raise ValidationError(f"fused token must be a non-empty vector, got shape {vector.shape}")
        if not np.all(np.isfinite(vector)):
            raise ValidationError("fused token contains non-finite values")
        object.__setattr__(self, "vector", vector)

    @property
    def width(self) -> int:
        return self.vector.shape[0]


def fuse(video, clip_desc, config: LtaModelConfig) -> FusedClipToken:
    """Concatenate [video ‖ clip descriptor] per the active variant.

    ``video`` is ignored for clip_img_only (pass None) and ``clip_desc`` for
    baseline; widths are checked against the config.
    """
    parts = []
    if config.uses_video:
        if video is None:
            raise ValidationError(f"variant {config.variant!r} requires a video descriptor")
        vec = video.vector if hasattr(video, "vector") else np.asarray(video)
        if vec.shape[0] != config.d_video:
            raise ValidationError(f"video width {vec.shape[0]} does not match d_video={config.d_video}")
        parts.append(vec)
    if config.d_clip > 0:
        if clip_desc is None:
            raise ValidationError(f"variant {config.variant!r} requires a clip descriptor")
        vec = clip_desc.vector if hasattr(clip_desc, "vector") else np.asarray(clip_desc)
        if vec.shape[0] != config.d_clip:
            raise ValidationError(
                f"clip descriptor width {vec.shape[0]} does not match d_clip={config.d_clip} "
                f"for variant {config.variant!r}"
            )
        parts.append(vec)
    return FusedClipToken(vector=np.concatenate(parts))


@dataclass(frozen=True)
class StepLogits:
    verb_logits: np.ndarray
    noun_logits: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.verb_logits)
        n = np.asarray(self.noun_logits)
        if v.ndim != 2 or n.ndim != 2 or v.shape[0] != n.shape[0]:
            raise ValidationError("step logits must be (Z, n_verbs) and (Z, n_nouns) matrices")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(n))):
            raise ValidationError("step logits contain non-finite values")
        object.__setattr__(self, "verb_logits", v)
        object.__setattr__(self, "noun_logits", n)

    @property
    def Z(self) -> int:
        return self.verb_logits.shape[0]


@dataclass(frozen=True)
class PredictionSet:
    example_id: str
    verb_seqs: np.ndarray   # (K, Z) ints
    noun_seqs: np.ndarray

    def __post_init__(self):
        try:
            v = np.asarray(self.verb_seqs, dtype=np.int64)
            n = np.asarray(self.noun_seqs, dtype=np.int64)
        except (ValueError, TypeError) as e:
            raise ValidationError(f"prediction sequences are not rectangular integer lists: {e}") from e
        if v.ndim != 2 or v.shape != n.shape:
            raise ValidationError("prediction sets must be matching (K, Z) integer matrices")
        object.__setattr__(self, "verb_seqs", v)
        object.__setattr__(self, "noun_seqs", n)

    @property
    def K(self) -> int:
        return self.verb_seqs.shape[0]

    @property
    def Z(self) -> int:
        return self.verb_seqs.shape[1]


class LtaModel:
    """Aggregator + decoder with hand-written backward passes.

    Parameters live in flat name -> array dicts (see ``named_parameters``)
    and are updated in place by the training loop. Construction is fully
    determined by (config, dtype): initialization draws come from one seeded
    generator in a fixed order.
    """

    def __init__(self, config: LtaModelConfig, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(config.seed)
        D = config.d_model

        self.ca_params: CrossAttentionParams | None = None
        self.query: np.ndarray | None = None
        if config.variant == "clip_attention":
            self.ca_params = init_cross_attention(rng, config.c, config.attn_width, config.n_heads_ca, dtype)
            if config.learned_query:
                bound = 1.0 / np.sqrt(config.c)
                self.query = rng.uniform(-bound, bound, config.c).astype(dtype)
            else:
                # prompt embedded by the same stub text encoder the harness
                # uses for label tables; a real deployment overwrites this
                # buffer from the checkpoint produced by the adapter
                self.query = stub_embed(config.text_seed, config.attention_prompt, config.c).astype(dtype)
            self._ca_grads = {k: np.zeros_like(v) for k, v in self.ca_params.named_arrays().items()}
            self._d_query = np.zeros_like(self.query)

        bound = 1.0 / np.sqrt(D)
        self.pos_embed = rng.uniform(-bound, bound, (config.n_input_clips, D)).astype(dtype)
        self._d_pos_embed = np.zeros_like(self.pos_embed)

        self.encoder = [
            nn.TransformerEncoderLayer(rng, D, config.n_heads_agg, config.ffn_width, dtype)
            for _ in range(config.n_layers)
        ]

        self.step_queries = rng.uniform(-bound, bound, (config.Z, D)).astype(dtype)
        self._d_step_queries = np.zeros_like(self.step_queries)
        self.dec_attn = nn.MultiHeadAttention(rng, D, config.n_heads_agg, dtype)
        self.dec_ln1 = nn.LayerNorm(D, dtype)
        self.dec_ffn = nn.FeedForward(rng, D, config.ffn_width, dtype)
        self.dec_ln2 = nn.LayerNorm(D, dtype)
        self.verb_head = nn.Linear(rng, D, config.n_verbs, dtype)
        self.noun_head = nn.Linear(rng, D, config.n_nouns, dtype)

    # -- parameter registry ---------------------------------------------

    def _modules(self):
        mods = [(f"encoder.{i}", layer) for i, layer in enumerate(self.encoder)]
        mods += [
            ("decoder.attn", self.dec_attn),
            ("decoder.ln1", self.dec_ln1),
            ("decoder.ffn", self.dec_ffn),
            ("decoder.ln2", self.dec_ln2),
            ("verb_head", self.verb_head),
            ("noun_head", self.noun_head),
        ]
        return mods

    def named_parameters(self) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        if self.ca_params is not None:
            for k, v in self.ca_params.named_arrays().items():
                params[f"aggregator.{k}"] = v
            params["aggregator.query"] = self.query
        params["pos_embed"] = self.pos_embed
        params["step_queries"] = self.step_queries
        for prefix, mod in self._modules():
            params.update(dict(mod.named_parameters(prefix)))
        return params

    def named_grads(self) -> dict[str, np.ndarray]:
        grads: dict[str, np.ndarray] = {}
        if self.ca_params is not None:
            for k, v in self._ca_grads.items():
                grads[f"aggregator.{k}"] = v
            grads["aggregator.query"] = self._d_query
        grads["pos_embed"] = self._d_pos_embed
        grads["step_queries"] = self._d_step_queries
        for prefix, mod in self._modules():
            grads.update(dict(mod.named_grads(prefix)))
        return grads

    def trainable_names(self) -> list[str]:
        names = list(self.named_parameters())
        if self.ca_params is not None and not self.config.learned_query:
            names.remove("aggregator.query")
        return names

    def zero_grad(self):
        if self.ca_params is not None:
            for g in self._ca_grads.values():
                g[...] = 0
            self._d_query[...] = 0
        self._d_pos_embed[...] = 0
        self._d_step_queries[...] = 0
        for _, mod in self._modules():
            mod.zero_grad()

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
        if cfg.variant == "clip_attention":
            frames = np.asarray(batch["frames"], dtype=self.dtype)
            if frames.ndim != 4 or frames.shape[3] != cfg.c:
                raise ValidationError(f"frames batch must be (B, T, N, {cfg.c}), got {frames.shape}")
            B, T, N, c = frames.shape
            out, ca_cache = cross_attention_forward(self.ca_params, self.query, frames.reshape(B * T, N, c))
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

    def forward_tokens(self, tokens: np.ndarray):
        """Aggregate fused tokens and decode logits.

        tokens: (B, T, d_model). Returns (verb_logits (B, Z, n_verbs),
        noun_logits (B, Z, n_nouns), cache).
        """
        if tokens.ndim != 3 or tokens.shape[2] != self.config.d_model:
            raise ValidationError(
                f"tokens must be (B, {self.config.n_input_clips}, {self.config.d_model}), got {tokens.shape}"
            )
        B = tokens.shape[0]
        x = tokens + self.pos_embed
        enc_caches = []
        for layer in self.encoder:
            x, c = layer.forward(x)
            enc_caches.append(c)
        enc_out = x

        qb = np.broadcast_to(self.step_queries, (B,) + self.step_queries.shape).astype(self.dtype, copy=False)
        a, c_attn = self.dec_attn.forward(qb, enc_out)
        y1, c_ln1 = self.dec_ln1.forward(qb + a)
        f, c_ffn = self.dec_ffn.forward(y1)
        y2, c_ln2 = self.dec_ln2.forward(y1 + f)
        verb_logits, c_vh = self.verb_head.forward(y2)
        noun_logits, c_nh = self.noun_head.forward(y2)
        cache = (enc_caches, c_attn, c_ln1, c_ffn, c_ln2, c_vh, c_nh)
        return verb_logits, noun_logits, cache

    def backward_tokens(self, cache, d_verb: np.ndarray, d_noun: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; returns the gradient w.r.t. tokens."""
        enc_caches, c_attn, c_ln1, c_ffn, c_ln2, c_vh, c_nh = cache
        dy2 = self.verb_head.backward(c_vh, d_verb) + self.noun_head.backward(c_nh, d_noun)
        dh2 = self.dec_ln2.backward(c_ln2, dy2)
        dy1 = dh2 + self.dec_ffn.backward(c_ffn, dh2)
        dh1 = self.dec_ln1.backward(c_ln1, dy1)
        dqb, d_enc = self.dec_attn.backward(c_attn, dh1)
        self._d_step_queries += (dh1 + dqb).sum(axis=0)
        dx = d_enc
        for layer, c in zip(reversed(self.encoder), reversed(enc_caches)):
            dx = layer.backward(c, dx)
        self._d_pos_embed += dx.sum(axis=0)
        return dx

    def forward_batch(self, batch: dict):
        tokens, ca_cache = self.featurize_batch(batch)
        verb_logits, noun_logits, cache = self.forward_tokens(tokens)
        return verb_logits, noun_logits, (cache, ca_cache, tokens.shape)

    def backward_batch(self, cache, d_verb: np.ndarray, d_noun: np.ndarray) -> None:
        token_cache, ca_cache, token_shape = cache
        d_tokens = self.backward_tokens(token_cache, d_verb, d_noun)
        if ca_cache is not None:
            B, T, _ = token_shape
            d_clip = d_tokens[..., -self.config.c:].reshape(B * T, self.config.c)
            grads, d_query, _ = cross_attention_backward(self.ca_params, ca_cache, d_clip)
            for k, g in grads.items():
                self._ca_grads[k] += g
            self._d_query += d_query

    def forward(self, tokens) -> StepLogits:
        """Single-example decode from a list of fused clip tokens."""
        vecs = [t.vector if isinstance(t, FusedClipToken) else np.asarray(t) for t in tokens]
        if len(vecs) != self.config.n_input_clips:
            raise ValidationError(
                f"expected {self.config.n_input_clips} tokens, got {len(vecs)}"
            )
        arr = np.stack(vecs).astype(self.dtype)[None]
        verb_logits, noun_logits, _ = self.forward_tokens(arr)
        return StepLogits(verb_logits=verb_logits[0], noun_logits=noun_logits[0])


def anticipation_loss(logits: StepLogits, gt: GroundTruthSequence) -> float:
    """Mean over steps of verb cross-entropy plus noun cross-entropy."""
    if len(gt.actions) != logits.Z:
        raise ValidationError(
            f"ground truth length {len(gt.actions)} does not match horizon Z={logits.Z}"
        )
    nll_v, _ = nn.cross_entropy_with_logits(np.asarray(logits.verb_logits, dtype=np.float64),
                                            np.array(gt.verb_ids))
    nll_n, _ = nn.cross_entropy_with_logits(np.asarray(logits.noun_logits, dtype=np.float64),
                                            np.array(gt.noun_ids))
    return float((nll_v + nll_n).mean())


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


def sample_candidates(logits: StepLogits, K: int, temperature: float, seed: int,
                      example_id: str = "") -> PredictionSet:
    """K candidate sequences: per-step argmax first, then seeded samples.

    Candidate 0 is deterministic greedy decoding. Candidates 1..K-1 draw each
    step independently from softmax(logits / temperature) using a fresh
    generator seeded with ``seed`` (verbs for all steps, then nouns, per
    candidate), so the whole set is reproducible from the arguments alone.
    """
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")
    if not temperature > 0:
        raise ValidationError(f"temperature must be > 0, got {temperature}")
    verb = np.asarray(logits.verb_logits, dtype=np.float64)
    noun = np.asarray(logits.noun_logits, dtype=np.float64)
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
    return PredictionSet(
        example_id=example_id,
        verb_seqs=np.stack(verb_rows),
        noun_seqs=np.stack(noun_rows),
    )


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
    ckpt_dir = Path(ckpt_dir)
    config_path = ckpt_dir / CONFIG_FILE
    if not config_path.is_file():
        raise ValidationError(f"no checkpoint at {ckpt_dir} (missing {CONFIG_FILE})")
    config = LtaModelConfig(**read_json_object(config_path, "checkpoint config"))
    manifest = read_json_object(ckpt_dir / PARAMS_MANIFEST, "checkpoint manifest")
    model = LtaModel(config, dtype=dtype)
    params = model.named_parameters()
    if set(manifest) != set(params):
        missing = set(params) - set(manifest)
        extra = set(manifest) - set(params)
        raise ValidationError(f"checkpoint parameter mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for name, entry in manifest.items():
        target = params[name]
        if list(target.shape) != entry["shape"]:
            raise ValidationError(f"parameter {name} shape {entry['shape']} does not match {list(target.shape)}")
        data = (ckpt_dir / entry["file"]).read_bytes()
        if len(data) != target.size * 4:
            raise ValidationError(f"parameter blob {entry['file']} has wrong size")
        target[...] = np.frombuffer(data, dtype="<f4").reshape(target.shape).astype(dtype)
    return model


def write_predictions(path: str | Path, predictions: list[PredictionSet], Z: int, K: int,
                      taxonomy_sha256: str) -> None:
    for pred in predictions:
        if pred.Z != Z or pred.K != K:
            raise ValidationError(
                f"prediction for {pred.example_id!r} has shape (K={pred.K}, Z={pred.Z}); expected ({K}, {Z})"
            )
    payload = {
        "version": 1,
        "Z": Z,
        "K": K,
        "taxonomy_sha256": taxonomy_sha256,
        "predictions": {
            p.example_id: {"verb": p.verb_seqs.tolist(), "noun": p.noun_seqs.tolist()}
            for p in sorted(predictions, key=lambda p: p.example_id)
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        # dumps, unlike dump, uses the C encoder; the bytes are the same
        f.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def read_predictions(path: str | Path) -> tuple[dict, int, int, str]:
    """Returns (predictions dict, Z, K, taxonomy_sha256)."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"prediction file not found: {path}")
    payload = read_json_object(path, "prediction file")
    if payload.get("version") != 1:
        raise ValidationError(f"unsupported prediction file version {payload.get('version')!r}")
    for key in ("Z", "K", "taxonomy_sha256", "predictions"):
        if key not in payload:
            raise ValidationError(f"prediction file missing key '{key}'")
    return payload["predictions"], int(payload["Z"]), int(payload["K"]), payload["taxonomy_sha256"]
