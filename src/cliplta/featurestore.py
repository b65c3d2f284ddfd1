"""Per-clip embeddings: deterministic stub encoders and a bit-exact on-disk store.

The store keeps one raw little-endian float32 blob per tensor plus a JSON
manifest, so round-trips are exact for any finite float32 value (negative
zero and denormals included) and the files can be produced by any language.
Real CLIP / video-network features are written by an offline adapter in the
same format; nothing in this package loads pretrained weights.

Read contract: each blob must hold exactly its shape's float32 values
(``(n_frames, c)`` frames, ``(d_video,)`` video), is read once straight into
its final array by ``errors.read_blob``, and must be finite. A failed check
is a ValidationError naming the manifest, the entry ``clips[i]`` and the
field.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ValidationError, read_blob, read_json_object, require, require_file_name
from .taxonomy import CATEGORIES, Taxonomy

MANIFEST_NAME = "manifest.json"
DTYPE_TAG = "f32le"


@dataclass(frozen=True)
class FrameEmbeddingSequence:
    """Per-frame embeddings for one clip, shape (n_frames, c)."""

    clip_id: str
    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ValidationError(
                f"frames for clip {self.clip_id!r} must be a non-empty 2-d matrix, got shape {frames.shape}"
            )
        if not np.isfinite(frames).all():
            raise ValidationError(f"frames for clip {self.clip_id!r} contain non-finite values")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def width(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class VideoDescriptor:
    """Opaque per-clip vector from the video network pathway."""

    clip_id: str
    vector: np.ndarray

    def __post_init__(self):
        vector = np.asarray(self.vector)
        if vector.ndim != 1 or vector.shape[0] < 1:
            raise ValidationError(
                f"video descriptor for clip {self.clip_id!r} must be a 1-d vector, got shape {vector.shape}"
            )
        if not np.isfinite(vector).all():
            raise ValidationError(f"video descriptor for clip {self.clip_id!r} contains non-finite values")
        object.__setattr__(self, "vector", vector)

    @property
    def width(self) -> int:
        return self.vector.shape[0]


def stub_embed(seed: int, token: str, c: int) -> np.ndarray:
    """Deterministic unit-norm stand-in for an image/text encoder.

    A pure function of (seed, token, c): the token is hashed into generator
    entropy, so results do not depend on process state, call order, or
    platform hash randomization. Distinct tokens give independent random
    directions, which are nearly orthogonal for large c.
    """
    if c < 2:
        raise ValidationError(f"stub_embed width must be >= 2, got {c}")
    digest = hashlib.blake2b(f"{seed}\x1f{token}".encode("utf-8"), digest_size=16).digest()
    entropy = int.from_bytes(digest, "little")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    v = rng.standard_normal(c)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class TextEmbeddingTable:
    """Prompted text embeddings for one category, rows aligned with taxonomy ids."""

    category: str
    embeddings: np.ndarray
    prompt_template: str

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValidationError(f"unknown category {self.category!r}; expected one of {CATEGORIES}")
        emb = np.asarray(self.embeddings, dtype=np.float64)
        if emb.ndim != 2 or emb.shape[0] < 1:
            raise ValidationError(f"text table for {self.category!r} must be a non-empty matrix")
        if not np.all(np.isfinite(emb)):
            raise ValidationError(f"text table for {self.category!r} contains non-finite values")
        norms = np.linalg.norm(emb, axis=1)
        if np.any(norms == 0):
            raise ValidationError(f"text table for {self.category!r} has a zero row; rows must be normalizable")
        object.__setattr__(self, "embeddings", emb)

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    @property
    def width(self) -> int:
        return self.embeddings.shape[1]

    def normalized(self) -> np.ndarray:
        return self.embeddings / np.linalg.norm(self.embeddings, axis=1, keepdims=True)


def build_text_table(
    taxonomy: Taxonomy,
    category: str,
    prompt_template: str,
    encoder: Callable[[str], np.ndarray],
) -> TextEmbeddingTable:
    """Encode every vocabulary entry through a prompt template.

    Row i is encoder(template with entry i substituted), so row order matches
    taxonomy ids by construction.
    """
    if prompt_template.count("{}") != 1:
        raise ValidationError(
            f"prompt template must contain exactly one '{{}}' placeholder, got {prompt_template!r}"
        )
    vocab = taxonomy.vocab(category)
    rows = [np.asarray(encoder(prompt_template.replace("{}", token)), dtype=np.float64) for token in vocab]
    widths = {row.shape for row in rows}
    if len(widths) != 1 or rows[0].ndim != 1:
        raise ValidationError(f"encoder returned inconsistent shapes for category {category!r}")
    return TextEmbeddingTable(category=category, embeddings=np.stack(rows), prompt_template=prompt_template)


def _clip_entry_id(entry) -> str:
    """The id of a manifest clip entry whose fields check out.

    A failed check's message starts at the field (``.n_frames must be ...``,
    or `` must be an object`` for the entry itself), for the caller to
    prefix with the entry's location.
    """
    require(entry, dict, "")
    clip_id = require(entry.get("id"), str, ".id")
    if require(entry.get("n_frames"), int, ".n_frames") < 1:
        raise ValidationError(f".n_frames must be >= 1, got {entry['n_frames']}")
    require_file_name(entry.get("frames_file"), ".frames_file")
    require_file_name(entry.get("video_file"), ".video_file")
    return clip_id


class FeatureStore:
    """Directory of per-clip blobs plus a manifest.

    Single-writer: create(), write_clip() repeatedly, then seal(). Readers
    open() a sealed store; concurrent reads are safe because nothing mutates
    after sealing.
    """

    def __init__(self, root: Path, c: int | None, d_video: int | None, *, writable: bool):
        self.root = Path(root)
        self._prefix = os.path.join(self.root, "")  # blob paths are this str plus a file name
        self.c = c
        self.d_video = d_video
        self._writable = writable
        self._clips: dict[str, dict] = {}

    # -- writer side ---------------------------------------------------

    @classmethod
    def create(cls, root: str | Path, c: int | None = None, d_video: int | None = None) -> "FeatureStore":
        """Start an empty store; widths may be left None to adopt the first write."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if (root / MANIFEST_NAME).exists():
            raise ValidationError(f"store already sealed at {root}")
        return cls(root, c, d_video, writable=True)

    def write_clip(self, frames: FrameEmbeddingSequence, video: VideoDescriptor) -> None:
        if not self._writable:
            raise ValidationError("store is sealed; writes are not allowed")
        if frames.clip_id != video.clip_id:
            raise ValidationError(f"clip id mismatch: {frames.clip_id!r} vs {video.clip_id!r}")
        clip_id = frames.clip_id
        if clip_id in self._clips:
            raise ValidationError(f"duplicate clip id {clip_id!r}")
        if self.c is None:
            self.c = frames.width
        elif frames.width != self.c:
            raise ValidationError(f"frame width {frames.width} does not match store width c={self.c}")
        if self.d_video is None:
            self.d_video = video.width
        elif video.width != self.d_video:
            raise ValidationError(
                f"video width {video.width} does not match store width d_video={self.d_video}"
            )
        index = len(self._clips)
        frames_file = f"clip_{index:06d}.frames.bin"
        video_file = f"clip_{index:06d}.video.bin"
        (self.root / frames_file).write_bytes(np.ascontiguousarray(frames.frames, dtype="<f4").tobytes())
        (self.root / video_file).write_bytes(np.ascontiguousarray(video.vector, dtype="<f4").tobytes())
        self._clips[clip_id] = {
            "id": clip_id,
            "n_frames": int(frames.n_frames),
            "frames_file": frames_file,
            "video_file": video_file,
        }

    def seal(self) -> None:
        """Finalize the manifest; the store becomes read-only."""
        if not self._writable:
            raise ValidationError("store is already sealed")
        manifest = {
            "c": int(self.c) if self.c is not None else 0,
            "d_video": int(self.d_video) if self.d_video is not None else 0,
            "dtype": DTYPE_TAG,
            "clips": list(self._clips.values()),
        }
        with open(self.root / MANIFEST_NAME, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
            f.write("\n")
        self._writable = False

    # -- reader side ---------------------------------------------------

    @classmethod
    def open(cls, root: str | Path) -> "FeatureStore":
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.is_file():
            raise ValidationError(f"no sealed store at {root} (missing {MANIFEST_NAME})")
        manifest = read_json_object(manifest_path, "store manifest")
        if manifest.get("dtype") != DTYPE_TAG:
            raise ValidationError(f"unsupported store dtype {manifest.get('dtype')!r}")
        where = f"store manifest {manifest_path}"
        c = require(manifest.get("c"), int, f"{where}: 'c'")
        d_video = require(manifest.get("d_video"), int, f"{where}: 'd_video'")
        for key, width in (("c", c), ("d_video", d_video)):
            if width < 1:
                raise ValidationError(f"{where}: '{key}' must be >= 1, got {width}")
        store = cls(root, c, d_video, writable=False)
        for i, entry in enumerate(require(manifest.get("clips"), list, f"{where}: 'clips'")):
            try:
                clip_id = _clip_entry_id(entry)
            except ValidationError as e:
                # the entry's location is built only for a failed check
                raise ValidationError(f"{where}: clips[{i}]{e}") from e
            if clip_id in store._clips:
                raise ValidationError(f"manifest lists clip {clip_id!r} twice")
            store._clips[clip_id] = entry
        return store

    def clip_ids(self) -> list[str]:
        return list(self._clips.keys())

    def __contains__(self, clip_id: str) -> bool:
        return clip_id in self._clips

    def where(self, clip_id: str, field: str) -> str:
        """Where ``field`` of clip ``clip_id`` sits in the manifest, for an error message."""
        return f"store manifest {self.root / MANIFEST_NAME}: clips[{list(self._clips).index(clip_id)}].{field}"

    def _read(self, clip_id: str, field: str, shape: tuple[int, ...], make):
        """``make(clip_id, blob)`` for the blob ``field`` names; a failed check names the entry and field."""
        try:
            return make(clip_id, read_blob(self._prefix + self._clips[clip_id][field], shape))
        except ValidationError as e:
            raise ValidationError(f"{self.where(clip_id, field)}: {e}") from e

    def read_clip(self, clip_id: str) -> tuple[FrameEmbeddingSequence, VideoDescriptor]:
        entry = self._clips.get(clip_id)
        if entry is None:
            raise ValidationError(f"unknown clip id {clip_id!r}")
        return (
            self._read(clip_id, "frames_file", (entry["n_frames"], self.c), FrameEmbeddingSequence),
            self._read(clip_id, "video_file", (self.d_video,), VideoDescriptor),
        )
