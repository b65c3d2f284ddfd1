"""Per-clip embeddings: deterministic stub encoders and a bit-exact on-disk store.

The store keeps one raw little-endian float32 blob per tensor plus a JSON
manifest, so round-trips are exact for any finite float32 value (negative
zero and denormals included) and the files can be produced by any language.
Real CLIP / video-network features are written by an offline adapter in the
same format; nothing in this package loads pretrained weights.

``write_clip(clip_id, frames, video)`` takes a ``(n_frames, c)`` matrix
and a ``(d_video,)`` vector; ``read_clip`` returns the two as new float32
arrays. Blobs are written in place; ``seal`` writes the manifest last,
atomically, and only the manifest makes them reachable.

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

import numpy as np

from .errors import ValidationError, read_blob, read_json_object, require, require_file_name, write_blob, write_file
from .taxonomy import CATEGORIES, Taxonomy

MANIFEST_NAME = "manifest.json"
DTYPE_TAG = "f32le"


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
    template: str,
    text_seed: int,
    c: int,
) -> TextEmbeddingTable:
    """Encode every vocabulary entry through a prompt template with the stub text encoder.

    Row i is ``stub_embed(text_seed, template with entry i substituted, c)``,
    so row order matches taxonomy ids by construction.
    """
    if template.count("{}") != 1:
        raise ValidationError(
            f"prompt template must contain exactly one '{{}}' placeholder, got {template!r}"
        )
    rows = [stub_embed(text_seed, template.replace("{}", token), c) for token in taxonomy.vocab(category)]
    return TextEmbeddingTable(category=category, embeddings=np.stack(rows))


# what a clip array holding a non-finite value is called, by the manifest field naming its blob
_NON_FINITE = {"frames_file": "frames for clip {!r} contain non-finite values",
               "video_file": "video descriptor for clip {!r} contains non-finite values"}


def _require_finite(array: np.ndarray, clip_id: str, field: str) -> np.ndarray:
    """``array`` if every value is finite; raises ValidationError naming the clip otherwise."""
    if not np.isfinite(array).all():
        raise ValidationError(_NON_FINITE[field].format(clip_id))
    return array


def _require_widths(c, d_video, what: str) -> tuple[int, int]:
    """(c, d_video) if both are integers >= 1; raises ValidationError naming ``what`` and the width otherwise.

    The writer checks the widths it is given and the reader the widths a
    manifest holds, so every store the writer seals opens again.
    """
    for key, width in (("c", c), ("d_video", d_video)):
        if require(width, int, f"{what} '{key}'") < 1:
            raise ValidationError(f"{what} '{key}' must be >= 1, got {width}")
    return c, d_video


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

    def __init__(self, root: Path, c: int, d_video: int, *, writable: bool):
        self.root = Path(root)
        self._prefix = os.path.join(self.root, "")  # blob paths are this str plus a file name
        self.c = c
        self.d_video = d_video
        self._writable = writable
        self._clips: dict[str, dict] = {}

    # -- writer side ---------------------------------------------------

    @classmethod
    def create(cls, root: str | Path, c: int, d_video: int) -> "FeatureStore":
        """Start an empty store of frame width ``c`` and video width ``d_video``, each an integer >= 1."""
        _require_widths(c, d_video, "store width")
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if (root / MANIFEST_NAME).exists():
            raise ValidationError(f"store already sealed at {root}")
        return cls(root, c, d_video, writable=True)

    def write_clip(self, clip_id: str, frames: np.ndarray, video: np.ndarray) -> None:
        """Add clip ``clip_id``: frames (n_frames, c) and video (d_video,), each written as one blob."""
        if not self._writable:
            raise ValidationError("store is sealed; writes are not allowed")
        frames = np.asarray(frames, dtype="<f4")
        video = np.asarray(video, dtype="<f4")
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ValidationError(
                f"frames for clip {clip_id!r} must be a non-empty 2-d matrix, got shape {frames.shape}"
            )
        if video.ndim != 1 or video.shape[0] < 1:
            raise ValidationError(
                f"video descriptor for clip {clip_id!r} must be a 1-d vector, got shape {video.shape}"
            )
        _require_finite(frames, clip_id, "frames_file")
        _require_finite(video, clip_id, "video_file")
        if clip_id in self._clips:
            raise ValidationError(f"duplicate clip id {clip_id!r}")
        n_frames, c = frames.shape
        if c != self.c:
            raise ValidationError(f"frame width {c} does not match store width c={self.c}")
        if len(video) != self.d_video:
            raise ValidationError(
                f"video width {len(video)} does not match store width d_video={self.d_video}"
            )
        index = len(self._clips)
        frames_file = f"clip_{index:06d}.frames.bin"
        video_file = f"clip_{index:06d}.video.bin"
        write_blob(self._prefix + frames_file, frames)
        write_blob(self._prefix + video_file, video)
        self._clips[clip_id] = {
            "id": clip_id,
            "n_frames": n_frames,
            "frames_file": frames_file,
            "video_file": video_file,
        }

    def seal(self) -> None:
        """Finalize the manifest; the store becomes read-only."""
        if not self._writable:
            raise ValidationError("store is already sealed")
        manifest = {
            "c": self.c,
            "d_video": self.d_video,
            "dtype": DTYPE_TAG,
            "clips": list(self._clips.values()),
        }
        write_file(self.root / MANIFEST_NAME, json.dumps(manifest, indent=2) + "\n")
        self._writable = False

    # -- reader side ---------------------------------------------------

    @classmethod
    def open(cls, root: str | Path) -> "FeatureStore":
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.is_file():
            raise ValidationError(f"no sealed store at {root} (missing {MANIFEST_NAME})")
        manifest = read_json_object(manifest_path, "store manifest")
        where = f"store manifest {manifest_path}"
        if manifest.get("dtype") != DTYPE_TAG:
            raise ValidationError(f"{where}: 'dtype' must be {DTYPE_TAG!r}, got {manifest.get('dtype')!r}")
        c, d_video = _require_widths(manifest.get("c"), manifest.get("d_video"), f"{where}:")
        store = cls(root, c, d_video, writable=False)
        for i, entry in enumerate(require(manifest.get("clips"), list, f"{where}: 'clips'")):
            try:
                clip_id = _clip_entry_id(entry)
            except ValidationError as e:
                # the entry's location is built only for a failed check
                raise ValidationError(f"{where}: clips[{i}]{e}") from e
            if clip_id in store._clips:
                first = list(store._clips).index(clip_id)
                raise ValidationError(f"{where}: clips[{i}].id {clip_id!r} repeats clips[{first}].id")
            store._clips[clip_id] = entry
        return store

    def __contains__(self, clip_id: str) -> bool:
        return clip_id in self._clips

    def where(self, clip_id: str, field: str) -> str:
        """Where ``field`` of clip ``clip_id`` sits in the manifest, for an error message."""
        return f"store manifest {self.root / MANIFEST_NAME}: clips[{list(self._clips).index(clip_id)}].{field}"

    def _read(self, clip_id: str, field: str, shape: tuple[int, ...]) -> np.ndarray:
        """The finite blob ``field`` names, of ``shape``; a failed check names the entry and field."""
        try:
            return _require_finite(read_blob(self._prefix + self._clips[clip_id][field], shape), clip_id, field)
        except ValidationError as e:
            raise ValidationError(f"{self.where(clip_id, field)}: {e}") from e

    def read_clip(self, clip_id: str) -> tuple[np.ndarray, np.ndarray]:
        """New float32 arrays frames (n_frames, c) and video (d_video,) of clip ``clip_id``."""
        entry = self._clips.get(clip_id)
        if entry is None:
            raise ValidationError(f"unknown clip id {clip_id!r}")
        return (
            self._read(clip_id, "frames_file", (entry["n_frames"], self.c)),
            self._read(clip_id, "video_file", (self.d_video,)),
        )
