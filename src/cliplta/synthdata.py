"""Desk-scale synthetic benchmark with controllable signal structure.

Every example draws a latent class whose prototype direction is planted in
the features; the future action sequence is a fixed pseudo-random function
of the class, so a model that recovers the class can recover the sequence.
Three signal layouts:

* ``dense``        - every frame carries the prototype (plus noise); the
                     video descriptor carries it at half strength.
* ``single_frame`` - exactly one uniformly-chosen frame per clip carries the
                     prototype, all other frames are pure noise. Mean
                     pooling dilutes the signal by 1/N while an attention
                     aggregator can in principle recover it; the video
                     descriptor again carries half-strength signal.
* ``split``        - two independent latent classes: the verb class is
                     planted only in the video descriptor and the noun class
                     only in the frame embeddings, so single-encoder models
                     are blind to one half of the task.

Generation is a pure function of the config: per-example generators are
derived from (seed, split, example_index), so output bytes are reproducible
and per-example generation could be parallelized without changing them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .featurestore import FeatureStore, FrameEmbeddingSequence, VideoDescriptor, stub_embed
from .metrics import write_ground_truth
from .taxonomy import ActionLabel, GroundTruthSequence, Taxonomy, save_taxonomy

SIGNAL_MODES = ("dense", "single_frame", "split")

# video descriptor carries the prototype at this fraction of frame strength,
# except in split mode where it is the sole verb carrier
VIDEO_SIGNAL_SCALE = 0.5

_SCENARIOS = ("cooking", "crafting", "gardening", "repair")
_PLACES = ("kitchen", "workshop", "garden", "garage")


@dataclass
class SynthConfig:
    n_train: int = 200
    n_val: int = 64
    n_input_clips: int = 2
    N: int = 4
    c: int = 32
    d_video: int = 32
    Z: int = 4
    n_verbs: int = 8
    n_nouns: int = 8
    signal_mode: str = "dense"
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_train", "n_val", "n_input_clips", "N", "c", "d_video", "Z", "n_verbs", "n_nouns"):
            if getattr(self, name) < 1:
                raise ValidationError(f"synth config field {name} must be >= 1")
        if self.signal_mode not in SIGNAL_MODES:
            raise ValidationError(f"unknown signal_mode {self.signal_mode!r}; expected one of {SIGNAL_MODES}")
        if self.noise_std < 0:
            raise ValidationError(f"noise_std must be >= 0, got {self.noise_std}")

    @property
    def n_classes(self) -> int:
        return max(self.n_verbs, self.n_nouns)


@dataclass
class SynthDataset:
    root: Path
    taxonomy: Taxonomy
    gt_train: list[GroundTruthSequence]
    gt_val: list[GroundTruthSequence]
    latents: dict[str, dict]

    @property
    def store_path(self) -> Path:
        return self.root / "store"

    @property
    def taxonomy_path(self) -> Path:
        return self.root / "taxonomy.json"

    @property
    def gt_train_path(self) -> Path:
        return self.root / "gt_train.json"

    @property
    def gt_val_path(self) -> Path:
        return self.root / "gt_val.json"


def make_taxonomy(cfg: SynthConfig) -> Taxonomy:
    return Taxonomy(
        verbs=tuple(f"verb{i:02d}" for i in range(cfg.n_verbs)),
        nouns=tuple(f"noun{i:02d}" for i in range(cfg.n_nouns)),
        scenarios=_SCENARIOS,
        places=_PLACES,
    )


def frame_prototype(cfg: SynthConfig, z: int) -> np.ndarray:
    return stub_embed(cfg.seed, f"frame-prototype-{z}", cfg.c)


def video_prototype(cfg: SynthConfig, z: int) -> np.ndarray:
    return stub_embed(cfg.seed, f"video-prototype-{z}", cfg.d_video)


def _hash_label(seed: int, z: int, t: int, field: str, n: int) -> int:
    digest = hashlib.blake2b(f"{seed}|{z}|{t}|{field}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % n


def label_sequence(cfg: SynthConfig, example_id: str, z_verb: int, z_noun: int) -> GroundTruthSequence:
    """The fixed pseudo-random action sequence for a latent class pair."""
    actions = tuple(
        ActionLabel(
            verb_id=_hash_label(cfg.seed, z_verb, t, "verb", cfg.n_verbs),
            noun_id=_hash_label(cfg.seed, z_noun, t, "noun", cfg.n_nouns),
        )
        for t in range(cfg.Z)
    )
    return GroundTruthSequence(example_id=example_id, actions=actions)


def _example_rng(cfg: SynthConfig, split_index: int, example_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, split_index, example_index])))


def _generate_example(cfg: SynthConfig, rng: np.random.Generator,
                      protos_frame: np.ndarray, protos_video: np.ndarray):
    """Returns (z_verb, z_noun, frames (T, N, c), video (T, d_video))."""
    if cfg.signal_mode == "split":
        z_verb = int(rng.integers(cfg.n_classes))
        z_noun = int(rng.integers(cfg.n_classes))
    else:
        z_verb = z_noun = int(rng.integers(cfg.n_classes))

    T, N, c = cfg.n_input_clips, cfg.N, cfg.c
    frames = rng.standard_normal((T, N, c)) * cfg.noise_std
    if cfg.signal_mode == "single_frame":
        for t in range(T):
            frames[t, int(rng.integers(N))] += protos_frame[z_noun]
    else:
        frames += protos_frame[z_noun]

    video = rng.standard_normal((T, cfg.d_video)) * cfg.noise_std
    video_scale = 1.0 if cfg.signal_mode == "split" else VIDEO_SIGNAL_SCALE
    video += video_scale * protos_video[z_verb]
    return z_verb, z_noun, frames, video


def generate(cfg: SynthConfig, out_dir: str | Path) -> SynthDataset:
    """Write a feature store, ground-truth files, and taxonomy under out_dir.

    Returns the in-memory dataset handle; ``latents`` maps example id to the
    drawn class(es), for diagnostics and oracle tests.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    taxonomy = make_taxonomy(cfg)
    protos_frame = np.stack([frame_prototype(cfg, z) for z in range(cfg.n_classes)])
    protos_video = np.stack([video_prototype(cfg, z) for z in range(cfg.n_classes)])

    store = FeatureStore.create(out_dir / "store", c=cfg.c, d_video=cfg.d_video)
    gt_by_split: dict[str, list[GroundTruthSequence]] = {"train": [], "val": []}
    latents: dict[str, dict] = {}

    for split_index, (split, count) in enumerate((("train", cfg.n_train), ("val", cfg.n_val))):
        for i in range(count):
            example_id = f"{split}_{i:05d}"
            rng = _example_rng(cfg, split_index, i)
            z_verb, z_noun, frames, video = _generate_example(cfg, rng, protos_frame, protos_video)
            for t in range(cfg.n_input_clips):
                clip_id = f"{example_id}#{t}"
                store.write_clip(
                    FrameEmbeddingSequence(clip_id=clip_id, frames=frames[t]),
                    VideoDescriptor(clip_id=clip_id, vector=video[t]),
                )
            gt_by_split[split].append(label_sequence(cfg, example_id, z_verb, z_noun))
            latents[example_id] = {"z_verb": z_verb, "z_noun": z_noun}
    store.seal()

    tax_hash = taxonomy.sha256()
    dataset = SynthDataset(
        root=out_dir,
        taxonomy=taxonomy,
        gt_train=gt_by_split["train"],
        gt_val=gt_by_split["val"],
        latents=latents,
    )
    save_taxonomy(taxonomy, dataset.taxonomy_path)
    write_ground_truth(dataset.gt_train_path, dataset.gt_train, cfg.Z, tax_hash)
    write_ground_truth(dataset.gt_val_path, dataset.gt_val, cfg.Z, tax_hash)
    with open(out_dir / "synth_config.json", "w", encoding="utf-8") as f:
        json.dump(asdict(cfg), f, indent=2)
        f.write("\n")
    with open(out_dir / "latents.json", "w", encoding="utf-8") as f:
        # dumps, unlike dump, uses the C encoder; the bytes are the same
        f.write(json.dumps(latents, sort_keys=True, separators=(",", ":")) + "\n")
    return dataset
