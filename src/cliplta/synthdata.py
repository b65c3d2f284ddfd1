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
The labels of each split go from ``label_sequence`` id lists, computed once
per class, to ``metrics.write_ground_truth``; read them back with
``read_ground_truth``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_minimums, write_file
from .featurestore import FeatureStore, stub_embed
from .metrics import write_ground_truth
from .taxonomy import Taxonomy, save_taxonomy

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
        check_minimums(self, {**dict.fromkeys(("n_train", "n_val", "n_input_clips", "N", "c", "d_video", "Z",
                                               "n_verbs", "n_nouns"), 1), "noise_std": 0, "seed": 0})
        if self.signal_mode not in SIGNAL_MODES:
            raise ValidationError(f"unknown signal_mode {self.signal_mode!r}; expected one of {SIGNAL_MODES}")

    @property
    def n_classes(self) -> int:
        return max(self.n_verbs, self.n_nouns)


@dataclass
class SynthDataset:
    root: Path
    taxonomy: Taxonomy
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


def label_sequence(cfg: SynthConfig, z_verb: int, z_noun: int) -> tuple[list[int], list[int]]:
    """The fixed pseudo-random Z verb ids and Z noun ids for a latent class pair."""
    return ([_hash_label(cfg.seed, z_verb, t, "verb", cfg.n_verbs) for t in range(cfg.Z)],
            [_hash_label(cfg.seed, z_noun, t, "noun", cfg.n_nouns) for t in range(cfg.Z)])


def _example_rng(cfg: SynthConfig, split_index: int, example_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, split_index, example_index])))


def _generate_example(cfg: SynthConfig, rng: np.random.Generator, frame_proto, video_proto):
    """Returns (z_verb, z_noun, frames (T, N, c), video (T, d_video)); ``*_proto(z)`` give the prototypes."""
    if cfg.signal_mode == "split":
        z_verb = int(rng.integers(cfg.n_classes))
        z_noun = int(rng.integers(cfg.n_classes))
    else:
        z_verb = z_noun = int(rng.integers(cfg.n_classes))

    T, N, c = cfg.n_input_clips, cfg.N, cfg.c
    frames = rng.standard_normal((T, N, c)) * cfg.noise_std
    if cfg.signal_mode == "single_frame":
        for t in range(T):
            frames[t, int(rng.integers(N))] += frame_proto(z_noun)
    else:
        frames += frame_proto(z_noun)

    video = rng.standard_normal((T, cfg.d_video)) * cfg.noise_std
    video_scale = 1.0 if cfg.signal_mode == "split" else VIDEO_SIGNAL_SCALE
    video += video_scale * video_proto(z_verb)
    return z_verb, z_noun, frames, video


def generate(cfg: SynthConfig, out_dir: str | Path) -> SynthDataset:
    """Write a feature store, ground-truth files, and taxonomy under out_dir.

    Returns the dataset handle: its paths, its taxonomy, and ``latents``,
    which maps example id to the drawn class(es), for diagnostics and oracle
    tests.
    """
    out_dir = Path(out_dir)
    taxonomy = make_taxonomy(cfg)
    # the prototypes and label ids of each class drawn (each class pair, in
    # split mode), computed once: a split draws only some of the classes,
    # and most of them many times
    frame_proto = functools.cache(functools.partial(frame_prototype, cfg))
    video_proto = functools.cache(functools.partial(video_prototype, cfg))
    labels = functools.cache(functools.partial(label_sequence, cfg))

    store = FeatureStore.create(out_dir / "store", c=cfg.c, d_video=cfg.d_video)
    dataset = SynthDataset(root=out_dir, taxonomy=taxonomy, latents={})
    splits = (("train", cfg.n_train, dataset.gt_train_path), ("val", cfg.n_val, dataset.gt_val_path))

    for split_index, (split, count, gt_path) in enumerate(splits):
        example_ids = [f"{split}_{i:05d}" for i in range(count)]
        verb, noun = [], []
        for i, example_id in enumerate(example_ids):
            rng = _example_rng(cfg, split_index, i)
            z_verb, z_noun, frames, video = _generate_example(cfg, rng, frame_proto, video_proto)
            for t in range(cfg.n_input_clips):
                store.write_clip(f"{example_id}#{t}", frames[t], video[t])
            verb_ids, noun_ids = labels(z_verb, z_noun)
            verb.append(verb_ids)
            noun.append(noun_ids)
            dataset.latents[example_id] = {"z_verb": z_verb, "z_noun": z_noun}
        write_ground_truth(gt_path, example_ids, verb, noun, taxonomy.sha256())
    store.seal()

    save_taxonomy(taxonomy, dataset.taxonomy_path)
    write_file(out_dir / "synth_config.json", json.dumps(asdict(cfg), indent=2) + "\n")
    write_file(out_dir / "latents.json", json.dumps(dataset.latents, sort_keys=True, separators=(",", ":")) + "\n")
    return dataset
