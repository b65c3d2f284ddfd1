"""Training loop and evaluation driver.

The reference path is single-threaded and fully seeded: parameter init,
batch order, and candidate sampling all derive from the config seed, so a
rerun with the same config reproduces the run log losses and the prediction
file byte for byte.

Optimizer: SGD with momentum and a cosine learning-rate decay from base_lr
over the configured epochs. The default hyperparameters (epochs 30, batch
64, base_lr 1e-4) are the documented full-scale profile; desk-scale runs
shrink batch size and model dims through the config. ``TrainConfig``'s model
hyperparameters are ``LtaModelConfig`` fields of the same name, with the
model's defaults (only ``prompt_template`` is the model's ``label_template``),
and ``train`` copies them across by name.

Dataset convention: the feature store holds the clips of example ``eid`` as
clip ids ``eid#0 .. eid#{T-1}``, where T (clips per example) is inferred
from the store and must be constant across examples. Frames per clip must
also be constant so examples can be batched.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .aggregate import img_text_concat, mean_pool
from .errors import NumericError, ValidationError, check_minimums, write_file
from .featurestore import MANIFEST_NAME, FeatureStore, TextEmbeddingTable, build_text_table
from .metrics import EvalReport, check_labels, ed_at_zk, read_ground_truth, score, write_predictions
# run_eval scores from memory and does not call evaluate; the name is bound here because the
# benchmark's tracer (perfbench/spans.py) wraps harness.evaluate, and fails without it
from .metrics import evaluate  # noqa: F401
from .model import (
    CONFIG_MINIMUM,
    LtaModel,
    LtaModelConfig,
    batch_loss_and_grads,
    check_temperature,
    load_checkpoint,
    sample_candidates,
    save_checkpoint,
    variant_spec,
)
from .taxonomy import CATEGORIES, Taxonomy, load_taxonomy


@dataclass
class TrainConfig:
    variant: str
    store: str
    gt: str
    taxonomy: str
    out_dir: str
    val_gt: str | None = None
    epochs: int = 30
    batch_size: int = 64
    base_lr: float = 1e-4
    momentum: float = 0.9
    seed: int = 0
    eval_every: int = 0          # 0 -> evaluate only after the last epoch
    K: int = 5
    temperature: float = 1.0
    # model hyperparameters, with the model's defaults
    n_layers: int = LtaModelConfig.n_layers
    n_heads_agg: int = LtaModelConfig.n_heads_agg
    d_ff: int = LtaModelConfig.d_ff
    d_attn: int = LtaModelConfig.d_attn
    n_heads_ca: int = LtaModelConfig.n_heads_ca
    learned_query: bool = LtaModelConfig.learned_query
    attention_prompt: str = LtaModelConfig.attention_prompt
    text_seed: int = LtaModelConfig.text_seed
    prompt_template: str = LtaModelConfig.label_template   # the model's label_template

    def __post_init__(self):
        variant_spec(self.variant)
        # the model's sizes are checked here too, so a bad one fails before any data is read
        check_minimums(self, {"seed": 0, "epochs": 1, "batch_size": 1, "K": 1, "eval_every": 0,
                              **{name: CONFIG_MINIMUM[name] for name in _MODEL_FIELDS if name in CONFIG_MINIMUM}})
        if not self.base_lr > 0:
            raise ValidationError(f"base_lr must be > 0, got {self.base_lr}")
        check_temperature(self.temperature)
        if not 0 <= self.momentum < 1:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")


# the TrainConfig fields that LtaModelConfig also has, in field order, so a failed check always names the same one
_MODEL_FIELDS = tuple(f.name for f in fields(TrainConfig) if f.name in {g.name for g in fields(LtaModelConfig)})


@dataclass
class RunLog:
    records: list[dict] = field(default_factory=list)

    def append(self, record: dict) -> None:
        if self.records and record["epoch"] <= self.records[-1]["epoch"]:
            raise ValidationError("run log epochs must be strictly increasing")
        if not np.isfinite(record["train_loss"]):
            raise ValidationError("run log losses must be finite")
        self.records.append(record)

    def save(self, path: str | Path) -> None:
        write_file(path, "".join(json.dumps(record, sort_keys=True) + "\n" for record in self.records))


def build_label_tables(taxonomy: Taxonomy, c: int, text_seed: int = LtaModelConfig.text_seed,
                       prompt_template: str = LtaModelConfig.label_template) -> dict[str, TextEmbeddingTable]:
    """Stub text-encoder tables for all four categories."""
    return {cat: build_text_table(taxonomy, cat, prompt_template, text_seed, c) for cat in CATEGORIES}


def _variant_tables(variant: str, taxonomy: Taxonomy, c: int, text_seed: int,
                    prompt_template: str) -> dict[str, TextEmbeddingTable] | None:
    """The label tables ``variant`` reads its clip descriptors from, or None if it reads none."""
    if variant_spec(variant).clip_source != "text":
        return None
    return build_label_tables(taxonomy, c, text_seed, prompt_template)


def infer_clips_per_example(store: FeatureStore, example_id: str) -> int:
    t = 0
    while f"{example_id}#{t}" in store:
        t += 1
    if t == 0:
        raise ValidationError(f"store has no clips for example {example_id!r} (expected id '{example_id}#0')")
    return t


@dataclass
class Dataset:
    """One split in ground-truth file order: its labels and exactly the arrays its model reads."""

    example_ids: list[str]
    inputs: dict[str, np.ndarray]   # batch key ("video", "frames" or "clip_desc") -> (B, T, ...)
    verb_ids: np.ndarray     # (B, Z)
    noun_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.example_ids)

    @property
    def shape(self) -> tuple[int, int]:
        """(Z, clips per example)."""
        return self.verb_ids.shape[1], next(iter(self.inputs.values())).shape[1]

    def batch(self, idx: np.ndarray) -> dict:
        return {key: array[idx] for key, array in self.inputs.items()}


def load_dataset(store: FeatureStore, example_ids: list[str], verb_ids: np.ndarray, noun_ids: np.ndarray,
                 n_input_clips: int) -> Dataset:
    """The clips of ``example_ids`` as one (B, T, N, c) frames and one (B, T, d_video) video array.

    Both arrays are allocated once, from the first clip's shapes, and each
    clip is copied into its slot. Every clip must hold the first clip's N.
    """
    B, T = len(example_ids), n_input_clips
    frames = video = None
    for b, example_id in enumerate(example_ids):
        for t in range(T):
            clip_id = f"{example_id}#{t}"
            clip_frames, clip_video = store.read_clip(clip_id)
            if frames is None:
                frames = np.empty((B, T) + clip_frames.shape, clip_frames.dtype)
                video = np.empty((B, T) + clip_video.shape, clip_video.dtype)
            elif len(clip_frames) != frames.shape[2]:
                raise ValidationError(
                    f"{store.where(clip_id, 'n_frames')} is {len(clip_frames)}; expected {frames.shape[2]} "
                    f"like clip '{example_ids[0]}#0' (frames per clip must be constant for batching)"
                )
            frames[b, t] = clip_frames
            video[b, t] = clip_video
    return Dataset(example_ids, {"video": video, "frames": frames}, verb_ids, noun_ids)


def precompute_descriptors(dataset: Dataset, variant: str,
                           tables: dict[str, TextEmbeddingTable] | None) -> None:
    """Leave in ``dataset.inputs`` exactly the arrays ``variant``'s model reads.

    Only ``clip_attention`` reads frames in the model; the mean and text
    sources replace them with their descriptors under ``"clip_desc"``, and
    a variant that does not use video drops it.
    """
    spec, inputs = variant_spec(variant), dataset.inputs
    if spec.clip_source == "mean":
        inputs["clip_desc"] = mean_pool(inputs["frames"])
    elif spec.clip_source == "text":
        if tables is None:
            raise ValidationError(f"{variant} requires label text tables")
        inputs["clip_desc"] = img_text_concat(inputs["frames"], tables)
    if spec.clip_source != "attention":
        del inputs["frames"]
    if not spec.uses_video:
        del inputs["video"]


def load_split(store: FeatureStore, gt_path: str | Path, taxonomy: Taxonomy, variant: str,
               tables: dict[str, TextEmbeddingTable] | None,
               shape: tuple[int, int] | None = None) -> Dataset:
    """One split as model input: its checked ground truth and its batched clips.

    The ground truth must reference ``taxonomy`` and hold only its ids.
    ``shape`` is the (Z, clips per example) the split must have; without it
    the split sets its own.
    """
    example_ids, verb_ids, noun_ids, gt_hash = read_ground_truth(gt_path)
    check_labels(gt_path, example_ids, verb_ids, noun_ids, gt_hash, taxonomy)
    Z = verb_ids.shape[1]
    n_input_clips = infer_clips_per_example(store, example_ids[0])
    if shape is not None and (Z, n_input_clips) != shape:
        raise ValidationError(
            f"ground truth {gt_path}: horizon Z={Z} with {n_input_clips} clips per example "
            f"does not match the model's Z={shape[0]} with {shape[1]}"
        )
    # every example has exactly the first one's clips, checked before any is read
    for example_id in example_ids:
        for t in range(n_input_clips + 1):
            if (f"{example_id}#{t}" in store) != (t < n_input_clips):
                raise ValidationError(
                    f"ground truth {gt_path}: example {example_id!r}: store manifest {store.root / MANIFEST_NAME} "
                    f"{'has no' if t < n_input_clips else 'has an extra'} clip '{example_id}#{t}' "
                    f"(every example needs {n_input_clips} clips, as '{example_ids[0]}' has)"
                )
    dataset = load_dataset(store, example_ids, verb_ids, noun_ids, n_input_clips)
    try:
        precompute_descriptors(dataset, variant, tables)
    except ValidationError as e:
        # name the first clip whose frames average to zero, if that was the failure; found only now
        zero = np.argwhere(~mean_pool(dataset.inputs["frames"]).any(axis=-1))
        if not len(zero):
            raise
        clip_id = f"{example_ids[zero[0, 0]]}#{zero[0, 1]}"
        raise ValidationError(f"{store.where(clip_id, 'frames_file')}: clip {clip_id!r}: {e}") from e
    return dataset


def _cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    # a Python float, so scaling a float32 gradient by it stays float32
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def _sgd_momentum_step(slots: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                       lr: float, momentum: float) -> None:
    """v = momentum * v - lr * g; p += v for every (p, g, v) slot, in place.

    Scales the gradients by lr in place, so the step allocates nothing; the
    next backward pass overwrites every gradient, so nothing zeroes them.
    """
    for p, g, v in slots:
        v *= momentum
        g *= lr
        v -= g
        p += v


def _predict_dataset(model: LtaModel, dataset: Dataset, K: int, temperature: float,
                     seed: int, batch_size: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Candidates (verb, noun), each (len(dataset), K, Z), predicted ``batch_size`` examples at a time.

    Prediction bytes are a function of ``batch_size``: the linear layers run
    one 2-D GEMM per batch, whose summation order depends on the row count,
    so an example's logits can move in the last bits (below 1e-5 relative)
    with the batch it shares, and a sampled candidate could flip. Every
    caller uses the default of 64, which keeps predictions reproducible.
    """
    # one sampling seed per example, a function of the run seed and the example id alone
    seeds = [int.from_bytes(hashlib.blake2b(f"{seed}|{eid}".encode(), digest_size=8).digest(), "little")
             for eid in dataset.example_ids]
    verb, noun = [], []
    for start in range(0, len(dataset), batch_size):
        idx = np.arange(start, min(start + batch_size, len(dataset)))
        # only the logits: no forward cache stays live while sampling or into the next forward
        verb_logits, noun_logits = model.forward_batch(dataset.batch(idx))[:2]
        v, n = sample_candidates(verb_logits, noun_logits, K, temperature, seeds[start:start + batch_size])
        verb.append(v)
        noun.append(n)
    return np.concatenate(verb), np.concatenate(noun)


def train(cfg: TrainConfig) -> tuple[Path, RunLog]:
    """Train per config; returns (checkpoint dir, run log).

    Writes ``checkpoint/``, ``runlog.jsonl``, and ``train_config.json``
    under cfg.out_dir, after removing the last run's two files.
    """
    taxonomy = load_taxonomy(cfg.taxonomy)
    store = FeatureStore.open(cfg.store)
    tables = _variant_tables(cfg.variant, taxonomy, store.c, cfg.text_seed, cfg.prompt_template)
    dataset = load_split(store, cfg.gt, taxonomy, cfg.variant, tables)
    Z, n_input_clips = dataset.shape

    model_cfg = LtaModelConfig(
        **{name: getattr(cfg, name) for name in _MODEL_FIELDS}, label_template=cfg.prompt_template,
        n_verbs=len(taxonomy.verbs), n_nouns=len(taxonomy.nouns), c=store.c, d_video=store.d_video,
        n_input_clips=n_input_clips, Z=Z,
    )
    model = LtaModel(model_cfg)

    val_dataset = None
    if cfg.val_gt:
        val_dataset = load_split(store, cfg.val_gt, taxonomy, cfg.variant, tables, dataset.shape)

    # the registry hands out the same arrays on every call, so take them once
    params, grads = model.named_parameters(), model.named_grads()
    slots = [(params[name], grads[name], np.zeros_like(params[name])) for name in model.trainable_names()]
    shuffle_rng = np.random.default_rng(cfg.seed)

    log = RunLog()
    n = len(dataset)

    for epoch in range(cfg.epochs):
        epoch_start = time.time()
        lr = _cosine_lr(cfg.base_lr, epoch, cfg.epochs)
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            batch = dataset.batch(idx)
            verb_logits, noun_logits, cache = model.forward_batch(batch)
            loss, d_verb, d_noun = batch_loss_and_grads(
                verb_logits, noun_logits, dataset.verb_ids[idx], dataset.noun_ids[idx]
            )
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch} batch {batch_index}")
            model.backward_batch(cache, d_verb, d_noun)
            # one step's activations at a time: free them before the next forward
            del cache, verb_logits, noun_logits, d_verb, d_noun
            _sgd_momentum_step(slots, lr, cfg.momentum)
            epoch_losses.append(loss)

        record = {
            "epoch": epoch + 1,
            "train_loss": float(np.mean(epoch_losses)),
            "wall_time": round(time.time() - epoch_start, 6),
        }
        if val_dataset is not None and (epoch + 1) % (cfg.eval_every or cfg.epochs) == 0:
            verb, noun = _predict_dataset(model, val_dataset, cfg.K, cfg.temperature, cfg.seed)
            verb_ed, noun_ed = ed_at_zk(verb, noun, val_dataset.verb_ids, val_dataset.noun_ids)
            record["val_verb_ed"], record["val_noun_ed"] = float(np.mean(verb_ed)), float(np.mean(noun_ed))
        log.append(record)

    out_dir = Path(cfg.out_dir)
    # the last run's files go first, so an interrupted save leaves no mixed set
    for name in ("runlog.jsonl", "train_config.json"):
        (out_dir / name).unlink(missing_ok=True)
    ckpt_dir = out_dir / "checkpoint"
    save_checkpoint(model, ckpt_dir)
    log.save(out_dir / "runlog.jsonl")
    write_file(out_dir / "train_config.json", json.dumps(asdict(cfg), indent=2) + "\n")
    return ckpt_dir, log


def run_eval(checkpoint: str | Path, store_path: str | Path, gt_path: str | Path,
             taxonomy_path: str | Path, *, K: int = 5, temperature: float = 1.0, seed: int = 0,
             out_dir: str | Path | None = None) -> tuple[Path, EvalReport]:
    """Predict on a split from the checkpoint directory ``checkpoint``, score it; returns (prediction file, report).

    Featurization settings (text seed, prompt templates) come from the
    checkpoint config, so evaluation cannot silently diverge from training.
    Removes report.json, then writes predictions.json and report.json
    (under out_dir, default the checkpoint's parent directory). The report
    scores the candidate arrays in memory, against the ground truth
    ``load_split`` read and checked, so it equals ``metrics.evaluate`` of
    the two files without parsing either again.
    """
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")
    check_temperature(temperature)
    model = load_checkpoint(checkpoint)
    cfg = model.config
    taxonomy = load_taxonomy(taxonomy_path)
    if len(taxonomy.verbs) != cfg.n_verbs or len(taxonomy.nouns) != cfg.n_nouns:
        raise ValidationError("taxonomy class counts do not match the checkpoint")
    store = FeatureStore.open(store_path)
    if store.c != cfg.c or store.d_video != cfg.d_video:
        raise ValidationError("store widths do not match the checkpoint")
    tables = _variant_tables(cfg.variant, taxonomy, store.c, cfg.text_seed, cfg.label_template)
    dataset = load_split(store, gt_path, taxonomy, cfg.variant, tables, (cfg.Z, cfg.n_input_clips))

    verb, noun = _predict_dataset(model, dataset, K, temperature, seed)
    out_dir = Path(checkpoint).parent if out_dir is None else Path(out_dir)
    # an interrupted run must not leave the last report beside these predictions
    (out_dir / "report.json").unlink(missing_ok=True)
    pred_file = out_dir / "predictions.json"
    write_predictions(pred_file, dataset.example_ids, verb, noun, taxonomy.sha256())
    report = score(dataset.example_ids, verb, noun, dataset.verb_ids, dataset.noun_ids)
    write_file(out_dir / "report.json", json.dumps(report.to_dict(), indent=2) + "\n")
    return pred_file, report
