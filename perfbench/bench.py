"""The cliplta benchmark: set up, train, predict, sample and score, timed.

One run measures one workload at one seed. It sets the workload up several
times (synthetic data generation), makes one untimed warm-up repetition
whose outputs are the reference, then repeats ``train`` followed by one or
more ``run_eval`` calls for ``--seconds``. Every repetition's outputs are
checked against the warm-up's. With ``--trace 0`` the run reports the
end-to-end metrics: the throughput of the fastest ``train`` and the fastest
``run_eval`` call, and the median set-up time. With ``--trace 1`` it
alternates untraced and traced repetitions and reports per-layer self times
from the traced ones.

Run it from the repository root through ``perfbench/run.py``; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import ctypes
import fcntl
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cliplta import harness, synthdata
from cliplta.harness import TrainConfig
from cliplta.metrics import evaluate
from cliplta.synthdata import SynthConfig
from cliplta.taxonomy import load_taxonomy

import spans

ROOT = Path(__file__).resolve().parent.parent
K = 5
SETUPS = 5          # timed set-ups per run; setup_s is their median
MIN_REPS = 3        # repetitions per untraced run, at least


@dataclass(frozen=True)
class Workload:
    why: str
    synth: dict
    train: dict
    ed_bound: float | None = None   # learning bound on verb and noun ED
    evals: int = 1                  # run_eval calls on each trained checkpoint


# Ego4D LTA label space and horizon: 115 verbs, 478 nouns, Z=20 (K=5 above).
EGO4D = dict(Z=20, n_verbs=115, n_nouns=478)

WORKLOADS = {
    "train_mid_attention": Workload(
        why="clip_attention at the mid profile: few large steps, time in nn matmuls "
            "and the cross-attention aggregator backward",
        synth=dict(n_train=64, n_val=64, n_input_clips=2, N=32, c=128, d_video=256,
                   signal_mode="single_frame", **EGO4D),
        train=dict(variant="clip_attention", epochs=2, batch_size=32, base_lr=3e-3,
                   n_layers=2, n_heads_agg=8, n_heads_ca=8),
        evals=2,
    ),
    "train_desk_text": Workload(
        why="img_plus_clip_text at the desk profile: many tiny steps, time in per-call "
            "Python overhead and the optimizer loop; the only workload that learns",
        synth=dict(n_train=200, n_val=512, n_input_clips=2, N=16, c=32, d_video=32,
                   Z=4, n_verbs=8, n_nouns=8, signal_mode="dense"),
        train=dict(variant="img_plus_clip_text", epochs=10, batch_size=8, base_lr=1e-2,
                   n_layers=2, n_heads_agg=4),
        ed_bound=0.15,
        evals=3,
    ),
}

# name -> unit; the order and units match BENCHMARK.json
END_TO_END = {
    "train_examples_per_s": "1/s",
    "eval_examples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"encoder.{i}.{m}.{d}_s": "s" for i in range(2) for m in ("attn", "ffn", "ln") for d in ("fwd", "bwd")},
    **{f"decoder.{m}.{d}_s": "s" for m in ("attn", "ffn", "ln") for d in ("fwd", "bwd")},
    "heads.fwd_s": "s",
    "heads.bwd_s": "s",
    "aggregator.fwd_s": "s",
    "aggregator.bwd_s": "s",
    "model.forward_s": "s",
    "model.backward_s": "s",
    "model.init_s": "s",
    "model.loss_s": "s",
    "model.zero_grad_s": "s",
    "model.fp64_outputs": "count",
    "model.param_bytes": "B",
    "harness.optimizer_s": "s",
    "harness.batch_s": "s",
    "harness.run_eval_s": "s",
    "harness.load_dataset_s": "s",
    "harness.precompute_descriptors_s": "s",
    "aggregate.img_text_concat_s": "s",
    "model.sample_candidates_s": "s",
    "model.load_checkpoint_s": "s",
    "model.save_checkpoint_s": "s",
    "model.write_predictions_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.read_ground_truth_s": "s",
    "metrics.edit_distance_s": "s",
    "metrics.edit_distance_calls": "count",
    "featurestore.read_clip_s": "s",
    "featurestore.read_clip_calls": "count",
    "featurestore.write_clip_s": "s",
    "featurestore.write_clip_calls": "count",
    "synthdata.generate_s": "s",
    "trace.overhead_s": "s",
    "verb_ed": "ED",
    "noun_ed": "ED",
}

# span whose self time is reported under another name
RENAMED_SPANS = {"harness.train": "harness.optimizer"}
COUNTED_SPANS = ("metrics.edit_distance", "featurestore.read_clip", "featurestore.write_clip")


@dataclass
class Rep:
    """One train, then ``Workload.evals`` run_eval calls on its checkpoint."""

    train_s: float
    eval_s: list[float]
    losses: list[float]
    predictions: list[bytes]
    reports: list[bytes]
    verb_ed: float
    noun_ed: float
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.train_s + sum(self.eval_s)


class Checks:
    """Output checks of one run; each one is an attempted operation."""

    def __init__(self):
        self.failures: list[str] = []
        self.attempted = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def layer_metrics(tracer: spans.Tracer) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        out[f"{RENAMED_SPANS.get(name, name)}_s"] = seconds
    calls = tracer.calls()
    for name in COUNTED_SPANS:
        out[f"{name}_calls"] = calls[name]
    out.update(tracer.counts)
    return out


def set_up(wl: Workload, seed: int, out_dir: Path) -> synthdata.SynthDataset:
    return synthdata.generate(SynthConfig(seed=seed, **wl.synth), out_dir)


def repeat(wl: Workload, data: synthdata.SynthDataset, seed: int, out_dir: Path) -> Rep:
    cfg = TrainConfig(store=str(data.store_path), gt=str(data.gt_train_path),
                      taxonomy=str(data.taxonomy_path), out_dir=str(out_dir / "train"),
                      seed=seed, **wl.train)
    start = time.perf_counter()
    checkpoint, log = harness.train(cfg)
    train_s = time.perf_counter() - start
    eval_s, predictions, reports = [], [], []
    for i in range(wl.evals):
        start = time.perf_counter()
        pred_file, report = harness.run_eval(checkpoint, data.store_path, data.gt_val_path,
                                             data.taxonomy_path, K=K, seed=seed,
                                             out_dir=out_dir / f"eval{i}")
        eval_s.append(time.perf_counter() - start)
        predictions.append(pred_file.read_bytes())
        reports.append((pred_file.parent / "report.json").read_bytes())
    return Rep(train_s=train_s, eval_s=eval_s,
               losses=[r["train_loss"] for r in log.records],
               predictions=predictions, reports=reports,
               verb_ed=report.verb_ed, noun_ed=report.noun_ed)


def check_rep(rep: Rep, ref: Rep | None, wl: Workload, data: synthdata.SynthDataset,
              out_dir: Path, checks: Checks, label: str) -> None:
    """Check one repetition's outputs against the warm-up repetition ``ref``.

    The warm-up's first eval (``ref`` None) is re-scored from its prediction
    file; every later eval call must reproduce its files byte for byte, and
    every later train its losses.
    """
    first = rep if ref is None else ref
    if ref is None:
        rescored = evaluate(out_dir / "eval0" / "predictions.json", data.gt_val_path,
                            load_taxonomy(data.taxonomy_path)).to_dict()
        checks.expect(rescored == json.loads(rep.reports[0]),
                      f"{label}: re-scored predictions.json differs from report.json")
    else:
        checks.expect(rep.losses == ref.losses, f"{label}: run-log losses differ from the warm-up")
    for i in range(int(ref is None), len(rep.predictions)):
        checks.expect(rep.predictions[i] == first.predictions[0],
                      f"{label}: eval {i} predictions.json differs from the warm-up")
        checks.expect(rep.reports[i] == first.reports[0],
                      f"{label}: eval {i} report.json differs from the warm-up")
    for kind, ed in (("verb", rep.verb_ed), ("noun", rep.noun_ed)):
        checks.expect(0.0 <= ed <= 1.0, f"{label}: {kind} ED {ed} outside [0, 1]")
        if wl.ed_bound is not None:
            checks.expect(ed < wl.ed_bound, f"{label}: {kind} ED {ed} not under the learning bound {wl.ed_bound}")


def traced_rep(wl: Workload, data: synthdata.SynthDataset, seed: int, out_dir: Path) -> Rep:
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        rep = repeat(wl, data, seed, out_dir)
    rep.layers = layer_metrics(tracer)
    return rep


def median_by_key(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    wl = WORKLOADS[name]
    checks = Checks()

    # Nothing is deleted until the run ends, because creating files next to
    # thousands deleted in the last half minute is slow (see
    # ``make_work_root``). The last set-up holds the data the repetitions
    # use.
    setup_s, setup_layers = [], []
    for i in range(SETUPS):
        tracer = spans.Tracer()
        with spans.instrument(tracer) if trace else contextlib.nullcontext():
            start = time.perf_counter()
            data = set_up(wl, seed, work / f"setup{i}")
            setup_s.append(time.perf_counter() - start)
        setup_layers.append(layer_metrics(tracer))

    # An untimed warm-up repetition is the reference the others must
    # reproduce; the first repetition in a process runs up to 1.5x slower.
    # Untraced runs then repeat train -> run_eval; traced runs repeat an
    # untraced and a traced repetition, alternating which goes first. A run
    # stops before a further round would overrun ``seconds``. Each
    # repetition writes into a fresh directory, as a user's run would.
    ref = repeat(wl, data, seed, work / "warm-up")
    check_rep(ref, None, wl, data, work / "warm-up", checks, "warm-up")
    reps, overheads = [], []
    min_rounds = 1 if trace else MIN_REPS
    start = time.perf_counter()
    rounds = 0
    while True:
        if not trace:
            order = (False,)
        else:
            order = (False, True) if rounds % 2 == 0 else (True, False)
        this_round = {}
        for traced in order:
            out_dir = work / f"rep{rounds}{'t' if traced else 'u'}"
            rep = traced_rep(wl, data, seed, out_dir) if traced else repeat(wl, data, seed, out_dir)
            check_rep(rep, ref, wl, data, out_dir, checks, f"{'traced' if traced else 'untraced'} {rounds}")
            this_round[traced] = rep
        rounds += 1
        if trace:
            overheads.append(this_round[True].total_s - this_round[False].total_s)
        reps.append(this_round[trace])
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break

    n_train = wl.synth["n_train"] * wl.train["epochs"]
    n_val = wl.synth["n_val"]
    train_rate = [n_train / r.train_s for r in reps]
    eval_rate = [n_val / t for r in reps for t in r.eval_s]
    if trace:
        layers = median_by_key([r.layers for r in reps])
        for key, value in median_by_key(setup_layers).items():
            layers[key] = layers.get(key, 0.0) + value
        layers["trace.overhead_s"] = statistics.median(overheads)
        layers["verb_ed"], layers["noun_ed"] = ref.verb_ed, ref.noun_ed
        unknown = sorted(set(layers) - set(PER_LAYER))
        if unknown:
            raise RuntimeError(f"traced metrics missing from PER_LAYER: {unknown}")
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u} for k, u in PER_LAYER.items()}
    else:
        # Throughput is that of the fastest call: the shared host this was
        # tuned on ran the same code 1.4-1.7x slower in phases of seconds to
        # minutes, often longer than a run, so run medians of the same code
        # split into two levels. The fastest call is the one those phases
        # slowed least.
        values = {
            "train_examples_per_s": max(train_rate),
            "eval_examples_per_s": max(eval_rate),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    detail = {
        "stamp": stamp(name, seed),
        "trace": int(trace),
        "repetitions": len(reps),
        "setup_s": setup_s,
        "train_examples_per_s": train_rate,
        "eval_examples_per_s": eval_rate,
        "trace_overhead_s": overheads,
        "verb_ed": ref.verb_ed,
        "noun_ed": ref.noun_ed,
        "failures": checks.failures,
    }
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    return {"detail": detail, "result": result}


# ---------------------------------------------------------------------------
# result stamp
# ---------------------------------------------------------------------------


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def stamp(name: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name,
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def make_work_root() -> Path:
    """Create the directory every run writes under, flagged as a top directory.

    On ext4 without a journal, inodes freed in the last 30-35 s are skipped
    one by one each time a file is created in their block group. Right after
    a run deletes its thousands of store files, the next run's file creation
    in the same group costs 10-25x the kernel time, and set-up and the
    checkpoint writes slow down with it. ext4 places each child of a
    directory with the top-directory flag (``chattr +T``) in a block group of
    its own, away from the groups earlier runs freed. File systems without
    the flag ignore or refuse it, and the run goes on without it.
    """
    root = ROOT / ".perfbench_work"
    root.mkdir(exist_ok=True)
    fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        flags[0] |= FS_TOPDIR_FL
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags, True)
    except OSError:
        pass
    finally:
        os.close(fd)
    return root


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be a positive number")

    work = make_work_root() / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("# detail " + json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    sys.stdout.flush()
    return 0
