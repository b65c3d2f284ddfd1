"""One step's activations live at a time, and eval holds no cache while sampling.

The liveness tests wrap ``LtaModel.forward_batch`` and keep a weak reference
to every array of each returned forward cache (parameters excepted, which
live as long as the model). ``harness.train`` must free step k's cache
before it enters step k+1's forward, and ``harness._predict_dataset`` must
free a batch's cache before it samples that batch's candidates.

The peak guard runs the benchmark's ``train_mid_attention`` workload (the
Ego4D LTA label space and horizon: 115 verbs, 478 nouns, Z=20) in a fresh
process under ``tracemalloc``: the traced peak of one ``harness.train``
less three copies of the parameters (values, gradients, momentum), and of
one ``run_eval`` less two (values, gradients), is what the activations
cost.
"""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import cliplta
from cliplta import FeatureStore, LtaModel, SynthConfig, TrainConfig, generate, harness, load_checkpoint, train
from cliplta.model import VARIANTS
from cliplta.taxonomy import load_taxonomy

ROOT = Path(__file__).resolve().parents[1]

# traced activation peaks of the mid workload, seed 0, in MiB: keeping two
# steps' activations (or a cache while sampling) read 49 (train) and 70
# (eval); one at a time reads 28 and 42
MAX_TRAIN_MIB = 38
MAX_EVAL_MIB = 56


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    cfg = SynthConfig(n_train=12, n_val=10, n_input_clips=2, N=3, c=8, d_video=8,
                      Z=3, n_verbs=4, n_nouns=4, noise_std=0.1, seed=7)
    return generate(cfg, tmp_path_factory.mktemp("synth"))


def _arrays(tree):
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, (tuple, list)):
        for item in tree:
            yield from _arrays(item)
    elif isinstance(tree, dict):
        for item in tree.values():
            yield from _arrays(item)


class CacheRefs:
    """Wraps ``LtaModel.forward_batch``; ``live()`` counts the arrays of the last cache still alive."""

    def __init__(self, monkeypatch):
        self.refs: list[weakref.ref] = []
        self.forwards = 0
        self.live_at_forward: list[int] = []
        forward_batch = LtaModel.forward_batch

        def spy(model, batch):
            self.live_at_forward.append(self.live())
            verb, noun, cache = forward_batch(model, batch)
            params = {id(p) for p in model.named_parameters().values()}
            self.refs = [weakref.ref(a) for a in _arrays(cache) if id(a) not in params]
            assert self.refs, "the forward cache holds no arrays"
            self.forwards += 1
            return verb, noun, cache

        monkeypatch.setattr(LtaModel, "forward_batch", spy)

    def live(self) -> int:
        return sum(ref() is not None for ref in self.refs)


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_frees_a_steps_cache_before_the_next_forward(synth, tmp_path, monkeypatch, variant):
    refs = CacheRefs(monkeypatch)
    train(TrainConfig(variant=variant, store=str(synth.store_path), gt=str(synth.gt_train_path),
                      taxonomy=str(synth.taxonomy_path), out_dir=str(tmp_path), epochs=2, batch_size=4,
                      base_lr=1e-3, n_layers=1, n_heads_agg=2, n_heads_ca=2))
    assert refs.forwards == 6   # 12 examples in batches of 4, two epochs
    assert refs.live_at_forward == [0] * 6


@pytest.mark.parametrize("variant", VARIANTS)
def test_eval_holds_no_cache_while_sampling(synth, tmp_path, monkeypatch, variant):
    ckpt, _ = train(TrainConfig(variant=variant, store=str(synth.store_path), gt=str(synth.gt_train_path),
                                taxonomy=str(synth.taxonomy_path), out_dir=str(tmp_path), epochs=1,
                                batch_size=4, n_layers=1, n_heads_agg=2, n_heads_ca=2))
    model = load_checkpoint(ckpt)
    taxonomy = load_taxonomy(synth.taxonomy_path)
    tables = harness._variant_tables(variant, taxonomy, model.config.c, model.config.text_seed,
                                     model.config.label_template)
    dataset = harness.load_split(FeatureStore.open(synth.store_path), synth.gt_val_path, taxonomy, variant, tables)
    refs = CacheRefs(monkeypatch)
    live_at_sampling = []
    sample_candidates = harness.sample_candidates

    def spy(*args):
        live_at_sampling.append(refs.live())
        return sample_candidates(*args)

    monkeypatch.setattr(harness, "sample_candidates", spy)
    # several batches, so a cache could also survive into the next batch's forward
    harness._predict_dataset(model, dataset, 3, 1.0, 0, batch_size=4)
    assert refs.forwards == 3   # 10 examples in batches of 4
    assert live_at_sampling == refs.live_at_forward == [0] * 3


PEAK_SCRIPT = r"""
import json, sys, tracemalloc
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from bench import WORKLOADS, set_up
from cliplta import harness, load_checkpoint
from cliplta.harness import TrainConfig

work = Path(sys.argv[2])
wl = WORKLOADS["train_mid_attention"]
data = set_up(wl, 0, work / "data")
cfg = TrainConfig(store=str(data.store_path), gt=str(data.gt_train_path), taxonomy=str(data.taxonomy_path),
                  out_dir=str(work / "train"), seed=0, **wl.train)


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


(ckpt, _), train_peak = traced_peak(lambda: harness.train(cfg))
param_bytes = sum(a.nbytes for a in load_checkpoint(ckpt).named_parameters().values())
_, eval_peak = traced_peak(lambda: harness.run_eval(ckpt, data.store_path, data.gt_val_path, data.taxonomy_path,
                                                    K=5, seed=0, out_dir=work / "eval"))
mib = 2.0 ** 20
print(json.dumps({"train": (train_peak - 3 * param_bytes) / mib, "eval": (eval_peak - 2 * param_bytes) / mib,
                  "params": param_bytes / mib}))
"""


def test_activation_peaks_at_the_ego4d_shape(tmp_path):
    src = str(Path(cliplta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, str(ROOT / "perfbench"), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    peaks = json.loads(proc.stdout.splitlines()[-1])
    assert peaks["train"] < MAX_TRAIN_MIB, peaks
    assert peaks["eval"] < MAX_EVAL_MIB, peaks
