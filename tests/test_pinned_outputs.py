"""Pinned output bytes of the tiny synthetic set-up and of a train + eval run of every variant.

``SETUP_PIN`` is the sha256 of every file ``generate`` writes: the store
manifest and blobs, both ground-truth files, the taxonomy, the synth config
and the latents. Each of ``PINS`` is the sha256 of
``helpers.output_fingerprints`` of one run: every checkpoint blob, the
run-log losses and validation EDs, the prediction file and the report. A
change that claims to keep every output byte is checked here rather than by
hand.

``MID_PIN`` is the sha256 of the ``predictions.json`` and ``report.json`` of
one seed-0 train and eval at the benchmark's ``train_mid_attention`` shape
(``perfbench/bench.py``), whose 0.5-8 MB arrays leave the small-object heap
that the tiny configs never do. It leaves the checkpoint out: at that shape
its bytes depend on the BLAS thread count.

Float bytes depend on the numeric stack (numpy, and the BLAS kernels its
GEMMs run on), so the pins hold only on the stack they were recorded on; on
any other stack the test skips and names both stacks. To re-record after a
change that is meant to move numerics, print ``_run_digest`` for each
variant, ``_setup_digest`` of the fixture and ``_mid_digest``, and replace
``PINS``, ``SETUP_PIN``, ``MID_PIN`` and ``PINNED_STACK`` together.
"""

import hashlib
import json

import numpy as np
import pytest

from cliplta import SynthConfig, TrainConfig, generate, run_eval, train
from cliplta.model import VARIANTS
from helpers import output_fingerprints


def numeric_stack() -> str:
    """numpy version and BLAS build, from ``np.show_config``."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}; {blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})"


PINNED_STACK = ("numpy 2.4.6; scipy-openblas 0.3.31.188.0 "
                "(OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64)")

SETUP_PIN = "bdc5f1f2e12fa0ee89083cd675eb68899abf75146944c14713f6e2e1281cb769"

PINS = {
    "baseline": "41598342e783a7faf3b759925c2f9efa24b75c0ce444e2cf85f9ff695479dfc8",
    "clip_img_only": "6dfe58cf32c16235764d658d5e46fb8ff39ef2d41ef9df0aeb96de4b2308e162",
    "img_plus_clip": "210f3daa9cb62d904b492013363834582065c9cc9ccae6f713b43a7fe0a31aca",
    "img_plus_clip_text": "7f8cc34267ddf65d0a7b7044d6b4054d6544f12056b0f3b388a2dc8e3ee4c729",
    "clip_attention": "3a57334f1e8986b10b75b66f99edb4af10ffd651371826b19c1066898e190f76",
}

MID_PIN = "417d9a5bf9e6d628cc177e3af9d9b7db3815d8fcb3264e392cda4773a95da8ee"

# perfbench/bench.py's train_mid_attention workload at seed 0: Ego4D's Z=20, 115 verbs and 478 nouns
MID_SYNTH = dict(n_train=64, n_val=64, n_input_clips=2, N=32, c=128, d_video=256, signal_mode="single_frame",
                 Z=20, n_verbs=115, n_nouns=478, seed=0)
MID_TRAIN = dict(variant="clip_attention", epochs=2, batch_size=32, base_lr=3e-3, n_layers=2, n_heads_agg=8,
                 n_heads_ca=8, seed=0)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    cfg = SynthConfig(n_train=24, n_val=8, n_input_clips=2, N=3, c=8, d_video=8,
                      Z=3, n_verbs=4, n_nouns=4, noise_std=0.1, seed=5)
    return generate(cfg, tmp_path_factory.mktemp("pinned"))


def _setup_digest(data) -> str:
    """Digest of every file ``generate`` wrote under the dataset root, keyed by relative path."""
    files = sorted(path for path in data.root.rglob("*") if path.is_file())
    fingerprints = {str(path.relative_to(data.root)): hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in files}
    return hashlib.sha256(json.dumps(fingerprints, sort_keys=True).encode()).hexdigest()


def _run_digest(data, run_dir, variant: str) -> str:
    """Train ``variant`` for two epochs with validation each epoch, evaluate it; digest of the outputs."""
    ckpt, _ = train(TrainConfig(
        variant=variant, store=str(data.store_path), gt=str(data.gt_train_path),
        taxonomy=str(data.taxonomy_path), out_dir=str(run_dir), val_gt=str(data.gt_val_path),
        eval_every=1, epochs=2, batch_size=4, base_lr=1e-2, seed=0, n_layers=1, n_heads_agg=2, n_heads_ca=2,
    ))
    run_eval(ckpt, data.store_path, data.gt_val_path, data.taxonomy_path, K=3, seed=2)
    fingerprints = output_fingerprints(run_dir)
    return hashlib.sha256(json.dumps(fingerprints, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("variant", VARIANTS)
def test_trained_outputs_match_the_pins(data, tmp_path, variant):
    stack = numeric_stack()
    if stack != PINNED_STACK:
        pytest.skip(f"pins recorded on {PINNED_STACK!r}; this stack is {stack!r}")
    assert _run_digest(data, tmp_path / variant, variant) == PINS[variant]


def test_set_up_files_match_the_pin(data):
    stack = numeric_stack()
    if stack != PINNED_STACK:
        pytest.skip(f"pins recorded on {PINNED_STACK!r}; this stack is {stack!r}")
    # the pin covers exactly these files: nothing else, a temporary file included, is left behind
    names = {str(path.relative_to(data.root)) for path in data.root.rglob("*") if path.is_file()}
    blobs = {f"store/clip_{i:06d}.{kind}.bin" for i in range((24 + 8) * 2) for kind in ("frames", "video")}
    assert names == {"gt_train.json", "gt_val.json", "latents.json", "synth_config.json", "taxonomy.json",
                     "store/manifest.json"} | blobs
    assert _setup_digest(data) == SETUP_PIN


def _mid_digest(root) -> str:
    """Set up, train and evaluate (K=5, seed 0) the mid workload; digest of its prediction file and report."""
    data = generate(SynthConfig(**MID_SYNTH), root / "data")
    ckpt, _ = train(TrainConfig(store=str(data.store_path), gt=str(data.gt_train_path),
                                taxonomy=str(data.taxonomy_path), out_dir=str(root / "run"), **MID_TRAIN))
    pred_file, _ = run_eval(ckpt, data.store_path, data.gt_val_path, data.taxonomy_path, K=5, seed=0,
                            out_dir=root / "eval")
    fingerprints = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (pred_file, pred_file.parent / "report.json")}
    return hashlib.sha256(json.dumps(fingerprints, sort_keys=True).encode()).hexdigest()


def test_mid_profile_predictions_and_report_match_the_pin(tmp_path):
    stack = numeric_stack()
    if stack != PINNED_STACK:
        pytest.skip(f"pins recorded on {PINNED_STACK!r}; this stack is {stack!r}")
    assert _mid_digest(tmp_path) == MID_PIN
