"""Pinned output bytes of a tiny train + eval run of every variant.

Each pin is the sha256 of ``helpers.output_fingerprints`` of one run: every
checkpoint blob, the run-log losses and validation EDs, the prediction file
and the report. A change that claims to keep every output byte is checked
here rather than by hand.

Float bytes depend on the numeric stack (numpy, and the BLAS kernels its
GEMMs run on), so the pins hold only on the stack they were recorded on; on
any other stack the test skips and names both stacks. To re-record after a
change that is meant to move numerics, print ``_run_digest`` for each
variant and replace ``PINS`` together with ``PINNED_STACK``.
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

PINS = {
    "baseline": "41598342e783a7faf3b759925c2f9efa24b75c0ce444e2cf85f9ff695479dfc8",
    "clip_img_only": "6dfe58cf32c16235764d658d5e46fb8ff39ef2d41ef9df0aeb96de4b2308e162",
    "img_plus_clip": "210f3daa9cb62d904b492013363834582065c9cc9ccae6f713b43a7fe0a31aca",
    "img_plus_clip_text": "7f8cc34267ddf65d0a7b7044d6b4054d6544f12056b0f3b388a2dc8e3ee4c729",
    "clip_attention": "3a57334f1e8986b10b75b66f99edb4af10ffd651371826b19c1066898e190f76",
}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    cfg = SynthConfig(n_train=24, n_val=8, n_input_clips=2, N=3, c=8, d_video=8,
                      Z=3, n_verbs=4, n_nouns=4, noise_std=0.1, seed=5)
    return generate(cfg, tmp_path_factory.mktemp("pinned"))


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
