"""Freed arrays stay mapped: a repeated call at the Ego4D sizes faults no page in again.

Without the ``mallopt`` settings that importing ``cliplta`` makes, glibc
unmaps each freed array above its mmap threshold and trims the heap top, so
every mid-shaped ``forward_batch`` (64 examples x 2 clips x 32 frames x 128
channels, Z=20, 115 verbs / 478 nouns) takes about 8,400 minor page faults
and every ``load_checkpoint`` of that model about 6,400. The counts are taken
in a fresh process, so no earlier test has warmed its heap.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cliplta

MAX_FAULTS = 500

SCRIPT = r"""
import json, resource, sys, tempfile
import numpy as np
from cliplta.model import LtaModel, LtaModelConfig, load_checkpoint, save_checkpoint

config = LtaModelConfig(variant="clip_attention", n_verbs=115, n_nouns=478, c=128, d_video=256,
                        n_input_clips=2, Z=20, n_layers=2, n_heads_agg=8, n_heads_ca=8)
model = LtaModel(config)
rng = np.random.default_rng(0)
batch = {"video": rng.standard_normal((64, 2, 256), dtype=np.float32),
         "frames": rng.standard_normal((64, 2, 32, 128), dtype=np.float32)}
ckpt = tempfile.mkdtemp(dir=sys.argv[1])
save_checkpoint(model, ckpt)

faults = {}
for name, call in (("forward_batch", lambda: model.forward_batch(batch)),
                   ("load_checkpoint", lambda: load_checkpoint(ckpt))):
    call()  # the first call's result is freed before the second allocates
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    faults[name] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(faults))
"""


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt, so freed arrays are not kept")
def test_second_mid_forward_and_checkpoint_load_fault_no_pages_in(tmp_path):
    src = str(Path(cliplta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.splitlines()[-1])
    assert faults["forward_batch"] < MAX_FAULTS, faults
    assert faults["load_checkpoint"] < MAX_FAULTS, faults
