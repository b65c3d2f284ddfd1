#!/usr/bin/env python3
"""The on-disk feature store: what an offline extractor writes.

The store is deliberately boring: one headerless little-endian float32 blob
per tensor plus a JSON manifest. That makes round-trips bit-exact (negative
zero and denormals included) and lets an extraction pipeline in any
language produce features this package can train on. This script plays the
role of such an extractor, then reads everything back and checks it.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from cliplta import FeatureStore, stub_embed

root = Path(tempfile.mkdtemp()) / "store"
N, C, D_VIDEO = 4, 16, 32

# --- writer side: one clip at a time, then seal --------------------------
rng = np.random.default_rng(0)
store = FeatureStore.create(root, c=C, d_video=D_VIDEO)
for example in range(2):
    for t in range(2):  # two observed clips per example, ids "<example>#<t>"
        clip_id = f"demo_{example:05d}#{t}"
        frames = np.stack([stub_embed(9, f"{clip_id}/frame{r}", C) for r in range(N)])
        video = rng.standard_normal(D_VIDEO).astype(np.float32)
        store.write_clip(clip_id, frames, video)
store.seal()  # manifest written; store is immutable from here on

print(f"store sealed at {root}")
print("files:", sorted(p.name for p in root.iterdir())[:4], "...")
manifest = json.loads((root / "manifest.json").read_text())
print(f"manifest: c={manifest['c']} d_video={manifest['d_video']} "
      f"dtype={manifest['dtype']} clips={len(manifest['clips'])}")
print("first entry:", manifest["clips"][0])

# --- reader side ----------------------------------------------------------
reader = FeatureStore.open(root)
frames_back, video_back = reader.read_clip("demo_00000#0")
print(f"\nread back demo_00000#0: frames {frames_back.shape}, video {video_back.shape}")

# bit-exactness, not just closeness: float32 in, identical bytes out
tricky = np.array([[-0.0, np.finfo(np.float32).tiny, 1e-45, 3.14]], dtype=np.float32)
store2 = FeatureStore.create(root.parent / "tricky", c=4, d_video=4)
store2.write_clip("t", tricky, tricky[0])
store2.seal()
got, _ = FeatureStore.open(root.parent / "tricky").read_clip("t")
assert got.tobytes() == tricky.tobytes()
print("\nnegative zero and denormals survive the round trip byte for byte;")
print("a real extractor would write the same layout (suggested sampling:")
print("32 frames per clip at stride 4) and the training harness consumes it as is.")
