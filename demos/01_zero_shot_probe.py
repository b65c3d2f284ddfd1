#!/usr/bin/env python3
"""Zero-shot label probing of individual frame embeddings.

Builds stub text-embedding tables for a small kitchen-flavored taxonomy,
plants a known noun direction in a few "frames", and shows how cosine
ranking recovers the top-1 place/scenario and top-3 verbs/nouns per frame
without any training. The probe takes all frames of a clip at once and
returns one JSON-ready record per frame.
"""

import json

import numpy as np

from cliplta import Taxonomy, build_text_table, zero_shot_probe
from cliplta.taxonomy import CATEGORIES

C = 64          # embedding width
TEXT_SEED = 100

taxonomy = Taxonomy(
    verbs=("take", "put", "cut", "wash", "stir"),
    nouns=("cup", "knife", "pan", "board", "onion"),
    scenarios=("cooking", "cleaning", "crafting"),
    places=("kitchen", "workshop", "garden"),
)

# one table per category; every vocabulary entry goes through the same
# prompt template before encoding with the stub text encoder
tables = {cat: build_text_table(taxonomy, cat, "a photo of {}", TEXT_SEED, C) for cat in CATEGORIES}

print("probing frames that are noisy copies of known noun embeddings\n")
rng = np.random.default_rng(0)
planted = ("pan", "onion", "knife")
frames = np.stack([tables["noun"].embeddings[taxonomy.nouns.index(noun)] for noun in planted])
frames += 0.05 * rng.standard_normal(frames.shape)
for noun, record in zip(planted, zero_shot_probe(frames, tables, taxonomy)):
    print(f"frame {record['frame']} (planted noun: {noun})")
    print(f"  place    -> {record['names']['place']}  (score {record['place'][1]:.3f})")
    print(f"  scenario -> {record['names']['scenario']}  (score {record['scenario'][1]:.3f})")
    print(f"  verbs    -> {record['names']['verbs']}")
    print(f"  nouns    -> {record['names']['nouns']}")
    assert record["names"]["nouns"][0] == noun

print("\nthe same record as the JSON-lines format the `probe` subcommand emits:")
print(json.dumps(record))
