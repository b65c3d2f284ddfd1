import numpy as np
import pytest

from cliplta import Taxonomy, build_text_table
from cliplta.taxonomy import CATEGORIES


@pytest.fixture
def small_taxonomy():
    return Taxonomy(
        verbs=("take", "put", "cut", "wash"),
        nouns=("cup", "knife", "pan", "board"),
        scenarios=("cooking", "cleaning", "crafting"),
        places=("kitchen", "workshop", "garden"),
    )


@pytest.fixture
def stub_tables(small_taxonomy):
    def make(c=16, seed=100):
        return {cat: build_text_table(small_taxonomy, cat, "a photo of {}", seed, c) for cat in CATEGORIES}
    return make


@pytest.fixture
def rng():
    return np.random.default_rng(20240607)
