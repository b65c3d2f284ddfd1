"""Long-term action anticipation from fused video and image-text embeddings.

Library layout:

* :mod:`cliplta.taxonomy`     - verb/noun/scenario/place label spaces
* :mod:`cliplta.featurestore` - stub encoders and the on-disk embedding store
* :mod:`cliplta.aggregate`    - frame-to-clip descriptors and the zero-shot probe
* :mod:`cliplta.model`        - fusion, transformer aggregator + decoder, sampling
* :mod:`cliplta.metrics`      - edit distance and the ED@(Z,K) protocol
* :mod:`cliplta.synthdata`    - deterministic synthetic benchmark generator
* :mod:`cliplta.harness`      - training loop and evaluation driver
* :mod:`cliplta.cli`          - gen-synth / train / eval / probe / report
"""

from .aggregate import (
    CrossAttention,
    ProbeReport,
    img_text_concat,
    mean_pool,
    rank_labels,
    zero_shot_probe,
)
from .errors import NumericError, ValidationError
from .featurestore import (
    FeatureStore,
    TextEmbeddingTable,
    build_text_table,
    stub_embed,
)
from .harness import RunLog, TrainConfig, run_eval, train
from .metrics import EvalReport, ed_at_zk, edit_distance, evaluate
from .model import (
    LtaModel,
    LtaModelConfig,
    load_checkpoint,
    sample_candidates,
    save_checkpoint,
)
from .synthdata import SynthConfig, SynthDataset, generate
from .taxonomy import Taxonomy, load_taxonomy, save_taxonomy

__version__ = "0.1.0"
