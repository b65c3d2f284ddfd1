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

import ctypes

from .aggregate import (
    CrossAttention,
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

# glibc's mallopt parameters: the free heap top kept before trimming, and the
# size from which an allocation gets its own mapping (64-bit maximum 32 MiB)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_SETTINGS = ((_M_TRIM_THRESHOLD, 128 << 20), (_M_MMAP_THRESHOLD, 32 << 20))


def _keep_freed_memory() -> None:
    """Keep freed arrays mapped in the process heap, for the next call to reuse.

    glibc gives an allocation above its mmap threshold a mapping of its own
    and unmaps it on free, and trims the heap top once twice that threshold
    lies free, so each call at the Ego4D sizes (0.5-8 MB activations and
    sampling CDFs) faulted every page in again: about 8,400 minor faults per
    mid-shaped ``forward_batch`` and 6,400 per ``load_checkpoint``. Setting
    either threshold turns glibc's dynamic threshold off, so both are set:
    the mmap threshold to its maximum and the trim threshold above one
    step's freed activations. It changes no computed byte. Where the C
    library has no ``mallopt`` (macOS, musl, Windows) nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: Windows' CDLL takes no None
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in _HEAP_SETTINGS:
        mallopt(param, value)


_keep_freed_memory()
