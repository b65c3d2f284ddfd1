"""Spans around cliplta's layer boundaries, installed from outside the package.

A :class:`Tracer` keeps every span in memory as ``[name, start, end, parent]``
and turns them into per-name self times when asked. :func:`instrument`
replaces, for the duration of a ``with`` block, the public functions and
methods of each cliplta module with wrappers that open a span around the
original call:

* module-level functions as bound in the namespace of the module that calls
  them (``harness.sample_candidates``, ``metrics.edit_distance``, ...);
* methods on the classes (``FeatureStore.read_clip``, ``LtaModel.zero_grad``,
  ...);
* per-instance ``forward``/``backward`` wrappers on the public submodules of
  every ``LtaModel`` constructed inside the block, installed right after its
  constructor returns.

The wrappers pass arguments and results through untouched, so a traced run
computes exactly what an untraced run does.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from cliplta import featurestore, harness, metrics, model, synthdata

# (namespace, attribute, span name). A function is wrapped where its caller
# looks it up, which is not always the module that defines it.
FUNCTIONS = (
    (synthdata, "generate", "synthdata.generate"),
    (harness, "train", "harness.train"),
    (harness, "run_eval", "harness.run_eval"),
    (harness, "load_dataset", "harness.load_dataset"),
    (harness, "precompute_descriptors", "harness.precompute_descriptors"),
    (harness, "img_text_concat", "aggregate.img_text_concat"),
    (harness, "read_ground_truth", "metrics.read_ground_truth"),
    (harness, "batch_loss_and_grads", "model.loss"),
    (harness, "sample_candidates", "model.sample_candidates"),
    (harness, "save_checkpoint", "model.save_checkpoint"),
    (harness, "load_checkpoint", "model.load_checkpoint"),
    (harness, "write_predictions", "model.write_predictions"),
    (harness, "evaluate", "metrics.evaluate"),
    (metrics, "edit_distance", "metrics.edit_distance"),
    (model, "cross_attention_forward", "aggregator.fwd"),
    (model, "cross_attention_backward", "aggregator.bwd"),
)

METHODS = (
    (featurestore.FeatureStore, "write_clip", "featurestore.write_clip"),
    (featurestore.FeatureStore, "read_clip", "featurestore.read_clip"),
    (harness.Dataset, "batch", "harness.batch"),
    (model.LtaModel, "forward_batch", "model.forward"),
    (model.LtaModel, "backward_batch", "model.backward"),
    (model.LtaModel, "zero_grad", "model.zero_grad"),
)

FP64_OUTPUTS = "model.fp64_outputs"
PARAM_BYTES = "model.param_bytes"


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = self.clock()

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def calls(self) -> Counter:
        return Counter(name for name, _, _, _ in self.spans)


def self_times(spans) -> dict[str, float]:
    """Per-name sum of span duration minus the time its direct children cover.

    Spans are ``(name, start, end, parent_index)`` with ``-1`` for a root.
    Calls on one thread nest, so a parent's children are disjoint and the
    covered time is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def _submodules(m: model.LtaModel):
    """(span prefix, module) for every public submodule that has its own timing."""
    for i, layer in enumerate(m.encoder):
        yield f"encoder.{i}.attn", layer.attn
        yield f"encoder.{i}.ffn", layer.ffn
        yield f"encoder.{i}.ln", layer.ln1
        yield f"encoder.{i}.ln", layer.ln2
    yield "decoder.attn", m.dec_attn
    yield "decoder.ffn", m.dec_ffn
    yield "decoder.ln", m.dec_ln1
    yield "decoder.ln", m.dec_ln2
    yield "heads", m.verb_head
    yield "heads", m.noun_head


def _count_fp64(tracer: Tracer, params_dtype, out) -> None:
    if params_dtype == np.float32 and getattr(out, "dtype", None) == np.float64:
        tracer.counts[FP64_OUTPUTS] += 1


def _instrument_model(tracer: Tracer, m: model.LtaModel) -> None:
    nbytes = sum(a.nbytes for a in m.named_parameters().values())
    tracer.counts[PARAM_BYTES] = max(tracer.counts[PARAM_BYTES], nbytes)
    for prefix, mod in _submodules(m):
        forward, backward = mod.forward, mod.backward

        def traced_forward(*args, _fn=forward, _name=f"{prefix}.fwd", **kwargs):
            result = tracer.call(_name, _fn, *args, **kwargs)
            _count_fp64(tracer, m.dtype, result[0])
            return result

        def traced_backward(*args, _fn=backward, _name=f"{prefix}.bwd", **kwargs):
            return tracer.call(_name, _fn, *args, **kwargs)

        mod.forward = traced_forward
        mod.backward = traced_backward


@contextmanager
def instrument(tracer: Tracer):
    """Route cliplta's layer boundaries through ``tracer`` inside the block."""
    restore = []

    def patch(owner, attr, replacement):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for owner, attr, name in FUNCTIONS + METHODS:
            original = getattr(owner, attr)

            def traced(*args, _fn=original, _name=name, **kwargs):
                return tracer.call(_name, _fn, *args, **kwargs)

            patch(owner, attr, traced)

        cross_attention_forward = model.cross_attention_forward

        def traced_aggregator(params, query, frames):
            out = cross_attention_forward(params, query, frames)
            _count_fp64(tracer, params.W_q.dtype, out[0])
            return out

        patch(model, "cross_attention_forward", traced_aggregator)

        init = model.LtaModel.__init__

        def traced_init(self, *args, **kwargs):
            tracer.call("model.init", init, self, *args, **kwargs)
            _instrument_model(tracer, self)

        patch(model.LtaModel, "__init__", traced_init)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
