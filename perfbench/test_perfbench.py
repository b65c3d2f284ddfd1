"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import spans  # noqa: E402
from cliplta.model import LtaModel, LtaModelConfig  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_call_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds leaf [2, 3]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))

    def a():
        tracer.call("leaf", lambda: None)

    def root():
        tracer.call("a", a)
        tracer.call("b", lambda: None)

    tracer.call("root", root)
    assert tracer.self_times() == {"root": 3, "a": 2, "leaf": 1, "b": 4}
    assert tracer.calls() == {"root": 1, "a": 1, "leaf": 1, "b": 1}


def test_self_time_sums_repeated_names_and_closes_raising_spans():
    tracer = spans.Tracer(clock=FakeClock([0, 1, 3, 4, 7, 10]))

    def fail():
        raise ValueError("boom")

    def root():
        tracer.call("x", lambda: None)
        with pytest.raises(ValueError):
            tracer.call("x", fail)

    tracer.call("root", root)
    # x: [1, 3] and [4, 7]; root [0, 10] minus 5 covered
    assert tracer.self_times() == {"root": 5, "x": 5}


def _small_model(seed=3):
    cfg = LtaModelConfig(variant="clip_attention", n_verbs=5, n_nouns=7, c=8, d_video=8,
                         n_input_clips=2, Z=3, n_layers=2, n_heads_agg=2, n_heads_ca=2, seed=seed)
    return LtaModel(cfg)


def _step(m):
    rng = np.random.default_rng(0)
    batch = {"video": rng.standard_normal((4, 2, 8)).astype(np.float32),
             "frames": rng.standard_normal((4, 2, 5, 8)).astype(np.float32)}
    verb, noun, cache = m.forward_batch(batch)
    m.zero_grad()
    m.backward_batch(cache, np.ones_like(verb), np.ones_like(noun))
    grads = {k: v.copy() for k, v in m.named_grads().items()}
    return verb, noun, grads


def _patched_attributes():
    return [getattr(owner, attr) for owner, attr, _ in spans.FUNCTIONS + spans.METHODS] + [LtaModel.__init__]


def test_wrappers_leave_model_outputs_unchanged():
    originals = _patched_attributes()
    plain = _step(_small_model())
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced = _step(_small_model())
    assert plain[0].tobytes() == traced[0].tobytes()
    assert plain[1].tobytes() == traced[1].tobytes()
    assert plain[2].keys() == traced[2].keys()
    for name in plain[2]:
        assert plain[2][name].tobytes() == traced[2][name].tobytes(), name

    times = tracer.self_times()
    for name in ("encoder.1.attn.fwd", "decoder.ln.bwd", "heads.fwd", "aggregator.bwd",
                 "model.forward", "model.zero_grad", "model.init"):
        assert name in times, name
    assert tracer.counts[spans.PARAM_BYTES] > 0
    # the block restores every original
    assert all(now is before for now, before in zip(_patched_attributes(), originals))


def test_fp64_counter_counts_only_float64_outputs_of_float32_modules():
    tracer = spans.Tracer()
    spans._count_fp64(tracer, np.float32, np.zeros(2, np.float64))
    spans._count_fp64(tracer, np.float32, np.zeros(2, np.float32))
    spans._count_fp64(tracer, np.float64, np.zeros(2, np.float64))
    assert tracer.counts[spans.FP64_OUTPUTS] == 1


def test_traced_repetition_matches_untraced_and_names_known_metrics(tmp_path):
    wl = bench.Workload(
        why="test",
        synth=dict(n_train=16, n_val=8, n_input_clips=2, N=4, c=8, d_video=8, Z=3,
                   n_verbs=4, n_nouns=5, signal_mode="single_frame"),
        train=dict(variant="clip_attention", epochs=1, batch_size=8, base_lr=1e-3,
                   n_layers=2, n_heads_agg=2, n_heads_ca=2),
        evals=2,
    )
    data = bench.set_up(wl, 0, tmp_path / "data")
    plain = bench.repeat(wl, data, 0, tmp_path / "plain")
    traced = bench.traced_rep(wl, data, 0, tmp_path / "traced")
    assert len(plain.eval_s) == 2
    assert traced.predictions == plain.predictions
    assert traced.losses == plain.losses
    assert set(traced.layers) <= set(bench.PER_LAYER)
    assert traced.layers["metrics.edit_distance_calls"] == 2 * 2 * bench.K * wl.synth["n_val"]
    assert traced.layers["featurestore.read_clip_calls"] == 2 * (16 + 2 * 8)

    checks = bench.Checks()
    bench.check_rep(plain, None, wl, data, tmp_path / "plain", checks, "warm-up")
    bench.check_rep(traced, plain, wl, data, tmp_path / "traced", checks, "traced")
    assert checks.failures == []
    # warm-up: re-score, its second eval (2 checks), 2 ED ranges; traced: losses, 2 evals x 2, 2 ED ranges
    assert checks.attempted == 5 + 7


def test_check_rep_counts_each_differing_output_as_one_failure():
    wl = bench.Workload(why="test", synth={}, train={}, ed_bound=0.5, evals=2)
    ref = bench.Rep(train_s=1, eval_s=[1, 1], losses=[0.5], predictions=[b"p", b"p"],
                    reports=[b"r", b"r"], verb_ed=0.1, noun_ed=0.2)
    rep = bench.Rep(train_s=1, eval_s=[1, 1], losses=[0.5], predictions=[b"p", b"q"],
                    reports=[b"r", b"r"], verb_ed=0.1, noun_ed=0.7)
    checks = bench.Checks()
    bench.check_rep(rep, ref, wl, None, None, checks, "rep")
    assert checks.attempted == 9
    assert checks.failures == ["rep: eval 1 predictions.json differs from the warm-up",
                               "rep: noun ED 0.7 not under the learning bound 0.5"]


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END
    assert per_layer == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in bench.WORKLOADS.items()}
    for name in [*e2e, *per_layer, *bench.WORKLOADS]:
        assert NAME.fullmatch(name), name
