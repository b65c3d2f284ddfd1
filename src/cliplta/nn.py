"""Minimal neural-net layers with hand-written backward passes.

Everything is plain numpy. Every layer follows one protocol: ``forward``
returns ``(output, cache)``, and ``backward(cache, d_out)`` returns one
gradient per input (a tuple when the forward takes several) and *writes*
its parameter gradients into its own registry, overwriting what the last
step left there. No caller writes a module's parameter gradients for it,
not even the query that ``LtaModel`` registers on its aggregator, and
nothing zeroes them between steps. This rests on one invariant: each
module's ``backward`` runs exactly once per ``LtaModel.backward_batch``
(every layer, head and aggregator is a distinct module), so gradients are
never summed over two calls.

:func:`attention` / :func:`attention_backward` are the one attention math
(scaled scores, softmax, weighted values and their backward) over heads
that :func:`split_heads` and :func:`merge_heads` lay out.
:class:`MultiHeadAttention` and the cross-attention aggregator of
:mod:`cliplta.aggregate` both call them. The one :func:`softmax` works in
place: it overwrites its argument and returns it, so callers pass a fresh
array. A query without the batch axis, such as the decoder's (Z, D) step
queries, is projected once and broadcast over B by the attention and the
residual; ``Linear.backward`` broadcasts such a cached input to ``d_out``'s
leading shape, so its weight gradient stays one GEMM over every row, with
the bytes of a materialised (B, Z, D) input.

:class:`TransformerLayer` is the one transformer block: ``forward(x,
memory)`` lets ``x`` attend over ``memory``. The encoder calls it with
``memory = x``, the decoder with the encoder output.

Every layer, the cross-attention aggregator and the model itself derive
from :class:`Module`, which holds the one parameter registry. A module
registers, in its ``__init__``, each parameter array with ``param`` (which
creates the gradient array alongside it) and each submodule with ``child``.
``named_parameters()`` / ``named_grads()`` walk that registry into flat
dotted-name dicts (``encoder.0.attn.q_proj.W``). ``zero_grad()`` zeroes
every gradient; it is not part of a training step, and stays only because
the benchmark's tracer wraps it. Updates mutate the arrays in place so the
name -> array references stay valid.

Every random initial value is drawn by :func:`init_uniform`. A layer built
with ``rng=None`` draws nothing: its parameters are left uninitialised, for
a caller (the checkpoint loader) that overwrites every one of them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis``, computed in place: overwrites ``x`` and returns it."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def init_uniform(rng: np.random.Generator | None, bound: float, shape, dtype) -> np.ndarray:
    """``rng.uniform(-bound, bound, shape)`` cast to ``dtype``; without a generator, ``np.empty``."""
    if rng is None:
        return np.empty(shape, dtype)
    return rng.uniform(-bound, bound, shape).astype(dtype)


class Module:
    """Registry of a module's parameters, their gradients and its named children."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.children: dict[str, Module] = {}

    def param(self, name: str, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Register ``value`` as parameter ``name``; returns it and its gradient array.

        The gradient comes from ``np.empty``: every backward pass writes
        every gradient it owns (the write-once invariant above), so no
        training step reads an unwritten one, and a model that is only
        evaluated never touches them.
        """
        self.params[name] = value
        self.grads[name] = grad = np.empty(value.shape, value.dtype)
        return value, grad

    def child(self, name: str, module: Module) -> Module:
        """Register ``module``; its names appear under ``<name>.``."""
        self.children[name] = module
        return module

    def _walk(self, prefix: str = ""):
        for name, value in self.params.items():
            yield prefix + name, value, self.grads[name]
        for name, module in self.children.items():
            yield from module._walk(f"{prefix}{name}.")

    def named_parameters(self) -> dict[str, np.ndarray]:
        return {name: value for name, value, _ in self._walk()}

    def named_grads(self) -> dict[str, np.ndarray]:
        return {name: grad for name, _, grad in self._walk()}

    def zero_grad(self) -> None:
        """Zero every gradient. No training step needs it: each backward overwrites its gradients."""
        for grad in self.grads.values():
            grad[...] = 0
        for module in self.children.values():
            module.zero_grad()


class Linear(Module):
    def __init__(self, rng: np.random.Generator | None, d_in: int, d_out: int, dtype=np.float32):
        super().__init__()
        self.W, self.dW = self.param("W", init_uniform(rng, 1.0 / np.sqrt(d_in), (d_in, d_out), dtype))
        self.b, self.db = self.param("b", np.zeros(d_out, dtype=dtype))

    # Leading axes are flattened so every product is one 2-D GEMM; a 3-D
    # matmul would run one small GEMM per leading index.
    def forward(self, x: np.ndarray):
        d_in, d_outw = self.W.shape
        y = x.reshape(-1, d_in) @ self.W
        y += self.b
        return y.reshape(x.shape[:-1] + (d_outw,)), x

    def backward(self, cache, d_out: np.ndarray) -> np.ndarray:
        d_in, d_outw = self.W.shape
        x = cache if cache.shape[:-1] == d_out.shape[:-1] else np.broadcast_to(cache, d_out.shape[:-1] + (d_in,))
        g = d_out.reshape(-1, d_outw)
        np.matmul(x.reshape(-1, d_in).T, g, out=self.dW)
        g.sum(axis=0, out=self.db)
        return (g @ self.W.T).reshape(x.shape)


class LayerNorm(Module):
    def __init__(self, d: int, dtype=np.float32, eps: float = 1e-5):
        super().__init__()
        self.gamma, self.dgamma = self.param("gamma", np.ones(d, dtype=dtype))
        self.beta, self.dbeta = self.param("beta", np.zeros(d, dtype=dtype))
        self.eps = eps

    # sum / d rather than mean: the same bytes (mean rounds a float64
    # quotient to float32, which equals the float32 quotient) at less
    # per-call overhead
    def forward(self, x: np.ndarray):
        d = x.shape[-1]
        mu = x.sum(axis=-1, keepdims=True) / d
        xc = x - mu
        var = (xc * xc).sum(axis=-1, keepdims=True) / d
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = xc * inv
        return self.gamma * xhat + self.beta, (xhat, inv)

    def backward(self, cache, d_out: np.ndarray) -> np.ndarray:
        xhat, inv = cache
        d = xhat.shape[-1]
        (d_out * xhat).reshape(-1, d).sum(axis=0, out=self.dgamma)
        d_out.reshape(-1, d).sum(axis=0, out=self.dbeta)
        dxhat = d_out * self.gamma
        # standard layernorm input gradient over the last axis
        return inv / d * (
            d * dxhat
            - dxhat.sum(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
        )


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, H*dh) -> (..., H, T, dh) view."""
    return x.reshape(x.shape[:-1] + (n_heads, -1)).swapaxes(-3, -2)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., H, T, dh) -> (..., T, H*dh); the inverse of :func:`split_heads`."""
    *lead, H, T, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, T, H * dh)


def attention(Qh: np.ndarray, Kh: np.ndarray, Vh: np.ndarray):
    """Scaled dot-product attention per head: returns (ctx, A).

    Qh (..., H, Tq, dh) scores the keys Kh (..., H, Tk, dh); the weights
    A = softmax(Qh Kh^T / sqrt(dh)) of shape (..., H, Tq, Tk) average the
    values Vh into ctx (..., H, Tq, dh). Leading axes broadcast, so one
    query row (H, 1, dh) can serve a whole batch of keys.
    """
    # a Python-float divisor keeps float32 scores in float32
    A = softmax(Qh @ Kh.swapaxes(-1, -2) / math.sqrt(Qh.shape[-1]))
    return A @ Vh, A


def attention_backward(Qh: np.ndarray, Kh: np.ndarray, Vh: np.ndarray, A: np.ndarray, d_ctx: np.ndarray):
    """Backward of :func:`attention`: returns (dQh, dKh, dVh) in the broadcast shape."""
    dA = d_ctx @ Vh.swapaxes(-1, -2)
    dVh = A.swapaxes(-1, -2) @ d_ctx
    # softmax's backward along the key axis, then the scale
    dS = A * (dA - np.sum(A * dA, axis=-1, keepdims=True)) / math.sqrt(Qh.shape[-1])
    return dS @ Kh, dS.swapaxes(-1, -2) @ Qh, dVh


class MultiHeadAttention(Module):
    """Batched multi-head attention; query and key/value inputs may differ."""

    def __init__(self, rng: np.random.Generator | None, d_model: int, n_heads: int, dtype=np.float32):
        super().__init__()
        if d_model % n_heads != 0:
            raise ValidationError(f"d_model={d_model} must be divisible by n_heads={n_heads}")
        self.n_heads = n_heads
        self.q_proj = self.child("q_proj", Linear(rng, d_model, d_model, dtype))
        self.k_proj = self.child("k_proj", Linear(rng, d_model, d_model, dtype))
        self.v_proj = self.child("v_proj", Linear(rng, d_model, d_model, dtype))
        self.o_proj = self.child("o_proj", Linear(rng, d_model, d_model, dtype))

    def forward(self, q_in: np.ndarray, kv_in: np.ndarray):
        Q, cq = self.q_proj.forward(q_in)
        K, ck = self.k_proj.forward(kv_in)
        V, cv = self.v_proj.forward(kv_in)
        Qh, Kh, Vh = (split_heads(x, self.n_heads) for x in (Q, K, V))
        ctx, A = attention(Qh, Kh, Vh)
        out, co = self.o_proj.forward(merge_heads(ctx))
        return out, (cq, ck, cv, co, Qh, Kh, Vh, A)

    def backward(self, cache, d_out: np.ndarray):
        """Returns (d_q_in, d_kv_in)."""
        cq, ck, cv, co, Qh, Kh, Vh, A = cache
        d_ctx = split_heads(self.o_proj.backward(co, d_out), self.n_heads)
        dQh, dKh, dVh = attention_backward(Qh, Kh, Vh, A, d_ctx)
        d_q_in = self.q_proj.backward(cq, merge_heads(dQh))
        d_kv_in = self.k_proj.backward(ck, merge_heads(dKh))
        d_kv_in = d_kv_in + self.v_proj.backward(cv, merge_heads(dVh))
        return d_q_in, d_kv_in


class FeedForward(Module):
    def __init__(self, rng: np.random.Generator | None, d_model: int, d_ff: int, dtype=np.float32):
        super().__init__()
        self.lin1 = self.child("lin1", Linear(rng, d_model, d_ff, dtype))
        self.lin2 = self.child("lin2", Linear(rng, d_ff, d_model, dtype))

    # The ReLU overwrites lin1's output, so forward and backward each hold one
    # d_ff-wide array: the cache is (c1, c2), and lin2's input c2 = relu(h)
    # gives the backward its mask, since relu(h) > 0 exactly where h > 0
    # (also for -0.0 and NaN).
    def forward(self, x: np.ndarray):
        h, c1 = self.lin1.forward(x)
        np.maximum(h, 0, out=h)
        out, c2 = self.lin2.forward(h)
        return out, (c1, c2)

    def backward(self, cache, d_out: np.ndarray) -> np.ndarray:
        c1, c2 = cache
        da = self.lin2.backward(c2, d_out)
        da *= c2 > 0
        return self.lin1.backward(c1, da)


class TransformerLayer(Module):
    """Post-norm block: ``x`` attends over ``memory``, then feed-forward, residual each."""

    def __init__(self, rng: np.random.Generator | None, d_model: int, n_heads: int, d_ff: int, dtype=np.float32):
        super().__init__()
        self.attn = self.child("attn", MultiHeadAttention(rng, d_model, n_heads, dtype))
        self.ln1 = self.child("ln1", LayerNorm(d_model, dtype))
        self.ffn = self.child("ffn", FeedForward(rng, d_model, d_ff, dtype))
        self.ln2 = self.child("ln2", LayerNorm(d_model, dtype))

    def forward(self, x: np.ndarray, memory: np.ndarray):
        a, ca = self.attn.forward(x, memory)
        y1, c1 = self.ln1.forward(x + a)
        f, cf = self.ffn.forward(y1)
        y2, c2 = self.ln2.forward(y1 + f)
        return y2, (ca, c1, cf, c2)

    def backward(self, cache, d_out: np.ndarray):
        """Returns (d_x, d_memory)."""
        ca, c1, cf, c2 = cache
        dh2 = self.ln2.backward(c2, d_out)
        dy1 = dh2 + self.ffn.backward(cf, dh2)
        dh1 = self.ln1.backward(c1, dy1)
        dq, d_memory = self.attn.backward(ca, dh1)
        return dh1 + dq, d_memory


def cross_entropy_with_logits(logits: np.ndarray, targets: np.ndarray):
    """Per-element negative log-likelihood and its logit gradient.

    logits: (..., C); targets: integer array matching the leading shape.
    Returns (nll (...,), d_logits (..., C)) where d_logits is the gradient of
    the summed (not averaged) nll.
    """
    targets = np.asarray(targets)
    C = logits.shape[-1]
    if targets.min() < 0 or targets.max() >= C:
        raise ValidationError(f"target id out of range for {C} classes")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    picked = (*np.indices(targets.shape, sparse=True), targets)   # each target's logit, once
    nll = -logp[picked]
    d_logits = np.exp(logp)
    d_logits[picked] -= 1
    return nll, d_logits
