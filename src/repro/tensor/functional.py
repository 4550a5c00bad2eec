"""Composite and fused differentiable operations.

These are the numerically careful building blocks the transformer stack
needs: stable softmax / log-softmax, a fused cross-entropy (the dominant op
in LM training), GELU/SiLU activations, embedding gather, and dropout.

Every kernel here is an explicit :class:`~repro.tensor.tensor.Op` so the
graph capture layer (:mod:`repro.tensor.graph`) can record and replay it.
Integer/bool side inputs (cross-entropy targets, embedding ids, fill
masks) are modeled as *non-differentiable parents* rather than baked into
the node, which is what lets a captured decode graph replay with fresh
token ids and masks each step.  Dropout is the one exception: its forward
draws from an external RNG, so it stays a legacy closure node and marks
any capture in progress uncacheable.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Optional

import numpy as np

from .tensor import Op, Tensor, _ensure_tensor, _unbroadcast, apply_op

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))

# Context-local toggle for the fused normalization / activation kernels
# below.  The fused forwards replay the exact numpy op sequence of the
# composed implementations, so flipping this never changes forward values —
# it only trades many small tape nodes for one fused node per call.  A
# contextvar (not a module global) so threaded serve/test paths can't race
# each other's ``fused_kernels()`` scopes.
_FUSED_ENABLED: contextvars.ContextVar = contextvars.ContextVar(
    "repro_fused_kernels", default=True
)


def fused_kernels_enabled() -> bool:
    """Whether layers should route through the fused kernels."""
    return _FUSED_ENABLED.get()


def set_fused_kernels(enabled: bool) -> bool:
    """Enable/disable fused kernels for this context; returns the previous value."""
    previous = _FUSED_ENABLED.get()
    _FUSED_ENABLED.set(bool(enabled))
    return previous


@contextlib.contextmanager
def fused_kernels(enabled: bool = True):
    """Context manager scoping the fused-kernel toggle."""
    token = _FUSED_ENABLED.set(bool(enabled))
    try:
        yield
    finally:
        _FUSED_ENABLED.reset(token)


class SoftmaxOp(Op):
    name = "softmax"

    def forward(self, inputs, attrs, out=None):
        axis = attrs
        x = inputs[0]
        shifted = x - x.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)
        return out_data, (out_data, axis)

    def vjp(self, ctx, grad, needs):
        out_data, axis = ctx
        if needs[0]:
            # dL/dx = s * (g - sum(g * s))
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            yield 0, out_data * (grad - dot)


class LogSoftmaxOp(Op):
    name = "log_softmax"

    def forward(self, inputs, attrs, out=None):
        axis = attrs
        x = inputs[0]
        shifted = x - x.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - logsumexp
        return out_data, (np.exp(out_data), axis)

    def vjp(self, ctx, grad, needs):
        soft, axis = ctx
        if needs[0]:
            yield 0, grad - soft * grad.sum(axis=axis, keepdims=True)


class CrossEntropyOp(Op):
    """Mean token cross-entropy; parent 1 carries the integer targets so a
    captured graph replays with fresh targets instead of baked ones."""

    name = "cross_entropy"

    def forward(self, inputs, attrs, out=None):
        logits, targets = inputs
        ignore_index = attrs
        flat_logits = logits.reshape(-1, logits.shape[-1])
        flat_targets = targets.reshape(-1)
        if flat_targets.dtype != np.int64:
            flat_targets = flat_targets.astype(np.int64)

        if ignore_index is not None:
            valid = flat_targets != ignore_index
        else:
            valid = np.ones_like(flat_targets, dtype=bool)
        n_valid = max(int(valid.sum()), 1)

        shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        log_probs = shifted - logsumexp

        safe_targets = np.where(valid, flat_targets, 0)
        picked = log_probs[np.arange(flat_targets.shape[0]), safe_targets]
        loss_val = -(picked * valid).sum() / n_valid
        out_data = np.asarray(loss_val, dtype=logits.dtype)
        return out_data, (log_probs, safe_targets, valid, n_valid, logits.shape)

    def vjp(self, ctx, grad, needs):
        log_probs, safe_targets, valid, n_valid, shape = ctx
        if needs[0]:
            probs = np.exp(log_probs)
            probs[np.arange(safe_targets.shape[0]), safe_targets] -= 1.0
            probs *= valid[:, None]
            probs *= float(grad) / n_valid
            yield 0, probs.reshape(shape)


class GeluOp(Op):
    name = "gelu"
    elementwise = True

    def forward(self, inputs, attrs, out=None):
        d = inputs[0]
        inner = _SQRT_2_OVER_PI * (d + 0.044715 * d**3)
        t = np.tanh(inner)
        out_data = 0.5 * d * (1.0 + t)
        return out_data, (d, t)

    def vjp(self, ctx, grad, needs):
        d, t = ctx
        if needs[0]:
            dinner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * d**2)
            dt = (1.0 - t**2) * dinner
            yield 0, grad * (0.5 * (1.0 + t) + 0.5 * d * dt)


class SiluOp(Op):
    name = "silu"
    elementwise = True

    def forward(self, inputs, attrs, out=None):
        d = inputs[0]
        sig = 0.5 * (1.0 + np.tanh(0.5 * d))
        return d * sig, (d, sig)

    def vjp(self, ctx, grad, needs):
        d, sig = ctx
        if needs[0]:
            yield 0, grad * (sig * (1.0 + d * (1.0 - sig)))


class SiluMulOp(Op):
    """Fused ``silu(a) * b`` — the SwiGLU gate — as one tape node.

    Bit-equivalent to the composed ``silu(a) * b``: the forward replays the
    identical numpy op sequence, and the VJP yields grads in the composed
    accumulation order (b before a).
    """

    name = "silu_mul"
    elementwise = True

    def forward(self, inputs, attrs, out=None):
        ad, bd = inputs
        sig = 0.5 * (1.0 + np.tanh(0.5 * ad))
        sa = ad * sig
        out_data = sa * bd
        return out_data, (ad, bd, sig, sa)

    def vjp(self, ctx, grad, needs):
        ad, bd, sig, sa = ctx
        if needs[1]:
            yield 1, _unbroadcast(grad * sa, bd.shape)
        if needs[0]:
            ga = (grad * bd) * (sig * (1.0 + ad * (1.0 - sig)))
            yield 0, _unbroadcast(ga, ad.shape)


class RmsNormOp(Op):
    """Fused RMSNorm ``x * (mean(x²) + eps)^-½ * weight`` as one tape node.

    Bit-equivalent to the composed layer implementation: forward mirrors
    its exact numpy op order (including the float32 conversion of scalar
    constants done by ``Tensor.__init__``), backward mirrors the composed
    per-tensor gradient accumulation order (weight before x).
    """

    name = "rms_norm"

    def forward(self, inputs, attrs, out=None):
        xd, wd = inputs
        inv_n = np.float32(1.0 / xd.shape[-1])
        epsf = np.float32(attrs)
        sq = xd * xd
        s = sq.sum(axis=-1, keepdims=True)
        t = s * inv_n + epsf
        r = t**-0.5
        xr = xd * r
        out_data = xr * wd
        return out_data, (xd, wd, inv_n, t, r, xr)

    def vjp(self, ctx, grad, needs):
        xd, wd, inv_n, t, r, xr = ctx
        if needs[1]:
            yield 1, _unbroadcast(grad * xr, wd.shape)
        if needs[0]:
            gxr = grad * wd
            g1 = gxr * r
            gr = (gxr * xd).sum(axis=-1, keepdims=True)
            gs = (gr * -0.5 * t**-1.5) * inv_n
            gsq = np.broadcast_to(gs, xd.shape).astype(xd.dtype)
            g2 = gsq * xd
            yield 0, (g1 + g2) + g2


class RopeOp(Op):
    """Fused rotary position embedding over interleaved channel pairs.

    Parents are ``(x, cos_t, sin_t)``: ``x`` is ``(..., head_dim)`` and
    the tables broadcast against its ``(..., head_dim // 2)`` pair view.
    The tables are non-differentiable parents, so a captured decode graph
    takes per-row tables as replay-time inputs.

    Bit-equivalent to the composed chain ``x1*cos - x2*sin``,
    ``x1*sin + x2*cos`` re-interleaved: the forward runs the same float
    ops, and each half of the input gradient is the same two-term sum
    (``a - b`` is ``a + (-b)`` exactly).  The composed chain routes the
    gradient through two zero-filled strided scatters, which turn a
    ``-0.0`` sum into ``+0.0``; adding ``0`` reproduces that.
    """

    name = "rope"
    supports_out = True

    def forward(self, inputs, attrs, out=None):
        xd, cos, sin = inputs
        if out is None:
            # Same memory layout as ``x`` (e.g. the head-split transpose),
            # like the composed chain's elementwise ops and concat, so
            # downstream matmuls see the same strides.
            out = np.empty_like(xd, dtype=np.result_type(xd, cos, sin))
        # One contiguous copy of a transposed input makes the four
        # strided products stream (~30% faster at attention sizes).
        xc = np.ascontiguousarray(xd)
        x1 = xc[..., 0::2]
        x2 = xc[..., 1::2]
        a = x1 * cos
        b = x2 * sin
        np.subtract(a, b, out=out[..., 0::2])
        np.multiply(x1, sin, out=a)
        np.multiply(x2, cos, out=b)
        np.add(a, b, out=out[..., 1::2])
        return out, (cos, sin)

    def vjp(self, ctx, grad, needs):
        cos, sin = ctx
        if needs[0]:
            g1 = grad[..., 0::2]
            g2 = grad[..., 1::2]
            gx = np.empty(grad.shape, dtype=np.result_type(grad, cos, sin))
            a = g1 * cos
            b = g2 * sin
            np.add(a, b, out=gx[..., 0::2])
            np.multiply(g2, cos, out=a)
            np.multiply(g1, sin, out=b)
            np.subtract(a, b, out=gx[..., 1::2])
            gx += 0
            yield 0, gx


class LayerNormOp(Op):
    """Fused LayerNorm over the last axis as one tape node.

    Bit-equivalent to the composed layer implementation (see
    :class:`RmsNormOp` for the equivalence discipline); VJP order is bias,
    weight, then x.
    """

    name = "layer_norm"

    def forward(self, inputs, attrs, out=None):
        xd, wd, bd = inputs
        inv_n = np.float32(1.0 / xd.shape[-1])
        epsf = np.float32(attrs)
        mu = xd.sum(axis=-1, keepdims=True) * inv_n
        ct = xd - mu
        sq = ct * ct
        t = sq.sum(axis=-1, keepdims=True) * inv_n + epsf
        r = t**-0.5
        nm = ct * r
        out_data = nm * wd + bd
        return out_data, (xd, wd, bd.shape, inv_n, ct, t, r, nm)

    def vjp(self, ctx, grad, needs):
        xd, wd, b_shape, inv_n, ct, t, r, nm = ctx
        if needs[2]:
            yield 2, _unbroadcast(grad, b_shape)
        if needs[1]:
            yield 1, _unbroadcast(grad * nm, wd.shape)
        if needs[0]:
            gnm = grad * wd
            g1 = gnm * r
            gr = (gnm * ct).sum(axis=-1, keepdims=True)
            gs = (gr * -0.5 * t**-1.5) * inv_n
            gsq = np.broadcast_to(gs, xd.shape).astype(xd.dtype)
            g2 = gsq * ct
            gct = (g1 + g2) + g2
            gs1 = (-gct).sum(axis=-1, keepdims=True) * inv_n
            gx2 = np.broadcast_to(gs1, xd.shape).astype(xd.dtype)
            yield 0, gct + gx2


class BiasActOp(Op):
    """Fused ``act(x + bias)`` (``gelu``/``silu``/``relu``) as one tape node.

    Parents are ``(x,)`` or ``(x, bias)``; VJP order is x before bias,
    matching the composed broadcast-add + activation chain.
    """

    name = "bias_act"
    elementwise = True

    def forward(self, inputs, attrs, out=None):
        act = attrs
        d = inputs[0] if len(inputs) == 1 else inputs[0] + inputs[1]
        if act == "gelu":
            inner = _SQRT_2_OVER_PI * (d + 0.044715 * d**3)
            extra = np.tanh(inner)
            out_data = 0.5 * d * (1.0 + extra)
        elif act == "silu":
            extra = 0.5 * (1.0 + np.tanh(0.5 * d))
            out_data = d * extra
        else:  # relu
            extra = d > 0
            out_data = d * extra
        shapes = tuple(a.shape for a in inputs)
        return out_data, (act, d, extra, shapes)

    def vjp(self, ctx, grad, needs):
        act, d, extra, shapes = ctx
        if act == "gelu":
            dinner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * d**2)
            dt = (1.0 - extra**2) * dinner
            gt = grad * (0.5 * (1.0 + extra) + 0.5 * d * dt)
        elif act == "silu":
            gt = grad * (extra * (1.0 + d * (1.0 - extra)))
        else:
            gt = grad * extra
        if needs[0]:
            yield 0, _unbroadcast(gt, shapes[0])
        if len(needs) > 1 and needs[1]:
            yield 1, _unbroadcast(gt, shapes[1])


class EmbeddingOp(Op):
    """Row gather; parent 1 carries the integer ids as a constant input."""

    name = "embedding"

    def forward(self, inputs, attrs, out=None):
        weight, ids = inputs
        if ids.dtype != np.int64:
            ids = ids.astype(np.int64)
        return weight[ids], (weight.shape, weight.dtype, ids)

    def vjp(self, ctx, grad, needs):
        shape, dtype, ids = ctx
        if needs[0]:
            full = np.zeros(shape, dtype=dtype)
            np.add.at(full, ids.reshape(-1), grad.reshape(-1, shape[-1]))
            yield 0, full


class MaskedFillOp(Op):
    """Fill where mask; parent 1 carries the bool mask as a constant input."""

    name = "masked_fill"

    def forward(self, inputs, attrs, out=None):
        x, mask = inputs
        if mask.dtype != np.bool_:
            mask = mask.astype(bool)
        out_data = np.where(mask, np.asarray(attrs, dtype=x.dtype), x)
        return out_data, mask

    def vjp(self, ctx, grad, needs):
        mask = ctx
        if needs[0]:
            yield 0, grad * (~mask)


_SOFTMAX = SoftmaxOp()
_LOG_SOFTMAX = LogSoftmaxOp()
_CROSS_ENTROPY = CrossEntropyOp()
_GELU = GeluOp()
_SILU = SiluOp()
_SILU_MUL = SiluMulOp()
_RMS_NORM = RmsNormOp()
_ROPE = RopeOp()
_LAYER_NORM = LayerNormOp()
_BIAS_ACT = BiasActOp()
_EMBEDDING = EmbeddingOp()
_MASKED_FILL = MaskedFillOp()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (fused forward/backward)."""
    return apply_op(_SOFTMAX, (_ensure_tensor(x),), axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    return apply_op(_LOG_SOFTMAX, (_ensure_tensor(x),), axis)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: Optional[int] = None,
) -> Tensor:
    """Mean token-level cross-entropy, fused for speed and stability.

    Parameters
    ----------
    logits:
        ``(..., vocab)`` unnormalized scores.
    targets:
        Integer class ids broadcastable to ``logits.shape[:-1]``.
    ignore_index:
        Target value whose positions contribute neither loss nor gradient
        (used for padding).
    """
    logits = _ensure_tensor(logits)
    targets_t = _ensure_tensor(targets)
    return apply_op(_CROSS_ENTROPY, (logits, targets_t), ignore_index)


def nll_from_logits(logits: Tensor, targets: np.ndarray) -> np.ndarray:
    """Per-position negative log-likelihood (no autograd; eval helper)."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    targets = np.asarray(targets)
    flat = data.reshape(-1, data.shape[-1])
    shifted = flat - flat.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - logsumexp
    picked = log_probs[np.arange(flat.shape[0]), targets.reshape(-1)]
    return (-picked).reshape(targets.shape)


def gelu(x: Tensor) -> Tensor:
    """GELU activation (tanh approximation), fused."""
    return apply_op(_GELU, (_ensure_tensor(x),))


def silu(x: Tensor) -> Tensor:
    """SiLU / swish activation ``x * sigmoid(x)``, fused."""
    return apply_op(_SILU, (_ensure_tensor(x),))


def silu_mul(a: Tensor, b: Tensor) -> Tensor:
    """Fused ``silu(a) * b`` — the SwiGLU gate — as one tape node."""
    return apply_op(_SILU_MUL, (_ensure_tensor(a), _ensure_tensor(b)))


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-5) -> Tensor:
    """Fused RMSNorm ``x * (mean(x²) + eps)^-½ * weight`` as one tape node."""
    return apply_op(_RMS_NORM, (_ensure_tensor(x), _ensure_tensor(weight)), eps)


def rope(x: Tensor, cos_t, sin_t) -> Tensor:
    """Fused rotary embedding of ``x`` (..., head_dim) as one tape node.

    ``cos_t``/``sin_t`` are position-gathered tables broadcasting against
    ``x``'s ``(..., head_dim // 2)`` channel pairs.  They take no
    gradient.  Always fused: there is no composed path to toggle back to.
    """
    cos_t = _ensure_tensor(cos_t)
    sin_t = _ensure_tensor(sin_t)
    if cos_t.requires_grad or sin_t.requires_grad:
        raise ValueError("rope tables are constants and cannot require grad")
    return apply_op(_ROPE, (_ensure_tensor(x), cos_t, sin_t))


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Fused LayerNorm over the last axis as one tape node."""
    return apply_op(
        _LAYER_NORM,
        (_ensure_tensor(x), _ensure_tensor(weight), _ensure_tensor(bias)),
        eps,
    )


_BIAS_ACTS = ("gelu", "silu", "relu")


def bias_act(x: Tensor, bias: Optional[Tensor], act: str = "gelu") -> Tensor:
    """Fused ``act(x + bias)`` as one tape node (``bias=None`` → ``act(x)``).

    Bit-equivalent to composing the broadcast add with the matching
    activation from this module.  Supported: ``gelu``, ``silu``, ``relu``.
    """
    if act not in _BIAS_ACTS:
        raise ValueError(f"bias_act supports {_BIAS_ACTS}, got {act!r}")
    x = _ensure_tensor(x)
    if bias is None:
        return apply_op(_BIAS_ACT, (x,), act)
    return apply_op(_BIAS_ACT, (x, _ensure_tensor(bias)), act)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` by integer ``ids`` (the embedding lookup)."""
    weight = _ensure_tensor(weight)
    ids_arr = np.asarray(ids.data if isinstance(ids, Tensor) else ids)
    if ids_arr.dtype != np.int64:
        ids_arr = ids_arr.astype(np.int64)
    return apply_op(_EMBEDDING, (weight, Tensor(ids_arr)))


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout with an explicit generator (reproducible).

    RNG-dependent, so this stays a closure tape node: a graph recorder
    seeing it marks the capture uncacheable rather than baking one mask.
    """
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = _ensure_tensor(x)
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    out_data = x.data * keep

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * keep)

    return Tensor._make(out_data, (x,), backward)


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Set positions where ``mask`` is True to ``value`` (grad blocked there)."""
    x = _ensure_tensor(x)
    mask_arr = np.asarray(mask.data if isinstance(mask, Tensor) else mask)
    if mask_arr.dtype != np.bool_:
        mask_arr = mask_arr.astype(bool)
    return apply_op(_MASKED_FILL, (x, Tensor(mask_arr)), value)
