"""Fused hot-path kernels: rotary embedding and softmax(QKᵀ)·V.

The reference implementations in :mod:`repro.nn.attention` build one autograd
node per primitive — for the attention core that is six graph nodes and as
many fresh full-size temporaries per call.  The kernels here compute the same
mathematics as a single node each, with in-place NumPy updates on
arena-pooled scratch where the value cannot escape.

Bit-exactness is a hard contract, enforced by golden tests: every ufunc is
applied to the same operands in the same order as the reference graph, BF16
emulation rounds exactly the matmul operands the reference rounds (including
in backward, which reuses the *rounded* forward operands, as
``Tensor.__matmul__`` does), FLOP accounting mirrors the reference node for
node, and float32 accumulation semantics are unchanged (NumPy matmul/BLAS,
same layouts — no layout "optimizations" that could change the reduction
order).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, is_grad_enabled
from ..tensor.bf16 import bf16_matmul_enabled, round_bf16
from ..tensor.flops import add_flops, flops_enabled
from ..tensor.tensor import _as_array, _unbroadcast
from ..tensor.workspace import arena
from .abft import guard_gemm

__all__ = ["fused_apply_rotary", "fused_dot_product_attention",
           "fused_swiglu_forward"]


def _rotate_pairs(xa: np.ndarray, cos: np.ndarray, sin: np.ndarray
                  ) -> np.ndarray:
    """``(x0, x1) -> (x0*c - x1*s, x0*s + x1*c)`` over the feature pairs of
    ``xa`` (identical ufunc order to the reference mul/sub/add chain;
    in-place only on freshly written slots).

    ``xa`` is copied once if it is a strided view (the q/k slices of the
    transposed qkv projection), so every ufunc below runs over contiguous
    memory; the even/odd features are strided views of that copy and the
    ``x1*s``/``x1*c`` products share one temporary."""
    xa = np.ascontiguousarray(xa)
    x0 = xa[..., 0::2]
    x1 = xa[..., 1::2]
    out = np.empty(xa.shape, dtype=np.result_type(xa, cos))
    o0 = out[..., 0::2]
    o1 = out[..., 1::2]
    tmp = np.empty(o0.shape, dtype=out.dtype)
    np.multiply(x0, cos, out=o0)
    np.multiply(x1, sin, out=tmp)
    o0 -= tmp
    np.multiply(x0, sin, out=o1)
    np.multiply(x1, cos, out=tmp)
    o1 += tmp
    return out


def fused_apply_rotary(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate feature pairs of ``x`` by per-token angles, as one graph node.

    Same contract as :func:`repro.nn.attention.apply_rotary`:
    ``x`` is ``(..., tokens, head_dim)``, ``cos``/``sin`` are
    ``(tokens, head_dim // 2)``.
    """
    # The rotation is orthogonal, so its backward is the rotation by the
    # opposite angle: d/dx0 = g0*c - g1*(-s), d/dx1 = g0*(-s) + g1*c, which
    # equal the reference chain's sums bit for bit (negation and
    # commutation are exact).  The tables are coerced as the reference's
    # ``Tensor(cos)`` coerces them (float64 -> float32).
    cos, sin = _as_array(cos), _as_array(sin)
    return Tensor._make(_rotate_pairs(x.data, cos, sin), (x,),
                        lambda g: (_rotate_pairs(g, cos, -sin),))


def fused_dot_product_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Softmax attention ``softmax(q·kᵀ/√d)·v`` as one graph node.

    Same contract as :func:`repro.nn.attention.dot_product_attention`:
    shapes ``(..., tokens, head_dim)`` in and out, float32 accumulation via
    the same NumPy matmuls, max-subtracted softmax.
    """
    qa, ka, va = q.data, k.data, v.data
    bf16 = bf16_matmul_enabled()
    if bf16:
        qa_, ka_, va_ = round_bf16(qa), round_bf16(ka), round_bf16(va)
    else:
        qa_, ka_, va_ = qa, ka, va
    kT = np.swapaxes(ka_, -1, -2)
    # Matches the reference's `1.0 / np.sqrt(hd)` python-float -> fp32 coerce.
    scale = np.float32(1.0 / np.sqrt(qa.shape[-1]))

    grad_needed = is_grad_enabled() and (
        q.requires_grad or k.requires_grad or v.requires_grad)
    scores_shape = np.broadcast_shapes(qa_.shape[:-2], kT.shape[:-2]) \
        + (qa_.shape[-2], kT.shape[-1])
    scores_dtype = np.result_type(qa_, kT)
    ws = arena() if not grad_needed else None
    if ws is not None:
        scores = ws.get(scores_shape, scores_dtype)
        np.matmul(qa_, kT, out=scores)
    else:
        scores = np.matmul(qa_, kT)
    guard_gemm(qa_, kT, scores, "attention.scores")
    if flops_enabled():
        add_flops(2 * scores.size * qa_.shape[-1])
    scores *= scale
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    probs = scores
    probs_ = round_bf16(probs) if bf16 else probs
    out = probs_ @ va_
    guard_gemm(probs_, va_, out, "attention.out")
    if flops_enabled():
        add_flops(2 * out.size * probs_.shape[-1])
    if ws is not None:
        ws.release(scores)
        return Tensor._make(out, (q, k, v), lambda g: (None, None, None))

    q_shape, k_shape, v_shape = qa.shape, ka.shape, va.shape
    kT_shape = kT.shape

    def backward(g):
        tokens = probs_.shape[-1]
        head_dim = qa_.shape[-1]
        g_ = round_bf16(g) if bf16 else g
        # out = probs_ @ va_  (backward reuses the rounded forward operands,
        # exactly as Tensor.__matmul__ captures them).
        if flops_enabled():
            add_flops(4 * g.size * tokens)
        g_probs = _unbroadcast(g_ @ np.swapaxes(va_, -1, -2), probs.shape)
        g_v = _unbroadcast(np.swapaxes(probs_, -1, -2) @ g_, v_shape)
        # softmax backward (on the unrounded probabilities).
        dot = (g_probs * probs).sum(axis=-1, keepdims=True)
        g_scores = (g_probs - dot) * probs
        g_scores *= scale
        g_scores_ = round_bf16(g_scores) if bf16 else g_scores
        # scores = qa_ @ kT  backward.
        if flops_enabled():
            add_flops(4 * g_scores.size * head_dim)
        g_q = _unbroadcast(g_scores_ @ ka_, q_shape)
        g_kT = _unbroadcast(np.swapaxes(qa_, -1, -2) @ g_scores_, kT_shape)
        g_k = np.swapaxes(g_kT, -1, -2)
        return (g_q, g_k, g_v)

    return Tensor._make(out, (q, k, v), backward)


def fused_swiglu_forward(x: Tensor, w_gate: np.ndarray, w_up: np.ndarray,
                         w_down: np.ndarray) -> np.ndarray:
    """Inference-only SwiGLU ``(silu(x·Wg) * (x·Wu)) · Wd`` on raw arrays.

    All three hidden-width intermediates live in arena scratch; only the
    (narrow) output is freshly allocated.  Caller guarantees no-grad.
    """
    xa = x.data
    bf16 = bf16_matmul_enabled()
    xa_ = round_bf16(xa) if bf16 else xa
    wg = round_bf16(w_gate) if bf16 else w_gate
    wu = round_bf16(w_up) if bf16 else w_up
    ws = arena()
    hidden_shape = xa.shape[:-1] + (w_gate.shape[-1],)
    hidden_dtype = np.result_type(xa_, wg)
    gate = ws.get(hidden_shape, hidden_dtype)
    np.matmul(xa_, wg, out=gate)
    guard_gemm(xa_, wg, gate, "swiglu.gate")
    if flops_enabled():
        add_flops(2 * gate.size * xa_.shape[-1])
    # silu: sig = 1 / (1 + exp(-h)); h *= sig  (same ufunc chain as
    # Tensor.silu, with the scratch pooled).
    sig = ws.get(hidden_shape, hidden_dtype)
    np.negative(gate, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    gate *= sig
    up = ws.get(hidden_shape, hidden_dtype)
    np.matmul(xa_, wu, out=up)
    guard_gemm(xa_, wu, up, "swiglu.up")
    if flops_enabled():
        add_flops(2 * up.size * xa_.shape[-1])
    gate *= up
    gate_ = round_bf16(gate) if bf16 else gate
    wd = round_bf16(w_down) if bf16 else w_down
    out = gate_ @ wd
    guard_gemm(gate_, wd, out, "swiglu.down")
    if flops_enabled():
        add_flops(2 * out.size * gate_.shape[-1])
    ws.release(up)
    ws.release(sig)
    ws.release(gate)
    return out
