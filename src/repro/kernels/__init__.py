"""Hot-path kernel plans and fused ops (the "make it fast, keep it exact"
layer).

``repro.kernels`` sits between the layer library and the autograd engine:

* :mod:`~repro.kernels.plan_cache` — bounded LRU caches with hit/miss
  counters, shared by every plan type;
* :mod:`~repro.kernels.window_plans` — window partition/merge gather plans
  with the Swin cyclic shift folded in, keyed by ``(grid, window, shift)``;
* :mod:`~repro.kernels.rope_cache` — memoized axial 2D RoPE tables keyed by
  ``(window, head_dim, base, dtype)``;
* :mod:`~repro.kernels.fused` — single-node rotary and softmax(QKᵀ)·V
  kernels (and an inference SwiGLU) that reuse
  :mod:`repro.tensor.workspace` scratch.

Every kernel is bit-exact against the reference implementation it replaces
(golden tests); :func:`disable_kernels` flips the consumers
(:class:`repro.nn.MultiHeadAttention`, :class:`repro.nn.SwiGLU`,
:class:`repro.model.SwinBlock`) back to the reference paths, which is how
the golden tests and the before/after benchmarks get both behaviors from
one build.  The SWiPe/Ulysses path in :mod:`repro.parallel` calls these
same rotary and attention kernels, so sharded attention matches the
single-process model bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager

from .abft import abft_enabled, abft_guard, abft_matmul, guard_gemm
from .fused import (
    fused_apply_rotary,
    fused_dot_product_attention,
    fused_swiglu_forward,
)
from .plan_cache import LRUCache, clear_plan_caches, plan_cache_stats
from .rope_cache import rope_tables
from .window_plans import WindowPlan, plan_merge, plan_partition, window_plan

__all__ = [
    "kernels_enabled", "disable_kernels",
    "abft_enabled", "abft_guard", "abft_matmul", "guard_gemm",
    "LRUCache", "plan_cache_stats", "clear_plan_caches",
    "WindowPlan", "window_plan", "plan_partition", "plan_merge",
    "rope_tables",
    "fused_apply_rotary", "fused_dot_product_attention",
    "fused_swiglu_forward",
]

_ENABLED = True


def kernels_enabled() -> bool:
    """Whether consumers should take the planned/fused paths."""
    return _ENABLED


@contextmanager
def disable_kernels():
    """Run the block on the reference (unfused, plan-free) paths."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous
