"""Ulysses sequence parallelism (paper Section V-A).

Tokens of each window are flattened to a 1D sequence and sharded across the
SP ranks of a node.  Attention needs every token of a window, so before the
kernel an all-to-all re-partitions the data from *token-sharded, all heads*
to *all tokens, head-sharded*; a second all-to-all restores the token
sharding afterwards.  Both ride the intra-node fabric by construction.

Functions here operate on NumPy shards and an explicit
:class:`~repro.parallel.comm.SimCluster`, verifying (a) bit-exact
equivalence with unsharded attention (the kernel between the all-to-alls is
the model's own :func:`~repro.kernels.fused_dot_product_attention`) and
(b) the message-size formula ``M = b·s·h / SP / WP``.
"""

from __future__ import annotations

import numpy as np

from ..kernels import fused_dot_product_attention
from ..tensor import Tensor
from .comm import SimCluster

__all__ = ["shard_sequence", "unshard_sequence", "ulysses_attention"]


def shard_sequence(tokens: np.ndarray, sp: int, axis: int = -3) -> list[np.ndarray]:
    """Split the token axis (default: third-from-last of ``(..., T, H, hd)``)
    into ``sp`` contiguous shards."""
    if tokens.shape[axis] % sp:
        raise ValueError(f"token axis {tokens.shape[axis]} not divisible by SP={sp}")
    return [chunk.copy() for chunk in np.split(tokens, sp, axis=axis)]


def unshard_sequence(shards: list[np.ndarray], axis: int = -3) -> np.ndarray:
    return np.concatenate(shards, axis=axis)


def ulysses_attention(cluster: SimCluster, sp_group: list[int],
                      q_shards: list[np.ndarray], k_shards: list[np.ndarray],
                      v_shards: list[np.ndarray]) -> list[np.ndarray]:
    """Sequence-parallel attention over per-rank token shards.

    Each shard has shape ``(..., T/SP, H, hd)`` (token-sharded, all heads).
    Returns shards of the same shape containing the attention output.

    The two metered all-to-alls re-partition to ``(..., T, H/SP, hd)`` and
    back; heads must be divisible by SP.
    """
    sp = len(sp_group)
    heads = q_shards[0].shape[-2]
    if heads % sp:
        raise ValueError(f"heads {heads} not divisible by SP={sp}")

    def forward_a2a(shards: list[np.ndarray]) -> list[np.ndarray]:
        # chunks[i][j]: rank i's tokens for head-group j.
        chunks = [list(np.split(s, sp, axis=-2)) for s in shards]
        received = cluster.alltoall(sp_group, chunks)
        # Rank j: concat over source ranks along the token axis.
        return [np.concatenate(row, axis=-3) for row in received]

    def backward_a2a(shards: list[np.ndarray]) -> list[np.ndarray]:
        # chunks[j][i]: head-group j's tokens belonging to token-shard i.
        chunks = [list(np.split(s, sp, axis=-3)) for s in shards]
        received = cluster.alltoall(sp_group, chunks)
        return [np.concatenate(row, axis=-2) for row in received]

    q_full = forward_a2a(q_shards)   # per rank: all tokens, H/SP heads
    k_full = forward_a2a(k_shards)
    v_full = forward_a2a(v_shards)
    out_headsharded = []
    for q, k, v in zip(q_full, k_full, v_full):
        # kernel expects (..., heads, T, hd)
        out = fused_dot_product_attention(
            *(Tensor(np.swapaxes(a, -2, -3)) for a in (q, k, v))).data
        out_headsharded.append(np.swapaxes(out, -2, -3))
    return backward_a2a(out_headsharded)
