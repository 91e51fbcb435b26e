"""End-to-end functional test of the composed SWiPe attention data path
(Figure 2): WP round-robin window distribution x intra-node Ulysses SP with
RoPE, on real model weights, must match the single-process attention
bit-exactly."""

import numpy as np
import pytest

from repro.model import axial_rope_table, cyclic_shift, window_merge, window_partition
from repro.nn import MultiHeadAttention
from repro.parallel import RankTopology, SimCluster, swipe_window_attention
from repro.tensor import Tensor, no_grad

rng = np.random.default_rng(0)

DIM, HEADS = 16, 4
WINDOW = (4, 4)
GRID = (8, 16)


@pytest.fixture(scope="module")
def attention():
    return MultiHeadAttention(DIM, HEADS, rng=np.random.default_rng(5))


def reference(attention, image, shifted):
    """Single-process shifted-window attention (the model's own path)."""
    cos, sin = axial_rope_table(WINDOW, DIM // HEADS)
    x = Tensor(image)
    if shifted:
        x = cyclic_shift(x, (WINDOW[0] // 2, WINDOW[1] // 2))
    with no_grad():
        windows = window_partition(x, WINDOW)
        out = attention(windows, cos, sin)
        merged = window_merge(out, GRID, WINDOW)
    if shifted:
        merged = cyclic_shift(merged, (WINDOW[0] // 2, WINDOW[1] // 2),
                              reverse=True)
    return merged.numpy()


class TestSwipeAttention:
    @pytest.mark.parametrize("wp_grid,sp", [((1, 1), 1), ((2, 2), 1),
                                            ((2, 2), 2), ((1, 2), 4),
                                            ((2, 4), 2)])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_equivalence(self, attention, wp_grid, sp, shifted):
        topo = RankTopology(dp=1, pp=1, wp_grid=wp_grid, sp=sp)
        image = rng.normal(size=(2,) + GRID + (DIM,)).astype(np.float32)
        out = swipe_window_attention(image, attention, WINDOW, topo,
                                     shifted=shifted)
        ref = reference(attention, image, shifted)
        np.testing.assert_array_equal(out, ref)

    def test_sp_alltoall_stays_intra_node(self, attention):
        topo = RankTopology(dp=1, pp=1, wp_grid=(2, 2), sp=2)
        cluster = SimCluster(topo.world_size, ranks_per_node=topo.sp)
        image = rng.normal(size=(1,) + GRID + (DIM,)).astype(np.float32)
        swipe_window_attention(image, attention, WINDOW, topo,
                               cluster=cluster, shifted=False)
        assert cluster.stats.total_bytes("alltoall", "inter") == 0
        assert cluster.stats.total_bytes("alltoall", "intra") > 0

    def test_unshifted_needs_no_p2p(self, attention):
        topo = RankTopology(dp=1, pp=1, wp_grid=(2, 2), sp=2)
        cluster = SimCluster(topo.world_size, ranks_per_node=topo.sp)
        image = rng.normal(size=(1,) + GRID + (DIM,)).astype(np.float32)
        swipe_window_attention(image, attention, WINDOW, topo,
                               cluster=cluster, shifted=False)
        assert cluster.stats.total_bytes("p2p") == 0

    def test_shifted_pays_bounded_exchange(self, attention):
        topo = RankTopology(dp=1, pp=1, wp_grid=(2, 2), sp=2)
        cluster = SimCluster(topo.world_size, ranks_per_node=topo.sp)
        image = rng.normal(size=(1,) + GRID + (DIM,)).astype(np.float32)
        swipe_window_attention(image, attention, WINDOW, topo,
                               cluster=cluster, shifted=True)
        moved = cluster.stats.total_bytes("p2p")
        # At most the whole activation twice (shift out + back).
        assert 0 < moved <= 2 * image.nbytes

    def test_alltoall_volume_scales_inverse_wp(self, attention):
        """Per the paper's M = b·s·h/SP/WP: doubling WP halves the total
        all-to-all payload per rank; the *aggregate* over all ranks is
        constant, so we compare per-rank averages."""
        image = rng.normal(size=(1,) + GRID + (DIM,)).astype(np.float32)
        volumes = {}
        for wp_grid in ((1, 2), (2, 2)):
            topo = RankTopology(dp=1, pp=1, wp_grid=wp_grid, sp=2)
            cluster = SimCluster(topo.world_size, ranks_per_node=topo.sp)
            swipe_window_attention(image, attention, WINDOW, topo,
                                   cluster=cluster)
            wp = wp_grid[0] * wp_grid[1]
            volumes[wp] = cluster.stats.total_bytes("alltoall") / (wp * 2)
        assert volumes[4] == pytest.approx(volumes[2] / 2)
