"""Golden tests: every optimized kernel path must be *bit-exact* against the
reference implementation it replaces — same outputs, same gradients, same
FLOP counts, with and without emulated BF16."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    disable_kernels,
    fused_apply_rotary,
    fused_dot_product_attention,
    fused_swiglu_forward,
    kernels_enabled,
    plan_merge,
    plan_partition,
    rope_tables,
    window_plan,
)
from repro.model import Aeris, AerisConfig
from repro.model.rope import axial_rope_table
from repro.model.windows import cyclic_shift, window_merge, window_partition
from repro.nn import SwiGLU
from repro.nn.attention import apply_rotary, dot_product_attention
from repro.tensor import (
    FlopCounter,
    Tensor,
    autocast_bf16,
    count_flops,
    no_grad,
)

rng = np.random.default_rng(7)


def _qkv(shape=(2, 3, 16, 8), seed=7):
    local = np.random.default_rng(seed)
    return tuple(
        Tensor(local.normal(size=shape).astype(np.float32),
               requires_grad=True)
        for _ in range(3))


class TestFusedAttention:
    @pytest.mark.parametrize("bf16", [False, True])
    def test_forward_bit_exact(self, bf16):
        q, k, v = _qkv()
        with autocast_bf16(bf16):
            ref = dot_product_attention(q, k, v)
            fused = fused_dot_product_attention(q, k, v)
        np.testing.assert_array_equal(fused.numpy(), ref.numpy())

    @pytest.mark.parametrize("bf16", [False, True])
    def test_gradients_bit_exact(self, bf16):
        shape = (2, 3, 16, 8)
        g = rng.normal(size=shape).astype(np.float32)
        grads = {}
        for name, core in (("ref", dot_product_attention),
                           ("fused", fused_dot_product_attention)):
            q, k, v = _qkv(shape)
            with autocast_bf16(bf16):
                core(q, k, v).backward(g)
            grads[name] = (q.grad, k.grad, v.grad)
        for a, b in zip(grads["ref"], grads["fused"]):
            np.testing.assert_array_equal(a, b)

    def test_flops_match_reference(self):
        shape = (1, 2, 8, 4)
        g = np.ones(shape, dtype=np.float32)
        counts = {}
        for name, core in (("ref", dot_product_attention),
                           ("fused", fused_dot_product_attention)):
            q, k, v = _qkv(shape)
            fc = FlopCounter()
            with count_flops(fc):
                core(q, k, v).backward(g)
            counts[name] = fc.total
        assert counts["fused"] == counts["ref"] > 0

    def test_inference_path_bit_exact(self):
        q, k, v = _qkv()
        with no_grad():
            ref = dot_product_attention(q, k, v)
            fused = fused_dot_product_attention(q, k, v)
        np.testing.assert_array_equal(fused.numpy(), ref.numpy())


class TestFusedRotary:
    def test_forward_and_backward_bit_exact(self):
        window, head_dim = (4, 4), 8
        cos, sin = rope_tables(window, head_dim)
        shape = (2, 5, 16, 3, head_dim)  # (..., tokens, heads, head_dim)
        g = rng.normal(size=shape).astype(np.float32)
        x_ref = Tensor(rng.normal(size=shape).astype(np.float32),
                       requires_grad=True)
        x_fused = Tensor(x_ref.data.copy(), requires_grad=True)
        ref = apply_rotary(x_ref, cos[:, None, :], sin[:, None, :])
        fused = fused_apply_rotary(x_fused, cos[:, None, :], sin[:, None, :])
        np.testing.assert_array_equal(fused.numpy(), ref.numpy())
        ref.backward(g)
        fused.backward(g)
        np.testing.assert_array_equal(x_fused.grad, x_ref.grad)

    def test_rope_tables_match_model_builder(self):
        cos, sin = rope_tables((4, 6), 8)
        ref_cos, ref_sin = axial_rope_table((4, 6), 8)
        np.testing.assert_array_equal(cos, ref_cos)
        np.testing.assert_array_equal(sin, ref_sin)
        assert not cos.flags.writeable and not sin.flags.writeable


class TestFusedSwiGLU:
    @pytest.mark.parametrize("bf16", [False, True])
    def test_inference_forward_bit_exact(self, bf16):
        ffn = SwiGLU(12, 24, rng=np.random.default_rng(3))
        x = Tensor(rng.normal(size=(4, 10, 12)).astype(np.float32))
        with no_grad(), autocast_bf16(bf16):
            with disable_kernels():
                ref = ffn(x).numpy()
            fused = fused_swiglu_forward(x, ffn.gate.weight.data,
                                         ffn.up.weight.data,
                                         ffn.down.weight.data)
        np.testing.assert_array_equal(fused, ref)

    def test_module_dispatches_to_fused_only_without_grad(self):
        ffn = SwiGLU(8, 16, rng=np.random.default_rng(4))
        x = Tensor(rng.normal(size=(2, 8)).astype(np.float32),
                   requires_grad=True)
        out = ffn(x)          # grad enabled -> reference path, graph intact
        out.sum().backward()
        assert ffn.gate.weight.grad is not None


class TestWindowPlans:
    @pytest.mark.parametrize("shift", [(0, 0), (2, 2), (1, 3)])
    def test_partition_merge_bit_exact(self, shift):
        grid, window = (8, 12), (4, 4)
        x_ref = Tensor(rng.normal(size=(2, *grid, 5)).astype(np.float32),
                       requires_grad=True)
        x_plan = Tensor(x_ref.data.copy(), requires_grad=True)

        plan = window_plan(grid, window, shift)
        planned = plan_merge(plan_partition(x_plan, plan), plan)

        work = cyclic_shift(x_ref, shift) if shift != (0, 0) else x_ref
        merged = window_merge(window_partition(work, window), grid, window)
        ref = cyclic_shift(merged, shift, reverse=True) \
            if shift != (0, 0) else merged

        np.testing.assert_array_equal(planned.numpy(), ref.numpy())
        g = rng.normal(size=planned.shape).astype(np.float32)
        planned.backward(g)
        ref.backward(g)
        np.testing.assert_array_equal(x_plan.grad, x_ref.grad)

    def test_partition_matches_reference_layout(self):
        grid, window = (8, 8), (4, 4)
        x = Tensor(rng.normal(size=(1, *grid, 3)).astype(np.float32))
        plan = window_plan(grid, window)
        np.testing.assert_array_equal(
            plan_partition(x, plan).numpy(),
            window_partition(x, window).numpy())

    def test_rejects_wrong_grid(self):
        plan = window_plan((8, 8), (4, 4))
        x = Tensor(np.zeros((1, 4, 8, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            plan_partition(x, plan)
        with pytest.raises(ValueError):
            plan_merge(Tensor(np.zeros((1, 2, 16, 2), dtype=np.float32)), plan)


class TestModelGolden:
    def test_aeris_forward_bit_exact_vs_reference_paths(self):
        config = AerisConfig(
            name="golden", height=8, width=16, channels=4, forcing_channels=2,
            dim=16, heads=2, ffn_dim=32, swin_layers=1, blocks_per_layer=2,
            window=(4, 4), time_freqs=4)
        model = Aeris(config, seed=0)
        x = rng.normal(size=(2, 8, 16, 4)).astype(np.float32)
        c = rng.normal(size=(2, 8, 16, 4)).astype(np.float32)
        f = rng.normal(size=(2, 8, 16, 2)).astype(np.float32)
        t = Tensor(np.array([0.3, 1.1], dtype=np.float32))
        assert kernels_enabled()
        fast = model(Tensor(x), t, Tensor(c), Tensor(f)).numpy()
        with disable_kernels():
            ref = model(Tensor(x), t, Tensor(c), Tensor(f)).numpy()
        np.testing.assert_array_equal(fast, ref)

    def test_aeris_gradients_bit_exact_vs_reference_paths(self):
        config = AerisConfig(
            name="golden-bwd", height=8, width=8, channels=3,
            forcing_channels=1, dim=16, heads=2, ffn_dim=32, swin_layers=1,
            blocks_per_layer=2, window=(4, 4), time_freqs=4)
        x = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        c = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        f = rng.normal(size=(1, 8, 8, 1)).astype(np.float32)
        t = np.array([0.7], dtype=np.float32)

        def grads(use_kernels):
            model = Aeris(config, seed=1)
            args = (Tensor(x), Tensor(t), Tensor(c), Tensor(f))
            if use_kernels:
                out = model(*args)
            else:
                with disable_kernels():
                    out = model(*args)
            out.sum().backward()
            return [p.grad.copy() for p in model.parameters()]

        # Bit-exactness of the whole graph: identical parameter gradients.
        for a, b in zip(grads(True), grads(False)):
            np.testing.assert_array_equal(a, b)


@st.composite
def kernel_cases(draw):
    """Random leading dims, tokens, head_dim, BF16 and grad settings."""
    return dict(
        lead=tuple(draw(st.lists(st.integers(1, 3), max_size=3))),
        tokens=draw(st.integers(1, 20)),
        head_dim=draw(st.sampled_from([2, 4, 6, 8, 16])),
        bf16=draw(st.booleans()),
        grad=draw(st.booleans()),
        seed=draw(st.integers(0, 10_000)))


def _run_differential(fn, arrays, case, g):
    """``fn`` on fresh tensors of ``arrays`` under the case's BF16 and grad
    settings: (output, input gradients, (forward, backward) FLOPs)."""
    inputs = [Tensor(a.copy(), requires_grad=case["grad"]) for a in arrays]
    fc = FlopCounter()
    grad_mode = nullcontext() if case["grad"] else no_grad()
    with count_flops(fc), autocast_bf16(case["bf16"]), grad_mode:
        out = fn(*inputs)
        if case["grad"]:
            out.backward(g)
    return out.numpy(), [t.grad for t in inputs], (fc.forward, fc.backward)


def _assert_bits_equal(got, want):
    """Same dtype, shape and bit pattern (``assert_array_equal`` alone
    would take ``-0.0`` for ``0.0``)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(f"u{got.itemsize}"),
        np.ascontiguousarray(want).view(f"u{want.itemsize}"))


def _assert_same(ref, fused):
    _assert_bits_equal(fused[0], ref[0])
    for a, b in zip(ref[1], fused[1]):
        if a is None:
            assert b is None
        else:
            _assert_bits_equal(b, a)
    assert fused[2] == ref[2]


class TestDifferential:
    """Fused kernels against the reference graphs over random shapes."""

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_attention_matches_reference(self, case):
        local = np.random.default_rng(case["seed"])
        shape = case["lead"] + (case["tokens"], case["head_dim"])
        arrays = [local.normal(size=shape).astype(np.float32)
                  for _ in range(3)]
        g = local.normal(size=shape).astype(np.float32)
        ref = _run_differential(dot_product_attention, arrays, case, g)
        fused = _run_differential(fused_dot_product_attention, arrays, case, g)
        _assert_same(ref, fused)
        assert ref[2][0] > 0

    @given(kernel_cases(), st.sampled_from(["tokens", "per_head", "qkv_view"]),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=90, deadline=None)
    def test_rotary_matches_reference(self, case, layout, table_dtype):
        """Forward and backward (the rotation by ``-sin``), with tables
        either per token, broadcast over a heads axis as SWiPe passes
        them, or applied to the strided q slice of a fused qkv projection
        as ``MultiHeadAttention`` passes it; tables in float32 or
        float64."""
        local = np.random.default_rng(case["seed"])
        lead, tokens = case["lead"], case["tokens"]
        head_dim = case["head_dim"]
        angles = local.uniform(-np.pi, np.pi, size=(tokens, head_dim // 2))
        cos, sin = (np.cos(angles).astype(table_dtype),
                    np.sin(angles).astype(table_dtype))
        shape = out_shape = lead + (tokens, head_dim)
        order = None
        if layout == "per_head":
            shape = out_shape = lead + (tokens, 3, head_dim)
            cos, sin = cos[:, None, :], sin[:, None, :]
        elif layout == "qkv_view":
            n = len(lead)
            shape = lead + (tokens, 3, 2, head_dim)
            order = [n + 1, *range(n), n + 2, n, n + 3]
            out_shape = lead + (2, tokens, head_dim)
        x = local.normal(size=shape).astype(np.float32)
        g = local.normal(size=out_shape).astype(np.float32)

        def run(rotary):
            def fn(t):
                return rotary(t.transpose(order)[0] if order else t, cos, sin)
            return _run_differential(fn, [x], case, g)

        _assert_same(run(apply_rotary), run(fused_apply_rotary))
