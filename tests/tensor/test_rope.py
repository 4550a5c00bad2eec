"""The fused RoPE op must be bit-identical to the composed rotation chain.

``repro.tensor.rope`` replaces a 12-op chain (two strided slices, four
multiplies, a subtract, an add, two reshapes, a concat and a reshape) with
one tape node.  The composed chain is kept here as the reference: the
fused forward and the input gradient must match it byte for byte
(including the sign of zero), for scalar and per-row position offsets,
GQA key heads, whole attention layers, and captured decode graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MultiHeadAttention, apply_rope, rope_tables
from repro.nn import attention as attention_module
from repro.nn.attention import KVCache, rope_gather
from repro.tensor import (
    GraphRecorder,
    Tensor,
    check_gradients,
    concat,
    no_grad,
    profile_tape,
    rope,
)


def composed_rope(x, cos_t, sin_t):
    """The pre-fusion rotation chain, op for op."""
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    rot1 = x1 * cos_t - x2 * sin_t
    rot2 = x1 * sin_t + x2 * cos_t
    stacked = concat(
        [rot1.reshape(*rot1.shape, 1), rot2.reshape(*rot2.shape, 1)], axis=-1
    )
    return stacked.reshape(*x.shape)


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def run(fn, x_data, grad, cos_t, sin_t):
    x = Tensor(x_data, requires_grad=True, dtype=x_data.dtype)
    out = fn(x, cos_t, sin_t)
    out.backward(grad)
    return out.data, x.grad


@st.composite
def rope_case(draw):
    batch = draw(st.integers(1, 3))
    heads = draw(st.integers(1, 4))
    seq = draw(st.integers(1, 6))
    half = draw(st.integers(1, 6))
    max_len = 24
    per_row = draw(st.booleans())
    if per_row:
        offset = np.asarray(
            draw(st.lists(st.integers(0, max_len - seq), min_size=batch,
                          max_size=batch)),
            dtype=np.int64,
        )
    else:
        offset = draw(st.integers(0, max_len - seq))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**16))
    zero_grads = draw(st.booleans())
    return batch, heads, seq, half, max_len, offset, dtype, seed, zero_grads


class TestFusedMatchesComposed:
    @settings(max_examples=60, deadline=None)
    @given(rope_case())
    def test_forward_and_input_grad_bitwise(self, case):
        batch, heads, seq, half, max_len, offset, dtype, seed, zero_grads = case
        rng = np.random.default_rng(seed)
        cos, sin = rope_tables(2 * half, max_len)
        cos_t, sin_t = rope_gather(cos, sin, offset, seq, batch)
        x = rng.standard_normal((batch, heads, seq, 2 * half)).astype(dtype)
        grad = rng.standard_normal(x.shape).astype(dtype)
        if zero_grads:
            # Zero upstream grads: the composed chain's scatters turn
            # -0.0 sums into +0.0, which the fused op must reproduce.
            grad[..., : max(1, half)] = 0.0
        fused = run(rope, x, grad, cos_t, sin_t)
        reference = run(composed_rope, x, grad, cos_t, sin_t)
        assert_bitwise(fused[0], reference[0])
        assert_bitwise(fused[1], reference[1])

    def test_negative_zero_gradient_sums_normalised(self):
        cos, sin = rope_tables(8, 4)
        x = np.ones((1, 1, 4, 8), np.float32)
        grad = np.full(x.shape, -0.0, np.float32)
        fused = run(rope, x, grad, cos, sin)
        reference = run(composed_rope, x, grad, cos, sin)
        assert_bitwise(fused[1], reference[1])
        assert not np.signbit(fused[1]).any()

    def test_apply_rope_matches_reference(self):
        cos, sin = rope_tables(16, 32)
        x = np.random.default_rng(3).standard_normal((2, 4, 5, 16))
        x = x.astype(np.float32)
        offsets = np.array([3, 11])
        out = apply_rope(Tensor(x), cos, sin, offset=offsets)
        cos_t, sin_t = rope_gather(cos, sin, offsets, 5, 2)
        assert_bitwise(out.data, composed_rope(Tensor(x), cos_t, sin_t).data)

    def test_gradcheck_float64(self):
        cos, sin = rope_tables(6, 8)
        x = Tensor(
            np.random.default_rng(1).standard_normal((2, 3, 4, 6)),
            requires_grad=True, dtype=np.float64,
        )
        check_gradients(lambda t: rope(t, cos[:4], sin[:4]), [x])

    def test_tables_cannot_require_grad(self):
        cos, sin = rope_tables(4, 4)
        with pytest.raises(ValueError, match="cannot require grad"):
            rope(Tensor(np.ones((1, 1, 4, 4))), Tensor(cos, requires_grad=True), sin)


class TestTape:
    def test_apply_rope_records_one_tape_node(self):
        cos, sin = rope_tables(8, 16)
        x = Tensor(np.ones((2, 2, 3, 8), np.float32), requires_grad=True)
        with profile_tape() as tape:
            out = apply_rope(x, cos, sin, offset=np.array([1, 4]))
        assert tape.recorded_nodes == 1
        assert out._parents[0] is x

    def test_tables_are_untaped_parents(self):
        cos, sin = rope_tables(8, 16)
        x = Tensor(np.ones((1, 2, 3, 8), np.float32), requires_grad=True)
        out = apply_rope(x, cos, sin, offset=2)
        _, cos_t, sin_t = out._parents
        assert not cos_t.requires_grad and not sin_t.requires_grad
        out.sum().backward()
        assert cos_t.grad is None and sin_t.grad is None


def attention_pair(num_kv_heads):
    return [
        MultiHeadAttention(
            32, 4, max_len=32, num_kv_heads=num_kv_heads,
            rng=np.random.default_rng(0),
        )
        for _ in range(2)
    ]


class TestAttentionLayers:
    """Whole attention layers, fused vs the composed reference patched in."""

    @pytest.mark.parametrize("num_kv_heads", [4, 2, 1])
    def test_forward_and_grads_bitwise(self, num_kv_heads, monkeypatch):
        x_data = np.random.default_rng(5).standard_normal((2, 7, 32))
        x_data = x_data.astype(np.float32)
        results = []
        for attn, patched in zip(attention_pair(num_kv_heads), (False, True)):
            with monkeypatch.context() as m:
                if patched:
                    m.setattr(attention_module, "rope", composed_rope)
                x = Tensor(x_data, requires_grad=True)
                out = attn(x)
                (out * out).sum().backward()
            grads = [p.grad for p in attn.parameters()]
            results.append((out.data, x.grad, grads))
        (fo, fx, fg), (ro, rx, rg) = results
        assert_bitwise(fo, ro)
        assert_bitwise(fx, rx)
        for a, b in zip(fg, rg):
            assert_bitwise(a, b)

    @pytest.mark.parametrize("num_kv_heads", [4, 2])
    def test_cached_per_row_decode_bitwise(self, num_kv_heads, monkeypatch):
        rng = np.random.default_rng(6)
        prefix = rng.standard_normal((3, 5, 32)).astype(np.float32)
        step = rng.standard_normal((3, 1, 32)).astype(np.float32)
        positions = np.array([5, 2, 4])
        mask = np.zeros((3, 6), dtype=bool)
        mask[1, 2:5] = True
        mask[2, 4:5] = True
        outs = []
        for attn, patched in zip(attention_pair(num_kv_heads), (False, True)):
            with monkeypatch.context() as m, no_grad():
                if patched:
                    m.setattr(attention_module, "rope", composed_rope)
                cache = KVCache()
                attn(Tensor(prefix), cache=cache)
                out = attn(
                    Tensor(step), cache=cache, key_padding_mask=mask,
                    positions=positions,
                )
            outs.append((out.data, cache.k))
        assert_bitwise(outs[0][0], outs[1][0])
        assert_bitwise(outs[0][1], outs[1][1])


class TestCapturedDecode:
    @pytest.mark.parametrize("num_kv_heads", [4, 2])
    def test_replay_matches_eager(self, num_kv_heads):
        """A captured ``forward_decode`` graph (tables as replay-time
        inputs, outputs in arena buffers) replays bit-identical to eager."""
        attn = attention_pair(num_kv_heads)[0]
        rng = np.random.default_rng(7)
        kv_heads, hd = attn.num_kv_heads, attn.head_dim

        def operands(positions):
            x = rng.standard_normal((3, 1, 32)).astype(np.float32)
            kp = rng.standard_normal((3, kv_heads, 6, hd)).astype(np.float32)
            vp = rng.standard_normal((3, kv_heads, 6, hd)).astype(np.float32)
            mask = np.zeros((3, 1, 1, 7), dtype=bool)
            mask[0, ..., 4:6] = True
            cos_t, sin_t = rope_gather(
                attn.rope_cos, attn.rope_sin, positions, 1, 3
            )
            return [x, kp, vp, mask, cos_t, sin_t]

        with no_grad():
            captured = operands(np.array([4, 6, 2]))
            with GraphRecorder() as rec:
                tensors = [Tensor(a) for a in captured]
                for t in tensors:
                    rec.add_input(t)
                outputs = attn.forward_decode(*tensors)
                graph = rec.finalize(outputs=list(outputs))
            for positions in ([1, 3, 5], [9, 0, 12]):
                fresh = operands(np.array(positions))
                replayed = graph.replay(fresh)
                eager = attn.forward_decode(*[Tensor(a) for a in fresh])
                for r, e in zip(replayed, eager):
                    assert_bitwise(r, e.data)
        assert any(step.op.name == "rope" for step in graph.steps)
