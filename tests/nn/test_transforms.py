"""TransformedLinear: pipeline composition and effective-weight folding."""

import numpy as np

from repro.nn import Linear
from repro.nn.transforms import (
    FakeQuantSTE,
    LoRADelta,
    PruneMask,
    TransformedLinear,
    fold_disabled,
    fold_enabled,
)
from repro.obs import MetricsRegistry, use_registry
from repro.quant.formats import QuantSpec
from repro.quant.qmodule import fake_quant_ste
from repro.tensor import GraphCache, GraphRecorder, Tensor, check_gradients, no_grad


def make_layer(bits=4, ratio=0.5, seed=0):
    rng = np.random.default_rng(seed)
    inner = Linear(12, 8, rng=rng)
    mask = (rng.random(inner.weight.shape) > ratio).astype(np.float32)
    layer = TransformedLinear(
        inner, [PruneMask(mask), FakeQuantSTE(QuantSpec(bits=bits))]
    )
    return layer, mask, rng


class TestPipelineMath:
    def test_matches_manual_composition(self):
        layer, mask, rng = make_layer()
        x = Tensor(rng.standard_normal((5, 12)).astype(np.float32))
        with no_grad():
            got = layer(x).data
        masked = layer.inner.weight * Tensor(mask)
        eff = fake_quant_ste(masked, QuantSpec(bits=4))
        want = x.data @ eff.data + layer.inner.bias.data
        assert np.array_equal(got, want)

    def test_pruned_coordinates_zero(self):
        layer, mask, _ = make_layer()
        eff = layer.effective_weight().data
        assert np.allclose(eff[mask == 0], 0.0)

    def test_convenience_views(self):
        layer, mask, _ = make_layer(bits=4)
        assert layer.quant_bits == 4
        assert np.array_equal(layer.prune_mask, mask)
        expected = float(1.0 - mask.sum() / mask.size)
        assert layer.sparsity == expected


class TestFolding:
    def test_fold_hit_after_first_forward(self):
        layer, _, rng = make_layer()
        x = Tensor(rng.standard_normal((3, 12)).astype(np.float32))
        reg = MetricsRegistry()
        with use_registry(reg), no_grad():
            layer(x)
            layer(x)
            layer(x)
        assert reg.counter("nn/fold/misses").value == 1
        assert reg.counter("nn/fold/hits").value == 2

    def test_folded_equals_unfolded(self):
        layer, _, rng = make_layer()
        x = Tensor(rng.standard_normal((3, 12)).astype(np.float32))
        with no_grad():
            folded = layer(x).data  # populates + uses the cache
            folded2 = layer(x).data
            with fold_disabled():
                unfolded = layer(x).data
        assert np.array_equal(folded, unfolded)
        assert np.array_equal(folded2, unfolded)

    def test_weight_rebind_invalidates(self):
        layer, _, rng = make_layer()
        x = Tensor(rng.standard_normal((3, 12)).astype(np.float32))
        reg = MetricsRegistry()
        with use_registry(reg), no_grad():
            before = layer(x).data.copy()
            layer.inner.weight.data = (
                layer.inner.weight.data + np.float32(0.5)
            )
            after = layer(x).data
        assert reg.counter("nn/fold/misses").value == 2
        assert not np.array_equal(before, after)

    def test_inplace_edit_plus_bump_invalidates(self):
        layer, _, rng = make_layer()
        x = Tensor(rng.standard_normal((3, 12)).astype(np.float32))
        with no_grad():
            before = layer(x).data.copy()
            layer.inner.weight.data[...] += 0.5  # silent w.r.t. the cache
            stale = layer(x).data.copy()
            layer.inner.weight.bump_version()
            fresh = layer(x).data
        assert np.array_equal(before, stale)  # documented staleness
        assert not np.array_equal(before, fresh)

    def test_mask_swap_invalidates(self):
        layer, mask, rng = make_layer()
        x = Tensor(rng.standard_normal((3, 12)).astype(np.float32))
        with no_grad():
            before = layer(x).data.copy()
            layer.find(PruneMask).set_mask(np.ones_like(mask))
            after = layer(x).data
        assert not np.array_equal(before, after)

    def test_no_fold_when_grad_can_flow(self):
        layer, _, rng = make_layer()
        layer.inner.weight.requires_grad = True
        x = Tensor(rng.standard_normal((3, 12)).astype(np.float32))
        reg = MetricsRegistry()
        with use_registry(reg):
            out = layer(x)
            out.sum().backward()
        assert reg.counter("nn/fold/hits").value == 0
        assert reg.counter("nn/fold/misses").value == 0
        assert layer.inner.weight.grad is not None

    def test_frozen_weight_folds_even_in_grad_mode(self):
        layer, _, rng = make_layer()
        layer.inner.weight.requires_grad = False
        layer.inner.bias.requires_grad = False
        x = Tensor(rng.standard_normal((3, 12)).astype(np.float32),
                   requires_grad=True)
        reg = MetricsRegistry()
        with use_registry(reg):
            layer(x).sum().backward()
            layer(x).sum().backward()
        assert reg.counter("nn/fold/misses").value == 1
        assert reg.counter("nn/fold/hits").value == 1
        assert x.grad is not None

    def test_fold_disabled_scope(self):
        assert fold_enabled()
        with fold_disabled():
            assert not fold_enabled()
        assert fold_enabled()


class TestFoldCaptureGuard:
    def test_master_edit_invalidates_graph_without_live_forward(self):
        """A graph replayed with no forward since the master weight
        changed must not serve the stale folded weight."""
        rng = np.random.default_rng(0)
        mask = (rng.random((8, 8)) > 0.5).astype(np.float32)
        layer = TransformedLinear(Linear(8, 8, rng=rng), [PruneMask(mask)])
        x = Tensor(rng.standard_normal((3, 8)).astype(np.float32))
        cache = GraphCache()
        with no_grad():
            layer(x)  # fold outside the capture: the graph reads the fold
            with GraphRecorder() as rec:
                rec.add_input(x)
                y = layer(x)
            assert cache.store("k", rec.finalize([y]))
            assert cache.lookup("k") is not None

            layer.weight.data = layer.weight.data * 2
            layer.weight.bump_version()
            assert cache.lookup("k") is None
            # Re-captured after the edit, the graph matches a live forward.
            with GraphRecorder() as rec:
                rec.add_input(x)
                y = layer(x)
            cache.store("k", rec.finalize([y]))
            x2 = rng.standard_normal((3, 8)).astype(np.float32)
            (replayed,) = cache.lookup("k").replay([x2])
            np.testing.assert_array_equal(replayed, layer(Tensor(x2)).data)


class TestAttachDetach:
    def test_attach_undo_restores_exact_list(self):
        layer, _, _ = make_layer()
        original = list(layer.transforms)
        token = layer.attach(LoRADelta(12, 8, rank=2))
        assert len(list(layer.transforms)) == 3
        token.restore()
        assert [t for t in layer.transforms] == original
        assert all(a is b for a, b in zip(layer.transforms, original))

    def test_attach_replace_is_idempotent(self):
        layer, _, _ = make_layer()
        layer.attach(LoRADelta(12, 8, rank=2))
        layer.attach(LoRADelta(12, 8, rank=2))
        deltas = [t for t in layer.transforms if isinstance(t, LoRADelta)]
        assert len(deltas) == 1

    def test_attach_stacking_opt_in(self):
        layer, _, _ = make_layer()
        layer.attach(LoRADelta(12, 8, rank=2), replace=False)
        layer.attach(LoRADelta(12, 8, rank=2), replace=False)
        deltas = [t for t in layer.transforms if isinstance(t, LoRADelta)]
        assert len(deltas) == 2

    def test_detach_by_class(self):
        layer, _, _ = make_layer()
        layer.detach(PruneMask)
        assert layer.find(PruneMask) is None
        assert layer.quant_bits == 4


class TestComposedGradients:
    def test_gradcheck_mask_lora_composition(self):
        rng = np.random.default_rng(0)
        inner = Linear(6, 4, rng=rng)
        mask = (rng.random(inner.weight.shape) > 0.4).astype(np.float32)
        layer = TransformedLinear(inner, [PruneMask(mask)])
        layer.attach(LoRADelta(6, 4, rank=2, rng=rng))
        layer.find(LoRADelta).lora_b.data = (
            rng.standard_normal((2, 4)).astype(np.float32) * 0.1
        )
        inner.weight.requires_grad = True
        inner.bias.requires_grad = True
        x = Tensor(rng.standard_normal((3, 6)).astype(np.float32),
                   requires_grad=True)
        delta = layer.find(LoRADelta)
        check_gradients(
            lambda x_, w_, a_, b_: layer(x_).sum(),
            [x, inner.weight, delta.lora_a, delta.lora_b],
        )

    def test_mask_quant_lora_grads_match_manual_stack(self):
        """STE grads are not finite-differenceable; instead assert the
        composed pipeline's analytic grads equal the same math written
        out with the raw primitives."""
        rng = np.random.default_rng(1)
        spec = QuantSpec(bits=4)

        def build():
            inner = Linear(6, 4, rng=np.random.default_rng(1))
            inner.weight.requires_grad = True
            mask = (np.random.default_rng(2).random(inner.weight.shape) > 0.4)
            return inner, mask.astype(np.float32)

        x_data = rng.standard_normal((3, 6)).astype(np.float32)
        a_data = (rng.standard_normal((6, 2)) / np.sqrt(2)).astype(np.float32)
        b_data = rng.standard_normal((2, 4)).astype(np.float32) * 0.1

        # Composed pipeline.
        inner1, mask = build()
        layer = TransformedLinear(
            inner1, [PruneMask(mask), FakeQuantSTE(spec)]
        )
        delta = LoRADelta(6, 4, rank=2, alpha=4.0)
        delta.lora_a.data = a_data.copy()
        delta.lora_b.data = b_data.copy()
        layer.attach(delta)
        x1 = Tensor(x_data.copy(), requires_grad=True)
        layer(x1).sum().backward()

        # Same stack from primitives.
        inner2, _ = build()
        a2 = Tensor(a_data.copy(), requires_grad=True)
        b2 = Tensor(b_data.copy(), requires_grad=True)
        x2 = Tensor(x_data.copy(), requires_grad=True)
        eff = fake_quant_ste(inner2.weight * Tensor(mask), spec)
        out = x2 @ eff + inner2.bias
        out = out + ((x2 @ a2) @ b2) * delta.scaling
        out.sum().backward()

        assert np.array_equal(x1.grad, x2.grad)
        assert np.array_equal(inner1.weight.grad, inner2.weight.grad)
        assert np.array_equal(delta.lora_a.grad, a2.grad)
        assert np.array_equal(delta.lora_b.grad, b2.grad)
