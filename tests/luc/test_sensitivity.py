"""Tests for per-layer sensitivity profiling."""

import numpy as np
import pytest

from repro.data import lm_batches
from repro.luc import (
    BLOCK_LINEAR_PATHS,
    CompressedLinear,
    LayerCompression,
    block_compressed,
    compress_block,
    measure_sensitivity,
    restore_block,
)
from repro.nn import Linear


@pytest.fixture
def calib(pretrain_corpus):
    rng = np.random.default_rng(42)
    return next(lm_batches(pretrain_corpus, 4, 24, 1, rng))


OPTIONS = [LayerCompression(2, 0.5), LayerCompression(8, 0.0)]


class TestBlockCompression:
    def test_compress_replaces_all_linears(self, pretrained_model):
        block = pretrained_model.blocks[0]
        undo = compress_block(block, LayerCompression(4, 0.3))
        assert len(undo) == len(BLOCK_LINEAR_PATHS)
        assert isinstance(block.attn.q_proj, CompressedLinear)
        restore_block(undo)
        assert isinstance(block.attn.q_proj, Linear)

    def test_context_manager_restores_on_error(self, pretrained_model):
        block = pretrained_model.blocks[0]
        with pytest.raises(RuntimeError):
            with block_compressed(block, LayerCompression(4, 0.3)):
                assert isinstance(block.mlp.gate_proj, CompressedLinear)
                raise RuntimeError("boom")
        assert isinstance(block.mlp.gate_proj, Linear)

    def test_forward_changes_under_compression(self, pretrained_model, calib):
        inputs, _ = calib
        from repro.tensor import no_grad

        with no_grad():
            base = pretrained_model(inputs).data.copy()
            with block_compressed(
                pretrained_model.blocks[0], LayerCompression(2, 0.5)
            ):
                compressed = pretrained_model(inputs).data
            restored = pretrained_model(inputs).data
        assert not np.allclose(base, compressed, atol=1e-4)
        assert np.allclose(base, restored, atol=1e-6)


class TestMeasureSensitivity:
    def test_profile_covers_all_pairs(self, pretrained_model, calib):
        inputs, targets = calib
        profile = measure_sensitivity(pretrained_model, inputs, targets, OPTIONS)
        assert len(profile.scores) == pretrained_model.num_layers * len(OPTIONS)

    def test_scores_nonnegative(self, pretrained_model, calib):
        inputs, targets = calib
        profile = measure_sensitivity(pretrained_model, inputs, targets, OPTIONS)
        assert all(v >= 0.0 for v in profile.scores.values())

    def test_harsher_compression_more_sensitive(self, pretrained_model, calib):
        """Averaged over blocks, 2-bit+50% must hurt more than 8-bit."""
        inputs, targets = calib
        profile = measure_sensitivity(pretrained_model, inputs, targets, OPTIONS)
        harsh = np.mean(
            [profile.score(i, OPTIONS[0]) for i in range(pretrained_model.num_layers)]
        )
        mild = np.mean(
            [profile.score(i, OPTIONS[1]) for i in range(pretrained_model.num_layers)]
        )
        assert harsh > mild

    def test_kl_metric(self, pretrained_model, calib):
        inputs, targets = calib
        profile = measure_sensitivity(
            pretrained_model, inputs, targets, OPTIONS, metric="kl"
        )
        assert profile.metric == "kl"
        assert all(v >= 0.0 for v in profile.scores.values())

    def test_weight_error_metric_no_forward(self, pretrained_model):
        profile = measure_sensitivity(
            pretrained_model, None, None, OPTIONS, metric="weight_error"
        )
        assert len(profile.scores) == pretrained_model.num_layers * len(OPTIONS)
        assert all(v >= 0.0 for v in profile.scores.values())

    def test_unknown_metric_raises(self, pretrained_model, calib):
        inputs, targets = calib
        with pytest.raises(ValueError):
            measure_sensitivity(pretrained_model, inputs, targets, OPTIONS, metric="x")

    def test_model_unchanged_after_profiling(self, pretrained_model, calib):
        inputs, targets = calib
        before = {
            name: p.data.copy() for name, p in pretrained_model.named_parameters()
        }
        measure_sensitivity(pretrained_model, inputs, targets, OPTIONS)
        for name, p in pretrained_model.named_parameters():
            assert np.array_equal(before[name], p.data), name
        assert isinstance(pretrained_model.blocks[0].attn.q_proj, Linear)

    def test_block_ranking_orders_by_score(self, pretrained_model, calib):
        inputs, targets = calib
        profile = measure_sensitivity(pretrained_model, inputs, targets, OPTIONS)
        ranking = profile.block_ranking(OPTIONS[0])
        scores = [profile.score(b, OPTIONS[0]) for b in ranking]
        assert scores == sorted(scores)

    def test_predicted_degradation_additive(self, pretrained_model, calib):
        from repro.luc import LUCPolicy

        inputs, targets = calib
        profile = measure_sensitivity(pretrained_model, inputs, targets, OPTIONS)
        policy = LUCPolicy([OPTIONS[0]] * pretrained_model.num_layers)
        expected = sum(
            profile.score(i, OPTIONS[0]) for i in range(pretrained_model.num_layers)
        )
        assert profile.predicted_degradation(policy) == pytest.approx(expected)

    def test_predicted_degradation_uncompressed_free(self, pretrained_model, calib):
        from repro.luc import LayerCompression, LUCPolicy

        inputs, targets = calib
        profile = measure_sensitivity(pretrained_model, inputs, targets, OPTIONS)
        policy = LUCPolicy(
            [LayerCompression(16, 0.0)] * pretrained_model.num_layers
        )
        assert profile.predicted_degradation(policy) == 0.0


def full_forward_scores(model, inputs, targets, options, metric):
    """Reference sweep: one full-depth forward per (block, option) pair."""
    from repro.nn.slicing import block_slice_trial
    from repro.tensor import Tensor, nll_from_logits, no_grad, softmax

    model.eval()
    with no_grad():
        base_logits = model(inputs).data
    base_loss = float(nll_from_logits(base_logits, targets).mean())
    base_probs = softmax(Tensor(base_logits)).data
    scores = {}
    for i in range(model.num_layers):
        for option in options:
            with block_slice_trial(model, i, option.slice_ratio, inputs):
                with block_compressed(model.blocks[i], option), no_grad():
                    logits = model(inputs).data
            if metric == "loss_delta":
                loss = float(nll_from_logits(logits, targets).mean())
                scores[(i, option)] = max(loss - base_loss, 0.0)
            else:
                probs = softmax(Tensor(logits)).data
                kl = base_probs * (
                    np.log(base_probs + 1e-9) - np.log(probs + 1e-9)
                )
                scores[(i, option)] = max(float(kl.sum(-1).mean()), 0.0)
    return scores


class TestPrefixReuse:
    """Pairs start from the base forward's hidden state entering their
    block; the scores must equal a full-forward sweep bit for bit."""

    SWEEP = OPTIONS + [LayerCompression(8, 0.0, slice_ratio=0.5)]

    @pytest.mark.parametrize("metric", ["loss_delta", "kl"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_scores_match_full_forward(self, pretrained_model, calib, metric, workers):
        inputs, targets = calib
        profile = measure_sensitivity(
            pretrained_model, inputs, targets, self.SWEEP,
            metric=metric, workers=workers,
        )
        reference = full_forward_scores(
            pretrained_model, inputs, targets, self.SWEEP, metric
        )
        assert profile.scores == reference
        assert any(v > 0 for v in reference.values())
