"""Graph capture in the adaptive trainer.

Capturing the tuning-window step and replaying it must be invisible in
the numbers: the loss trajectory is bit-identical with capture on and
off, across window rotation, and the graph/arena counters prove the
replays actually happened.
"""

import numpy as np

from repro.adaptive import AdaptiveLayerTrainer, AdaptiveTuningConfig
from repro.data import lm_batches
from repro.nn import TransformerLM
from repro.obs import MetricsRegistry, use_registry

from ..conftest import small_config


def untied_model(state=None):
    model = TransformerLM(small_config(num_layers=4, tie_embeddings=False))
    if state is not None:
        model.load_state_dict(state)
    return model


def window_config(**overrides):
    defaults = dict(
        window=2, exit_points=[4], schedule="round_robin", lr=1e-3,
        optimizer_scope="window",
    )
    defaults.update(overrides)
    return AdaptiveTuningConfig(**defaults)


def train_batches(corpus, n, seed=0):
    return list(lm_batches(corpus, 4, 16, n, np.random.default_rng(seed)))


def run_losses(state, batches, **overrides):
    trainer = AdaptiveLayerTrainer(untied_model(state), window_config(**overrides))
    return [trainer.train_step(i, t).loss for i, t in batches]


class TestTrajectoryIdentity:
    def test_capture_is_bit_identical(self, adapt_corpus):
        state = untied_model().state_dict()
        batches = train_batches(adapt_corpus, 8)
        captured = run_losses(state, batches, graph_capture=True)
        traced = run_losses(state, batches, graph_capture=False)
        assert captured == traced

    def test_capture_identical_across_window_rotation(self, adapt_corpus):
        """Round-robin rotates the tuned window; each window captures its
        own graph and the trajectory still matches trace-every-step."""
        state = untied_model().state_dict()
        batches = train_batches(adapt_corpus, 6)
        captured = run_losses(state, batches, graph_capture=True, window=1)
        traced = run_losses(state, batches, graph_capture=False, window=1)
        assert captured == traced


class TestCounters:
    def test_steps_replay_after_first_capture(self, adapt_corpus):
        state = untied_model().state_dict()
        batches = train_batches(adapt_corpus, 8)
        reg = MetricsRegistry()
        with use_registry(reg):
            run_losses(state, batches, graph_capture=True)
        captures = reg.counter("tensor/graph/captures").value
        replays = reg.counter("tensor/graph/replays").value
        # One capture per distinct window config; every other step replays.
        assert 1 <= captures < len(batches)
        assert captures + replays == len(batches)
        # Each captured graph pins its buffers on first replay: the takes
        # land as fresh reservations or free-list hits depending on what
        # earlier graphs released into the process-global pool.
        arena_traffic = (
            reg.counter("tensor/arena/bytes_reserved").value
            + reg.counter("tensor/arena/reuse_hits").value
        )
        assert arena_traffic > 0

    def test_disabled_capture_never_captures(self, adapt_corpus):
        state = untied_model().state_dict()
        batches = train_batches(adapt_corpus, 4)
        reg = MetricsRegistry()
        with use_registry(reg):
            run_losses(state, batches, graph_capture=False)
        assert reg.counter("tensor/graph/captures").value == 0
        assert reg.counter("tensor/graph/replays").value == 0


class TestReplayedStepStats:
    def test_replayed_step_reports_capture_time_tape_bytes(self, adapt_corpus):
        """Replayed steps run no tape; they report what their graph's
        capture step measured, reclaimed bytes included."""
        trainer = AdaptiveLayerTrainer(
            untied_model(), window_config(graph_capture=True, window=4)
        )
        stats = [trainer.train_step(i, t) for i, t in train_batches(adapt_corpus, 3)]
        captured, replayed = stats[0], stats[1:]
        assert captured.reclaimed_bytes > 0
        for step in replayed:
            assert step.reclaimed_bytes == captured.reclaimed_bytes
            assert step.activation_bytes == captured.activation_bytes
            assert step.peak_tape_bytes == captured.peak_tape_bytes
