"""Capture/replay contract of the explicit VJP graph.

Replay is an optimization, never an approximation: replayed values and
gradients must be bitwise equal to a fresh trace, version bumps must
invalidate exactly the graphs whose leaves changed (stale replay is
impossible), and the arena/capture/grad/fusion toggles are contextvars —
scoped per thread, never leaking across.
"""

import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, use_registry
from repro.tensor import (
    Arena,
    GraphCache,
    GraphRecorder,
    Tensor,
    arena_scope,
    dropout,
    fused_kernels,
    fused_kernels_enabled,
    get_arena,
    graph_capture,
    graph_capture_enabled,
    is_grad_enabled,
    no_grad,
    silu,
)


def randt(shape, seed, requires_grad=True):
    data = np.random.default_rng(seed).standard_normal(shape)
    return Tensor(data.astype(np.float32), requires_grad=requires_grad)


def _forward(x, w, b):
    h = x @ w + b
    return silu(h) * h


def _capture(x, w, b, with_loss=True):
    """Capture ``_forward`` (+loss) with ``x`` as the dynamic input."""
    with GraphRecorder() as rec:
        rec.add_input(x)
        y = _forward(x, w, b)
        loss = (y * y).sum() if with_loss else None
        graph = rec.finalize([y], loss=loss)
    return graph


class TestReplayBitwise:
    def test_forward_matches_fresh_trace(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        graph = _capture(x, w, b, with_loss=False)

        x2 = np.random.default_rng(9).standard_normal((4, 6)).astype(np.float32)
        (replayed,) = graph.replay([x2])
        eager = _forward(Tensor(x2), w, b)
        np.testing.assert_array_equal(replayed, eager.data)

    def test_backward_matches_fresh_trace(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        graph = _capture(x, w, b)
        x2 = np.random.default_rng(9).standard_normal((4, 6)).astype(np.float32)
        graph.replay([x2], run_backward=True)
        replay_grads = (w.grad.copy(), b.grad.copy())

        w2, b2 = randt((6, 6), 1), randt((6,), 2)
        y = _forward(Tensor(x2), w2, b2)
        (y * y).sum().backward()
        np.testing.assert_array_equal(replay_grads[0], w2.grad)
        np.testing.assert_array_equal(replay_grads[1], b2.grad)

    def test_repeat_replays_are_stable(self):
        x, w, b = randt((3, 5), 3), randt((5, 5), 4), randt((5,), 5)
        graph = _capture(x, w, b, with_loss=False)
        x2 = np.random.default_rng(6).standard_normal((3, 5)).astype(np.float32)
        (first,) = graph.replay([x2])
        first = first.copy()
        (second,) = graph.replay([x2])
        np.testing.assert_array_equal(first, second)


class TestInvalidation:
    def test_bump_version_invalidates_cached_graph(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        cache = GraphCache()
        assert cache.store("k", _capture(x, w, b))
        assert cache.lookup("k") is not None

        w.data[:] += 1.0
        w.bump_version()
        reg = MetricsRegistry()
        with use_registry(reg):
            assert cache.lookup("k") is None
        assert reg.counter("tensor/graph/invalidations").value == 1

    def test_bump_invalidates_exactly_affected_graphs(self):
        xa, wa, ba = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        xb, wb, bb = randt((4, 6), 3), randt((6, 6), 4), randt((6,), 5)
        cache = GraphCache()
        cache.store("a", _capture(xa, wa, ba))
        cache.store("b", _capture(xb, wb, bb))

        wa.bump_version()
        assert cache.lookup("a") is None
        assert cache.lookup("b") is not None

    def test_mutable_leaves_replay_fresh_data(self):
        """Optimizer-managed params bump freely; replays read them fresh."""
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        with GraphRecorder(mutable=[w, b]) as rec:
            rec.add_input(x)
            y = _forward(x, w, b)
            graph = rec.finalize([y])
        cache = GraphCache()
        cache.store("k", graph)

        w.data[:] *= 0.5
        w.bump_version()
        hit = cache.lookup("k")
        assert hit is not None
        x2 = np.random.default_rng(7).standard_normal((4, 6)).astype(np.float32)
        (replayed,) = hit.replay([x2])
        eager = _forward(Tensor(x2), w, b)
        np.testing.assert_array_equal(replayed, eager.data)

    def test_guard_failure_invalidates(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        flag = {"ok": True}
        with GraphRecorder() as rec:
            rec.add_input(x)
            rec.add_guard(lambda: flag["ok"])
            y = _forward(x, w, b)
            graph = rec.finalize([y])
        cache = GraphCache()
        cache.store("k", graph)
        assert cache.lookup("k") is not None
        flag["ok"] = False
        assert cache.lookup("k") is None

    @settings(max_examples=20, deadline=None)
    @given(victim=st.integers(0, 2), seed=st.integers(0, 10_000))
    def test_stale_replay_impossible(self, victim, seed):
        """Property: after any leaf mutation + bump, the cached graph is
        unreachable and a fresh capture reproduces eager on the new data.
        The declared input ``x`` is not a leaf: the graph never reads the
        capture-time tensor, so mutating it leaves the graph valid and
        its replay on a new input equal to eager."""
        rng = np.random.default_rng(seed)
        x, w, b = randt((3, 4), seed), randt((4, 4), seed + 1), randt((4,), seed + 2)
        cache = GraphCache()
        cache.store("k", _capture(x, w, b, with_loss=False))

        leaf = (x, w, b)[victim]
        leaf.data[:] = rng.standard_normal(leaf.shape).astype(np.float32)
        leaf.bump_version()
        x2 = rng.standard_normal((3, 4)).astype(np.float32)
        if leaf is x:
            graph = cache.lookup("k")
            assert graph is not None
        else:
            assert cache.lookup("k") is None
            graph = _capture(x, w, b, with_loss=False)
        (replayed,) = graph.replay([x2])
        np.testing.assert_array_equal(replayed, _forward(Tensor(x2), w, b).data)

    def test_graph_does_not_retain_capture_time_inputs(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        cache = GraphCache()
        cache.store("k", _capture(x, w, b))
        x_data = weakref.ref(x.data)
        del x
        assert x_data() is None
        graph = cache.lookup("k")
        assert graph is not None
        x2 = np.random.default_rng(9).standard_normal((4, 6)).astype(np.float32)
        (replayed,) = graph.replay([x2])
        np.testing.assert_array_equal(replayed, _forward(Tensor(x2), w, b).data)


class TestUncacheable:
    def test_dropout_poisons_capture(self):
        x = randt((4, 6), 0)
        rng = np.random.default_rng(0)
        with GraphRecorder() as rec:
            rec.add_input(x)
            y = dropout(silu(x), 0.5, rng, training=True) * 2.0
            graph = rec.finalize([y])
        cache = GraphCache()
        assert not graph.cacheable
        assert not cache.store("k", graph)
        assert cache.known_uncacheable("k")
        assert cache.lookup("k") is None


class TestArena:
    def test_arena_toggle_is_value_invariant(self):
        x, w, b = randt((4, 6), 0), randt((6, 6), 1), randt((6,), 2)
        graph = _capture(x, w, b, with_loss=False)
        x2 = np.random.default_rng(8).standard_normal((4, 6)).astype(np.float32)
        with arena_scope(True):
            (with_arena,) = graph.replay([x2])
            with_arena = with_arena.copy()
        with arena_scope(False):
            (without,) = graph.replay([x2])
        np.testing.assert_array_equal(with_arena, without)

    def test_replays_borrow_buffers_from_the_pool(self):
        x, w, b = randt((8, 16), 0), randt((16, 16), 1), randt((16,), 2)
        graph = _capture(x, w, b, with_loss=False)
        x2 = np.random.default_rng(8).standard_normal((8, 16)).astype(np.float32)
        with arena_scope(True):
            graph.replay([x2])  # borrows its buffers, gives them back
            reg = MetricsRegistry()
            with use_registry(reg):
                graph.replay([x2])
            # Steady-state replays reserve nothing: every buffer comes
            # back out of the free lists the previous replay refilled.
            assert reg.counter("tensor/arena/reuse_hits").value > 0
            assert reg.counter("tensor/arena/bytes_reserved").value == 0

    def test_graphs_with_equal_shapes_share_one_working_set(self):
        graphs = [
            _capture(randt((8, 16), s), randt((16, 16), s + 1),
                     randt((16,), s + 2), with_loss=False)
            for s in (0, 10)
        ]
        x2 = np.random.default_rng(8).standard_normal((8, 16)).astype(np.float32)
        get_arena().drain()
        with arena_scope(True):
            reserved = []
            for graph in graphs:
                reg = MetricsRegistry()
                with use_registry(reg):
                    graph.replay([x2])
                reserved.append(reg.counter("tensor/arena/bytes_reserved").value)
        # The first replay reserves one graph's working set; the second
        # graph replays entirely out of the buffers the first gave back.
        assert reserved[0] > 0
        assert reserved[1] == 0

    def test_concurrent_borrowing_loses_no_buffer(self):
        """Replays in every thread borrow from the process-wide pool.
        Each key is new when the threads first meet it, so they race to
        create its free list; a lost list or counter update would leave
        fewer pooled buffers than fresh allocations."""
        arena = Arena()
        keys = [((0, i), np.dtype(np.float32)) for i in range(4000)]
        errors = []

        def worker():
            try:
                for key in keys:
                    arena.give_many([(key, 1)], arena.take_many([(key, 1)]))
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        fresh = len(keys) * len(threads) - arena.reuse_hits
        assert sum(len(v) for v in arena._free.values()) == fresh

    def test_arena_never_pools_views(self):
        arena = get_arena()
        base = np.zeros((4, 4), dtype=np.float32)
        before = sum(len(v) for v in arena._free.values())
        arena.give(base[1:])
        assert sum(len(v) for v in arena._free.values()) == before


class TestContextvarIsolation:
    """The grad/fused/capture/arena flags are contextvars: a new thread
    starts from the defaults and scoped toggles never leak across."""

    def _probe_in_thread(self, fn):
        seen = {}
        thread = threading.Thread(target=lambda: seen.update(value=fn()))
        thread.start()
        thread.join()
        return seen["value"]

    def test_no_grad_is_thread_local(self):
        with no_grad():
            assert is_grad_enabled() is False
            assert self._probe_in_thread(is_grad_enabled) is True

    def test_fused_kernels_is_thread_local(self):
        with fused_kernels(False):
            assert fused_kernels_enabled() is False
            assert self._probe_in_thread(fused_kernels_enabled) is True

    def test_graph_capture_is_thread_local(self):
        with graph_capture(False):
            assert graph_capture_enabled() is False
            assert self._probe_in_thread(graph_capture_enabled) is True

    def test_thread_toggle_does_not_leak_back(self):
        def flip():
            with fused_kernels(False):
                return fused_kernels_enabled()

        assert self._probe_in_thread(flip) is False
        assert fused_kernels_enabled() is True
