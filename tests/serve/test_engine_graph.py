"""Graph capture in the generation engine.

The captured per-bucket decode step (and the speculative draft/verify
graphs) must be invisible at the token level: greedy outputs with
capture on equal the direct path's exactly — including across batch
membership changes, and across structural slicing, where the graphs'
parameter-identity guards must invalidate every stale capture.
"""

import numpy as np

from repro.adaptive import ExitHeadSet
from repro.data import lm_batches
from repro.nn import TransformerLM
from repro.nn.slicing import rotate_and_slice
from repro.obs import MetricsRegistry, use_registry
from repro.serve import GenerationEngine
from repro.tensor import graph_capture

from ..conftest import small_config

PROMPTS = [[1, 2, 3, 4], [7, 1, 9], [4, 4, 9, 2, 5], [30, 0]]


class Entry:
    def __init__(self, caches, last_token):
        self.caches = caches
        self.last_token = last_token


def prefill_entries(engine, prompts=PROMPTS):
    entries = []
    for prompt in prompts:
        caches = engine.model.new_caches()
        logits = engine.prefill(prompt, caches)
        entries.append(Entry(caches, int(logits.argmax())))
    return entries


def greedy(engine, entries, n):
    tokens = [[] for _ in entries]
    for _ in range(n):
        logits, _ = engine.decode_step(entries)
        nxt = logits.argmax(axis=-1)
        for b, entry in enumerate(entries):
            entry.last_token = int(nxt[b])
            tokens[b].append(entry.last_token)
    return tokens


def clone(pretrained_state):
    model = TransformerLM(small_config())
    model.load_state_dict(pretrained_state)
    return model


def calib_ids(corpus, seed=5):
    ids, _ = next(lm_batches(corpus, 4, 24, 1, np.random.default_rng(seed)))
    return ids


class TestTokenIdentity:
    def test_decode_tokens_identical(self, pretrained_model):
        engine = GenerationEngine(pretrained_model)
        results = {}
        for capture in (False, True):
            with graph_capture(capture):
                results[capture] = greedy(engine, prefill_entries(engine), 10)
        assert results[True] == results[False]

    def test_decode_identical_across_batch_changes(self, pretrained_model):
        """Entries leaving and rejoining the batch (eviction/readmission)
        invalidate the persistent decode slabs, never the tokens."""
        engine = GenerationEngine(pretrained_model)
        results = {}
        for capture in (False, True):
            with graph_capture(capture):
                entries = prefill_entries(engine)
                tokens = greedy(engine, entries, 3)
                sub = greedy(engine, entries[:2], 3)  # two rows evicted
                back = greedy(engine, entries, 3)     # and readmitted
                results[capture] = (tokens, sub, back)
        assert results[True] == results[False]

    def test_speculative_tokens_identical(self, pretrained_model):
        heads = ExitHeadSet(pretrained_model, exit_points=[3])
        results = {}
        for capture in (False, True):
            engine = GenerationEngine(
                pretrained_model, draft_heads=heads, draft_exit=3, draft_k=3
            )
            with graph_capture(capture):
                entries = prefill_entries(engine)
                tokens = [[e.last_token] for e in entries]
                while min(len(t) for t in tokens) < 12:
                    emitted = engine.speculative_decode_step(entries, max_new=12)
                    for b, entry in enumerate(entries):
                        tokens[b].extend(emitted[b])
                        entry.last_token = tokens[b][-1]
            results[capture] = [t[:12] for t in tokens]
        assert results[True] == results[False]


class TestSlicing:
    def scenario(self, pretrained_state, corpus, capture):
        """Decode, slice the live model, decode again on the same engine."""
        model = clone(pretrained_state)
        engine = GenerationEngine(model)
        with graph_capture(capture):
            before = greedy(engine, prefill_entries(engine), 6)
            rotate_and_slice(model, calib_ids(corpus), 0.5)
            after = greedy(engine, prefill_entries(engine), 6)
        return before, after

    def test_sliced_tokens_identical(self, pretrained_state, adapt_corpus):
        captured = self.scenario(pretrained_state, adapt_corpus, True)
        direct = self.scenario(pretrained_state, adapt_corpus, False)
        assert captured == direct

    def test_slice_invalidates_cached_graphs(self, pretrained_state, adapt_corpus):
        """Slicing swaps parameter objects; every pre-slice decode graph
        must fail its identity guard and be re-captured, never replayed."""
        reg = MetricsRegistry()
        with use_registry(reg):
            self.scenario(pretrained_state, adapt_corpus, True)
        assert reg.counter("tensor/graph/invalidations").value >= 1
        assert reg.counter("tensor/graph/captures").value >= 2


class TestStructureGuard:
    """Decode graphs pin module and parameter identities.  The identity
    walk is memoised against the module structure epoch, so it must
    still see every registration path: LUC wrapping and unwrapping
    (surgery) and a plain setattr replacing a Parameter."""

    def edits(self, model):
        from repro.luc import LayerCompression, LUCPolicy, apply_luc, remove_luc
        from repro.nn import Parameter

        policy = LUCPolicy([LayerCompression(2, 0.5)] * model.num_layers)
        undo = []
        yield "apply_luc", lambda: undo.extend(apply_luc(model, policy))
        yield "remove_luc", lambda: remove_luc(undo)

        def replace_param():
            proj = model.blocks[1].attn.q_proj
            proj.weight = Parameter(proj.weight.data * 2.0)

        yield "setattr", replace_param

    def scenario(self, pretrained_state, capture):
        model = clone(pretrained_state)
        engine = GenerationEngine(model)
        reg = MetricsRegistry()
        phases = []
        with use_registry(reg), graph_capture(capture):
            greedy(engine, prefill_entries(engine), 3)
            for name, edit in self.edits(model):
                before = reg.counter("tensor/graph/invalidations").value
                edit()
                tokens = greedy(engine, prefill_entries(engine), 3)
                after = reg.counter("tensor/graph/invalidations").value
                phases.append((name, tokens, after - before))
        return phases

    def test_each_edit_forces_recapture(self, pretrained_state):
        captured = self.scenario(pretrained_state, True)
        direct = self.scenario(pretrained_state, False)
        for (name, tokens, invalidated), (_, want, _) in zip(captured, direct):
            assert invalidated >= 1, name
            assert tokens == want, name

    def test_lookups_without_edits_skip_the_tree_walk(
        self, pretrained_model, monkeypatch
    ):
        engine = GenerationEngine(pretrained_model)
        entries = prefill_entries(engine)
        with graph_capture(True):
            greedy(engine, entries, 2)
            walks = []
            cls = type(pretrained_model)
            for name in ("modules", "parameters"):
                original = getattr(cls, name)
                monkeypatch.setattr(
                    cls, name,
                    lambda self, _f=original: walks.append(1) or _f(self),
                )
            greedy(engine, entries, 4)
        assert walks == []
