"""Generation engine: prefill + batched incremental decode over KV caches.

The engine turns the repo's scoring-only model stack into a
request-level generation runtime:

* **Prefill** runs a request's prompt through the model once (batch 1),
  filling that request's per-layer cache block and returning last-position
  logits for the first sampled token.
* **Batched decode** advances many resident requests one token in a
  single model forward.  Each request keeps its own per-layer
  :class:`~repro.nn.attention.KVCache` block (leased from the cache
  pool); per step the engine stacks those blocks into a shared padded
  cache, masks each row's padding tail via ``key_padding_mask``, gives
  each row its true RoPE position via ``positions``, then scatters the
  newly appended key/value entries back to the per-request blocks.
* **Voting decode** replaces the final head with the calibrated mixture
  of exit heads (:class:`~repro.adaptive.VotingCombiner`), computed
  through the combiner's logits-only fast path on last-position logits.
  With a ``confidence_threshold``, decoding exits early: the shallowest
  exit whose own max-probability clears the threshold ends that row's
  forward, and the mixture is renormalized over the exits actually
  computed.  Skipped layers still receive a cache entry for the token —
  key/value projections of the exit hidden state (CALM-style state
  propagation) — so any later token may run the full depth.

Determinism: a request's logits depend only on its own cache rows, so
decode results are identical whether requests are batched or served one
at a time, and identical between the stacked and direct (batch-1) paths.

Compressed models fold automatically: serving runs frozen and under
``no_grad``, so ``TransformedLinear`` layers hit their effective-weight
fold cache — the mask/quant composition is folded once, then every
prefill and decode step reuses it (see ``docs/architecture.md``).

* **Self-speculative decoding** (``draft_k > 0``) drafts ``k`` greedy
  tokens per request through a shallow exit head (blocks ``0..d-1`` plus
  the head at depth ``d``), then verifies them with a *single* full-depth
  batched pass over the ``k+1``-token suffix.  The verify pass reuses the
  draft's tap hidden states — the shallow blocks never run twice — and
  emits ``accepted + 1`` tokens per cycle (the accepted draft run plus
  the full model's own next token, a correction on mismatch or a bonus
  when every draft survived).  Rejected draft entries roll back through
  ``KVCache.truncate``.  Because every emitted token is the argmax of
  full-depth logits conditioned on previously emitted tokens, greedy
  speculative decode is token-identical to vanilla greedy decode;
  ``draft_k=0`` *is* the vanilla engine.

Counters (active ``repro.obs`` registry): ``serve/prefills``,
``serve/prefill_tokens``, ``serve/decode_steps``, ``serve/decode_tokens``,
``serve/early_exit_tokens``, and for speculative decoding
``serve/spec/{cycles,rows,draft_tokens,accepted_tokens,emitted_tokens}``
(``emitted == accepted + rows`` — each row of each cycle emits its
accepted run plus exactly one full-model token).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.attention import KVCache, apply_rope, rope_gather
from ..nn.module import structure_epoch
from ..obs import get_registry
from ..tensor import (
    GraphCache,
    GraphRecorder,
    Tensor,
    fused_kernels_enabled,
    graph_capture_enabled,
    no_grad,
)


def _softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class GenerationEngine:
    """Prefill/decode runtime over per-request KV-cache blocks.

    Decode entries are any objects exposing ``caches`` (the request's
    per-layer ``KVCache`` list) and ``last_token`` (the most recent token
    id, prompt tail or last generated) — the scheduler's active-request
    records satisfy this.  The engine puts the model in eval mode at
    construction and runs everything under ``no_grad``.
    """

    def __init__(
        self,
        model,
        voting=None,
        confidence_threshold: Optional[float] = None,
        draft_heads=None,
        draft_exit: Optional[int] = None,
        draft_k: int = 0,
        graph_capture: Optional[bool] = None,
        decode_bucket: int = 32,
    ):
        if confidence_threshold is not None:
            if voting is None:
                raise ValueError("confidence_threshold requires a voting combiner")
            if not 0.0 < confidence_threshold <= 1.0:
                raise ValueError("confidence_threshold must be in (0, 1]")
        if voting is not None:
            if voting.model is not model:
                raise ValueError("voting combiner was built for a different model")
            if voting.weights is None and voting.strategy != "confidence":
                raise ValueError("calibrate the voting combiner before serving")
        if draft_k < 0:
            raise ValueError("draft_k must be >= 0")
        if draft_k > 0:
            if draft_heads is None:
                raise ValueError("speculative decoding needs draft_heads")
            if voting is not None:
                raise ValueError(
                    "speculative decoding verifies against the plain final "
                    "head; it does not compose with voting decode"
                )
            if draft_exit is None:
                draft_exit = draft_heads.draft_exit_point()
            if draft_exit not in draft_heads.exit_points:
                raise ValueError(
                    f"no draft head at depth {draft_exit} "
                    f"(exits: {draft_heads.exit_points})"
                )
            if not 1 <= draft_exit < model.num_layers:
                raise ValueError(
                    f"draft_exit must lie in [1, {model.num_layers - 1}], "
                    f"got {draft_exit}"
                )
        self.model = model
        self.voting = voting
        self.confidence_threshold = confidence_threshold
        self.draft_heads = draft_heads
        self.draft_exit = draft_exit if draft_k > 0 else None
        self.draft_k = draft_k
        # Decode-step graphs, keyed per (kind, batch, prefix-bucket[, ...]).
        # Cache prefixes are bucketed to `decode_bucket` so one captured
        # graph serves a range of sequence lengths; bucket padding is
        # masked and bitwise-neutral (masked scores underflow to 0 in
        # softmax).  None inherits the process-wide toggle.
        self.graph_capture = graph_capture
        self._graphs = GraphCache()
        self._bucket = max(1, int(decode_bucket))
        # Persistent padded k/v slabs for the graph decode path: instead
        # of re-stacking every request's whole prefix each step, the new
        # token's k/v is written in place and the slabs are revalidated
        # against the authoritative per-entry caches (entry identity,
        # lengths, and cache-array identity) before reuse.
        self._slab_state = None
        self._structure_memo = None
        model.eval()

    @property
    def num_layers(self) -> int:
        return self.model.num_layers

    @property
    def speculative(self) -> bool:
        return self.draft_k > 0

    # ------------------------------------------------------------------
    # prefill
    # ------------------------------------------------------------------
    def prefill(
        self,
        prompt: Sequence[int],
        caches: List[KVCache],
        cached_len: int = 0,
    ) -> np.ndarray:
        """Run the prompt into ``caches``; return last-position logits.

        Every layer runs (the prompt's cache entries must be exact), so
        early exit here affects only which exits vote on the returned
        logits, not the cached state.

        ``cached_len > 0`` marks a prefix-shared request: ``caches``
        already hold exact entries for ``prompt[:cached_len]`` (leased
        from the pool's prefix trie) and only the suffix is computed —
        incremental multi-token prefill over the cached prefix.
        """
        prompt = list(prompt)
        if not 0 <= cached_len < len(prompt):
            raise ValueError(
                f"cached_len {cached_len} out of range for a "
                f"{len(prompt)}-token prompt"
            )
        if cached_len and caches[0].length != cached_len:
            raise ValueError(
                f"caches hold {caches[0].length} tokens, expected {cached_len}"
            )
        ids = np.asarray(prompt[cached_len:], dtype=np.int64)[None, :]
        reg = get_registry()
        reg.counter("serve/prefills").inc()
        reg.counter("serve/prefill_tokens").inc(ids.shape[1])
        with no_grad():
            if self.voting is None:
                logits = self.model(ids, caches=caches)
                return logits.data[0, -1]
            per_exit: Dict[int, np.ndarray] = {}
            hidden = self.model.embed_tokens(ids)
            for i, block in enumerate(self.model.blocks):
                hidden = block(hidden, cache=caches[i])
                point = i + 1
                if point in self.voting.exit_points:
                    per_exit[point] = self._exit_logits(point, hidden)
            exit_depth = self._exit_depths(per_exit, batch=1)
            return self._combine_rows(per_exit, exit_depth)[0]

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    def decode_step(self, entries: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """Advance every entry one token in a single batched forward.

        Returns ``(logits, early_exited)``: last-position logits
        ``(batch, vocab)`` and a boolean flag per row marking tokens
        decided by a confident shallow exit.
        """
        if not entries:
            raise ValueError("decode_step needs at least one entry")
        reg = get_registry()
        reg.counter("serve/decode_steps").inc()
        reg.counter("serve/decode_tokens").inc(len(entries))
        with no_grad():
            if self.voting is None and self._capture_active():
                return self._decode_graph(entries)
            if len(entries) == 1:
                return self._decode_direct(entries[0])
            return self._decode_stacked(entries)

    # -- direct (batch-1) path -----------------------------------------
    def _decode_direct(self, entry) -> Tuple[np.ndarray, np.ndarray]:
        ids = np.array([[entry.last_token]], dtype=np.int64)
        caches = entry.caches
        if self.voting is None:
            logits = self.model(ids, caches=caches)
            return logits.data[:, -1, :], np.zeros(1, dtype=bool)

        position = caches[0].length
        per_exit: Dict[int, np.ndarray] = {}
        hidden = self.model.embed_tokens(ids)
        exit_depth = np.array([self.num_layers])
        for i, block in enumerate(self.model.blocks):
            hidden = block(hidden, cache=caches[i])
            point = i + 1
            if point in self.voting.exit_points:
                per_exit[point] = self._exit_logits(point, hidden)
                if self._confident(per_exit[point])[0] and point < self.num_layers:
                    exit_depth[0] = point
                    break
        depth = int(exit_depth[0])
        if depth < self.num_layers:
            # Skipped layers still get this token's cache entry, projected
            # from the exit hidden state.
            frozen = hidden.data[0, -1]
            for layer in range(depth, self.num_layers):
                k, v = self._propagate_kv(layer, frozen, position)
                caches[layer].append(k, v)
                frozen = self._identity_advance(layer, frozen)
            get_registry().counter("serve/early_exit_tokens").inc()
        logits = self._combine_rows(per_exit, exit_depth)
        return logits, exit_depth < self.num_layers

    # -- stacked (batched) path ----------------------------------------
    def _decode_stacked(self, entries: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        model = self.model
        batch = len(entries)
        ids = np.array([[e.last_token] for e in entries], dtype=np.int64)
        lengths = np.array([e.caches[0].length for e in entries], dtype=np.int64)
        max_len = int(lengths.max())

        stacked = self._stack_caches(entries, range(self.num_layers), max_len)
        # True at each row's padding tail; the appended token (last
        # column) is always valid.
        pad = np.arange(max_len + 1)[None, :] >= lengths[:, None]
        pad[:, max_len] = False

        if self.voting is None:
            logits = model(
                ids, caches=stacked, key_padding_mask=pad, positions=lengths
            )
            self._scatter_back(entries, stacked, max_len)
            return logits.data[:, -1, :], np.zeros(batch, dtype=bool)

        per_exit: Dict[int, np.ndarray] = {}
        exit_depth = np.full(batch, self.num_layers, dtype=np.int64)
        exited = np.zeros(batch, dtype=bool)
        frozen = [None] * batch
        ran_blocks = 0
        hidden = model.embed_tokens(ids)
        for i, block in enumerate(model.blocks):
            if exited.all():
                break
            hidden = block(
                hidden, cache=stacked[i], key_padding_mask=pad, positions=lengths
            )
            ran_blocks = i + 1
            point = i + 1
            if point in self.voting.exit_points:
                per_exit[point] = self._exit_logits(point, hidden)
                if point < self.num_layers:
                    newly = ~exited & self._confident(per_exit[point])
                    for b in np.flatnonzero(newly):
                        exit_depth[b] = point
                        frozen[b] = hidden.data[b, -1].copy()
                    exited |= newly

        for layer in range(self.num_layers):
            ran = layer < ran_blocks
            if ran:
                k_new = stacked[layer].k[:, :, max_len:, :]
                v_new = stacked[layer].v[:, :, max_len:, :]
            for b, entry in enumerate(entries):
                if ran and layer < exit_depth[b]:
                    entry.caches[layer].append(k_new[b : b + 1], v_new[b : b + 1])
                else:
                    k, v = self._propagate_kv(layer, frozen[b], int(lengths[b]))
                    entry.caches[layer].append(k, v)
                    frozen[b] = self._identity_advance(layer, frozen[b])
        early = exit_depth < self.num_layers
        if early.any():
            get_registry().counter("serve/early_exit_tokens").inc(
                int(early.sum())
            )
        return self._combine_rows(per_exit, exit_depth), early

    # ------------------------------------------------------------------
    # speculative decode (draft k tokens shallow, verify full-depth once)
    # ------------------------------------------------------------------
    def speculative_decode_step(
        self, entries: Sequence, max_new: Optional[int] = None
    ) -> List[List[int]]:
        """Advance every entry by one draft/verify cycle (greedy only).

        Returns the emitted token ids per row: each row's accepted draft
        run plus one full-model token — between 1 and ``k + 1`` tokens.
        ``max_new`` optionally caps the emitted count per row (the draft
        length is clamped to ``max_new - 1``).  When the clamped draft
        length falls below 1 (row near ``max_len``, or ``max_new == 1``)
        the cycle degenerates to a vanilla :meth:`decode_step`.
        """
        if not self.speculative:
            raise ValueError("engine was not built with draft_k > 0")
        if not entries:
            raise ValueError("speculative_decode_step needs at least one entry")
        attn = self.model.blocks[0].attn
        longest = max(e.caches[0].length for e in entries)
        k = min(self.draft_k, attn.max_len - longest - 1)
        if max_new is not None:
            if max_new < 1:
                raise ValueError("max_new must be >= 1")
            k = min(k, max_new - 1)
        if k < 1:
            logits, _ = self.decode_step(entries)
            return [[int(row.argmax())] for row in logits]

        reg = get_registry()
        reg.counter("serve/decode_steps").inc()
        with no_grad():
            if self._capture_active():
                outs, accepted = self._speculative_graph(entries, k)
            elif len(entries) == 1:
                outs, accepted = self._speculative_direct(entries[0], k)
            else:
                outs, accepted = self._speculative_stacked(entries, k)
        batch = len(entries)
        emitted = sum(len(o) for o in outs)
        reg.counter("serve/decode_tokens").inc(emitted)
        reg.counter("serve/spec/cycles").inc()
        reg.counter("serve/spec/rows").inc(batch)
        reg.counter("serve/spec/draft_tokens").inc(k * batch)
        reg.counter("serve/spec/accepted_tokens").inc(int(accepted.sum()))
        reg.counter("serve/spec/emitted_tokens").inc(emitted)
        return outs

    def _speculative_direct(self, entry, k: int):
        """Batch-1 draft/verify cycle.

        The ``k + 1`` shallow passes append straight into the entry's own
        caches; rejected entries are rolled back afterwards through
        ``KVCache.truncate`` (the rollback path the shared-view COW
        semantics exist for)."""
        model = self.model
        caches = entry.caches
        d = self.draft_exit
        base = caches[0].length
        token = int(entry.last_token)
        drafts: List[int] = []
        taps: List[np.ndarray] = []
        for j in range(k + 1):
            ids = np.array([[token]], dtype=np.int64)
            hidden = model.embed_tokens(ids)
            for i in range(d):
                hidden = model.blocks[i](hidden, cache=caches[i])
            taps.append(hidden.data)
            if j < k:
                logits = self.draft_heads.logits_at(d, hidden)
                token = int(logits.data[0, -1].argmax())
                drafts.append(token)
        # Verify: one pass of the deep blocks over the k+1 tap states —
        # the shallow blocks never run twice.
        hidden = Tensor(np.concatenate(taps, axis=1))
        for i in range(d, self.num_layers):
            hidden = model.blocks[i](hidden, cache=caches[i])
        verify = model.head(hidden).data[0].argmax(axis=-1)  # (k+1,)
        a = 0
        while a < k and drafts[a] == int(verify[a]):
            a += 1
        emitted = drafts[:a] + [int(verify[a])]
        for cache in caches:
            cache.truncate(base + a + 1)
        return [emitted], np.array([a], dtype=np.int64)

    def _speculative_stacked(self, entries: Sequence, k: int):
        """Batched draft/verify cycle over pad-stacked caches.

        Key arrays stay in ``[valid prefix | pad | suffix]`` order, so the
        attention causal mask over array order remains correct; each
        row's pad slice is removed via ``key_padding_mask`` and its true
        RoPE positions come from ``positions``.  Only the accepted prefix
        of new entries is scattered back, so no truncation is needed."""
        model = self.model
        d = self.draft_exit
        batch = len(entries)
        lengths0 = np.array(
            [e.caches[0].length for e in entries], dtype=np.int64
        )
        max_len0 = int(lengths0.max())
        stacked = self._stack_caches(entries, range(self.num_layers), max_len0)
        tokens = np.array([e.last_token for e in entries], dtype=np.int64)
        drafts = np.empty((batch, k), dtype=np.int64)
        taps: List[np.ndarray] = []
        for j in range(k + 1):
            total = max_len0 + j + 1
            pad = (np.arange(total)[None, :] >= lengths0[:, None]) & (
                np.arange(total)[None, :] < max_len0
            )
            hidden = model.embed_tokens(tokens[:, None])
            for i in range(d):
                hidden = model.blocks[i](
                    hidden, cache=stacked[i], key_padding_mask=pad,
                    positions=lengths0 + j,
                )
            taps.append(hidden.data)
            if j < k:
                logits = self.draft_heads.logits_at(d, hidden)
                tokens = logits.data[:, -1, :].argmax(axis=-1)
                drafts[:, j] = tokens
        total = max_len0 + k + 1
        pad = (np.arange(total)[None, :] >= lengths0[:, None]) & (
            np.arange(total)[None, :] < max_len0
        )
        hidden = Tensor(np.concatenate(taps, axis=1))
        for i in range(d, self.num_layers):
            hidden = model.blocks[i](
                hidden, cache=stacked[i], key_padding_mask=pad,
                positions=lengths0,
            )
        verify = model.head(hidden).data.argmax(axis=-1)  # (batch, k+1)
        accepted = np.zeros(batch, dtype=np.int64)
        outs: List[List[int]] = []
        for b in range(batch):
            a = 0
            while a < k and drafts[b, a] == verify[b, a]:
                a += 1
            accepted[b] = a
            outs.append([int(t) for t in drafts[b, :a]] + [int(verify[b, a])])
        for layer in range(self.num_layers):
            k_new = stacked[layer].k[:, :, max_len0:, :]
            v_new = stacked[layer].v[:, :, max_len0:, :]
            for b, entry in enumerate(entries):
                keep = int(accepted[b]) + 1
                entry.caches[layer].append(
                    k_new[b : b + 1, :, :keep, :],
                    v_new[b : b + 1, :, :keep, :],
                )
        return outs, accepted

    # ------------------------------------------------------------------
    # captured decode graphs (capture once per shape bucket, then replay)
    # ------------------------------------------------------------------
    def _capture_active(self) -> bool:
        if self.graph_capture is not None:
            return self.graph_capture
        return graph_capture_enabled()

    def _graph_apply(self, key, arrays, build) -> List[np.ndarray]:
        """Replay the graph for ``key`` on ``arrays``, capturing it on
        first use by tracing ``build`` (a callable from declared-input
        Tensors to output Tensors).  Falls back to plain tracing when the
        configuration turned out uncacheable."""
        cache = self._graphs
        if cache.known_uncacheable(key):
            outs = build([Tensor(a) for a in arrays])
            return [np.asarray(o.data) for o in outs]
        graph = cache.lookup(key)
        if graph is None:
            recorder = GraphRecorder()
            with recorder:
                tensors = []
                for a in arrays:
                    t = Tensor(a)
                    recorder.add_input(t)
                    tensors.append(t)
                outputs = build(tensors)
            # Structural rewrites (slicing, requantization, LUC wrapping)
            # swap whole parameter or module objects, which per-leaf
            # version checks cannot see; pin the module and parameter
            # identities so such rewrites force a re-capture instead of
            # a stale replay.
            snapshot = self._structure_ids()
            recorder.add_guard(lambda: self._structure_ids() == snapshot)
            graph = recorder.finalize(outputs=outputs)
            cache.store(key, graph)
            return [np.asarray(o.data) for o in outputs]
        return graph.replay(arrays)

    def _structure_ids(self) -> Tuple[int, ...]:
        """Identities of every module and parameter under the model (and
        draft heads).  Memoised against the module structure epoch, which
        every Parameter/Module registration bumps, so the tree walk runs
        once per structural edit instead of on every graph lookup."""
        key = (structure_epoch(), self.model, self.draft_heads)
        memo = self._structure_memo
        if memo is None or memo[0] != key:
            roots = [self.model]
            if self.draft_heads is not None:
                roots.append(self.draft_heads)
            ids = tuple(
                id(obj)
                for root in roots
                for module in root.modules()
                for obj in (module, *module._parameters.values())
            )
            memo = self._structure_memo = (key, ids)
        return memo[1]

    def _bucket_len(self, max_len: int, seq_budget: int) -> int:
        """Round the batch's max cache length up to the bucket grid (so
        one captured graph serves many lengths), clamped to what fits
        under the model's max_len with ``seq_budget`` new positions."""
        b = self._bucket
        rounded = max(max_len, int(np.ceil(max_len / b) * b) if max_len else 0)
        limit = self.model.blocks[0].attn.max_len - seq_budget
        return max_len if rounded > limit else rounded

    def _rope_slices(self, positions: np.ndarray, seq: int):
        """Per-row cos/sin tables ``(batch, 1, seq, head_dim // 2)``."""
        attn = self.model.blocks[0].attn
        return rope_gather(
            attn.rope_cos, attn.rope_sin, positions, seq, positions.shape[0]
        )

    @staticmethod
    def _pad_mask(lengths: np.ndarray, bucket: int, total: int) -> np.ndarray:
        """True at the bucket-padding tail of each row ``(batch, total)``;
        positions at/after ``bucket`` (the appended suffix) stay valid."""
        idx = np.arange(total)[None, :]
        return (idx >= lengths[:, None]) & (idx < bucket)

    def _cache_ids(self, entries) -> Tuple[int, ...]:
        return tuple(
            id(e.caches[layer].k)
            for layer in range(self.num_layers)
            for e in entries
        )

    def _decode_slabs(self, entries, lengths, bucket: int):
        """Padded batch k/v slabs for the graph decode path, reused across
        steps.  A slab set is valid only while the batch composition, the
        per-row lengths, and the identity of every authoritative cache
        array still match what this engine last wrote — any external
        mutation (eviction, speculative append, direct decode) misses the
        check and forces a fresh stack."""
        st = self._slab_state
        entry_ids = tuple(id(e) for e in entries)
        if st is not None:
            if (
                st["bucket"] == bucket
                and st["entry_ids"] == entry_ids
                and np.array_equal(st["lengths"], lengths)
                and st["cache_ids"] == self._cache_ids(entries)
            ):
                return st["ks"], st["vs"]
            self._slab_state = None
        stacked = self._stack_caches(entries, range(self.num_layers), bucket)
        ks = [c.k for c in stacked]
        vs = [c.v for c in stacked]
        self._slab_state = {
            "bucket": bucket,
            "entry_ids": entry_ids,
            "lengths": lengths.copy(),
            "cache_ids": self._cache_ids(entries),
            "ks": ks,
            "vs": vs,
        }
        return ks, vs

    def _advance_slabs(self, entries, lengths, bucket, ks, vs, new_ks, new_vs):
        """Write the new token's k/v into the slabs in place and re-arm
        the validity snapshot for the next step."""
        if int(lengths.max()) >= bucket:
            # A row just filled its slab (clamped bucket); next step
            # needs a wider stack anyway.
            self._slab_state = None
            return
        rows = np.arange(len(entries))
        for layer in range(self.num_layers):
            ks[layer][rows, :, lengths, :] = new_ks[layer][:, :, 0, :]
            vs[layer][rows, :, lengths, :] = new_vs[layer][:, :, 0, :]
        st = self._slab_state
        st["lengths"] = lengths + 1
        st["cache_ids"] = self._cache_ids(entries)

    def _decode_graph(self, entries: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        """One-token batched decode through a captured graph."""
        model = self.model
        batch = len(entries)
        num_layers = self.num_layers
        ids = np.array([[e.last_token] for e in entries], dtype=np.int64)
        lengths = np.array([e.caches[0].length for e in entries], dtype=np.int64)
        bucket = self._bucket_len(int(lengths.max()), 1)
        ks, vs = self._decode_slabs(entries, lengths, bucket)
        # seq == 1 at the last array position: causality is vacuous, only
        # the bucket-padding tails need masking.
        mask = self._pad_mask(lengths, bucket, bucket + 1)[:, None, None, :]
        cos_t, sin_t = self._rope_slices(lengths, 1)
        arrays = [ids, mask, cos_t, sin_t] + ks + vs
        key = ("decode", batch, bucket, fused_kernels_enabled())

        def build(tensors):
            ids_t, mask_t, cos_tt, sin_tt = tensors[:4]
            t_ks = tensors[4 : 4 + num_layers]
            t_vs = tensors[4 + num_layers :]
            hidden = model.embed_tokens(ids_t)
            hidden, new_ks, new_vs = model.run_blocks_decode(
                hidden, t_ks, t_vs, mask_t, cos_tt, sin_tt
            )
            return [model.head(hidden)] + new_ks + new_vs

        outs = self._graph_apply(key, arrays, build)
        logits = outs[0]
        new_ks = outs[1 : 1 + num_layers]
        new_vs = outs[1 + num_layers :]
        for layer in range(num_layers):
            for b, entry in enumerate(entries):
                entry.caches[layer].append(
                    new_ks[layer][b : b + 1], new_vs[layer][b : b + 1]
                )
        self._advance_slabs(entries, lengths, bucket, ks, vs, new_ks, new_vs)
        return logits[:, -1, :], np.zeros(batch, dtype=bool)

    def _speculative_graph(self, entries: Sequence, k: int):
        """Draft/verify cycle through captured graphs: one graph per
        draft offset ``j`` (shallow blocks + draft head) and one for the
        full-depth verify suffix.  Token-identical to the traced paths."""
        model = self.model
        d = self.draft_exit
        batch = len(entries)
        num_layers = self.num_layers
        lengths0 = np.array(
            [e.caches[0].length for e in entries], dtype=np.int64
        )
        bucket = self._bucket_len(int(lengths0.max()), k + 1)
        stacked = self._stack_caches(entries, range(num_layers), bucket)
        shallow_k = [stacked[i].k for i in range(d)]
        shallow_v = [stacked[i].v for i in range(d)]
        fused = fused_kernels_enabled()
        tokens = np.array([e.last_token for e in entries], dtype=np.int64)
        drafts = np.empty((batch, k), dtype=np.int64)
        taps: List[np.ndarray] = []
        for j in range(k + 1):
            total = bucket + j + 1
            mask = self._pad_mask(lengths0, bucket, total)[:, None, None, :]
            cos_t, sin_t = self._rope_slices(lengths0 + j, 1)
            arrays = [tokens[:, None], mask, cos_t, sin_t] + shallow_k + shallow_v
            want_logits = j < k
            key = ("draft", batch, bucket, j, d, want_logits, fused)

            def build(tensors, want_logits=want_logits):
                ids_t, mask_t, cos_tt, sin_tt = tensors[:4]
                ks = tensors[4 : 4 + d]
                vs = tensors[4 + d :]
                hidden = model.embed_tokens(ids_t)
                hidden, new_ks, new_vs = model.run_blocks_decode(
                    hidden, ks, vs, mask_t, cos_tt, sin_tt, 0, d
                )
                outputs = [hidden] + new_ks + new_vs
                if want_logits:
                    outputs.append(self.draft_heads.logits_at(d, hidden))
                return outputs

            outs = self._graph_apply(key, arrays, build)
            taps.append(outs[0])
            for i in range(d):
                shallow_k[i] = np.concatenate(
                    [shallow_k[i], outs[1 + i]], axis=2
                )
                shallow_v[i] = np.concatenate(
                    [shallow_v[i], outs[1 + d + i]], axis=2
                )
            if want_logits:
                tokens = outs[1 + 2 * d][:, -1, :].argmax(axis=-1)
                drafts[:, j] = tokens
        total = bucket + k + 1
        pad = self._pad_mask(lengths0, bucket, total)
        q_pos = np.arange(bucket, total)[:, None]
        k_pos = np.arange(total)[None, :]
        mask = (k_pos > q_pos)[None, None, :, :] | pad[:, None, None, :]
        cos_t, sin_t = self._rope_slices(lengths0, k + 1)
        suffix = np.concatenate(taps, axis=1)
        deep_k = [stacked[i].k for i in range(d, num_layers)]
        deep_v = [stacked[i].v for i in range(d, num_layers)]
        key = ("verify", batch, bucket, k, d, fused)

        def build_verify(tensors):
            hid_t, mask_t, cos_tt, sin_tt = tensors[:4]
            ks = tensors[4 : 4 + num_layers - d]
            vs = tensors[4 + num_layers - d :]
            hidden, new_ks, new_vs = model.run_blocks_decode(
                hid_t, ks, vs, mask_t, cos_tt, sin_tt, d, num_layers
            )
            return [model.head(hidden)] + new_ks + new_vs

        outs = self._graph_apply(
            key, [suffix, mask, cos_t, sin_t] + deep_k + deep_v, build_verify
        )
        verify = outs[0].argmax(axis=-1)  # (batch, k+1)
        deep_new_k = outs[1 : 1 + num_layers - d]
        deep_new_v = outs[1 + num_layers - d :]
        accepted = np.zeros(batch, dtype=np.int64)
        result: List[List[int]] = []
        for b in range(batch):
            a = 0
            while a < k and drafts[b, a] == verify[b, a]:
                a += 1
            accepted[b] = a
            result.append(
                [int(t) for t in drafts[b, :a]] + [int(verify[b, a])]
            )
        for layer in range(num_layers):
            if layer < d:
                k_new = shallow_k[layer][:, :, bucket:, :]
                v_new = shallow_v[layer][:, :, bucket:, :]
            else:
                k_new = deep_new_k[layer - d]
                v_new = deep_new_v[layer - d]
            for b, entry in enumerate(entries):
                keep = int(accepted[b]) + 1
                entry.caches[layer].append(
                    k_new[b : b + 1, :, :keep, :],
                    v_new[b : b + 1, :, :keep, :],
                )
        return result, accepted

    def _stack_caches(self, entries, layers, max_len: int) -> List[KVCache]:
        """Pad-and-stack the per-request caches of ``layers`` into shared
        batched cache arrays (rows shorter than ``max_len`` are
        zero-padded; the caller masks the tails via key_padding_mask)."""
        attn0 = self.model.blocks[0].attn
        kv_heads, head_dim = attn0.num_kv_heads, attn0.head_dim
        batch = len(entries)
        stacked: List[KVCache] = []
        for layer in layers:
            cache = KVCache()
            k = np.zeros((batch, kv_heads, max_len, head_dim), dtype=np.float32)
            v = np.zeros_like(k)
            for b, entry in enumerate(entries):
                src = entry.caches[layer]
                if src.length:
                    k[b, :, : src.length] = src.k[0]
                    v[b, :, : src.length] = src.v[0]
            cache.k, cache.v = k, v
            stacked.append(cache)
        return stacked

    @staticmethod
    def _scatter_back(entries, stacked: List[KVCache], max_len: int) -> None:
        """Append each row's newly written k/v back to its own block."""
        for layer, cache in enumerate(stacked):
            k_new = cache.k[:, :, max_len:, :]
            v_new = cache.v[:, :, max_len:, :]
            for b, entry in enumerate(entries):
                entry.caches[layer].append(k_new[b : b + 1], v_new[b : b + 1])

    # -- voting helpers ------------------------------------------------
    def _exit_logits(self, point: int, hidden: Tensor) -> np.ndarray:
        """Last-position logits ``(batch, vocab)`` for one exit point."""
        last = hidden[:, -1:, :]
        if point == self.num_layers:
            logits = self.model.head(last)
        else:
            logits = self.voting.exit_heads.logits_at(point, last)
        return logits.data[:, -1, :]

    def _confident(self, logits: np.ndarray) -> np.ndarray:
        """Rows whose max softmax probability clears the threshold."""
        if self.confidence_threshold is None:
            return np.zeros(logits.shape[0], dtype=bool)
        probs = _softmax_np(logits)
        return probs.max(axis=-1) >= self.confidence_threshold

    def _exit_depths(self, per_exit: Dict[int, np.ndarray], batch: int) -> np.ndarray:
        """First confident exit per row (prefill: all exits available)."""
        depth = np.full(batch, self.num_layers, dtype=np.int64)
        if self.confidence_threshold is None:
            return depth
        undecided = np.ones(batch, dtype=bool)
        for point in self.voting.exit_points:
            if point >= self.num_layers:
                break
            newly = undecided & self._confident(per_exit[point])
            depth[newly] = point
            undecided &= ~newly
        return depth

    def _combine_rows(
        self, per_exit: Dict[int, np.ndarray], exit_depth: np.ndarray
    ) -> np.ndarray:
        """Voted log-prob mixture per row, renormalized to each row's depth."""
        all_points = self.voting.exit_points
        vocab = next(iter(per_exit.values())).shape[-1]
        out = np.empty((exit_depth.shape[0], vocab), dtype=np.float64)
        for depth in np.unique(exit_depth):
            rows = np.flatnonzero(exit_depth == depth)
            subset = [p for p in all_points if p <= depth]
            sub_logits = {p: per_exit[p][rows] for p in subset}
            points = None if len(subset) == len(all_points) else subset
            out[rows] = self.voting.combine_logits(sub_logits, points=points)
        return out

    def _propagate_kv(
        self, layer: int, hidden_last: np.ndarray, position: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cache entry for a skipped layer: k/v projected from the exit
        hidden state, exactly as the layer's attention would project its
        input (norm → projection → RoPE for k)."""
        block = self.model.blocks[layer]
        attn = block.attn
        h = block.attn_norm(Tensor(hidden_last.reshape(1, 1, -1)))
        k = attn._split_heads(attn.k_proj(h), attn.num_kv_heads)
        v = attn._split_heads(attn.v_proj(h), attn.num_kv_heads)
        k = apply_rope(k, attn.rope_cos, attn.rope_sin, offset=position)
        return k.data, v.data

    def _identity_advance(self, layer: int, hidden_last: np.ndarray) -> np.ndarray:
        """Carry a frozen exit hidden state past one skipped block along
        its identity residual path.  On unsliced models this is a no-op;
        a structurally sliced block (``repro.nn.slicing``) maps between
        junction bases via its shortcut rotations, so the frozen vector
        must follow ``attn_shortcut_Q @ mlp_shortcut_Q`` to stay in the
        next layer's input basis."""
        block = self.model.blocks[layer]
        for name in ("attn_shortcut_Q", "mlp_shortcut_Q"):
            q = getattr(block, name, None)
            if q is not None:
                hidden_last = hidden_last @ np.asarray(q)
        return hidden_last
