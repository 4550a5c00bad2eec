"""Seeded workload inputs, generated before any timing starts.

Everything here is a pure function of its seed: the same seed gives the
same train batches, held-out text, arrival schedule and request mix.  The
program under test only ever receives the generated arrays.

``MarkovChainCorpus.sample`` draws one token per Python call (about 20 ms
per 8 x 33 batch), so the benchmark samples the same order-1 chain from a
precomputed transition table instead, vectorised over rows.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from repro.data import MarkovChainCorpus
from repro.serve import Request

VOCAB = 64
TARGET_LANGUAGE = 1


class ChainSampler:
    """Vectorised sampler for an order-1 ``MarkovChainCorpus``."""

    def __init__(self, corpus: MarkovChainCorpus):
        if corpus.order != 1:
            raise ValueError("ChainSampler supports order-1 chains only")
        self.vocab = corpus.vocab_size
        rows = [corpus.successors((t,)) for t in range(self.vocab)]
        self.tokens = np.stack([r[0] for r in rows]).astype(np.int64)
        self.cum = np.cumsum(np.stack([r[1] for r in rows]), axis=1)
        self.cum[:, -1] = 1.0

    def streams(self, rows: int, length: int, rng: np.random.Generator,
                first=None) -> np.ndarray:
        """``rows`` independent token streams of ``length`` tokens; each
        starts after a uniform random context (or after ``first``)."""
        out = np.empty((rows, length), dtype=np.int64)
        ctx = (rng.integers(0, self.vocab, rows) if first is None
               else np.asarray(first, dtype=np.int64))
        for i in range(length):
            u = rng.random(rows)
            pick = (u[:, None] > self.cum[ctx]).sum(axis=1)
            ctx = self.tokens[ctx, np.minimum(pick, self.tokens.shape[1] - 1)]
            out[:, i] = ctx
        return out

    def lm_batches(self, count: int, batch: int, seq: int,
                   rng: np.random.Generator) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``count`` next-token-prediction (inputs, targets) batches."""
        out = []
        for _ in range(count):
            s = self.streams(batch, seq + 1, rng)
            out.append((s[:, :-1], s[:, 1:]))
        return out


def target_sampler() -> ChainSampler:
    return ChainSampler(MarkovChainCorpus(vocab_size=VOCAB, order=1,
                                          seed=TARGET_LANGUAGE))


def arrival_schedule(n: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from the start) of ``n`` arrivals at ``rate``.

    The gaps are exponential, as in a Poisson process, but stratified: gap
    ``i`` is the exponential quantile of a uniform drawn from its own
    1/n-wide stratum, and the strata are shuffled.  Every seed then offers
    the same spread of gaps (and exactly ``rate`` on average) and differs
    only in their order, so seed-to-seed changes in the latency tail come
    from the program rather than from a lucky or unlucky draw of gaps.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    u = (rng.permutation(n) + rng.random(n)) / n
    gaps = -np.log1p(-u) / rate
    gaps[0] = 0.0
    return np.cumsum(gaps)


def stratified_integers(low: int, high: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` integers spread evenly over ``[low, high]`` in a seeded order."""
    return low + rng.permutation(np.arange(n) * (high - low + 1) // n)


@dataclasses.dataclass
class ServeInputs:
    requests: List[Request]
    due_s: np.ndarray  # due time of each request, seconds after start


def voted_requests(n: int, rate: float, seed: int,
                   sampler: ChainSampler) -> ServeInputs:
    """Unshared 8-48-token prompts, 16-48 new tokens; 3/4 greedy and 1/4
    top-p sampled with per-request seeds; stratified Poisson arrivals at
    ``rate``.  Lengths and the sampled quarter are spread evenly over their
    ranges, so seeds differ only in the order of the mix."""
    rng = np.random.default_rng([seed, 1])
    due = arrival_schedule(n, rate, rng)
    prompt_lens = stratified_integers(8, 48, n, rng)
    new_tokens = stratified_integers(16, 48, n, rng)
    sampled = rng.permutation(n) < n // 4
    streams = sampler.streams(n, 48, rng)
    requests = [
        Request(
            f"v{i:04d}", prompt=streams[i, :prompt_lens[i]].tolist(),
            max_new_tokens=int(new_tokens[i]),
            greedy=not sampled[i], top_p=0.9 if sampled[i] else None,
            seed=int(rng.integers(0, 2**31)),
        )
        for i in range(n)
    ]
    return ServeInputs(requests, due)


def shared_requests(bursts: int, per_burst: int, seed: int, sampler: ChainSampler,
                    system_len: int = 96) -> List[ServeInputs]:
    """``bursts`` offline batches of ``per_burst`` sessions.  The sessions
    of one burst share a ``system_len``-token system prompt, then add a
    4-12-token user turn and ask for 8-20 greedy new tokens; all are due
    when the burst starts."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for b in range(bursts):
        system = sampler.streams(1, system_len, rng)[0]
        turn_lens = rng.integers(4, 13, per_burst)
        new_tokens = rng.integers(8, 21, per_burst)
        turns = sampler.streams(per_burst, 12, rng, first=np.full(per_burst, system[-1]))
        requests = [
            Request(
                f"s{b:02d}-{i:04d}",
                prompt=system.tolist() + turns[i, :turn_lens[i]].tolist(),
                max_new_tokens=int(new_tokens[i]),
            )
            for i in range(per_burst)
        ]
        out.append(ServeInputs(requests, np.zeros(per_burst)))
    return out
