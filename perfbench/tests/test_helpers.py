"""Tests of the benchmark's own helpers (run: python3 -m pytest perfbench/tests)."""

import json
import os

import numpy as np
import pytest

from perfbench import inputs, measure
from perfbench.envinfo import CpuClock
from perfbench.tracing import Tracer
from repro.serve import Result

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- the percentile rule ---------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_supported_percentile_needs_ten_samples_beyond(n, expected):
    assert measure.supported_percentile(n) == expected


def test_percentile_refuses_unsupported_tail():
    with pytest.raises(ValueError):
        measure.percentile(list(range(199)), 95.0)
    assert measure.percentile(list(range(200)), 95.0) == pytest.approx(189.05)


def test_summarize_reports_count_and_highest_supported_tail():
    values = list(range(1, 101))
    out = measure.summarize(values)
    assert out["n"] == 100
    assert out["p50"] == pytest.approx(50.5)
    assert out["tail_p"] == 90.0
    assert out["tail"] == pytest.approx(np.percentile(values, 90))
    assert "tail_p" not in measure.summarize(list(range(30)))


# -- span self time --------------------------------------------------------


def _span(id, start, end, parent=None, name="x"):
    return {"id": id, "name": name, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps its sibling
        _span(3, 2.5, 4.0, parent=2),  # a grandchild only affects its parent
        _span(4, 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    own = measure.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 1.5)
    assert own[3] == pytest.approx(1.5)
    assert own[4] == pytest.approx(3.0)


def test_self_time_table_groups_by_name():
    spans = [_span(0, 0.0, 1.0, name="a"), _span(1, 0.2, 0.6, parent=0, name="b"),
             _span(2, 2.0, 2.5, name="a")]
    rows = {r["name"]: r for r in measure.self_time_table(spans)}
    assert rows["a"]["calls"] == 2
    assert rows["a"]["self_ms"] == pytest.approx(1100.0)
    assert rows["a"]["total_ms"] == pytest.approx(1500.0)
    assert rows["b"]["self_share"] == pytest.approx(400.0 / 1500.0)


def test_tracer_links_parents_and_unwraps():
    class Thing:
        def work(self, n):
            return n + 1

    tracer = Tracer()
    thing = Thing()
    tracer.wrap(thing, "work", "thing.work", lambda n: {"rows": n})
    with tracer.span("outer", rid="r1"):
        assert thing.work(3) == 4
    tracer.unwrap()
    assert "work" not in vars(thing)
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and inner["rows"] == 3
    assert outer["rid"] == "r1" and outer["end"] >= inner["end"]


# -- TTFT / TPOT from step maps -------------------------------------------


def test_request_latencies_from_step_map():
    step_end = {1: 0.10, 2: 0.15, 3: 0.30, 4: 0.40}
    due = {"a": 0.0, "b": 0.12, "c": 0.2, "d": 0.3}
    results = [
        Result("a", tokens=[1, 2, 3], finish_reason="length",
               first_token_step=1, finished_step=3),
        Result("b", tokens=[1, 2, 3, 4, 5], finish_reason="length",
               first_token_step=2, finished_step=4),
        Result("c", tokens=[7], finish_reason="length",
               first_token_step=3, finished_step=3),
        Result("d", tokens=[], finish_reason="rejected"),
    ]
    ttft, tpot = measure.request_latencies(results, step_end, due)
    assert ttft == pytest.approx([0.10, 0.03, 0.10])
    assert tpot == pytest.approx([(0.30 - 0.10) / 2, (0.40 - 0.15) / 4])


# -- seeded inputs ---------------------------------------------------------


def test_arrival_schedule_is_deterministic_per_seed():
    a = inputs.arrival_schedule(500, 10.0, np.random.default_rng(7))
    b = inputs.arrival_schedule(500, 10.0, np.random.default_rng(7))
    c = inputs.arrival_schedule(500, 10.0, np.random.default_rng(8))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a[0] == 0.0 and np.all(np.diff(a) >= 0)
    assert np.mean(np.diff(a)) == pytest.approx(0.1, rel=0.15)


def test_arrival_gaps_are_stratified_exponential_quantiles():
    n, rate = 400, 5.0
    a = inputs.arrival_schedule(n, rate, np.random.default_rng(1))
    b = inputs.arrival_schedule(n, rate, np.random.default_rng(2))
    ga, gb = np.diff(a), np.diff(b)
    assert not np.array_equal(ga, gb)
    # Each seed draws every gap from its own 1/n-wide probability stratum
    # (the zeroed first gap takes one stratum out).
    for gaps in (ga, gb):
        assert len(set(np.floor(-np.expm1(-rate * gaps) * n))) == n - 1
    assert np.mean(ga) == pytest.approx(1.0 / rate, rel=0.05)


def test_stratified_integers_cover_the_range_evenly():
    v = inputs.stratified_integers(8, 48, 410, np.random.default_rng(0))
    assert v.min() == 8 and v.max() == 48
    counts = np.bincount(v - 8)
    assert counts.min() == counts.max() == 10
    w = inputs.stratified_integers(8, 48, 410, np.random.default_rng(1))
    assert not np.array_equal(v, w) and np.array_equal(np.sort(v), np.sort(w))


def test_request_mixes_are_deterministic_per_seed():
    sampler = inputs.target_sampler()
    one = inputs.voted_requests(40, 10.0, 3, sampler)
    two = inputs.voted_requests(40, 10.0, 3, sampler)
    assert [q.prompt for q in one.requests] == [q.prompt for q in two.requests]
    np.testing.assert_array_equal(one.due_s, two.due_s)
    assert all(8 <= len(q.prompt) <= 48 and 16 <= q.max_new_tokens <= 48
               for q in one.requests)
    assert {q.greedy for q in one.requests} == {True, False}
    bursts = inputs.shared_requests(2, 10, 3, sampler)
    assert [[q.prompt for q in b.requests] for b in bursts] == [
        [q.prompt for q in b.requests] for b in inputs.shared_requests(2, 10, 3, sampler)]
    for burst in bursts:
        system = burst.requests[0].prompt[:96]
        assert all(q.prompt[:96] == system and 100 <= len(q.prompt) <= 108
                   and 8 <= q.max_new_tokens <= 20 for q in burst.requests)
        assert not burst.due_s.any()


def test_chain_sampler_emits_only_chain_transitions():
    from repro.data import MarkovChainCorpus

    corpus = MarkovChainCorpus(vocab_size=inputs.VOCAB, order=1,
                               seed=inputs.TARGET_LANGUAGE)
    streams = inputs.target_sampler().streams(16, 40, np.random.default_rng(0))
    for row in streams:
        for prev, nxt in zip(row[:-1], row[1:]):
            assert nxt in corpus.successors((int(prev),))[0]


# -- clock -----------------------------------------------------------------


def test_clock_is_monotonic_and_skips_idle_time(monkeypatch):
    monkeypatch.setattr(CpuClock, "PROBE_EVERY", 0.001)
    clock = CpuClock()
    readings = [clock() for _ in range(200)]
    assert all(b >= a for a, b in zip(readings, readings[1:]))
    before = clock()
    clock.skip(2.5)
    assert clock() - before >= 2.5


# -- BENCHMARK.json --------------------------------------------------------


def test_benchmark_spec_matches_the_code():
    from perfbench import run, workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(ROOT, "perfbench", "layer_map.json")) as fh:
        layer_map = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in e2e
    assert set(layer_map) == {m["name"] for m in spec["per_layer"]}
    for name, entry in layer_map.items():
        assert set(entry["moves"]) <= e2e, name
        assert set(entry["workloads"]) <= set(run.WORKLOADS), name
    voted = next(w for w in spec["workloads"] if w["name"] == "serve-voted")
    assert f"{workloads.VOTED_RATE:g} req/s" in voted["why"]
