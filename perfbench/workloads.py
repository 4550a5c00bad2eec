"""The four workloads, each driven through the public API as a user would.

* ``adapt`` / ``adapt-pp2``: ``EdgeLLM`` construction + ``compress`` +
  trainer construction (set-up), adaptive tuning over pre-generated
  target-language batches (timed per step from outside, through the batch
  iterator handed to ``EdgeLLM.adapt``), ``calibrate_voting`` (untimed),
  then voted scoring of held-out text through ``EdgeLLM.logits`` (timed
  per batch).
* ``serve-voted``: open-loop stratified Poisson arrivals at a constant
  rate into a ``Scheduler`` over a voting ``GenerationEngine`` and a
  ``CachePool``.
* ``serve-shared``: a burst of sessions sharing one long system prompt,
  with prefix sharing and self-speculative decoding.

All times are read from :class:`~perfbench.envinfo.CpuClock`.  Every
workload returns an :class:`Outcome`: end-to-end metrics, per-layer
metrics, operation counts and named correctness checks.  With a
:class:`~perfbench.tracing.Tracer` the layer calls are wrapped in spans;
without one nothing is wrapped.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
from typing import Dict, List, Optional

import numpy as np

import repro.pipeline
from repro.nn import TransformerLM
from repro.obs import use_registry
from repro.pipeline import EdgeLLM
from repro.serve import CachePool, GenerationEngine, Scheduler, SchedulerConfig, serve_batch
from repro.tensor import nll_from_logits, no_grad

from perfbench import envinfo, fixture, inputs
from perfbench.envinfo import CpuClock
from perfbench.measure import percentile, request_latencies, self_times, summarize
from perfbench.tracing import Tracer

# adapt / adapt-pp2
STEPS_PER_SECOND = 12  # train steps per second of --seconds
SCORE_BATCHES = 400  # held-out 8 x 32 batches scored with the voted model
CHECK_BATCHES = 16  # the adapted-beats-unadapted check uses these
PP_CHECK_STEPS = 4  # steps compared bitwise against the shards=1 reference
ADAPT_SETUP_REPS = 3

# serve-voted / serve-shared
VOTED_RATE = 5.0  # offered load in requests per second, a constant
VOTED_PER_SECOND = 15  # requests per second of --seconds (3 x --seconds of arrivals)
SHARED_BURSTS = 8  # back-to-back bursts, each with its own system prompt
SHARED_PER_SECOND = 4  # sessions per burst per second of --seconds
MAX_BATCH = 8
POOL_TOKENS = 1024
DRAFT_K = 4
CHECK_EVERY = 16  # every 16th request is re-served as the reference
SERVE_SETUP_REPS = 501
SERVE_PPL_BATCHES = 50  # held-out 8 x 32 batches scored with the served model

TENSOR_COUNTERS = ("tensor/graph/captures", "tensor/graph/replays",
                   "tensor/graph/invalidations", "tensor/arena/reuse_hits",
                   "nn/fold/hits", "nn/fold/misses")


@dataclasses.dataclass
class Outcome:
    metrics: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    notes: Dict = dataclasses.field(default_factory=dict)


def _counters(reg, names=TENSOR_COUNTERS) -> Dict[str, float]:
    return {n: reg.counter(n).value for n in names}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _tensor_layers(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    d = {k: after[k] - before[k] for k in after}
    captures, replays = d["tensor/graph/captures"], d["tensor/graph/replays"]
    hits, misses = d["nn/fold/hits"], d["nn/fold/misses"]
    return {
        "tensor.graph_captures": captures,
        "tensor.graph_replays": replays,
        "tensor.graph_invalidations": d["tensor/graph/invalidations"],
        "tensor.replay_share": _share(replays, captures + replays),
        "tensor.arena_reuse_hits": d["tensor/arena/reuse_hits"],
        "nn.fold_hit_share": _share(hits, hits + misses),
        "nn.fold_misses": misses,
    }


def _ms(spans) -> List[float]:
    return [(s["end"] - s["start"]) * 1e3 for s in spans]


def _p50_ms(spans) -> float:
    return percentile(_ms(spans), 50.0) if spans else 0.0


def _latency_metrics(prefix: str, seconds: List[float],
                     checks: Dict[str, bool]) -> Dict[str, float]:
    """p50 and p95 in ms; records whether the sample supports p95."""
    stats = summarize(seconds)
    checks[f"{prefix}_p95_supported"] = stats.get("tail_p", 0.0) >= 95.0
    p95 = float(np.percentile(seconds, 95.0))
    return {f"{prefix}_p50_ms": stats["p50"] * 1e3, f"{prefix}_p95_ms": p95 * 1e3}


# ----------------------------------------------------------------------
# adapt / adapt-pp2


def _score(logits_fn, batches, clock) -> Dict:
    """Per-batch time of ``logits_fn`` and the summed NLL per batch."""
    times, nll = [], []
    for ids, targets in batches:
        t0 = clock()
        with no_grad():
            logits = logits_fn(ids)
        times.append(clock() - t0)
        nll.append(float(nll_from_logits(logits, targets).sum()))
    return {"times": times, "nll": nll, "tokens": [t.size for _, t in batches]}


def _ppl(nll: List[float], tokens: List[int]) -> float:
    return float(np.exp(sum(nll) / sum(tokens)))


def run_adapt(cache_dir: str, seed: int, seconds: int, clock: CpuClock,
              tracer: Optional[Tracer], shards: int = 1) -> Outcome:
    pp = shards > 1
    cfg = fixture.edge_config(shards=shards, micro_batches=2) if pp else fixture.edge_config()
    sampler = inputs.target_sampler()
    rng = np.random.default_rng([seed, 0])
    steps = STEPS_PER_SECOND * seconds
    calib = sampler.lm_batches(1, 4, fixture.SEQ, rng)[0]
    batches = sampler.lm_batches(steps, fixture.BATCH, fixture.SEQ, rng)
    vote_calib = sampler.lm_batches(1, fixture.BATCH, fixture.SEQ, rng)[0]
    held_out = sampler.lm_batches(SCORE_BATCHES, fixture.BATCH, fixture.SEQ,
                                  np.random.default_rng([seed, 9]))
    base = fixture.load_base(cache_dir)
    base_state, base_config = base.state_dict(), base.config
    del base
    checks: Dict[str, bool] = {}

    with use_registry() as reg:
        if tracer is not None:
            for name in ("measure_sensitivity", "search_policy", "apply_luc"):
                tracer.wrap(repro.pipeline, name, f"luc.{name}")
        envinfo.reset_peak()
        setup_s, llm = [], None
        for _ in range(ADAPT_SETUP_REPS):
            if llm is not None:
                llm.close()
            model = TransformerLM(base_config)
            model.load_state_dict(base_state)
            t0 = clock()
            llm = EdgeLLM(model, cfg)
            llm.compress(*calib)
            llm.adapt([])  # builds the trainer and forks any stage workers
            clock.watch(envinfo.child_pids())
            setup_s.append(clock() - t0)
        luc_counts = _counters(reg, ("luc/sensitivity/pairs_measured",
                                     "luc/search/candidates_evaluated"))
        reference = copy.deepcopy(llm.model) if pp else None
        llm.model.eval()
        unadapted = _score(llm.model, held_out[:CHECK_BATCHES], clock)
        llm.model.train()

        if tracer is not None and not pp:
            tracer.wrap(llm.trainer.optimizer, "step", "adaptive.optimizer")
        step_s: List[float] = []
        step_spans: List[dict] = []

        def feed():
            for batch in batches:
                span = tracer.span("adaptive.step") if tracer else contextlib.nullcontext()
                with span as rec:
                    t0 = clock()
                    yield batch
                    step_s.append(clock() - t0)
                if rec is not None:
                    step_spans.append(rec)

        before = _counters(reg)
        stats = llm.adapt(feed())
        with tracer.span("voting.calibrate") if tracer else contextlib.nullcontext():
            t0 = clock()
            llm.calibrate_voting(*vote_calib)
            calibrate_s = clock() - t0
        scored = _score(llm.logits, held_out, clock)
        after = _counters(reg)
        workers = [envinfo.peak_rss_mb(p) for p in envinfo.child_pids()]
        driver_rss = envinfo.peak_rss_mb()
        dist_rows = reg.rows("dist/iter")
        fallbacks = reg.counter("dist/fallbacks").value
        transfer = reg.counter("dist/transfer_bytes").value
        llm.close()
        if tracer is not None:
            tracer.unwrap()

    losses = [s.loss for s in stats]
    failed = sum(not np.isfinite(x) for x in losses)
    checks["all_steps_ran"] = len(stats) == steps
    if pp:
        ref = EdgeLLM(reference, fixture.edge_config(micro_batches=2))
        ref_losses = [s.loss for s in ref.adapt(batches[:PP_CHECK_STEPS])]
        ref.close()
        mismatched = sum(a != b for a, b in zip(losses, ref_losses))
        failed += mismatched
        checks["pp2_losses_bitwise_equal_shards1"] = mismatched == 0
    adapted_ppl = _ppl(scored["nll"][:CHECK_BATCHES], scored["tokens"][:CHECK_BATCHES])
    unadapted_ppl = _ppl(unadapted["nll"], unadapted["tokens"])
    checks["adapted_ppl_below_unadapted"] = adapted_ppl < unadapted_ppl

    metrics = {
        "setup_s": float(np.median(setup_s)),
        "peak_rss_mb": max([driver_rss] + workers),
        "tokens_per_s": steps * fixture.BATCH * fixture.SEQ / sum(step_s),
        **_latency_metrics("step", step_s, checks),
        **_latency_metrics("latency", scored["times"], checks),
        "ppl": _ppl(scored["nll"], scored["tokens"]),
    }

    layers = _tensor_layers(before, after)
    layers.update({
        "luc.pairs_measured": luc_counts["luc/sensitivity/pairs_measured"] / ADAPT_SETUP_REPS,
        "luc.candidates_evaluated": (
            luc_counts["luc/search/candidates_evaluated"] / ADAPT_SETUP_REPS),
        "adaptive.peak_tape_mb": max(s.peak_tape_bytes for s in stats) / 1e6,
        "voting.calibrate_s": calibrate_s,
        "dist.transfer_mb_per_step": _share(transfer, len(dist_rows)) / 1e6,
        "dist.bubble_fraction": _share(sum(r["bubble_fraction"] for r in dist_rows),
                                       len(dist_rows)),
        "dist.overlap_fraction": _share(sum(r["overlap_fraction"] for r in dist_rows),
                                        len(dist_rows)),
        "dist.fallbacks": fallbacks,
        "dist.driver_peak_rss_mb": driver_rss if pp else 0.0,
        "dist.worker_peak_rss_mb": max(workers, default=0.0),
    })
    if tracer is not None:
        for name, key in (("measure_sensitivity", "sensitivity"),
                          ("search_policy", "search"), ("apply_luc", "apply")):
            layers[f"luc.{key}_s"] = _p50_ms(tracer.named(f"luc.{name}")) / 1e3
        for point in fixture.EXIT_POINTS:
            mine = [sp for sp, st in zip(step_spans, stats) if st.window.exit_point == point]
            layers[f"adaptive.step_ms.exit{point}"] = _p50_ms(mine)
        own = self_times(tracer.spans)
        layers["adaptive.optimizer_ms"] = _p50_ms(tracer.named("adaptive.optimizer"))
        layers["adaptive.fwd_bwd_ms"] = percentile(
            [own[sp["id"]] * 1e3 for sp in step_spans], 50.0)
        layers["voting.best_exit_ppl"] = _best_exit_ppl(llm, held_out)
    return Outcome(metrics, layers, attempted=steps, failed=int(failed), checks=checks,
                   notes={"steps": steps, "score_batches": SCORE_BATCHES,
                          "unadapted_ppl_check": unadapted_ppl,
                          "adapted_ppl_check": adapted_ppl})


def _best_exit_ppl(llm, held_out) -> float:
    """Perplexity of the best single exit (``ExitHeadSet.all_logits``)."""
    nll: Dict[int, float] = {}
    llm.model.eval()
    for ids, targets in held_out:
        with no_grad():
            per_exit = llm.trainer.exit_heads.all_logits(llm.model, ids)
        for point, logits in per_exit.items():
            nll[point] = nll.get(point, 0.0) + float(nll_from_logits(logits, targets).sum())
    return float(np.exp(min(nll.values()) / sum(t.size for _, t in held_out)))


# ----------------------------------------------------------------------
# serve-voted / serve-shared


def _build_serving(model, heads, voter, shared: bool) -> Scheduler:
    engine = (GenerationEngine(model, draft_heads=heads, draft_k=DRAFT_K) if shared
              else GenerationEngine(model, voting=voter))
    pool = CachePool(model.num_layers, POOL_TOKENS, share_prefixes=shared)
    return Scheduler(engine, pool, SchedulerConfig(max_batch_size=MAX_BATCH))


def _wrap_serving(tracer: Tracer, sched: Scheduler) -> None:
    leased = {"rid": None}  # prefill follows the lease of the request it serves

    def lease_tags(request_id, *args, **kwargs):
        leased["rid"] = request_id
        return {"rid": request_id}

    def rows(entries, *args, **kwargs):
        return {"rows": len(entries)}

    tracer.wrap(sched, "step", "sched.step")
    tracer.wrap(sched.engine, "prefill", "engine.prefill",
                lambda *a, **k: {"rid": leased["rid"]})
    tracer.wrap(sched.engine, "decode_step", "engine.decode", rows)
    tracer.wrap(sched.engine, "speculative_decode_step", "engine.decode", rows)
    for name in ("allocate", "allocate_shared", "commit_prefix", "release"):
        tracer.wrap(sched.pool, name, "pool.call", lease_tags)


def run_serve(cache_dir: str, seed: int, seconds: int, clock: CpuClock,
              tracer: Optional[Tracer], shared: bool) -> Outcome:
    sampler = inputs.target_sampler()
    if shared:
        phases = inputs.shared_requests(SHARED_BURSTS, SHARED_PER_SECOND * seconds,
                                        seed, sampler)
    else:
        phases = [inputs.voted_requests(VOTED_PER_SECOND * seconds, VOTED_RATE,
                                        seed, sampler)]
    requests = [q for phase in phases for q in phase.requests]
    held_out = sampler.lm_batches(SERVE_PPL_BATCHES, fixture.BATCH, fixture.SEQ,
                                  np.random.default_rng([seed, 9]))
    model, heads, voter = fixture.load_served(cache_dir)
    checks: Dict[str, bool] = {}

    with use_registry() as reg:
        envinfo.reset_peak()
        setup_s = []
        for _ in range(SERVE_SETUP_REPS):
            t0 = clock()
            sched = _build_serving(model, heads, voter, shared)
            setup_s.append(clock() - t0)
        if tracer is not None:
            _wrap_serving(tracer, sched)
        before = _counters(reg)
        # Open loop: a request is submitted at the first step boundary at
        # or after its due time; when nothing is queued or running the
        # clock skips ahead to the next due time instead of sleeping.  A
        # phase's due times count from the moment the previous phase drained.
        results, due_at, submit_at, step_start, step_end = [], {}, {}, {}, {}
        t0 = clock()
        for phase in phases:
            due = phase.due_s + (clock() - t0)
            n, i = len(phase.requests), 0
            while i < n or not sched.idle:
                if sched.idle:
                    clock.skip(due[i] - (clock() - t0))
                now = clock() - t0
                while i < n and due[i] <= now:
                    q = phase.requests[i]
                    rejected = sched.submit(q)
                    due_at[q.request_id], submit_at[q.request_id] = float(due[i]), now
                    if rejected is not None:
                        results.append(rejected)
                    i += 1
                if sched.idle:
                    continue
                step = sched.current_step + 1
                step_start[step] = clock() - t0
                results.extend(sched.step())
                step_end[step] = clock() - t0
        after = _counters(reg)
        rss = envinfo.peak_rss_mb()
        counts = {k: reg.counter(k).value for k in (
            "serve/preemptions", "serve/rejected", "serve/prefills", "serve/prefill_tokens",
            "serve/spec/accepted_tokens", "serve/spec/draft_tokens",
            "serve/spec/emitted_tokens", "serve/spec/rows",
            "serve/pool/prefix_tokens_reused", "serve/pool/evicted_tokens")}
        occupancy = [r["occupancy"] for r in reg.rows("serve/steps")]
        if tracer is not None:
            tracer.unwrap()

    by_id = {r.request_id: r for r in results}
    failed = sum(
        q.request_id not in by_id
        or by_id[q.request_id].finish_reason != "length"
        or len(by_id[q.request_id].tokens) != q.max_new_tokens
        for q in requests)
    checks["all_requests_completed"] = failed == 0

    # Reference: a fixed subset served again without batching (serve-voted)
    # or without prefix sharing and speculation (serve-shared).
    subset = requests[::CHECK_EVERY]
    if shared:
        reference = serve_batch(model, subset, max_batch_size=MAX_BATCH)
    else:
        reference = serve_batch(model, subset, voting=voter, max_batch_size=1)
    mismatched = sum(q.request_id not in by_id or by_id[q.request_id].tokens != ref.tokens
                     for q, ref in zip(subset, reference))
    failed += mismatched
    checks["outputs_match_reference"] = mismatched == 0

    ttft, tpot = request_latencies(results, step_end, due_at)
    scored = _score(model if shared else voter.combined_logits, held_out, clock)
    step_s = [step_end[s] - step_start[s] for s in step_end]
    metrics = {
        "setup_s": float(np.median(setup_s)),
        "peak_rss_mb": rss,
        "tokens_per_s": sum(len(r.tokens) for r in results) / sum(step_s),
        **_latency_metrics("step", step_s, checks),
        **_latency_metrics("latency", ttft, checks),
        "ppl": _ppl(scored["nll"], scored["tokens"]),
    }

    layers = _tensor_layers(before, after)
    wait = [step_start[r.admitted_step] - submit_at[r.request_id]
            for r in results if r.admitted_step > 0]
    lag = [submit_at[rid] - due_at[rid] for rid in due_at]
    layers.update({
        "sched.queue_wait_ms_p50": percentile(wait, 50.0) * 1e3,
        "sched.queue_wait_ms_p95": percentile(wait, 95.0) * 1e3,
        "sched.preemptions": counts["serve/preemptions"],
        "sched.rejected": counts["serve/rejected"],
        "engine.prefill_tokens_per_call": _share(counts["serve/prefill_tokens"],
                                                 counts["serve/prefills"]),
        "engine.spec_acceptance": _share(counts["serve/spec/accepted_tokens"],
                                         counts["serve/spec/draft_tokens"]),
        "engine.tokens_per_spec_row": _share(counts["serve/spec/emitted_tokens"],
                                             counts["serve/spec/rows"]),
        "pool.prefix_reuse_share": _share(counts["serve/pool/prefix_tokens_reused"],
                                          sum(len(q.prompt) for q in requests)),
        "pool.evicted_tokens": counts["serve/pool/evicted_tokens"],
        "pool.occupancy_p50": percentile(occupancy, 50.0),
        "gen.lag_ms_p95": percentile(lag, 95.0) * 1e3,
    })
    if tracer is not None:
        step_ms = _ms(tracer.named("sched.step"))
        # A speculative step that degenerates to plain decode nests one
        # engine.decode span in another; count the outer call only.
        decode = [s for s in tracer.named("engine.decode")
                  if s["parent"] is None or tracer.spans[s["parent"]]["name"] != "engine.decode"]
        layers.update({
            "sched.step_ms_p50": percentile(step_ms, 50.0),
            "sched.step_ms_p95": percentile(step_ms, 95.0),
            "sched.batch_size_mean": float(np.mean([s["rows"] for s in decode])),
            "engine.prefill_ms_p50": _p50_ms(tracer.named("engine.prefill")),
            "engine.decode_ms_p50": _p50_ms(decode),
            "engine.decode_ms_per_row_p50": percentile(
                [ms / s["rows"] for ms, s in zip(_ms(decode), decode)], 50.0),
            "pool.call_ms_total": sum(_ms(tracer.named("pool.call"))),
        })
        for q in requests:
            r = by_id.get(q.request_id)
            if r is not None and r.finished_step > 0:
                tracer.record("request", t0 + due_at[q.request_id],
                              t0 + step_end[r.finished_step], rid=q.request_id)
    return Outcome(metrics, layers, attempted=len(requests), failed=int(failed),
                   checks=checks,
                   notes={"requests": len(requests), "steps": len(step_end),
                          "tpot_p50_ms": percentile(tpot, 50.0) * 1e3,
                          "tpot_p95_ms": percentile(tpot, 95.0) * 1e3,
                          "checked_requests": len(subset)})
