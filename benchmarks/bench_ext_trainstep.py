"""R-EXT — train-step fast path: grad-free frozen blocks, eager tape
reclamation, fused kernels, and the flat-buffer optimizer step.

The adaptive trainer's speedup claim rests on the window-sized backward
pass.  This bench measures the *implementation* half of that story: the
fast path (no_grad prefix + ``backward(reclaim=True)`` + vectorized
optimizer) against the seed-era full-tape step on the same 8-block model
with a 2-block window, driven by an identical batch stream.

Three guarantees are asserted, not just reported:

* the fast path is >= 1.8x faster per iteration (median wall time),
* the loss trajectory is *bit-identical* to the full-tape baseline
  (the fast path is an optimization, not an approximation),
* eager reclamation lowers the peak of live tape + gradient bytes.

Micro rows compare the fused RMSNorm and RoPE kernels against their
composed op chains and the flat Adam step against the per-parameter loop.
"""

import time

import numpy as np

from repro.adaptive import AdaptiveLayerTrainer, AdaptiveTuningConfig
from repro.nn import Adam, TransformerLM
from repro.nn.attention import rope_tables
from repro.nn.layers import RMSNorm
from repro.tensor import Tensor, concat, fused_kernels, rope

from .common import (
    ADAPT_STEPS,
    BATCH,
    DIM,
    HEADS,
    SEQ,
    WINDOW,
    adapt_batches,
    bench_config,
    emit,
)

# Untied embeddings so the optimizer's window scope (blocks a window can
# train + final norm + unembedding) excludes the input embedding — the
# regime where full-tape and fast-path updates are provably identical.
CFG = bench_config(tie_embeddings=False)


def _make_model(state) -> TransformerLM:
    model = TransformerLM(CFG)
    model.load_state_dict(state)
    return model


def _make_trainer(model: TransformerLM, **overrides) -> AdaptiveLayerTrainer:
    config = AdaptiveTuningConfig(
        window=WINDOW,
        exit_points=[model.num_layers],
        schedule="round_robin",
        lr=1e-3,
        optimizer_scope="window",
        **overrides,
    )
    return AdaptiveLayerTrainer(model, config)


def _run(trainer: AdaptiveLayerTrainer, batches):
    losses, times, peaks, reclaimed = [], [], [], []
    for inputs, targets in batches:
        stats = trainer.train_step(inputs, targets)
        losses.append(stats.loss)
        times.append(stats.wall_time_s)
        peaks.append(stats.peak_tape_bytes)
        reclaimed.append(stats.reclaimed_bytes)
    return losses, times, peaks, reclaimed


def _median_after_warmup(times):
    return float(np.median(times[1:] if len(times) > 1 else times))


def _time_loop(fn, iters: int = 30) -> float:
    fn()  # warm-up
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - start) / iters


def _rmsnorm_step_time(enabled: bool) -> float:
    rng = np.random.default_rng(0)
    norm = RMSNorm(DIM)
    x_data = rng.standard_normal((BATCH, SEQ, DIM)).astype(np.float32)

    def step():
        with fused_kernels(enabled):
            x = Tensor(x_data, requires_grad=True)
            norm(x).sum().backward()
        norm.weight.grad = None

    return _time_loop(step)


def _composed_rope(x, cos_t, sin_t):
    """The 12-op rotation chain the fused ``rope`` op replaced."""
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    rot1 = x1 * cos_t - x2 * sin_t
    rot2 = x1 * sin_t + x2 * cos_t
    stacked = concat(
        [rot1.reshape(*rot1.shape, 1), rot2.reshape(*rot2.shape, 1)], axis=-1
    )
    return stacked.reshape(*x.shape)


def _rope_step_time(fused: bool) -> float:
    head_dim = DIM // HEADS
    cos, sin = rope_tables(head_dim, SEQ)
    x_data = np.random.default_rng(0).standard_normal(
        (BATCH, HEADS, SEQ, head_dim)
    ).astype(np.float32)
    apply = rope if fused else _composed_rope

    def step():
        x = Tensor(x_data, requires_grad=True)
        apply(x, cos, sin).sum().backward()

    return _time_loop(step)


def _adam_step_time(flat: bool) -> float:
    # Many small parameters (bias/norm-like): the regime where the
    # per-parameter python loop pays ~10 numpy dispatches per parameter
    # and the flat slab pays them once per step.
    rng = np.random.default_rng(0)
    params = [
        Tensor(rng.standard_normal(DIM).astype(np.float32),
               requires_grad=True)
        for _ in range(200)
    ]
    grads = [rng.standard_normal(DIM).astype(np.float32) for _ in range(200)]
    opt = Adam(params, lr=1e-3)
    opt.flat = flat

    def step():
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()

    return _time_loop(step)


def test_ext_trainstep_fast_path(benchmark):
    state = TransformerLM(CFG).state_dict()
    batches = list(adapt_batches(ADAPT_STEPS))

    fast = _make_trainer(_make_model(state))
    full = _make_trainer(
        _make_model(state),
        fast_path=False, eager_reclaim=False, flat_optimizer=False,
    )
    no_reclaim = _make_trainer(_make_model(state), eager_reclaim=False)

    losses_full, times_full, peaks_full, _ = _run(full, batches)
    losses_fast, times_fast, peaks_fast, reclaimed = _run(fast, batches)
    _, _, peaks_noreclaim, _ = _run(no_reclaim, batches[:4])

    t_full = _median_after_warmup(times_full)
    t_fast = _median_after_warmup(times_fast)
    speedup = t_full / t_fast
    trajectory_identical = losses_fast == losses_full

    peak_full = float(np.median(peaks_full))
    peak_fast = float(np.median(peaks_fast))
    peak_noreclaim = float(np.median(peaks_noreclaim))

    rmsnorm_composed = _rmsnorm_step_time(enabled=False)
    rmsnorm_fused = _rmsnorm_step_time(enabled=True)
    rope_composed = _rope_step_time(fused=False)
    rope_fused = _rope_step_time(fused=True)
    adam_loop = _adam_step_time(flat=False)
    adam_flat = _adam_step_time(flat=True)

    mb = 1.0 / (1024 * 1024)
    rows = [
        ["full-tape step (baseline)", t_full * 1e3, 1.0],
        ["fast-path step (no_grad prefix + reclaim + flat)",
         t_fast * 1e3, speedup],
        ["peak tape+grad MiB, full tape", peak_full * mb, 1.0],
        ["peak tape+grad MiB, fast path no reclaim", peak_noreclaim * mb,
         peak_full / peak_noreclaim],
        ["peak tape+grad MiB, fast path + reclaim", peak_fast * mb,
         peak_full / peak_fast],
        ["rms_norm fwd+bwd ms, composed ops", rmsnorm_composed * 1e3, 1.0],
        ["rms_norm fwd+bwd ms, fused kernel", rmsnorm_fused * 1e3,
         rmsnorm_composed / rmsnorm_fused],
        ["rope fwd+bwd ms, composed ops", rope_composed * 1e3, 1.0],
        ["rope fwd+bwd ms, fused kernel", rope_fused * 1e3,
         rope_composed / rope_fused],
        ["adam step ms (200 params), per-param loop", adam_loop * 1e3, 1.0],
        ["adam step ms (200 params), flat slab", adam_flat * 1e3,
         adam_loop / adam_flat],
    ]

    emit(
        "ext_trainstep",
        "R-EXT: train-step fast path vs full-tape baseline\n"
        "(8-block model, 2-block window; loss trajectories bit-identical)",
        ["configuration", "value", "ratio vs baseline"],
        rows,
        metrics={
            "speedup_vs_full_tape": speedup,
            "trajectory_identical": int(trajectory_identical),
            "peak_tape_bytes_full": peak_full,
            "peak_tape_bytes_no_reclaim": peak_noreclaim,
            "peak_tape_bytes_fast": peak_fast,
            "peak_reduction_vs_full": peak_full / peak_fast,
            "reclaim_reduction": peak_noreclaim / peak_fast,
            "reclaimed_bytes_per_step": float(np.median(reclaimed)),
            "fused_rmsnorm_speedup": rmsnorm_composed / rmsnorm_fused,
            "fused_rope_speedup": rope_composed / rope_fused,
            "flat_adam_speedup": adam_loop / adam_flat,
            "final_loss": losses_fast[-1],
        },
        config={"tie_embeddings": False, "optimizer_scope": "window"},
    )

    assert trajectory_identical, (
        "fast-path losses diverged from the full-tape baseline"
    )
    assert speedup >= 1.8, f"fast-path speedup {speedup:.2f}x < 1.8x"
    assert peak_fast < peak_noreclaim, (
        "eager reclamation did not lower the live-bytes peak"
    )
    assert float(np.median(reclaimed)) > 0

    def one_step():
        inputs, targets = batches[fast.iteration % len(batches)]
        fast.train_step(inputs, targets)

    benchmark(one_step)
