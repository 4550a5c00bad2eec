#!/usr/bin/env python3
"""Run one benchmark workload; the last stdout line is its JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload adapt --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps each layer's public calls in spans and reports the
per-layer metrics instead, with a self-time table and the tracing
overhead against the last untraced run of the same workload and seed.
Every run appends one headline row with a machine fingerprint to
``perfbench/results/ledger.jsonl``.  The run exits 1 when a correctness
check fails and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("adapt", "adapt-pp2", "serve-voted", "serve-shared")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_workload(name: str, cache_dir: str, seed: int, seconds: int, clock, tracer):
    from perfbench import workloads

    if name in ("adapt", "adapt-pp2"):
        return workloads.run_adapt(cache_dir, seed, seconds, clock, tracer,
                                   shards=2 if name == "adapt-pp2" else 1)
    return workloads.run_serve(cache_dir, seed, seconds, clock, tracer,
                               shared=name == "serve-shared")


def _table(rows, spec) -> str:
    width = max(len(m["name"]) for m in spec)
    return "\n".join(f"  {m['name']:<{width}}  {rows[m['name']]:>14.6g} {m['unit']}"
                     for m in spec)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    # Import order matters: BLAS reads its thread count when numpy loads.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import envinfo

    envinfo.pin_blas()
    from perfbench import fixture
    from perfbench.measure import self_time_table
    from perfbench.tracing import Tracer

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    cache_dir = fixture.ensure()
    clock = envinfo.CpuClock()
    tracer = Tracer(clock) if args.trace else None
    start = time.time()
    outcome = run_workload(args.workload, cache_dir, args.seed, args.seconds, clock, tracer)

    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    known = {m["name"] for m in spec["per_layer"]}
    unknown = sorted(set(outcome.layers) - known)
    if unknown:
        raise RuntimeError(f"workload produced undeclared layer metrics {unknown}")
    # A layer the workload never calls reports 0.
    values = ({m["name"]: 0.0 for m in spec["per_layer"]} | outcome.layers
              if args.trace else outcome.metrics)
    correct = outcome.failed == 0 and all(outcome.checks.values())
    env = envinfo.fingerprint(ROOT)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  wall {time.time() - start:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"operations: attempted {outcome.attempted}  "
          f"succeeded {outcome.attempted - outcome.failed}  failed {outcome.failed}")
    for name, ok in sorted(outcome.checks.items()):
        print(f"  check {name}: {'pass' if ok else 'FAIL'}")
    print("notes " + json.dumps(outcome.notes, sort_keys=True, default=float))
    print("end-to-end" + (" (traced run)" if args.trace else "") + ":")
    print(_table(outcome.metrics, spec["end_to_end"]))
    ledger = os.path.join(RESULTS, "ledger.jsonl")
    if args.trace:
        print("per-layer:")
        print(_table(values, spec["per_layer"]))
        print("self time by span (ms; request-lifetime spans left out):")
        layer_spans = [s for s in tracer.spans if s["name"] != "request"]
        for row in self_time_table(layer_spans)[:20]:
            print(f"  {row['name']:<28} calls {row['calls']:>6}  "
                  f"self {row['self_ms']:>10.1f}  total {row['total_ms']:>10.1f}  "
                  f"share {row['self_share']:6.1%}")
        base = envinfo.last_ledger_row(ledger, workload=args.workload, seed=args.seed,
                                       seconds=args.seconds, trace=0)
        if base is None:
            print("tracing overhead: no untraced run of this workload and seed yet")
        else:
            print("tracing overhead (traced vs last untraced run, same seed):")
            for m in spec["end_to_end"]:
                old, new = base["metrics"][m["name"]], outcome.metrics[m["name"]]
                print(f"  {m['name']:<16} {old:>12.6g} -> {new:>12.6g} "
                      f"({(new - old) / old:+.1%})")
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, f"trace-{args.workload}-{args.seed}.jsonl"))

    envinfo.append_ledger(ledger, {
        "time": start, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": outcome.metrics, "env": env,
    })
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in metric_spec},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
