"""Pure helpers that turn raw timings into reported numbers.

* The percentile rule: a tail percentile is reported only when at least
  ten samples lie beyond it, and always with its sample count.
* Span self time: a span's duration minus the part of it that its child
  spans cover.
* TTFT/TPOT from a scheduler run: per-request step indices (``Result``)
  joined with a wall-clock map of when each scheduler step ended.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def beyond(n: int, p: float) -> float:
    """How many of ``n`` samples lie above the ``p``-th percentile."""
    return n * (100.0 - p) / 100.0


def supported_percentile(n: int, candidates: Sequence[float] = PERCENTILES
                         ) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond
    it, or None when even the lowest has fewer."""
    ok = [p for p in candidates if beyond(n, p) >= MIN_BEYOND - 1e-9]
    return max(ok) if ok else None


def percentile(values: Sequence[float], p: float) -> float:
    """``p``-th percentile (linear interpolation); raises if ``p`` is a
    tail percentile the sample cannot support."""
    n = len(values)
    if p > 50.0 and beyond(n, p) < MIN_BEYOND - 1e-9:
        raise ValueError(f"p{p:g} needs >= {MIN_BEYOND} samples beyond it; "
                         f"have {n} samples")
    if n == 0:
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(values, dtype=float), p))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, the highest supported tail percentile and the count."""
    n = len(values)
    tail = supported_percentile(n)
    out = {"n": n, "p50": percentile(values, 50.0) if n else float("nan")}
    if tail is not None and tail > 50.0:
        out["tail_p"] = tail
        out["tail"] = percentile(values, tail)
    return out


# ----------------------------------------------------------------------
# spans


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Self time (seconds) of every span, keyed by span id.  A span is a
    dict with ``id``, ``parent`` (id or None), ``start`` and ``end``."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def self_time_table(spans: Sequence[dict]) -> List[dict]:
    """Per span name: calls, total and self milliseconds, share of the
    summed self time; sorted by self time, largest first."""
    own = self_times(spans)
    rows: Dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(s["name"], {"name": s["name"], "calls": 0,
                                          "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (s["end"] - s["start"]) * 1e3
        row["self_ms"] += own[s["id"]] * 1e3
    grand = sum(r["self_ms"] for r in rows.values()) or 1.0
    for r in rows.values():
        r["self_share"] = r["self_ms"] / grand
    return sorted(rows.values(), key=lambda r: -r["self_ms"])


# ----------------------------------------------------------------------
# serving latencies


def request_latencies(results, step_end: Dict[int, float],
                      due: Dict[str, float]) -> Tuple[List[float], List[float]]:
    """(TTFT seconds, TPOT seconds) per request.

    TTFT runs from the request's due time to the end of the scheduler step
    that emitted its first token; TPOT is (end of the last token's step -
    end of the first token's step) / (tokens - 1).  Requests that never
    produced a token contribute to neither; single-token requests have no
    TPOT.  A request's last token is emitted in its ``finished_step``.
    """
    ttft, tpot = [], []
    for r in results:
        if r.first_token_step < 0:
            continue
        first = step_end[r.first_token_step]
        ttft.append(first - due[r.request_id])
        if len(r.tokens) > 1:
            tpot.append((step_end[r.finished_step] - first) / (len(r.tokens) - 1))
    return ttft, tpot
