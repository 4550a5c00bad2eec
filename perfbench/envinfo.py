"""Machine fingerprint, the benchmark clock, memory high-water marks and
the run ledger."""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import platform
import time
from typing import Dict, Iterable, Optional

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """One BLAS thread per process, as CI runs; call before numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def git_sha(root: str) -> Optional[str]:
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def fingerprint(root: str) -> Dict:
    import numpy as np

    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }


def _status_kb(pid, key: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def reset_peak() -> bool:
    """Reset this process's VmHWM to its current RSS (Linux clear_refs)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb(pid="self") -> float:
    """VmHWM of ``pid`` in MB, falling back to ru_maxrss for ourselves."""
    kb = _status_kb(pid, "VmHWM")
    if kb is None and pid == "self":
        import resource

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (kb or 0) / 1024.0


def child_pids():
    """Live worker processes this process started via multiprocessing."""
    return [p.pid for p in multiprocessing.active_children()]


def append_ledger(path: str, row: Dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def last_ledger_row(path: str, **match) -> Optional[Dict]:
    """Most recent ledger row whose fields equal ``match``."""
    if not os.path.exists(path):
        return None
    found = None
    with open(path) as fh:
        for line in fh:
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if all(row.get(k) == v for k, v in match.items()):
                found = row
    return found


def task_cpu_s(pid) -> Optional[float]:
    """CPU seconds of every thread of ``pid`` (None once it has exited)."""
    total, found = 0, False
    for path in glob.glob(f"/proc/{pid}/task/*/schedstat"):
        try:
            with open(path) as fh:
                total += int(fh.read().split()[0])
            found = True
        except (OSError, ValueError, IndexError):
            continue
    return total / 1e9 if found else None


def _reference_work(a, b, x, w, bias) -> None:
    """A fixed mix of the instructions the program under test spends its
    time on: a quarter BLAS matmuls, the rest small-array numpy calls and
    plain interpreter work.  The host's speed states slow interpreter-bound
    work more than BLAS work; against a fixed forward pass and a
    decode-sized one, this mix left 3% and 5% of their speed swings
    uncorrected where matmuls alone left 6% and 11%."""
    import numpy as np  # imported late: BLAS reads its thread count on import

    for _ in range(10):
        (a @ b).sum()
    for _ in range(60):
        np.maximum(x @ w + bias, 0.0).sum()
    counts: Dict[int, int] = {}
    for j in range(4000):
        counts[j & 63] = counts.get(j & 63, 0) + j


class CpuClock:
    """Reference-speed CPU seconds of this process plus the workers it watches.

    On a shared virtual machine wall time also counts the periods when the
    hypervisor runs someone else (steal time), and even CPU time stretches
    while a co-tenant loads the same physical core.  On the 2-vCPU
    reference machine a fixed single-threaded loop saw its wall time vary
    up to 2.7x between 150 ms windows and its CPU time drift by +-15%
    between 10 s blocks.  The clock therefore counts CPU time (steal-free)
    and scales it by how fast a fixed reference loop runs right now:
    every ``PROBE_EVERY`` CPU seconds it times the loop, whose own cost is
    left off the clock, and divides elapsed CPU time by the median of the
    last few probes over ``REFERENCE_S``.  The reported seconds are then
    those of the reference machine in a quiet period.  With stage workers
    the clock counts the CPU spent by all of them, a cost rather than an
    elapsed time.  ``skip`` advances it over idle time that an open-loop
    generator would otherwise sleep through.
    """

    REFERENCE_S = 0.00165  # the reference loop, quiet 2-vCPU reference machine
    # The machine's speed switches level every few seconds; a short window
    # probed often follows the switches closely enough that the lag does
    # not show up as tail latency.
    WINDOW = 5
    PROBE_EVERY = 0.03

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._work = (rng.random((64, 256)).astype(np.float32),
                      rng.random((256, 64)).astype(np.float32),
                      rng.random((8, 64)).astype(np.float32),
                      rng.random((64, 64)).astype(np.float32),
                      rng.random(64).astype(np.float32))
        self._pids: Dict[int, float] = {}
        self._probes: list = []
        self._raw = self._read()
        self._since_probe = 0.0
        self._value = 0.0
        for _ in range(self.WINDOW):
            self._probe()

    def watch(self, pids: Iterable[int]) -> None:
        for pid in pids:
            self._pids.setdefault(pid, 0.0)

    def skip(self, seconds: float) -> None:
        self._value += max(seconds, 0.0)

    @property
    def slowdown(self) -> float:
        """Current machine slowness relative to the reference machine."""
        return sorted(self._probes)[len(self._probes) // 2] / self.REFERENCE_S

    def _read(self) -> float:
        for pid in self._pids:
            now = task_cpu_s(pid)
            if now is not None:  # an exited worker keeps its last reading
                self._pids[pid] = now
        return time.process_time() + sum(self._pids.values())

    def _probe(self) -> None:
        t0 = time.process_time()
        _reference_work(*self._work)
        self._probes = (self._probes + [time.process_time() - t0])[-self.WINDOW:]
        self._raw = self._read()  # the probe's own CPU stays off the clock
        self._since_probe = 0.0

    def __call__(self) -> float:
        raw = self._read()
        self._value += (raw - self._raw) / self.slowdown
        self._since_probe += raw - self._raw
        self._raw = raw
        if self._since_probe >= self.PROBE_EVERY:
            self._probe()
        return self._value
