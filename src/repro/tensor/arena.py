"""Step-scoped arena allocator for replayed tape buffers.

Every replayed train/decode step allocates the same set of intermediate
arrays in the same order; going to the OS allocator for each one is pure
overhead.  The arena keeps freed buffers in per-(shape, dtype) free lists.
A graph replay *borrows* an output buffer for every op that supports
``out=`` writes when it starts and *gives* the whole set back in its
``finally``, so a buffer is owned by one replay at a time and never by a
graph.  Every cached graph therefore draws on one shared working set:
steady-state replays are served from the free lists with zero fresh
reservations, and the pool holds, per (shape, dtype), only as many slabs
as a single replay needs at once.  Replay outputs that live in borrowed
buffers are copied out before the buffers go back.

Counters: ``tensor/arena/bytes_reserved`` (fresh slab allocations) and
``tensor/arena/reuse_hits`` (allocations served from a free list).  The
toggle is a contextvar, mirroring grad mode and fused kernels.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..obs import get_registry

_ARENA_ENABLED: contextvars.ContextVar = contextvars.ContextVar(
    "repro_arena_enabled", default=True
)


def arena_enabled() -> bool:
    """Whether graph replays should serve buffers from the arena."""
    return _ARENA_ENABLED.get()


def set_arena_enabled(enabled: bool) -> bool:
    """Enable/disable the arena for this context; returns the previous value."""
    previous = _ARENA_ENABLED.get()
    _ARENA_ENABLED.set(bool(enabled))
    return previous


@contextlib.contextmanager
def arena_scope(enabled: bool = True):
    """Context manager scoping the arena toggle."""
    token = _ARENA_ENABLED.set(bool(enabled))
    try:
        yield
    finally:
        _ARENA_ENABLED.reset(token)


_Key = Tuple[Tuple[int, ...], np.dtype]


class Arena:
    """Free-list allocator of numpy buffers keyed by (shape, dtype)."""

    def __init__(self):
        self._free: Dict[_Key, List[np.ndarray]] = {}
        # The arena is process-wide and replays in different threads
        # borrow from the same free lists (check-then-pop is not atomic).
        self._lock = threading.Lock()
        self.bytes_reserved = 0
        self.reuse_hits = 0

    def take_many(self, groups: Sequence[Tuple[_Key, int]]) -> List[np.ndarray]:
        """``count`` buffers per ``((shape, dtype), count)`` group, in group
        order, recycled where possible.

        Work and counter updates are per group, not per buffer, so a
        replay borrowing hundreds of buffers of a few shapes stays cheap.
        """
        free = self._free
        bufs: List[np.ndarray] = []
        hits = fresh = 0
        with self._lock:
            for key, count in groups:
                pooled = free.get(key)
                reused = min(count, len(pooled)) if pooled else 0
                if reused:
                    bufs += pooled[-reused:]
                    del pooled[-reused:]
                for _ in range(count - reused):
                    buf = np.empty(key[0], dtype=key[1])
                    fresh += buf.nbytes
                    bufs.append(buf)
                hits += reused
            self.reuse_hits += hits
            self.bytes_reserved += fresh
        if hits:
            get_registry().counter("tensor/arena/reuse_hits").inc(hits)
        if fresh:
            get_registry().counter("tensor/arena/bytes_reserved").inc(fresh)
        return bufs

    def give(self, buf: np.ndarray) -> None:
        """Return ``buf`` to its free list for reuse.

        The caller must no longer hold live views of ``buf`` — graph
        replay guarantees this by copying outputs before giving back.
        """
        if buf.base is not None:
            return  # never pool views; their memory belongs to another array
        self.give_many([((buf.shape, buf.dtype), 1)], [buf])

    def give_many(
        self, groups: Sequence[Tuple[_Key, int]], bufs: Sequence[np.ndarray]
    ) -> None:
        """Return buffers taken with :meth:`take_many` for the same groups."""
        free = self._free
        start = 0
        with self._lock:
            for key, count in groups:
                pooled = free.get(key)
                if pooled is None:
                    free[key] = list(bufs[start:start + count])
                else:
                    pooled += bufs[start:start + count]
                start += count

    def drain(self) -> int:
        """Drop all pooled buffers; returns how many were held."""
        with self._lock:
            count = sum(len(v) for v in self._free.values())
            self._free.clear()
        return count


_GLOBAL_ARENA = Arena()


def get_arena() -> Arena:
    """The process-wide arena used by graph replay."""
    return _GLOBAL_ARENA
