"""In-memory spans recorded from the benchmark's side of each layer call.

Only the traced run (``--trace 1``) installs wrappers; the timed run installs
none, so its numbers carry no tracing cost.  A span records
name, start, end and the span that was open when it began; spans of one
request carry that request's id.  Spans stay in memory until
:meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, List, Optional


class Tracer:
    """Collects spans timed on ``clock`` (seconds, monotonic)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def _open(self, name: str, rid: Optional[str] = None, **tags) -> dict:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "rid": rid, "start": self.clock(), "end": None, **tags}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[str] = None, **tags):
        rec = self._open(name, rid, **tags)
        try:
            yield rec
        finally:
            self._close(rec)

    def record(self, name: str, start: float, end: float,
               rid: Optional[str] = None, parent: Optional[int] = None) -> dict:
        """Add a span measured elsewhere (e.g. a whole request's life)."""
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "rid": rid, "start": start, "end": end}
        self.spans.append(rec)
        return rec

    def wrap(self, owner, attr: str, name: str,
             tags: Optional[Callable[..., dict]] = None) -> None:
        """Replace ``owner.attr`` by a spanned call-through; ``tags`` maps
        the call's arguments to extra span fields (``rid``, row counts).
        Undone by :meth:`unwrap`."""
        inner = getattr(owner, attr)
        had_own = attr in vars(owner)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            with self.span(name, **(tags(*args, **kwargs) if tags else {})):
                return inner(*args, **kwargs)

        setattr(owner, attr, spanned)

        def undo():
            if had_own:
                setattr(owner, attr, inner)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def unwrap(self) -> None:
        while self._undo:
            self._undo.pop()()

    def named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
