"""In-memory spans and the arithmetic over them.

A span is one timed call across a layer boundary: ``name``, ``start``,
``end`` (``time.perf_counter`` seconds, which is ``CLOCK_MONOTONIC`` on
Linux and therefore comparable across the processes of one run), the id
of the span that caused it, and a ``tag`` naming the grid cell or
request it served.  Spans stay in memory and are written out once, when
the traced process ends.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
from contextlib import contextmanager


class Recorder:
    """Collects the spans of one process (and the spans its workers ship)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, name: str, tag=None, *, parent: str | None = None,
             root: bool = False):
        """Time the enclosed block as one span.

        The parent is the innermost open span of this thread or task
        unless ``parent`` is given or ``root`` is set; the tag is
        inherited from it unless ``tag`` is given.
        """
        outer = self._current.get()
        if parent is None and not root and outer is not None:
            parent = outer[0]
        if tag is None and outer is not None and not root:
            tag = outer[1]
        record = {
            "id": f"{os.getpid()}:{next(self._ids)}",
            "parent": parent,
            "name": name,
            "tag": tag,
            "pid": os.getpid(),
            "start": time.perf_counter(),
            "end": None,
        }
        token = self._current.set((record["id"], tag))
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._current.reset(token)
            self.spans.append(record)


def merged_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"]) - merged_length(
            children.get(span["id"], ()), span["start"], span["end"]
        )
        for span in spans
    }
