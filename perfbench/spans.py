"""A small in-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls into each layer of ``repro`` by
wrappers the benchmark installs with ``setattr`` (see ``layers.py``);
nothing under ``src/`` knows about them.  Each span records its name,
start, end, parent span, op id, thread and process.  Spans stay in
memory and are written out once, at the end of a run.

Two processes besides the benchmark's own can produce spans:

* fork-pool workers of the Monte Carlo engine inherit the installed
  wrappers through ``fork``.  The tracer notes the innermost open span
  of the forking thread (it becomes the parent of every root span in
  the child) and each worker appends its spans to ``spill_dir`` when a
  root span closes, because pool workers are terminated, not exited;
* a traced ``serve`` subprocess runs the same wrappers and dumps its
  spans when it shuts down.

Every process reads ``time.perf_counter`` (CLOCK_MONOTONIC on Linux),
so spans from different processes share one time axis.

A span's *self time* is its duration minus the part of its interval
covered by its children.  Covered time is the union of the children's
intervals, so concurrent children (threads, pool workers) are not
subtracted twice.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    """One timed call into a layer."""

    __slots__ = (
        "id", "name", "start", "end", "parent", "op", "thread", "pid",
    )

    def __init__(self, id, name, start, parent, op, thread, pid):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.pid = pid

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

    @classmethod
    def from_json(cls, data: dict) -> "Span":
        span = cls(
            data["id"], data["name"], data["start"], data["parent"],
            data["op"], data["thread"], data["pid"],
        )
        span.end = data["end"]
        return span


class Tracer:
    """Records spans and counts, per op, across threads and forks.

    Parameters
    ----------
    spill_dir : str or Path, optional
        Directory forked children write their spans into.  When given,
        the tracer registers fork hooks so pool workers spill their
        spans there; without it, children simply record nothing.
    """

    def __init__(self, spill_dir=None):
        self.pid = os.getpid()
        self.spans: list = []
        self.counts: list = []
        self.spill_dir = None if spill_dir is None else Path(spill_dir)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fork_parent = None
        self._fork_op = None
        self._in_child = False
        if self.spill_dir is not None:
            os.register_at_fork(
                before=self._before_fork,
                after_in_child=self._after_fork_in_child,
            )

    # -- per-thread state ----------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self):
        """The op id spans opened on this thread are charged to."""
        op = getattr(self._local, "op", None)
        if op is not None:
            return op
        return self._fork_op if self._in_child else None

    @contextmanager
    def op(self, op_id):
        """Charge every span and count on this thread to ``op_id``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    def open_names(self) -> list:
        """Names of the spans open on this thread, outermost first."""
        return [span.name for span in self._stack()]

    # -- spans and counts ----------------------------------------------

    def start(self, name: str) -> Span:
        """Open a span on this thread."""
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self._fork_parent if self._in_child else None
        span = Span(
            f"{self.pid}:{next(self._ids)}",
            name,
            time.perf_counter(),
            parent,
            self.current_op(),
            threading.get_ident(),
            self.pid,
        )
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close the innermost open span of this thread."""
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        self.spans.append(span)
        if self._in_child and not stack:
            self.spill()

    @contextmanager
    def span(self, name: str):
        """Context-manager form of :meth:`start` / :meth:`finish`."""
        span = self.start(name)
        try:
            yield span
        finally:
            self.finish(span)

    def add(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` of the current op."""
        self.counts.append((self.current_op(), name, float(value)))

    # -- fork handling -------------------------------------------------

    def _before_fork(self) -> None:
        stack = self._stack()
        self._fork_parent = stack[-1].id if stack else None
        self._fork_op = self.current_op()

    def _after_fork_in_child(self) -> None:
        self._in_child = True
        self.pid = os.getpid()
        self.spans = []
        self.counts = []
        self._local = threading.local()

    def spill(self) -> None:
        """Append this process's recorded spans and counts to its file
        in ``spill_dir`` and forget them."""
        if self.spill_dir is None:
            return
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps({"span": span.to_json()}) + "\n")
            for op, name, value in self.counts:
                fh.write(json.dumps({"count": [op, name, value]}) + "\n")
        self.spans = []
        self.counts = []

    def dump(self, path) -> None:
        """Write every recorded span and count to ``path`` (JSON lines)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"span": span.to_json()}) + "\n")
            for op, name, value in self.counts:
                fh.write(json.dumps({"count": [op, name, value]}) + "\n")


def load(paths) -> tuple:
    """Read spans and counts written by :meth:`Tracer.spill` or
    :meth:`Tracer.dump`; returns ``(spans, counts)``."""
    spans, counts = [], []
    for path in paths:
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                if "span" in record:
                    spans.append(Span.from_json(record["span"]))
                else:
                    counts.append(tuple(record["count"]))
    return spans, counts


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the span.  Keyed by span id."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
        )
        out[span.id] = span.duration - covered
    return out
