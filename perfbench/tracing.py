"""In-memory span tracer for the traced benchmark run.

The tracer wraps the layers' public functions from outside, at the
names their callers look them up by (``repro.core.pipeline.
determine_dependencies``, ``ArtifactStore.get``, ``repro.service.
client.encode_job`` ...).  Each call records a span: name, start, end,
parent span and the operation (job/request) it belongs to.  Work that
runs where nothing can be wrapped -- process-pool workers and the
server child -- is added as *remote* spans built from what the result
envelopes and job statuses carry.

At the end the spans are written as Chrome trace-event JSON (load it
in ``chrome://tracing`` or Perfetto) and summarised as self time per
layer: a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[str] = None
    tid: int = 0
    #: Remote spans (worker/server time) are attributed, not nested.
    remote: bool = False
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    """Layer of a span name: everything before its last dot."""
    return name.rsplit(".", 1)[0] if "." in name else name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: perf_counter - time.time offset, for server wall-clock stamps.
        self.clock_offset = time.perf_counter() - time.time()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        span = Span(name, time.perf_counter(), parent=parent, op=op,
                    tid=threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int, **args: Any) -> None:
        self.spans[index].end = time.perf_counter()
        self.spans[index].args.update(args)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def add_remote(self, name: str, start: float, end: float, op: Optional[str],
                   **args: Any) -> None:
        """Record time spent in a process the tracer cannot wrap."""
        span = Span(name, start, end, op=op, remote=True, args=dict(args))
        with self._lock:
            self.spans.append(span)

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             note: Optional[Callable[[tuple, Any], dict]] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self.end(index, **(note(args, result) if note is not None else {}))

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Install ``value`` at ``owner.attr`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time_per_span(self) -> list[float]:
        """Each span's duration minus its local child spans' (0 if remote)."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None and not span.remote:
                child_time[span.parent] += span.duration
        return [0.0 if span.remote else max(0.0, span.duration - child_time[index])
                for index, span in enumerate(self.spans)]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (local spans only)."""
        totals: dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, self.self_time_per_span()):
            if not span.remote:
                totals[span.name] += seconds
        return dict(totals)

    def unattributed(self, op_name: str, remote_share: float = 1.0) -> tuple[float, float]:
        """(unattributed seconds, wall seconds) over all ``op_name`` spans.

        Attributed time is the union of an operation's descendant local
        spans and its remote spans (worker time scaled by
        ``remote_share``, e.g. 1/workers when they ran in parallel).
        """
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                children[span.parent].append(index)
        remote_by_op: dict[Optional[str], list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.remote:
                remote_by_op[span.op].append(span)
        residue = wall = 0.0
        for index, span in enumerate(self.spans):
            if span.name != op_name or span.remote:
                continue
            intervals = [(self.spans[c].start, self.spans[c].end) for c in children[index]]
            covered = _union(intervals, span.start, span.end)
            remote = sum(r.duration for r in remote_by_op[span.op]) * remote_share
            wall += span.duration
            residue += max(0.0, span.duration - covered - remote)
        return residue, wall

    # -- output --------------------------------------------------------

    def write_chrome(self, path: Path, metadata: dict) -> None:
        """Write the spans as Chrome trace-event JSON."""
        base = min((s.start for s in self.spans), default=0.0)
        tids: dict[int, int] = {}
        events = []
        for span in self.spans:
            tid = -1 if span.remote else tids.setdefault(span.tid, len(tids))
            args = {"op": span.op, **span.args}
            events.append({
                "name": span.name,
                "cat": layer_of(span.name),
                "ph": "X",
                "ts": round((span.start - base) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": args,
            })
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": -1,
                       "args": {"name": "remote (workers / server)"}})
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "otherData": metadata}, handle)


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class SleepTracer:
    """Stand-in for a module's ``time`` name whose ``sleep`` is traced.

    Installed as ``repro.service.client.time`` so only the client's
    poll sleeps become spans; every other attribute is the real module.
    """

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def sleep(self, seconds: float) -> None:
        index = self._tracer.begin(self._name)
        try:
            time.sleep(seconds)
        finally:
            self._tracer.end(index)

    def __getattr__(self, attr: str) -> Any:
        return getattr(time, attr)
