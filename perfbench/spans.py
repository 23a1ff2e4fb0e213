"""Spans recorded from outside the program, around calls into its layers.

The traced run replaces public methods on the objects under test with
wrappers that record one span per call: name, start, end, parent and
trace id.  Spans stay in memory until the run ends and are then written
once, as JSONL in the layout of ``repro.telemetry.trace.Span.to_dict``,
so ``python -m repro trace summarize --span-log <file>`` renders them and
``repro.telemetry.summarize.summarize_spans`` computes their self times.

Parentage follows the calling thread: a span opened while another span
of the same thread is open becomes its child and joins its trace.  Work
that runs on another thread on behalf of a span (a batch scored by a
server worker for a waiting request) is linked explicitly with
``open(..., parent=...)`` or recorded after the fact with ``add``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.summarize import summarize_spans

_MISSING = object()

# A span record is a list, mutated in place while the span is open:
# [name, start, end, span_id, parent_id, trace_id, status]
NAME, START, END, SPAN_ID, PARENT_ID, TRACE_ID, STATUS = range(7)


class SpanRecorder:
    """Collects spans in memory and patches/restores wrapped methods."""

    def __init__(self) -> None:
        self._records: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._wall_offset = time.time() - time.perf_counter()

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[list] = None) -> list:
        """Start a span; its parent defaults to this thread's open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        record = [
            name,
            time.perf_counter(),
            None,
            span_id,
            None if parent is None else parent[SPAN_ID],
            span_id if parent is None else parent[TRACE_ID],
            "ok",
        ]
        stack.append(record)
        return record

    def close(self, record: list, error: bool = False) -> None:
        """End the span opened last on this thread."""
        record[END] = time.perf_counter()
        if error:
            record[STATUS] = "error"
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        self._records.append(record)

    def add(self, name: str, start: float, end: float, parent: list) -> None:
        """Record an already-measured child of ``parent``."""
        self._records.append([
            name, start, end, next(self._ids), parent[SPAN_ID],
            parent[TRACE_ID], "ok",
        ])

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with one span recorded around every call."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(record, error=True)
                raise
            self.close(record)
            return result
        return traced

    # -- patching ------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`restore` puts the original back."""
        original = vars(owner).get(attr, _MISSING)
        if isinstance(original, staticmethod):
            replacement = staticmethod(replacement)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def trace_method(self, owner: Any, attr: str, name: str) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call."""
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def spans(self) -> List[Dict[str, Any]]:
        """Every finished span in the ``Span.to_dict`` layout."""
        out = []
        for name, start, end, span_id, parent_id, trace_id, status in (
            list(self._records)
        ):
            out.append({
                "trace_id": f"{trace_id:016x}",
                "span_id": f"{span_id:016x}",
                "parent_id": None if parent_id is None else f"{parent_id:016x}",
                "name": name,
                "start": start,
                "end": end,
                "duration": end - start,
                "wall_start": start + self._wall_offset,
                "status": status,
                "attributes": {},
                "events": [],
            })
        return out

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every span called ``name``."""
        return [r[END] - r[START] for r in list(self._records) if r[NAME] == name]

    def total(self, name: str) -> float:
        """Summed duration in seconds of every span called ``name``."""
        return float(sum(self.durations(name)))

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """``summarize_spans`` rows keyed by span name."""
        return {row["name"]: row for row in summarize_spans(self.spans())}

    def write_jsonl(self, path: str) -> None:
        """Write every span once, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span, sort_keys=True))
                handle.write("\n")
