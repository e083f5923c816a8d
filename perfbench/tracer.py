"""In-memory span tracer installed from outside the traced program.

``Tracer.wrap`` replaces a public name in the namespace that calls it
(a module attribute or a class method) with a timing wrapper.  Each call
becomes a span: name, parent span, the grid cell ``(n, M)`` it works for,
start, duration, and the part of the duration covered by child spans.
Spans stay in memory until the caller takes them with ``records``.
Single-threaded use only: the traced passes run in one process.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name, cell=None, on_result=None) -> None:
        """Trace calls through ``owner.attr``.

        ``name`` is the span name, or a function of the call's arguments
        returning it.  ``cell`` maps the arguments to an ``(n, M)`` key;
        spans without one inherit their parent's.  ``on_result(span,
        result)`` may attach values from the result to the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            record = self._begin(label, cell(*args, **kwargs) if cell else None)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(record, start)
            if on_result is not None:
                on_result(record, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, cell=None):
        record = self._begin(name, cell)
        start = time.perf_counter()
        try:
            yield record
        finally:
            self._end(record, start)

    def _begin(self, name: str, cell) -> dict:
        parent = self._open[-1] if self._open else None
        if cell is None and parent is not None:
            cell = self.spans[parent]["cell"]
        record = {"name": name, "parent": parent, "cell": cell, "start": 0.0, "dur": 0.0, "child": 0.0}
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def _end(self, record: dict, start: float) -> None:
        record["start"] = start
        record["dur"] = time.perf_counter() - start
        self._open.pop()
        if record["parent"] is not None:
            self.spans[record["parent"]]["child"] += record["dur"]

    def root_of(self, index: int) -> str:
        """Name of the outermost span above span ``index``."""
        while self.spans[index]["parent"] is not None:
            index = self.spans[index]["parent"]
        return self.spans[index]["name"]

    def under(self, root: str, name: str | None = None) -> list:
        """Spans below the outermost span ``root``, optionally only those called ``name``."""
        return [
            record
            for index, record in enumerate(self.spans)
            if record["parent"] is not None
            and (name is None or record["name"] == name)
            and self.root_of(index) == root
        ]

    def totals(self, root: str) -> dict:
        """Per span name below the outermost span ``root``: calls, total and self seconds."""
        table: dict = {}
        for record in self.under(root):
            entry = table.setdefault(record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += record["dur"]
            entry["self_s"] += record["dur"] - record["child"]
        return table

    def records(self) -> list:
        """Every span, with its self time, in start order."""
        return [dict(record, self=record["dur"] - record["child"]) for record in self.spans]
