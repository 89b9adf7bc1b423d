"""In-memory span recording for the traced run.

Spans are recorded by the benchmark around calls into the program's
layers, kept in memory, and written as one JSON file when the run
ends. Each span names the layer (the program's module) and the
function called; a layer's self time is its spans' durations minus the
parts covered by child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """A flat list of spans with parent links, one clock for all."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "layer": layer,
            "name": name,
            "start_s": time.perf_counter() - self._t0,
            "end_s": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter() - self._t0
            self._stack.pop()

    def wrap(self, layer: str, name: str, fn, on_result=None):
        """``fn`` with every call recorded as a span; ``on_result``, if
        given, sees each call's span record and return value."""

        def traced(*args, **kwargs):
            with self.span(layer, name) as record:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(record, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def durations(self, layer: str, name: str, since: int = 0) -> list[float]:
        """Durations of the named spans recorded from span id ``since`` on."""
        return [
            s["end_s"] - s["start_s"]
            for s in self.spans[since:]
            if s["layer"] == layer and s["name"] == name
        ]

    def own_times(self) -> list[float]:
        """Each closed span's duration minus the time of its child
        spans (0 for spans still open)."""
        duration = [
            0.0 if s["end_s"] is None else s["end_s"] - s["start_s"]
            for s in self.spans
        ]
        own = list(duration)
        for s, d in zip(self.spans, duration):
            if s["parent"] is not None:
                own[s["parent"]] -= d
        return own

    def self_times(self) -> dict[str, float]:
        """Total self time per layer, in seconds."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.own_times()):
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out

    def write(self, path: Path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **meta,
            "self_time_s": self.self_times(),
            "spans": self.spans,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        tmp.replace(path)


@contextmanager
def patched(recorder: SpanRecorder, targets):
    """Record spans around attributes for the duration of the block.

    ``targets`` holds ``(owner, attribute, layer, name[, on_result])``
    tuples; the owner is the module or class through which the program looks the
    function up, so the program keeps calling its own functions in its
    own order and only gains a span around each call.
    """
    saved = []
    try:
        for owner, attr, layer, name, *on_result in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    recorder.wrap(layer, name, original.__func__, *on_result)
                )
            else:
                wrapped = recorder.wrap(layer, name, original, *on_result)
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
