"""In-memory span recording and self-time analysis for the traced run.

A span is ``(span_id, parent_id, name, start, end)`` with times from
``time.perf_counter``; parent 0 marks a root. The current span travels
in a :class:`contextvars.ContextVar`, and :class:`ContextExecutor`
copies the submitting context into executor threads, so a call the
gateway hands to its executor stays a child of the HTTP request that
caused it.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import Any

Span = tuple[int, int, str, float, float]


class Tracer:
    """Records spans in memory; the launcher writes :attr:`spans` out
    when the gateway stops."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self.current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "span", default=0
        )

    def new_id(self) -> int:
        return next(self._ids)

    def record(self, span_id: int, parent: int, name: str, start: float) -> None:
        self.spans.append((span_id, parent, name, start, time.perf_counter()))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* with a span named *name* around every call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self.new_id()
            parent = self.current.get()
            token = self.current.set(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(span_id, parent, name, start)
                self.current.reset(token)

        return traced


class ContextExecutor(ThreadPoolExecutor):
    """A thread pool that runs each task in a copy of the submitter's
    context (``loop.run_in_executor`` alone does not carry it)."""

    def submit(self, fn, /, *args, **kwargs):  # type: ignore[override]
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)


def request_layers(spans: Iterable[Span], root_name: str) -> list[dict[str, float]]:
    """For every root span named *root_name*, in start order, the self
    time of each span name in its tree (summed when a name repeats).

    A span's self time is its duration minus its direct children's, so
    the values of one request add up to its root span's duration, which
    is reported under ``"total"``. An
    ``analyze`` span is named after its parent: need analysis under a
    query, resource analysis under an observe."""
    spans = list(spans)
    by_id = {span[0]: span for span in spans}
    own = {span_id: end - start for span_id, _, _, start, end in spans}
    children: dict[int, list[int]] = {}
    for span_id, parent, _, start, end in spans:
        if parent in own:
            own[parent] -= end - start
            children.setdefault(parent, []).append(span_id)
    roots = sorted(
        (span for span in spans if span[1] == 0 and span[2] == root_name),
        key=lambda span: span[3],
    )
    out = []
    for root in roots:
        layers: dict[str, float] = {"total": root[4] - root[3]}
        todo = [root[0]]
        while todo:
            span_id = todo.pop()
            _, parent, name, _, _ = by_id[span_id]
            if name == "analyze":
                name = f"{by_id[parent][2]}>analyze"
            layers[name] = layers.get(name, 0.0) + own[span_id]
            todo.extend(children.get(span_id, ()))
        out.append(layers)
    return out
