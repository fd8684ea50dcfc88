"""The traced gateway launcher: ``repro serve`` with span recorders.

Serves a snapshot as ``repro serve --rate-limit 0`` does, through the
same :class:`~repro.serve.ServeApp` and :func:`~repro.serve.run_gateway`,
but wraps the public calls of each layer with spans first:

* ``http <path>`` — first request line read to response written;
* ``service.find_experts`` / ``service.observe`` — the cached service;
* ``analyze`` — ``ResourceAnalyzer.analyze`` (need or resource analysis);
* ``engine.query`` — the compiled monolithic engine's ``find_experts``;
* ``segments.query`` — the segmented index's ``find_experts``;
* ``finder.observe`` — ``ExpertFinder.observe``;
* ``snapshot.open`` / ``engine.compile`` — loading the snapshot and
  compiling the engine before the gateway turns ready.

Spans stay in memory and are written as JSON to ``--spans-out`` when
the gateway stops (SIGTERM), together with the segment counters.

Run with ``src`` on ``PYTHONPATH``::

    python e2ebench/traced_serve.py --snapshot SNAP --spans-out spans.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from pathlib import Path

import repro.serve.server as server_module
from repro.core.expert_finder import ExpertFinder
from repro.serve import GatewayConfig, ServeApp, run_gateway
from repro.serve.reload import build_service
from repro.storage.snapshot import snapshot_generation
from repro.synthetic.dataset import default_analyzer
from tracing import ContextExecutor, Tracer

TRACER = Tracer()
_GatewayServer = server_module.GatewayServer
#: id(request) → when its first line was read; id(response) → its open
#: http span (span id, path, start)
_PARSE_STARTED: dict[int, float] = {}
_OPEN_HTTP: dict[int, tuple[int, str, float]] = {}


class _StampedReader:
    """Stamps the moment the first line of a request has arrived, so the
    idle wait between keep-alive requests stays outside the span."""

    def __init__(self, reader: asyncio.StreamReader):
        self._reader = reader
        self.first_line_at: float | None = None

    async def readline(self) -> bytes:
        line = await self._reader.readline()
        if self.first_line_at is None:
            self.first_line_at = time.perf_counter()
        return line

    async def readexactly(self, n: int) -> bytes:
        return await self._reader.readexactly(n)


class TracedServer(_GatewayServer):
    """The wire layer with the request's parse start and write end
    stamped around the unchanged parse, dispatch and write."""

    async def _read_request(self, reader, peer):  # type: ignore[override]
        stamped = _StampedReader(reader)
        request = await super()._read_request(stamped, peer)  # type: ignore[arg-type]
        if request is not None and stamped.first_line_at is not None:
            _PARSE_STARTED[id(request)] = stamped.first_line_at
        return request

    async def _write_response(self, writer, response, keep_alive):  # type: ignore[override]
        await _GatewayServer._write_response(writer, response, keep_alive)
        opened = _OPEN_HTTP.pop(id(response), None)
        if opened is not None:
            span_id, path, start = opened
            TRACER.record(span_id, 0, f"http {path}", start)


def _traced_dispatch(dispatch):
    async def dispatch_traced(request):
        start = _PARSE_STARTED.pop(id(request), time.perf_counter())
        span_id = TRACER.new_id()
        token = TRACER.current.set(span_id)
        try:
            response = await dispatch(request)
        finally:
            TRACER.current.reset(token)
        _OPEN_HTTP[id(response)] = (span_id, request.path, start)
        return response

    return dispatch_traced


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()
    analyzer = default_analyzer()
    analyzer.analyze = TRACER.wrap("analyze", analyzer.analyze)  # type: ignore[method-assign]
    finders: list[ExpertFinder] = []

    def source():
        finder = TRACER.wrap("snapshot.open", ExpertFinder.load)(args.snapshot, analyzer)
        finder.observe = TRACER.wrap("finder.observe", finder.observe)  # type: ignore[method-assign]
        segmented = finder.segmented_index
        if segmented is not None:
            segmented.find_experts = TRACER.wrap(  # type: ignore[method-assign]
                "segments.query", segmented.find_experts
            )
        else:
            engine = TRACER.wrap("engine.compile", finder.query_engine)()
            engine.find_experts = TRACER.wrap("engine.query", engine.find_experts)  # type: ignore[method-assign]
        service = build_service(finder)
        service.find_experts = TRACER.wrap(  # type: ignore[method-assign]
            "service.find_experts", service.find_experts
        )
        service.observe = TRACER.wrap("service.observe", service.observe)  # type: ignore[method-assign]
        finders.append(finder)
        return service

    app = ServeApp(
        source,
        label=lambda: snapshot_generation(args.snapshot),
        config=GatewayConfig(rate_limit=None),
    )
    app.dispatch = _traced_dispatch(app.dispatch)  # type: ignore[method-assign]
    # run_gateway builds its server by this module-level name
    server_module.GatewayServer = TracedServer  # type: ignore[misc]

    async def serve() -> None:
        asyncio.get_running_loop().set_default_executor(ContextExecutor())
        await run_gateway(app, host=args.host, port=args.port)

    try:
        asyncio.run(serve())
    finally:
        counters = {}
        stats = finders[-1].index_stats if finders else None
        if stats is not None:
            counters = {
                "seals": stats.seals,
                "compactions": stats.compactions,
                "live": stats.segments,
            }
        Path(args.spans_out).write_text(
            json.dumps({"spans": TRACER.spans, "segments": counters})
        )


if __name__ == "__main__":
    main()
