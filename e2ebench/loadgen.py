"""A single-threaded asyncio HTTP/1.1 load generator.

One event loop drives one keep-alive connection as a closed loop: the
next request is sent only after the previous answer has been read and
parsed, so a run sends a pre-built sequence in a fixed order.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    """One request of a workload sequence."""

    #: "query", "observe" or "probe" (how the result is timed and checked)
    kind: str
    method: str
    path: str
    payload: dict | None


@dataclass
class Outcome:
    """One answered request: status, parsed body and client-side time."""

    status: int
    body: object
    #: seconds from the first byte written to the body parsed
    elapsed: float


def encode(call: Call, host: str, port: int) -> bytes:
    body = b"" if call.payload is None else json.dumps(call.payload).encode()
    head = (
        f"{call.method} {call.path} HTTP/1.1\r\n"
        f"host: {host}:{port}\r\n"
        "content-type: application/json\r\n"
        f"content-length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, object]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, json.loads(body) if body else None


async def _drive(host: str, port: int, calls: Sequence[Call]) -> tuple[list[Outcome], float]:
    wire = [encode(call, host, port) for call in calls]
    outcomes: list[Outcome] = []
    started = time.perf_counter()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for request in wire:
            sent = time.perf_counter()
            writer.write(request)
            status, body = await _read_response(reader)
            outcomes.append(Outcome(status, body, time.perf_counter() - sent))
    finally:
        writer.close()
        await writer.wait_closed()
    return outcomes, time.perf_counter() - started


def drive(host: str, port: int, calls: Sequence[Call]) -> tuple[list[Outcome], float]:
    """Send *calls* in order on one closed-loop keep-alive connection;
    return their outcomes and the wall seconds the sequence took."""
    return asyncio.run(_drive(host, port, calls))


def request(host: str, port: int, call: Call) -> tuple[int, object]:
    """One request on a fresh connection (probes and metrics reads)."""

    async def _once() -> tuple[int, object]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(encode(call, host, port))
            return await _read_response(reader)
        finally:
            writer.close()
            await writer.wait_closed()

    return asyncio.run(_once())
