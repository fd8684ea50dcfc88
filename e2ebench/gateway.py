"""Start, probe, measure and stop one gateway server process.

The server always runs in its own process. Its CPU time and peak
memory are read from ``/proc/<pid>`` by the benchmark, from outside,
so the numbers need no cooperation from the program under test.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from loadgen import Call, request

#: how often the launcher polls ``/readyz`` while a snapshot loads
_POLL_S = 0.01
#: the longest a server may take to print its address or become ready
_START_TIMEOUT_S = 60.0

_CLI = "import sys; from repro.cli import main; sys.exit(main())"
#: prctl option: signal to deliver when the parent process exits
_PR_SET_PDEATHSIG = 1


def _child_setup(cpu: int | None) -> None:
    """In the server process before exec: pin it, and have the kernel
    send it SIGTERM if the benchmark process dies first."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


class Gateway:
    """One running gateway process on a loopback port."""

    def __init__(
        self,
        root: Path,
        snapshot: Path,
        *,
        cpu: int | None,
        spans_out: Path | None = None,
    ):
        """Launch ``repro serve`` on *snapshot* with rate limiting off
        (or, with *spans_out*, the benchmark's traced launcher), pinned
        to *cpu* when given, and wait until ``/readyz`` answers 200.
        :attr:`ready_s` is the wall time from launch to that answer."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        if spans_out is None:
            argv = [sys.executable, "-c", _CLI, "serve", "--rate-limit", "0"]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("traced_serve.py"))]
            argv += ["--spans-out", str(spans_out)]
        argv += ["--snapshot", str(snapshot), "--host", "127.0.0.1", "--port", "0"]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: _child_setup(cpu),
        )
        try:
            self.host, self.port = self._address()
            self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.process.pid

    def _address(self) -> tuple[str, int]:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        marker = "listening on http://"
        if marker not in line:
            raise RuntimeError(f"gateway did not start: {line!r}")
        address = line.split(marker, 1)[1].split()[0]
        host, _, port = address.rpartition(":")
        return host, int(port)

    def _await_ready(self) -> None:
        deadline = time.perf_counter() + _START_TIMEOUT_S
        probe = Call("probe", "GET", "/readyz", None)
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("gateway exited before it became ready")
            status, _ = request(self.host, self.port, probe)
            if status == 200:
                return
            time.sleep(_POLL_S)
        raise RuntimeError("gateway did not become ready in time")

    def metrics(self) -> dict:
        status, body = request(self.host, self.port, Call("probe", "GET", "/v1/metrics", None))
        if status != 200 or not isinstance(body, dict):
            raise RuntimeError(f"/v1/metrics answered {status}")
        return body

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
        utime, stime = int(fields[11]), int(fields[12])
        return (utime + stime) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM, then wait for a clean exit (SIGKILL after a grace)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
