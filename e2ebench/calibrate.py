"""Host control: idle spinners and host-speed calibration per pinned CPU.

One worker process is pinned to each CPU the benchmark uses. It runs a
busy loop under ``SCHED_IDLE``, so it only ever gets a CPU nothing else
wants and yields it the moment the server or the load generator wakes.
On a virtual machine an idle vCPU halts, and waking it costs tens of
microseconds that vary with the host's load; with the spinner the vCPU
never halts, and a wake-up is an ordinary in-guest preemption.

Between timed rounds the worker also times a fixed kernel of the
benchmark's own (dictionary counting and a pointer chase through a few
megabytes, no ``repro`` code). Its time tracks the host's speed, which
drifts by tens of percent from minute to minute on a shared host, and
nothing the program does. Timings are reported at :data:`REFERENCE_MS`
kernel speed::

    normalized = measured * REFERENCE_MS / kernel_ms

A change to the program moves the measured time but not the kernel; a
slower host moves both.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import statistics
import time

#: kernel milliseconds that normalized timings are expressed at (about
#: the kernel's median time on the 2-vCPU Xeon VM the benchmark was
#: tuned on, so normalized figures read close to that host's own)
REFERENCE_MS = 8.0
#: kernel repetitions per measurement (their median is reported)
_REPEATS = 5


def _kernel(words: list[str], table: list[int]) -> int:
    counts: dict[str, int] = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1
    at, total = 0, 0
    for _ in range(10_000):
        at = table[at]
        total += at
    return total + len(sorted(counts.items()))


def _worker(conn, cpu: int) -> None:
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    words = [f"w{(i * 7919) % 5003}" for i in range(10_000)]
    table = list(range(1 << 18))
    random.Random(0).shuffle(table)
    try:
        while True:
            if not conn.poll():
                # spin to keep the vCPU out of its idle state, and end with
                # the benchmark even when it dies without closing the pipe
                if os.getppid() != parent:
                    return
                continue
            if not conn.recv():
                return
            times = []
            for _ in range(_REPEATS):
                started = time.perf_counter()
                _kernel(words, table)
                times.append(time.perf_counter() - started)
            conn.send(statistics.median(times) * 1e3)
    except (EOFError, KeyboardInterrupt):
        pass


class HostGuard:
    """A spinner-and-calibration worker pinned to each given CPU.

    Create it before the benchmark loads anything large (the workers
    are forked) and close it when done."""

    def __init__(self, cpus: list[int]):
        context = multiprocessing.get_context("fork")
        self._links = []
        self._workers = []
        for cpu in cpus:
            ours, theirs = context.Pipe()
            worker = context.Process(target=_worker, args=(theirs, cpu), daemon=True)
            worker.start()
            theirs.close()
            self._links.append(ours)
            self._workers.append(worker)

    def measure(self) -> list[float]:
        """Kernel milliseconds on every CPU, measured at the same time."""
        for link in self._links:
            link.send(True)
        return [link.recv() for link in self._links]

    def close(self) -> None:
        for link in self._links:
            try:
                link.send(False)
            except (BrokenPipeError, OSError):
                pass
            link.close()
        for worker in self._workers:
            worker.join(timeout=10)
            if worker.is_alive():
                worker.kill()
                worker.join()
