"""Socket-to-socket benchmark of the ``repro serve`` gateway.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload hot-needs --seed 1 --seconds 10 --trace 0

One run loads the dataset (scale small, dataset seed 7; generated once
and cached under ``.e2ebench_cache/``), then sets up twice: build the
finder, save the snapshot, launch the gateway and wait for ``/readyz``.
The second gateway serves the workload: an untimed warm-up,
then a fixed, seeded request sequence whose size is proportional to
``--seconds``. Every answer is checked against an in-process reference.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` also serves
the same sequence from the traced launcher (``traced_serve.py``) and
prints the per-layer metrics. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The server process and this load generator are pinned to two different
CPUs when at least two are available; timings are reported at reference
host speed (see ``calibrate.py`` and ``README.md``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
#: generated dataset and per-run scratch, inside the checkout
CACHE_DIR = ROOT / ".e2ebench_cache"
DATASET_SEED = 7
#: full set-ups per run; setup_s is their median
SETUPS = 2


#: fewest queries in one window of the windowed p99 (10 beyond the p99)
P99_WINDOW = 1000


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def windowed_p99(values: list[float]) -> float:
    """p99 of each run of consecutive values at least :data:`P99_WINDOW`
    long, the median over those windows. One stall of the host raises
    the p99 of its own window only."""
    windows = max(1, len(values) // P99_WINDOW)
    size = len(values) // windows
    return statistics.median(
        percentile(values[i * size : (i + 1) * size], 99) for i in range(windows)
    )


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        default="small",
        choices=("tiny", "small"),
        help="dataset scale (tiny is for the smoke test only)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: run from a checkout holding src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # a SIGTERM unwinds through the finally blocks that stop the servers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    CACHE_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=CACHE_DIR))
    try:
        run = Run(args, WORKLOADS[args.workload], scratch)
        print(
            f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"pinned={run.pinned}",
            file=sys.stderr,
        )
        result = run.execute()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def log(message: str) -> None:
    """Progress on standard error (standard output carries the result)."""
    print(f"[{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr, flush=True)


class Run:
    """One benchmark run: set-ups, the served workload, the checks."""

    def __init__(self, args: argparse.Namespace, workload, scratch: Path):
        self.args = args
        self.workload = workload
        self.scratch = scratch
        cpus = sorted(os.sched_getaffinity(0))
        self.pinned = len(cpus) >= 2
        self.client_cpu, self.server_cpu = (cpus[0], cpus[1]) if self.pinned else (None, None)

    def execute(self) -> dict:
        from calibrate import HostGuard
        from repro.storage.cache import load_or_build
        from repro.synthetic.dataset import DatasetScale
        from workloads import plan

        if self.client_cpu is not None:
            os.sched_setaffinity(0, {self.client_cpu})
        # forked before anything large is loaded, so the workers stay small
        cpus = [self.client_cpu, self.server_cpu] if self.pinned else sorted(os.sched_getaffinity(0))[:1]
        self.guard = HostGuard(cpus)
        gateway = None
        try:
            self.dataset = load_or_build(
                CACHE_DIR, DatasetScale(self.args.scale), DATASET_SEED
            )
            self.plan = plan(
                self.workload, self.args.seed, self.args.seconds, self.dataset.person_ids
            )
            gc.collect()
            gc.freeze()  # the dataset is long-lived: keep it out of collections
            log("dataset loaded")
            setups = []
            for rep in range(SETUPS):
                if gateway is not None:
                    gateway.stop()
                finder = None  # every set-up starts from the same memory state
                finder, gateway, timings = self._setup(rep)
                setups.append(timings)
                log(f"set-up {rep + 1}: {timings}")
            plain = self._exercise(gateway)
            gateway.stop()
            log("served")
            traced = None
            if self.args.trace:
                before = self.guard.measure()
                gateway = self._launch(self.snapshot, spans_out=self.scratch / "spans.json")
                launch_scale = self._scale(before, self.guard.measure(), -1)
                traced = self._exercise(gateway)
                traced["launch_scale"] = launch_scale
                gateway.stop()
                traced["trace"] = json.loads((self.scratch / "spans.json").read_text())
                log("served traced")
        finally:
            if gateway is not None:
                gateway.stop()
            self.guard.close()
        report = self._report(finder, setups, plain, traced)
        log("checked")
        return report

    # -- set-up and serving ------------------------------------------------------

    def _scale(self, before: list[float], after: list[float], cpu: int) -> float:
        """Factor that brings a timing taken on CPU *cpu* (0 for the load
        generator's, last for the server's) between two calibrations to
        reference kernel speed (see :mod:`calibrate`)."""
        from calibrate import REFERENCE_MS

        return REFERENCE_MS / statistics.fmean((before[cpu], after[cpu]))

    def _launch(self, snapshot: Path, spans_out: Path | None = None):
        from gateway import Gateway

        return Gateway(ROOT, snapshot, cpu=self.server_cpu, spans_out=spans_out)

    def _setup(self, rep: int):
        """Build, save, launch: one timed set-up."""
        from repro.core.config import FinderConfig
        from repro.core.expert_finder import ExpertFinder

        dataset = self.dataset
        self.snapshot = self.scratch / f"snapshot-{rep}"
        gc.collect()
        before = self.guard.measure()
        started = time.perf_counter()
        finder = ExpertFinder.build(
            dataset.merged_graph,
            dataset.candidates_for(None),
            dataset.analyzer,
            FinderConfig(),
            corpus=dataset.corpus,
            index_mode=self.workload.index_mode,
        )
        built = time.perf_counter()
        finder.save(self.snapshot)
        saved = time.perf_counter()
        gateway = self._launch(self.snapshot)
        ready = time.perf_counter()
        after = self.guard.measure()
        # build and save ran on this process's CPU, the launch on the server's
        here, there = self._scale(before, after, 0), self._scale(before, after, -1)
        stats = finder.build_stats
        timings = {
            "setup_s": (saved - started) * here + (ready - saved) * there,
            "raw_setup_s": ready - started,
            "save_s": (saved - built) * here,
            "ready_s": gateway.ready_s * there,
            "gather_s": stats.gather_s * here,
            "analyze_s": stats.analyze_s * here,
            "index_s": stats.index_s * here,
        }
        if rep:
            shutil.rmtree(self.scratch / f"snapshot-{rep - 1}", ignore_errors=True)
        return finder, gateway, timings

    def _rounds(self, gateway, calls: list, size: int) -> list:
        """Send *calls* in rounds of *size*, calibrating between rounds;
        return ``(outcomes, wall seconds, scale)`` per round."""
        from loadgen import drive

        rounds = []
        before = self.guard.measure()
        gc.disable()
        try:
            for i in range(0, len(calls), size):
                outcomes, wall = drive(gateway.host, gateway.port, calls[i : i + size])
                after = self.guard.measure()
                rounds.append((outcomes, wall, self._scale(before, after, -1)))
                before = after
        finally:
            gc.enable()
        return rounds

    def _exercise(self, gateway) -> dict:
        """Warm up, then time the sequence; counters read around it."""
        from loadgen import drive

        plan = self.plan
        warm, _ = drive(gateway.host, gateway.port, plan.warmup)
        before = gateway.metrics()["service"]
        cpu_before = gateway.cpu_s()
        timed = self._rounds(gateway, plan.timed, self.workload.round_size)
        cpu_s = gateway.cpu_s() - cpu_before
        after = gateway.metrics()["service"]
        return {
            "warm": warm,
            "timed_rounds": timed,
            "timed": [o for outcomes, _, _ in timed for o in outcomes],
            "cpu_s": cpu_s,
            "service_before": before,
            "service_after": after,
            "rss_mb": gateway.peak_rss_mb(),
        }

    # -- checks and metrics ------------------------------------------------------

    def _report(self, finder, setups, plain, traced) -> dict:
        from workloads import check_ingest, check_read_only

        plan = self.plan
        calls = plan.warmup + plan.timed
        outcomes = plain["warm"] + plain["timed"]
        if self.workload.index_mode == "segmented":
            verdict = check_ingest(finder, calls, outcomes, self.args.seed)
            served = plain["service_after"]
            counters_ok = (
                served["segments"] == verdict.segments["live"]
                and served["compactions"] == verdict.segments["compactions"]
            )
        else:
            verdict = check_read_only(
                finder, calls, outcomes, self.args.seed, self.server_cpu
            )
            counters_ok = True
        attempted = len(verdict.ok)
        failed = attempted - sum(verdict.ok)
        correct = failed == 0 and verdict.oracle_ok and counters_ok
        if traced is None:
            metrics = self._end_to_end(setups, plain, attempted, failed)
        else:
            layer_metrics, trace_ok = self._per_layer(setups, plain, traced, verdict)
            metrics = layer_metrics
            correct = correct and trace_ok
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }

    def _figures(self, run: dict, scaled: bool = True) -> tuple[list[float], float]:
        """Client-side ms of the timed queries, and queries per second,
        at reference host speed (as measured when *scaled* is false)."""
        queries: list[float] = []
        wall_s = 0.0
        calls = iter(self.plan.timed)
        for outcomes, wall, scale in run["timed_rounds"]:
            scale = scale if scaled else 1.0
            for outcome, call in zip(outcomes, calls):
                if call.kind == "query":
                    queries.append(outcome.elapsed * 1e3 * scale)
            wall_s += wall * scale
        return queries, len(queries) / wall_s

    def _end_to_end(self, setups, plain, attempted, failed) -> dict:
        queries, rps = self._figures(plain)
        raw_queries, raw_rps = self._figures(plain, scaled=False)
        log(
            f"as measured: query_p50_ms {percentile(raw_queries, 50):.4f} "
            f"query_rps {raw_rps:.1f} setup_s "
            f"{statistics.median(s['raw_setup_s'] for s in setups):.3f}"
        )
        return {
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "query_p50_ms": (percentile(queries, 50), "ms"),
            "query_p99_ms": (windowed_p99(queries), "ms"),
            "query_rps": (rps, "1/s"),
            "serve_rss_mb": (plain["rss_mb"], "MiB"),
            "success_ratio": ((attempted - failed) / attempted, "ratio"),
        }

    def _per_layer(self, setups, plain, traced, verdict) -> tuple[dict, bool]:
        from calibrate import REFERENCE_MS
        from tracing import request_layers

        spans = [tuple(span) for span in traced["trace"]["spans"]]
        segments = traced["trace"]["segments"]
        # the traced requests of the timed rounds, in send order, each with
        # its round's host-speed factor
        calls = self.plan.timed
        scales = [scale for outcomes, _, scale in traced["timed_rounds"] for _ in outcomes]
        query_scales = [f for call, f in zip(calls, scales) if call.kind == "query"]
        observe_scales = [f for call, f in zip(calls, scales) if call.kind == "observe"]
        query_layers = request_layers(spans, "http /v1/query")[-len(query_scales) :]
        observe_layers = request_layers(spans, "http /v1/observe")
        observe_layers = observe_layers[len(observe_layers) - len(observe_scales) :]
        timed_queries = len(query_scales)

        def ms(layers: list[dict], factors: list[float], name: str) -> list[float]:
            return [e[name] * 1e3 * f for e, f in zip(layers, factors) if name in e]

        def query_ms(name: str) -> list[float]:
            return ms(query_layers, query_scales, name)

        def observe_ms(name: str) -> list[float]:
            return ms(observe_layers, observe_scales, name)

        # every request's self times add up to its HTTP total, and every
        # query reached the service through its HTTP span
        trace_ok = all(
            abs(sum(v for k, v in entry.items() if k != "total") - entry["total"]) < 1e-9
            for entry in query_layers + observe_layers
        ) and all("service.find_experts" in entry for entry in query_layers)
        # the traced server answered exactly what the untraced one did
        pairs = zip(plain["warm"] + plain["timed"], traced["warm"] + traced["timed"])
        trace_ok = trace_ok and all(a.status == b.status and a.body == b.body for a, b in pairs)
        if segments:
            trace_ok = trace_ok and segments == verdict.segments

        def named(name: str) -> float:
            seconds = sum(end - start for _, _, span, start, end in spans if span == name)
            return seconds * traced["launch_scale"]

        def median_of(key: str) -> float:
            return statistics.median(s[key] for s in setups)

        plain_queries, _ = self._figures(plain)
        traced_queries, _ = self._figures(traced)
        before, after = plain["service_before"], plain["service_after"]
        queries = after["queries"] - before["queries"]
        serve_self = query_ms("http /v1/query")
        engine = query_ms("engine.query")
        seg_query = query_ms("segments.query")
        writes = observe_ms("finder.observe")
        metrics = {
            "serve.self_ms.p50": (percentile(serve_self, 50), "ms"),
            "serve.self_ms.p99": (percentile(serve_self, 99), "ms"),
            "serve.http_ms.p50": (percentile(query_ms("total"), 50), "ms"),
            "serve.observe_ms.p50": (percentile(observe_ms("total"), 50), "ms"),
            "serve.observe_ms.p99": (percentile(observe_ms("total"), 99), "ms"),
            "serve.ready_s": (median_of("ready_s"), "s"),
            "process.cpu_ms_per_query": (plain["cpu_s"] * 1e3 / timed_queries, "ms"),
            "service.self_ms.p50": (percentile(query_ms("service.find_experts"), 50), "ms"),
            "service.hit_rate": ((after["cache_hits"] - before["cache_hits"]) / queries, "ratio"),
            "service.invalidations": (after["invalidations"], "count"),
            "service.cache_survivals": (after["cache_survivals"], "count"),
            "need.analyze_ms.p50": (
                percentile(query_ms("service.find_experts>analyze"), 50), "ms"),
            "observe.analyze_ms.p50": (
                percentile(observe_ms("finder.observe>analyze"), 50), "ms"),
            "engine.query_ms.p50": (percentile(engine, 50), "ms"),
            "engine.query_ms.p99": (percentile(engine, 99), "ms"),
            "engine.compile_s": (named("engine.compile"), "s"),
            "segments.query_ms.p50": (percentile(seg_query, 50), "ms"),
            "segments.query_ms.p99": (percentile(seg_query, 99), "ms"),
            "segments.observe_ms.p50": (percentile(writes, 50), "ms"),
            "segments.observe_ms.p99": (percentile(writes, 99), "ms"),
            "segments.seals": (segments.get("seals", 0), "count"),
            "segments.compactions": (segments.get("compactions", 0), "count"),
            "segments.live": (segments.get("live", 0), "count"),
            "snapshot.save_s": (median_of("save_s"), "s"),
            "snapshot.open_s": (named("snapshot.open"), "s"),
            "build.gather_s": (median_of("gather_s"), "s"),
            "build.analyze_s": (median_of("analyze_s"), "s"),
            "build.index_s": (median_of("index_s"), "s"),
            "host.kernel_ms": (
                REFERENCE_MS / statistics.median(f for _, _, f in plain["timed_rounds"]), "ms"),
            "trace.overhead_pct": (
                (percentile(traced_queries, 50) / percentile(plain_queries, 50) - 1) * 100, "%"),
        }
        return metrics, trace_ok


if __name__ == "__main__":
    sys.exit(main())
