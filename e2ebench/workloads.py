"""The three workloads: seeded request sequences and their references.

Every workload is a fixed-count sequence built from the run's seed: the
same seed sends the same requests in the same order. Each sequence has
an untimed warm-up part and a timed part. Query answers are checked
against an in-process :class:`~repro.core.expert_finder.ExpertFinder`
built from the same dataset with the same code, and a seeded subset is
checked against the ``engine="object"`` reference path as well.
"""

from __future__ import annotations

import json
import os
import random
from collections.abc import Sequence
from dataclasses import dataclass

from loadgen import Call, Outcome
from repro.core.expert_finder import ExpertFinder
from repro.synthetic.queries import paper_queries
from repro.synthetic.stream import stream_queries, stream_resources

#: answers per query, on every workload
TOP_K = 10
#: Zipf exponent of the hot-needs popularity law
ZIPF_S = 1.0
#: needs checked against the object engine, per run
ORACLE_NEEDS = 8
#: ingest-mix queries replayed in process (every n-th, plus the last)
CHECKPOINT_EVERY = 100


@dataclass(frozen=True)
class Workload:
    """One traffic mix; its one-line reason is recorded in BENCHMARK.json."""

    name: str
    #: index layout of the snapshot the gateway serves
    index_mode: str
    #: requests per timed round (the host speed is calibrated between rounds)
    round_size: int
    #: timed rounds per 10 seconds of ``--seconds``
    rounds_per_10s: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hot-needs",
            "monolithic",
            round_size=1000,
            rounds_per_10s=50,
        ),
        Workload(
            "distinct-needs",
            "monolithic",
            round_size=25,
            rounds_per_10s=60,
        ),
        Workload(
            "ingest-mix",
            "segmented",
            # 64 observe/query pairs; 32 rounds cross 8 seals
            round_size=128,
            rounds_per_10s=32,
        ),
    )
}

#: untimed requests (ingest-mix: observe/query pairs) before the timed part
WARMUP = 40


def rounds(per_10s: int, seconds: int) -> int:
    return max(2, per_10s * seconds // 10)


def query_call(need: str) -> Call:
    return Call("query", "POST", "/v1/query", {"need": need, "top_k": TOP_K})


def observe_call(event: tuple) -> Call:
    node_id, text, supporters = event[:3]
    payload = {
        "node_id": node_id,
        "text": text,
        "supporters": [list(row) for row in supporters],
    }
    if len(event) > 3:
        payload["language"] = event[3]
    return Call("observe", "POST", "/v1/observe", payload)


def distinct_needs(count: int, seed: int) -> list[str]:
    """*count* seeded stream needs, no two equal after the service's
    cache normalization (lower case, collapsed whitespace)."""
    needs: list[str] = []
    seen: set[str] = set()
    batch = count
    while len(needs) < count:
        for text in stream_queries(len(needs) + batch, seed=seed)[len(needs) :]:
            key = " ".join(text.lower().split())
            if key not in seen and len(needs) < count:
                seen.add(key)
                needs.append(text)
        batch = max(16, count - len(needs))
    return needs


def cycled_paper_needs(count: int, rng: random.Random) -> list[str]:
    """*count* of the paper's needs in seeded shuffled rounds, never the
    same need twice in a row. Between two queries of ingest-mix an
    observe either clears the cache (indexed) or leaves it holding only
    the previous need, so every one of these queries misses the cache."""
    texts = [need.text for need in paper_queries()]
    out: list[str] = []
    while len(out) < count:
        round_ = texts[:]
        rng.shuffle(round_)
        if out and round_[0] == out[-1]:
            round_[0], round_[1] = round_[1], round_[0]
        out.extend(round_)
    return out[:count]


@dataclass
class Plan:
    """The requests of one run: untimed warm-up, then the timed part."""

    warmup: list[Call]
    timed: list[Call]


def plan(workload: Workload, seed: int, seconds: int, candidates: Sequence[str]) -> Plan:
    """The seeded request sequence of one run of *workload*."""
    rng = random.Random(seed)
    timed = workload.round_size * rounds(workload.rounds_per_10s, seconds)
    if workload.name == "ingest-mix":
        pairs = timed // 2
        events = stream_resources(list(candidates), WARMUP + pairs, seed=seed)
        needs = cycled_paper_needs(WARMUP + pairs, rng)
        mixed = [
            call
            for event, need in zip(events, needs)
            for call in (observe_call(event), query_call(need))
        ]
        return Plan(mixed[: 2 * WARMUP], mixed[2 * WARMUP :])
    if workload.name == "hot-needs":
        texts = [need.text for need in paper_queries()]
        rng.shuffle(texts)  # which need is most popular is seeded too
        weights = [1.0 / rank**ZIPF_S for rank in range(1, len(texts) + 1)]
        timed_needs = rng.choices(texts, weights, k=timed)
        return Plan([query_call(t) for t in texts], [query_call(t) for t in timed_needs])
    calls = [query_call(text) for text in distinct_needs(WARMUP + timed, seed)]
    return Plan(calls[:WARMUP], calls[WARMUP:])


def _ranking(experts: object) -> list[tuple]:
    return [
        (e["candidate_id"], e["score"], e["supporting_resources"])
        for e in experts  # type: ignore[union-attr]
    ]


def _expected(finder: ExpertFinder, need: str) -> list[tuple]:
    return [
        (e.candidate_id, e.score, e.supporting_resources)
        for e in finder.find_experts(need, top_k=TOP_K)
    ]


def _object_matches(finder: ExpertFinder, needs: Sequence[str]) -> bool:
    """The object engine ranks *needs* byte-identically to the columnar
    path the server uses."""
    fast = [json.dumps(_expected(finder, need)) for need in needs]
    finder.engine = "object"
    try:
        slow = [json.dumps(_expected(finder, need)) for need in needs]
    finally:
        finder.engine = "columnar"
    return fast == slow


def _references(
    finder: ExpertFinder, needs: list[str], spare_cpu: int | None
) -> dict[str, list[tuple]]:
    """Reference rankings of *needs*, half of them computed in a forked
    child on *spare_cpu* when there is one (the server has stopped)."""
    if spare_cpu is None or len(needs) < 64:
        return {need: _expected(finder, need) for need in needs}
    half = len(needs) // 2
    read_end, write_end = os.pipe()
    # the benchmark process runs no threads here, so forking is safe
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            os.sched_setaffinity(0, {spare_cpu})
            out = json.dumps([_expected(finder, need) for need in needs[half:]])
            with os.fdopen(write_end, "w") as pipe:
                pipe.write(out)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    mine = [_expected(finder, need) for need in needs[:half]]
    with os.fdopen(read_end) as pipe:
        theirs = json.loads(pipe.read())
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("reference worker failed")
    rankings = mine + [[tuple(row) for row in ranking] for ranking in theirs]
    return dict(zip(needs, rankings))


@dataclass
class Verdict:
    """Per-request correctness of one run's outcomes."""

    #: index into the outcome list → answer correct
    ok: list[bool]
    #: the object-oracle and in-process replay checks all passed
    oracle_ok: bool
    #: segment counters of the in-process replay (ingest-mix only)
    segments: dict[str, int]


def check_read_only(
    finder: ExpertFinder,
    calls: Sequence[Call],
    outcomes: Sequence[Outcome],
    seed: int,
    spare_cpu: int | None,
) -> Verdict:
    """hot-needs and distinct-needs: every answer equals the in-process
    reference, and a seeded few needs rank the same on the object path."""
    needs = sorted({call.payload["need"] for call in calls})  # type: ignore[index]
    reference = _references(finder, needs, spare_cpu)
    ok = [
        out.status == 200 and _ranking(out.body["experts"]) == reference[call.payload["need"]]  # type: ignore[index]
        for call, out in zip(calls, outcomes)
    ]
    oracle_ok = _object_matches(
        finder, random.Random(seed).sample(needs, min(ORACLE_NEEDS, len(needs)))
    )
    return Verdict(ok, oracle_ok, {})


def _observe(finder: ExpertFinder, call: Call) -> bool:
    payload = call.payload
    assert payload is not None
    return finder.observe(
        payload["node_id"],
        payload["text"],
        [tuple(row) for row in payload["supporters"]],
        language=payload.get("language"),
    )


def check_ingest(
    finder: ExpertFinder,
    calls: Sequence[Call],
    outcomes: Sequence[Outcome],
    seed: int,
) -> Verdict:
    """ingest-mix: replay the observe/query order in process. Every
    observe's ``indexed`` flag must match; every ``CHECKPOINT_EVERY``-th
    query (and the last) must match the replayed finder, and a seeded
    few of those the object engine too."""
    query_positions = [i for i, call in enumerate(calls) if call.kind == "query"]
    checkpoints = set(query_positions[CHECKPOINT_EVERY - 1 :: CHECKPOINT_EVERY])
    checkpoints.add(query_positions[-1])
    oracle_at = set(
        random.Random(seed).sample(sorted(checkpoints), min(3, len(checkpoints)))
    )
    ok: list[bool] = []
    oracle_ok = True
    for i, (call, out) in enumerate(zip(calls, outcomes)):
        if out.status != 200:
            ok.append(False)
            if call.kind == "observe":
                _observe(finder, call)
            continue
        if call.kind == "observe":
            ok.append(out.body["indexed"] == _observe(finder, call))  # type: ignore[index]
        elif i in checkpoints:
            need = call.payload["need"]  # type: ignore[index]
            ok.append(_ranking(out.body["experts"]) == _expected(finder, need))  # type: ignore[index]
            if i in oracle_at:
                oracle_ok = oracle_ok and _object_matches(finder, [need])
        else:
            ok.append(True)
    stats = finder.index_stats
    assert stats is not None
    counters = {"seals": stats.seals, "compactions": stats.compactions, "live": stats.segments}
    return Verdict(ok, oracle_ok, counters)
