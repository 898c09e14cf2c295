"""Reading the program's own trace: spans, self time, queue-wait pairing.

The traced pass records spans with :mod:`repro.trace`; these helpers work
on the plain event attributes (``seq``, ``tick_ns``, ``kind``, ``name``,
``span``, ``parent``, ``fields``) so they can be tested on hand-built
events.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from common import percentile_or_zero, share


@dataclass
class SpanRecord:
    """One closed span: its interval, start fields and end fields."""

    span_id: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int
    fields: dict
    end_fields: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def closed_spans(events) -> list[SpanRecord]:
    """Every span whose start and end are both in ``events``, with children
    linked (a span whose parent is missing is a root)."""
    starts = {}
    spans = []
    for event in events:
        if event.kind == "span_start":
            starts[event.span] = event
        elif event.kind == "span_end" and event.span in starts:
            start = starts[event.span]
            spans.append(SpanRecord(
                span_id=event.span,
                name=event.name,
                parent=start.parent,
                start_ns=start.tick_ns,
                end_ns=event.tick_ns,
                fields=dict(start.fields or {}),
                end_fields=dict(event.fields or {}),
            ))
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.parent in by_id:
            by_id[span.parent].children.append(span)
    return spans


def self_time_ns(span: SpanRecord) -> int:
    """The span's duration minus the part of it its children cover."""
    intervals = sorted(
        (max(child.start_ns, span.start_ns), min(child.end_ns, span.end_ns))
        for child in span.children
    )
    covered = 0
    cursor = span.start_ns
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration_ns - covered


def pair_queue_waits(admits, executes) -> list[int]:
    """Queue waits in ns, pairing admit events with execute span starts.

    ``admits`` and ``executes`` are ``(tenant, method, tick_ns)`` triples.
    Per (tenant, method), the earliest unpaired admit at or before an
    execute start is its request; admits that never reach an executor
    (memo hits, coalesced waiters, ``cache.stats``) stay unpaired.
    """
    pending: dict[tuple, deque] = defaultdict(deque)
    for tenant, method, tick in sorted(admits, key=lambda a: a[2]):
        pending[(tenant, method)].append(tick)
    waits = []
    for tenant, method, tick in sorted(executes, key=lambda e: e[2]):
        queue = pending.get((tenant, method))
        # An admit recorded after this execute cannot be its request.
        if queue and queue[0] <= tick:
            waits.append(tick - queue.popleft())
    return waits


def worker_events(events) -> list:
    """The events a forked pool worker recorded itself.

    A forked worker starts with a copy of its parent's ring, so its trace
    file repeats the parent's events up to the fork.  The worker's own
    numbering continues from there, and its first own span is a
    ``parmap.shard``: everything from that sequence number on is its own.
    """
    firsts = [
        e.seq for e in events
        if e.kind == "span_start" and e.name == "parmap.shard"
    ]
    if not firsts:
        return []
    first = min(firsts)
    return [e for e in events if e.seq >= first]


def ring_drops(events) -> int:
    """Events a flushed ring lost to overflow (its sequence has a gap at
    the front; a ring that never overflowed starts at sequence 0)."""
    if not events:
        return 0
    return max(e.seq for e in events) + 1 - len(events)


def comm_layers(spans, events, counters: dict) -> dict:
    """The agent/channel/ARQ layer metrics of a set of spans and events."""
    runs = [s for s in spans if s.name == "protocol.run"]
    arq = {"arq.retransmit": 0, "arq.timeout": 0, "arq.crc_failure": 0}
    for event in events:
        if event.kind == "event" and event.name in arq:
            arq[event.name] += 1
    layers = {
        "protocol.run_ms.p50": percentile_or_zero(
            [self_time_ns(s) / 1e6 for s in runs], 50),
        "protocol.runs": len(runs),
        "channel.wire_bits": counters.get("channel.wire_bits", 0),
    }
    layers.update(arq)
    return layers


def exhaustive_layers(spans, counters: dict) -> dict:
    """The exact-search layer metrics: per-call span times and counters."""
    layers = {}
    for call in ("communication_complexity", "partition_number"):
        times = [s.duration_ns / 1e6 for s in spans
                 if s.name == f"exhaustive.{call}"]
        layers[f"exhaustive.{call}_ms.p50"] = percentile_or_zero(times, 50)
        layers[f"exhaustive.{call}_ms.p99"] = percentile_or_zero(times, 99)
    for name in ("subproblems", "pruned", "search_cache.hits",
                 "search_cache.misses"):
        layers[f"exhaustive.{name}"] = counters.get(f"exhaustive.{name}", 0)
    hits = layers["exhaustive.search_cache.hits"]
    layers["exhaustive.search_cache.hit_share"] = share(
        hits, hits + layers["exhaustive.search_cache.misses"])
    return layers
