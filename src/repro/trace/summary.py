"""Aggregation over a recorded trace: the ``repro trace summary`` engine.

A trace is a flat event list; this module folds it back into the span
tree and answers the questions the ISSUE's acceptance criteria pin down:

* **per-name span statistics** — calls, total and self (exclusive) time,
  aggregated obs-counter deltas;
* **wall-time coverage** — the fraction of the trace's wall interval
  (first tick to last tick) covered by the union of *top-level* span
  intervals.  A well-instrumented run (e.g. a traced E15 search) must
  attribute >= 95% of its wall time to named spans;
* **event histograms** — how many ``wire.send``, ``arq.retransmit``,
  ``exhaustive.deepen``... events fired;
* **fault attribution** — per-fault-kind injected/retry totals, folded
  from the faulted ``matrix.cell`` events of a scenario-matrix sweep
  (one fault kind per cell, emitted in the parent after parmap workers
  return, so no count is lost at the process boundary).

Everything here consumes plain :class:`repro.trace.core.TraceEvent`
objects — live from :meth:`Tracer.events` or loaded from a JSONL file —
and produces JSON-ready dicts with sorted keys.
"""

from __future__ import annotations

from repro.trace.core import SCHEMA_VERSION, TraceEvent


def _span_records(events: list[TraceEvent]) -> dict[int, dict]:
    """Collate span_start/span_end pairs into one record per span id."""
    spans: dict[int, dict] = {}
    for ev in events:
        if ev.kind == "span_start":
            spans[ev.span] = {
                "id": ev.span,
                "name": ev.name,
                "parent": ev.parent,
                "start_ns": ev.tick_ns,
                "end_ns": None,
                "duration_ns": None,
                "fields": dict(ev.fields),
                "counters": {},
            }
        elif ev.kind == "span_end":
            rec = spans.get(ev.span)
            if rec is None:
                # start fell off the ring buffer; synthesize what we can.
                rec = spans[ev.span] = {
                    "id": ev.span,
                    "name": ev.name,
                    "parent": ev.parent,
                    "start_ns": None,
                    "end_ns": None,
                    "duration_ns": None,
                    "fields": {},
                    "counters": {},
                }
            rec["end_ns"] = ev.tick_ns
            rec["duration_ns"] = ev.fields.get("duration_ns")
            rec["counters"] = dict(ev.fields.get("counters", {}))
            for key, value in ev.fields.items():
                if key not in ("duration_ns", "counters"):
                    rec["fields"][key] = value
    return spans


def _union_length(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of [start, end] intervals."""
    covered = 0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            covered += end - start
            last_end = end
        elif end > last_end:
            covered += end - last_end
            last_end = end
    return covered


def summarize(events: list[TraceEvent], dropped: int = 0) -> dict:
    """Fold a trace into the JSON-ready summary dict (schema-stable).

    Keys: ``schema``, ``events``, ``dropped``, ``wall_ns``,
    ``coverage`` (0..1 float, union of top-level spans over the wall
    interval), ``spans`` (per-name calls/total_ns/self_ns/counters),
    ``event_counts`` (per-name point-event histogram), ``counters``
    (deltas aggregated over top-level spans), and ``faults_by_kind``
    (per-kind injected/retry totals, present when faulted matrix cells
    appear in the trace).
    """
    spans = _span_records(events)

    # Self time: duration minus the sum of direct children's durations.
    child_time: dict[int, int] = {}
    for rec in spans.values():
        parent = rec["parent"]
        if parent is not None and rec["duration_ns"] is not None:
            child_time[parent] = child_time.get(parent, 0) + rec["duration_ns"]

    by_name: dict[str, dict] = {}
    for rec in spans.values():
        agg = by_name.setdefault(
            rec["name"],
            {"calls": 0, "total_ns": 0, "self_ns": 0, "counters": {}},
        )
        agg["calls"] += 1
        if rec["duration_ns"] is not None:
            agg["total_ns"] += rec["duration_ns"]
            agg["self_ns"] += max(
                0, rec["duration_ns"] - child_time.get(rec["id"], 0)
            )
        for cname in sorted(rec["counters"]):
            agg["counters"][cname] = (
                agg["counters"].get(cname, 0) + rec["counters"][cname]
            )

    # Wall interval and top-level coverage.
    ticks = [ev.tick_ns for ev in events]
    wall_ns = (max(ticks) - min(ticks)) if len(ticks) > 1 else 0
    top_intervals = [
        (rec["start_ns"], rec["end_ns"])
        for rec in spans.values()
        if rec["parent"] is None
        and rec["start_ns"] is not None
        and rec["end_ns"] is not None
    ]
    coverage = (_union_length(top_intervals) / wall_ns) if wall_ns else 0.0

    # Counter deltas aggregated over top-level spans only (children's
    # deltas are already included in their ancestors').
    counters: dict[str, int] = {}
    for rec in spans.values():
        if rec["parent"] is None:
            for cname in sorted(rec["counters"]):
                counters[cname] = (
                    counters.get(cname, 0) + rec["counters"][cname]
                )

    event_counts: dict[str, int] = {}
    faults_by_kind: dict[str, dict] = {}
    for ev in events:
        if ev.kind != "event":
            continue
        event_counts[ev.name] = event_counts.get(ev.name, 0) + 1
        if ev.name == "matrix.cell" and ev.fields.get("kind"):
            bucket = faults_by_kind.setdefault(
                ev.fields["kind"], {"injected": 0, "retries": 0}
            )
            bucket["injected"] += ev.fields["faults_injected"]
            bucket["retries"] += ev.fields["retries"]

    summary = {
        "schema": SCHEMA_VERSION,
        "events": len(events),
        "dropped": dropped,
        "wall_ns": wall_ns,
        "coverage": coverage,
        "spans": {name: by_name[name] for name in sorted(by_name)},
        "event_counts": {
            name: event_counts[name] for name in sorted(event_counts)
        },
        "counters": {name: counters[name] for name in sorted(counters)},
    }
    if faults_by_kind:
        summary["faults_by_kind"] = {
            kind: faults_by_kind[kind] for kind in sorted(faults_by_kind)
        }
    return summary


def render_summary(summary: dict) -> str:
    """Human-readable table for ``python -m repro trace summary``."""
    lines = []
    lines.append(
        f"trace summary (schema v{summary['schema']}): "
        f"{summary['events']} events, {summary['dropped']} dropped"
    )
    wall_ms = summary["wall_ns"] / 1e6
    lines.append(
        f"wall time {wall_ms:.3f} ms, "
        f"{summary['coverage'] * 100:.1f}% attributed to top-level spans"
    )
    if summary["spans"]:
        lines.append("")
        lines.append(f"{'span':<40} {'calls':>7} {'total ms':>12} {'self ms':>12}")
        for name in sorted(summary["spans"]):
            agg = summary["spans"][name]
            lines.append(
                f"{name:<40} {agg['calls']:>7} "
                f"{agg['total_ns'] / 1e6:>12.3f} {agg['self_ns'] / 1e6:>12.3f}"
            )
    if summary["event_counts"]:
        lines.append("")
        lines.append(f"{'event':<40} {'count':>7}")
        for name in sorted(summary["event_counts"]):
            lines.append(f"{name:<40} {summary['event_counts'][name]:>7}")
    if summary.get("faults_by_kind"):
        lines.append("")
        lines.append(f"{'fault kind':<16} {'injected':>9} {'retries':>9}")
        for kind in sorted(summary["faults_by_kind"]):
            bucket = summary["faults_by_kind"][kind]
            lines.append(
                f"{kind:<16} {bucket['injected']:>9} {bucket['retries']:>9}"
            )
    return "\n".join(lines)
