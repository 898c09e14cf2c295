"""Transcript replay: rebuild a protocol run from its trace, then check it.

A traced run records two independent views of the same execution:

* the **wire view** — one ``wire.send`` event per channel send, carrying
  the sender, the round number, the bit cost and the payload bits
  themselves;
* the **runtime view** — one ``run.report`` event emitted by
  :func:`repro.comm.agents.run_protocol` / ``run_supervised`` with the
  outcome, total bits, round count and the transcript leaf
  (:meth:`Transcript.as_bit_string`).

Replay reconstructs a :class:`~repro.comm.channel.Transcript` from the
wire view alone and cross-checks it against the runtime view: the leaf
must match bit-for-bit, the bit and round totals must agree.  For a
protocol-tree execution the concatenated transcript bits *are* the leaf
of the tree the run reached (Yao's model — the conversation determines
the rectangle), so agreement here means the recorded trace is a faithful,
replayable artifact of the run, not a lossy log.

Events are attributed to runs by walking span parents up to the nearest
``protocol.run`` span, so traces containing many runs (a matrix sweep, a
bench suite) replay cleanly run by run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.trace.core import TraceEvent

if TYPE_CHECKING:  # pragma: no cover — type-only; see the runtime import
    from repro.comm.channel import Transcript

# NOTE: repro.comm.channel imports repro.trace.core (to emit wire events),
# and this package's __init__ imports this module — so the comm import here
# must be deferred to call time to break the cycle.  By the time anyone
# replays a trace, repro.comm is importable.

#: Span name marking one protocol execution.
RUN_SPAN = "protocol.run"

_BIT_STRING = re.compile("[01]*")


@dataclass(frozen=True)
class ReplayResult:
    """One run, rebuilt from its ``wire.send`` events.

    Attributes:
        run_id: the span id of the ``protocol.run`` span.
        runner: which entry point ran it (``run_protocol``/``run_supervised``).
        transcript: the reconstructed transcript.
        report: the ``run.report`` fields recorded live (empty dict when
            the report event is missing, e.g. truncated by the ring).
        problems: cross-check mismatches (empty = replay verified).
    """

    run_id: int
    runner: str
    transcript: Transcript
    report: dict = field(default_factory=dict)
    problems: tuple[str, ...] = ()

    @property
    def leaf(self) -> str:
        """The reconstructed transcript leaf (concatenated bit string)."""
        return self.transcript.as_bit_string()

    @property
    def verified(self) -> bool:
        """True iff a live report exists and every cross-check passed."""
        return bool(self.report) and not self.problems


def _span_index(events: list[TraceEvent]) -> tuple[dict, dict]:
    """Maps span id -> (name, parent) and span id -> nearest run span id."""
    meta: dict[int, tuple[str, int | None]] = {}
    for ev in events:
        if ev.kind == "span_start":
            meta[ev.span] = (ev.name, ev.parent)

    run_of: dict[int, int | None] = {}

    def resolve(span_id: int | None) -> int | None:
        if span_id is None:
            return None
        if span_id in run_of:
            return run_of[span_id]
        name, parent = meta.get(span_id, ("", None))
        run_of[span_id] = span_id if name == RUN_SPAN else resolve(parent)
        return run_of[span_id]

    for span_id in meta:
        resolve(span_id)
    return meta, run_of


def replay_all(events: list[TraceEvent]) -> list[ReplayResult]:
    """Rebuild and cross-check every ``protocol.run`` in a trace, in order."""
    _meta, run_of = _span_index(events)
    run_ids = [
        ev.span
        for ev in events
        if ev.kind == "span_start" and ev.name == RUN_SPAN
    ]
    wires: dict[int, list[TraceEvent]] = {rid: [] for rid in run_ids}
    reports: dict[int, dict] = {}
    runners: dict[int, str] = {}
    for ev in events:
        if ev.kind == "span_start" and ev.name == RUN_SPAN:
            runners[ev.span] = ev.fields.get("runner", "")
            continue
        if ev.kind != "event":
            continue
        rid = run_of.get(ev.span) if ev.span is not None else None
        if rid is None or rid not in wires:
            continue
        if ev.name == "wire.send":
            wires[rid].append(ev)
        elif ev.name == "run.report":
            reports[rid] = dict(ev.fields)
    return [
        _replay_one(rid, runners.get(rid, ""), wires[rid], reports.get(rid))
        for rid in run_ids
    ]


def _replay_one(run_id, runner, wire_events, report) -> ReplayResult:
    """Reconstruct one transcript and diff it against its live report."""
    from repro.comm.channel import Message, Transcript

    transcript = Transcript()
    problems: list[str] = []
    for ev in sorted(wire_events, key=lambda e: e.seq):
        payload = ev.fields.get("payload", "")
        agent = ev.fields.get("agent", 0)
        # A trace file is outside input: a damaged event is a problem to
        # report, never a crash.
        if not isinstance(payload, str) or not _BIT_STRING.fullmatch(payload):
            problems.append(
                f"wire.send seq={ev.seq}: payload {payload!r} is not a bit string"
            )
            continue
        if agent not in (0, 1):
            problems.append(f"wire.send seq={ev.seq}: sender {agent!r} is not 0 or 1")
            continue
        width = len(payload)
        if width != ev.fields.get("bits", width):
            problems.append(
                f"wire.send seq={ev.seq}: payload length {width} "
                f"!= recorded bit cost {ev.fields.get('bits')}"
            )
        value = int(payload[::-1], 2) if payload else 0
        transcript.append(Message(agent, value, width))
    if report is None:
        return ReplayResult(
            run_id, runner, transcript, {}, tuple(problems)
        )
    if transcript.as_bit_string() != report.get("leaf"):
        problems.append(
            f"leaf mismatch: replayed {transcript.as_bit_string()!r} "
            f"vs reported {report.get('leaf')!r}"
        )
    if transcript.total_bits != report.get("bits"):
        problems.append(
            f"bit-count mismatch: replayed {transcript.total_bits} "
            f"vs reported {report.get('bits')}"
        )
    if transcript.rounds != report.get("rounds"):
        problems.append(
            f"round-count mismatch: replayed {transcript.rounds} "
            f"vs reported {report.get('rounds')}"
        )
    return ReplayResult(run_id, runner, transcript, report, tuple(problems))


def render_replay(results: list[ReplayResult]) -> str:
    """Human-readable replay report for ``python -m repro trace replay``."""
    lines = [f"{len(results)} protocol run(s) in trace"]
    for res in results:
        status = "VERIFIED" if res.verified else (
            "UNREPORTED" if not res.report else "MISMATCH"
        )
        outcome = res.report.get("outcome", "?")
        lines.append(
            f"run {res.run_id} [{res.runner or '?'}] outcome={outcome} "
            f"bits={res.transcript.total_bits} "
            f"rounds={res.transcript.rounds} -> {status}"
        )
        for problem in res.problems:
            lines.append(f"  ! {problem}")
    verified = sum(1 for r in results if r.verified)
    lines.append(f"{verified}/{len(results)} runs verified bit-for-bit")
    return "\n".join(lines)
