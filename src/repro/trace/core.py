"""Hierarchical spans and typed events on top of :mod:`repro.obs`.

``repro.obs`` answers *how many* — flat counters and timers.  This module
answers *where*: a :class:`Tracer` records a tree of **spans** (named,
nested intervals measured on a monotonic nanosecond clock) and point
**events** (a Send on the wire, an ARQ retransmission, an
iterative-deepening step), each attributed to the span that was open when
it happened.  A Yao protocol's transcript *is* its trace — the ``wire.send``
events recorded under one ``protocol.run`` span carry every payload bit,
so :mod:`repro.trace.replay` can rebuild the transcript and re-derive the
leaf the protocol reached, cross-checking the live ``RunReport``.

Design constraints, in priority order:

* **free when off** — every instrumentation site calls
  :func:`active_tracer` first, which is one lock-free global read when no
  tracer is installed; tier-1 timings must not move;
* **bounded** — events live in a ring buffer (``collections.deque`` with
  ``maxlen``); overflow drops the *oldest* events and counts them in
  :attr:`Tracer.dropped` rather than growing without bound;
* **deterministic bytes** — exported JSONL is canonical (sorted keys,
  compact separators) and written with the same pid+tid-unique temporary
  file + ``os.replace`` discipline as :mod:`repro.cache.store`, so two
  processes never interleave torn lines;
* **DET-clean** — the one wall-clock read lives in :func:`_now_ns` behind
  a documented pragma; ticks are observability payload only and never
  feed a Send, an encoder, or a seed.

Activation mirrors the cache API: explicit :func:`configure` beats the
``REPRO_TRACE_DIR`` environment variable; :func:`capture` scopes an
in-memory tracer for tests and the replay tour.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from threading import Lock

from repro import obs

#: JSONL export schema version; bump on any incompatible field change.
SCHEMA_VERSION = 1

#: Environment variable that ambiently activates a JSONL sink directory.
ENV_VAR = "REPRO_TRACE_DIR"

#: Default ring-buffer capacity (events retained per tracer).
DEFAULT_CAPACITY = 65536

#: The three event kinds a tracer records.
EVENT_KINDS = ("span_start", "span_end", "event")


def _now_ns() -> int:
    """Monotonic nanosecond tick for span durations.

    This is the *only* clock read in the trace layer.  Ticks are
    observability payload: they decorate spans and events but never feed a
    Send, a codec, or a seed, so determinism of protocol behaviour is
    untouched (the DET203 rule bans ambient clock reads in this scope
    precisely so that this one documented exception stays the only one).
    """
    return time.perf_counter_ns()  # repro-lint: disable=DET203


class TraceEvent:
    """One recorded fact: a span boundary or a point event.

    Attributes mirror the JSONL schema v1 exactly:

    ``seq``
        Process-unique monotone sequence number (also the span id for
        ``span_start`` events).
    ``tick_ns``
        Monotonic nanosecond tick from :func:`_now_ns`.
    ``kind``
        One of :data:`EVENT_KINDS`.
    ``name``
        Dotted event name (``protocol.run``, ``wire.send``, ...).
    ``span``
        For span boundaries: the span's own id.  For point events: the id
        of the innermost open span, or None at top level.
    ``parent``
        For span boundaries: the enclosing span id or None.  Always None
        for point events (their ``span`` field is the attribution).
    ``fields``
        JSON-ready payload dict (bit strings, counts, counter deltas).
    """

    __slots__ = ("seq", "tick_ns", "kind", "name", "span", "parent", "fields")

    def __init__(self, seq, tick_ns, kind, name, span, parent, fields):
        self.seq = seq
        self.tick_ns = tick_ns
        self.kind = kind
        self.name = name
        self.span = span
        self.parent = parent
        self.fields = fields

    def as_dict(self) -> dict:
        """JSON-ready dict with every schema-v1 field present."""
        return {
            "seq": self.seq,
            "tick_ns": self.tick_ns,
            "kind": self.kind,
            "name": self.name,
            "span": self.span,
            "parent": self.parent,
            "fields": self.fields,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TraceEvent":
        """Inverse of :meth:`as_dict` (used by the JSONL loader)."""
        return cls(
            raw["seq"],
            raw["tick_ns"],
            raw["kind"],
            raw["name"],
            raw.get("span"),
            raw.get("parent"),
            raw.get("fields", {}),
        )

    def __repr__(self) -> str:
        return f"TraceEvent({self.seq}, {self.kind}, {self.name!r})"


def encode_event(event: TraceEvent) -> str:
    """Canonical JSONL line for one event (sorted keys, compact, newline).

    Iterating sorted keys — never raw dict order — keeps exported bytes
    identical across processes, the same contract as
    :func:`repro.cache.store.encode_record`.
    """
    return (
        json.dumps(event.as_dict(), sort_keys=True, separators=(",", ":"))
        + "\n"
    )


def decode_event(line: str) -> TraceEvent | None:
    """Parse one JSONL line; None for malformed content."""
    try:
        raw = json.loads(line)
    except (ValueError, TypeError):
        return None
    if not isinstance(raw, dict) or raw.get("kind") not in EVENT_KINDS:
        return None
    try:
        return TraceEvent.from_dict(raw)
    except KeyError:
        return None


class Span:
    """A named interval, used as a context manager.

    On entry it records a ``span_start`` event and snapshots the obs
    counter registry; on exit it records ``span_end`` carrying
    ``duration_ns`` plus the per-span **counter deltas** (only counters
    whose value changed inside the span, sorted by name).
    """

    __slots__ = ("tracer", "name", "fields", "span_id", "_start_ns",
                 "_counters0", "_extra")

    def __init__(self, tracer: "Tracer", name: str, fields: dict):
        self.tracer = tracer
        self.name = name
        self.fields = fields
        self.span_id = None
        self._start_ns = 0
        self._counters0 = {}
        self._extra: dict = {}

    def __enter__(self) -> "Span":
        self._counters0 = obs.snapshot()["counters"]
        self.span_id = self.tracer._open_span(self.name, self.fields)
        self._start_ns = _now_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = _now_ns() - self._start_ns
        counters1 = obs.snapshot()["counters"]
        deltas = {}
        for cname in sorted(counters1):
            diff = counters1[cname] - self._counters0.get(cname, 0)
            if diff:
                deltas[cname] = diff
        fields = dict(self._extra)
        fields["duration_ns"] = duration
        if deltas:
            fields["counters"] = deltas
        if exc_type is not None:
            fields["error"] = exc_type.__name__
        self.tracer._close_span(self.name, self.span_id, fields)

    def annotate(self, **fields) -> None:
        """Attach extra fields to this span's eventual ``span_end`` event."""
        self._extra.update(fields)


class Tracer:
    """A bounded in-memory event ring with an optional JSONL sink.

    Thread-safe: a single lock guards the sequence counter, the ring and
    the span stack.  The span stack is per-tracer (protocol execution is
    single-threaded; parallel sweeps get a tracer per worker process).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, sink_dir=None,
                 label: str = "trace"):
        self.capacity = int(capacity)
        self.sink_dir = Path(sink_dir) if sink_dir is not None else None
        self.label = str(label)
        self.dropped = 0
        self._events: deque[TraceEvent] = deque(maxlen=self.capacity)
        self._seq = 0
        self._stack: list[int] = []
        self._lock = Lock()

    # -- recording ------------------------------------------------------
    def _record(self, kind, name, span, parent, fields,
                span_is_seq: bool = False) -> int:
        tick = _now_ns()
        with self._lock:
            seq = self._seq
            self._seq += 1
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(
                TraceEvent(
                    seq, tick, kind, name,
                    seq if span_is_seq else span, parent, fields,
                )
            )
            return seq

    def _open_span(self, name, fields) -> int:
        with self._lock:
            parent = self._stack[-1] if self._stack else None
        # span id IS the start event's seq.
        seq = self._record("span_start", name, None, parent, fields,
                           span_is_seq=True)
        with self._lock:
            self._stack.append(seq)
        return seq

    def _close_span(self, name, span_id, fields) -> None:
        with self._lock:
            parent = None
            if self._stack and self._stack[-1] == span_id:
                self._stack.pop()
                parent = self._stack[-1] if self._stack else None
        self._record("span_end", name, span_id, parent, fields)

    def span(self, name: str, **fields) -> Span:
        """A context manager recording ``name`` as a child of the current
        span, with ``fields`` attached to its ``span_start`` event."""
        return Span(self, name, fields)

    def event(self, name: str, **fields) -> None:
        """Record a point event under the innermost open span."""
        with self._lock:
            span = self._stack[-1] if self._stack else None
        self._record("event", name, span, None, fields)

    # -- inspection -----------------------------------------------------
    def events(self) -> list[TraceEvent]:
        """A snapshot copy of the ring, oldest first."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # -- persistence ----------------------------------------------------
    def default_sink_path(self) -> Path | None:
        """Where :meth:`flush` writes when not given a path, or None."""
        if self.sink_dir is None:
            return None
        return self.sink_dir / f"{self.label}-{os.getpid()}.jsonl"

    def flush(self, path=None) -> Path | None:
        """Write the ring as canonical JSONL, atomically; returns the path.

        With no ``path`` and no sink directory this is a no-op returning
        None.  The write goes through a pid+tid-unique temporary file and
        ``os.replace`` — the :mod:`repro.cache.store` discipline — so a
        reader never sees a torn file.
        """
        if path is None:
            path = self.default_sink_path()
            if path is None:
                return None
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [encode_event(ev) for ev in self.events()]
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text("".join(lines))
        os.replace(tmp, path)
        obs.counter("trace.flushes").inc()
        return path


def load_jsonl(path) -> list[TraceEvent]:
    """Read a flushed trace file back into events (malformed lines skipped)."""
    events = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        event = decode_event(line)
        if event is not None:
            events.append(event)
    return events


# ---------------------------------------------------------------------------
# Active-tracer resolution: explicit configure() beats the environment.
# ---------------------------------------------------------------------------

_LOCK = Lock()
_CONFIGURED: Tracer | None = None
_CONFIGURED_SET = False
_ENV_TRACERS: dict[str, Tracer] = {}
_ATEXIT_REGISTERED = False


def _register_atexit(tracer: Tracer) -> None:
    """Flush env-activated tracers at interpreter exit (idempotent)."""
    global _ATEXIT_REGISTERED
    if _ATEXIT_REGISTERED:
        return
    _ATEXIT_REGISTERED = True
    atexit.register(_flush_env_tracers)


def _flush_env_tracers() -> None:
    with _LOCK:
        tracers = list(_ENV_TRACERS.values())
    for tracer in tracers:
        if len(tracer):
            tracer.flush()


def configure(path, capacity: int = DEFAULT_CAPACITY,
              label: str = "trace") -> Tracer | None:
    """Pin the process-wide tracer to a JSONL sink under ``path`` (None
    disables tracing even when ``REPRO_TRACE_DIR`` is set).  Returns the
    active tracer."""
    global _CONFIGURED, _CONFIGURED_SET
    tracer = (
        Tracer(capacity=capacity, sink_dir=path, label=label)
        if path is not None
        else None
    )
    with _LOCK:
        _CONFIGURED = tracer
        _CONFIGURED_SET = True
    return tracer


def unconfigure() -> None:
    """Drop any explicit configuration; the environment rules again."""
    global _CONFIGURED, _CONFIGURED_SET
    with _LOCK:
        _CONFIGURED = None
        _CONFIGURED_SET = False


def active_tracer() -> Tracer | None:
    """The tracer every instrumentation site consults, or None.

    This is the no-op fast path: with no explicit configuration and no
    ``REPRO_TRACE_DIR``, the common case is two global reads and an
    environment lookup — no allocation and no lock (the unlocked reads are
    benign: at worst one event lands on the just-replaced tracer during a
    concurrent reconfigure).
    """
    if _CONFIGURED_SET:
        return _CONFIGURED
    env = os.environ.get(ENV_VAR)
    if env is None or not env.strip():
        return None
    path = env.strip()
    with _LOCK:
        tracer = _ENV_TRACERS.get(path)
    if tracer is None:
        tracer = Tracer(sink_dir=path)
        with _LOCK:
            tracer = _ENV_TRACERS.setdefault(path, tracer)
        _register_atexit(tracer)
    return tracer


@contextmanager
def capture(capacity: int = DEFAULT_CAPACITY):
    """Scoped in-memory tracer: activate, yield it, restore the previous
    resolution state.  The workhorse of the trace tests and examples."""
    global _CONFIGURED, _CONFIGURED_SET
    with _LOCK:
        saved = (_CONFIGURED, _CONFIGURED_SET)
    tracer = Tracer(capacity=capacity)
    with _LOCK:
        _CONFIGURED = tracer
        _CONFIGURED_SET = True
    try:
        yield tracer
    finally:
        _restore(saved)


@contextmanager
def directory(path, capacity: int = DEFAULT_CAPACITY, label: str = "trace"):
    """Scoped :func:`configure`: trace into a JSONL sink under ``path``,
    flush on exit, restore the previous resolution state afterwards."""
    with _LOCK:
        saved = (_CONFIGURED, _CONFIGURED_SET)
    tracer = configure(path, capacity=capacity, label=label)
    try:
        yield tracer
    finally:
        if tracer is not None and len(tracer):
            tracer.flush()
        _restore(saved)


@contextmanager
def disabled():
    """Scoped off-switch: no tracing inside the block (for timing code
    whose instrumented timings must never pay trace overhead)."""
    with _LOCK:
        saved = (_CONFIGURED, _CONFIGURED_SET)
    configure(None)
    try:
        yield
    finally:
        _restore(saved)


def _restore(saved) -> None:
    global _CONFIGURED, _CONFIGURED_SET
    with _LOCK:
        _CONFIGURED, _CONFIGURED_SET = saved


# ---------------------------------------------------------------------------
# Module-level instrumentation helpers (the only API hot paths call).
# ---------------------------------------------------------------------------

@contextmanager
def span(name: str, **fields):
    """Open ``name`` as a span on the active tracer; no-op when tracing is
    off.  Yields the :class:`Span` (or None when disabled)."""
    tracer = active_tracer()
    if tracer is None:
        yield None
        return
    with tracer.span(name, **fields) as s:
        yield s


def event(name: str, **fields) -> None:
    """Record a point event on the active tracer; no-op when tracing is off."""
    tracer = active_tracer()
    if tracer is not None:
        tracer.event(name, **fields)
