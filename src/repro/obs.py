"""Lightweight observability: named counters and wall-clock timers.

The performance work (vectorized mod-p kernels, parallel sweeps) needs
numbers, not vibes: how many span-membership checks were answered by the
cheap mod-p filter, how many DP subrectangles the exact search actually
solved, how many bits crossed the wire.  This module is the one registry
those numbers flow through:

    from repro import obs

    obs.counter("truth_builder.span_cache_hit").inc()
    with obs.time_block("bench.modnp"):
        ...expensive work...
    print(obs.snapshot())

Design constraints:

* **zero overhead when idle** — a counter increment is a dict lookup and an
  integer add; timers use ``perf_counter``; nothing is ever written unless
  :func:`snapshot` is called;
* **process-local** — :func:`repro.util.parallel.parmap` workers each get
  their own registry; callers that care about worker-side counts must fold
  them into the task's return value by hand;
* **test-friendly** — :func:`reset` restores a clean slate, and
  :func:`scoped` gives a context manager that isolates a block's counts.

Everything hangs off a module-level default :class:`Registry`; passing an
explicit registry is supported for isolation but rarely needed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from threading import Lock


class Counter:
    """A named monotone counter (resettable only through its registry)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Timer:
    """Accumulated wall-clock time over any number of timed blocks."""

    __slots__ = ("name", "total_seconds", "calls")

    def __init__(self, name: str):
        self.name = name
        self.total_seconds = 0.0
        self.calls = 0

    def observe(self, seconds: float) -> None:
        """Fold one timed block into the total."""
        self.total_seconds += seconds
        self.calls += 1

    def __repr__(self) -> str:
        return f"Timer({self.name}={self.total_seconds:.6f}s/{self.calls})"


class Registry:
    """A namespace of counters and timers, snapshot-able and resettable."""

    def __init__(self):
        self._lock = Lock()
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}

    # ------------------------------------------------------------------
    # Access (creating on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created at 0 on first use."""
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def timer(self, name: str) -> Timer:
        """The timer named ``name``, created empty on first use."""
        t = self._timers.get(name)
        if t is None:
            with self._lock:
                t = self._timers.setdefault(name, Timer(name))
        return t

    @contextmanager
    def time_block(self, name: str):
        """Context manager accumulating the block's wall time under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timer(name).observe(time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Inspection and lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All current values, JSON-ready.

        ``{"counters": {name: int}, "timers": {name: {"seconds": float,
        "calls": int}}}`` — sorted keys so diffs are stable.
        """
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in sorted(self._counters.items())
                },
                "timers": {
                    name: {"seconds": t.total_seconds, "calls": t.calls}
                    for name, t in sorted(self._timers.items())
                },
            }

    def reset(self) -> None:
        """Forget every counter and timer."""
        with self._lock:
            self._counters.clear()
            self._timers.clear()


#: The process-wide default registry; the module-level helpers below use it.
REGISTRY = Registry()


def counter(name: str) -> Counter:
    """``REGISTRY.counter(name)``."""
    return REGISTRY.counter(name)


def timer(name: str) -> Timer:
    """``REGISTRY.timer(name)``."""
    return REGISTRY.timer(name)


def time_block(name: str):
    """``REGISTRY.time_block(name)``."""
    return REGISTRY.time_block(name)


def snapshot() -> dict:
    """``REGISTRY.snapshot()``."""
    return REGISTRY.snapshot()


def reset() -> None:
    """``REGISTRY.reset()``."""
    REGISTRY.reset()


@contextmanager
def scoped():
    """Run a block against a fresh default registry, then restore.

    For tests that need isolated counts:

    >>> with scoped() as reg:
    ...     counter("x").inc()
    ...     reg.snapshot()["counters"]["x"]
    1
    """
    global REGISTRY
    saved = REGISTRY
    REGISTRY = Registry()
    try:
        yield REGISTRY
    finally:
        REGISTRY = saved
