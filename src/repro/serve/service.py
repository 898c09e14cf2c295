"""The asyncio multi-tenant service: admission, deadlines, coalescing.

The :class:`Service` mediates between many concurrent clients and the
repository's engines, engineered for *graceful degradation*: under any
load or any input, a request terminates promptly with either a correct
result or a structured error — it is never silently dropped and never
hangs.  The control path, in request order:

1. **Decode + validate** (:mod:`repro.serve.wire`): garbled, truncated or
   schema-violating frames produce ``bad_frame``/``bad_request`` error
   responses; nothing raises past the service boundary.
2. **Admission control**: each tenant (the frame's ``tenant`` field) may
   hold at most ``max_inflight_per_tenant`` requests; beyond that the
   request is rejected with a retryable ``client_limit`` error carrying
   backoff guidance.
3. **Coalescing**: requests for the three deterministic methods are
   content-addressed with blake2b keys (``exhaustive.cc`` uses the exact
   :func:`repro.cache.keys.matrix_key` address, so the service and the
   persistent result cache agree about identity).  A key already in
   flight attaches to the running execution (``serve.coalesced``); a key
   already answered is served from the bounded result memo
   (``serve.memo_hits``) without touching the queue.
4. **Load shedding**: the work queue is bounded; a full queue rejects
   with a retryable ``overloaded`` error (the 429 analogue) whose
   ``backoff_ticks`` reflects the current backlog — the service sheds
   rather than queues unboundedly, so latency stays bounded too.
5. **Deadlines**: time is the service's logical *tick* counter, which
   advances once per executed work unit — never the wall clock (the DET
   lint rules watch this module).  A request dequeued after
   ``deadline_ticks`` ticks of other work have passed since its
   admission is answered ``deadline_exceeded`` without being executed,
   mirroring the deterministic tick-based ``Recv`` timeouts of
   :mod:`repro.comm.agents`.
6. **Budgets**: ``protocol.run`` requests are *priced before execution*
   with the exact symbolic calculus of :mod:`repro.costs` — a request
   whose predicted per-agent bit cost exceeds its bit budget is rejected
   ``budget_exceeded`` without touching an executor (clients can ask the
   same question themselves via the ``cost.estimate`` method).  Admitted
   executions run under :func:`repro.comm.agents.run_supervised` with
   per-request step/bit budgets clamped to the service's caps; a blown
   budget there still surfaces as a structured ``budget_exceeded`` error,
   exactly the supervision taxonomy's outcome.

Every stage increments ``serve.*`` counters in :mod:`repro.obs` and emits
:mod:`repro.trace` spans/events (``serve.admit`` → ``serve.coalesce`` →
``serve.execute`` → ``serve.respond``), so a request's full lifecycle is
observable and replayable.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.serve import wire
from repro.serve.wire import FrameError, Request
from repro.trace import core as trace

#: Domain separator for serve coalescing keys (non-matrix methods).
_KEY_PREFIX = b"repro-serve-v1"

#: Methods whose results are pure functions of their params — these (and
#: only these) are coalesced and memoized.
DETERMINISTIC_METHODS = (
    "protocol.run",
    "exhaustive.cc",
    "partition.search",
    "cost.estimate",
)


class HandlerError(Exception):
    """A handler rejected or failed a request with a structured verdict.

    Attributes:
        code: the :data:`repro.serve.wire.ERROR_CODES` entry to respond
            with (``bad_request``, ``too_large``, ``budget_exceeded``,
            ``execution_failed``).
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one :class:`Service` instance.

    Attributes:
        max_queue: bound on queued-not-yet-executing requests; beyond it
            requests are shed with ``overloaded``.
        max_inflight_per_tenant: per-tenant admission cap on concurrently
            held requests.
        default_deadline_ticks: deadline applied when a request names none.
        step_budget: cap on per-agent scheduler steps for ``protocol.run``
            (requests may ask for less, never more).
        bit_budget: cap on per-agent sent bits for ``protocol.run``.
        exhaustive_limit: largest truth-matrix dimension ``exhaustive.cc``
            admits (bigger inputs are rejected with ``too_large``).
        partition_bits_limit: largest ``total_bits`` for
            ``partition.search``.
        memo_capacity: bounded LRU size of the in-service result memo.
    """

    max_queue: int = 64
    max_inflight_per_tenant: int = 4
    default_deadline_ticks: int = 1024
    step_budget: int = 100_000
    bit_budget: int = 1_000_000
    exhaustive_limit: int = 8
    partition_bits_limit: int = 4
    memo_capacity: int = 512

    def __post_init__(self):
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_inflight_per_tenant < 1:
            raise ValueError("max_inflight_per_tenant must be >= 1")
        if self.default_deadline_ticks < 1:
            raise ValueError("default_deadline_ticks must be >= 1")
        if self.step_budget < 1 or self.bit_budget < 1:
            raise ValueError("budgets must be >= 1")
        if self.exhaustive_limit < 1:
            raise ValueError("exhaustive_limit must be >= 1")
        if self.partition_bits_limit < 2:
            raise ValueError("partition_bits_limit must be >= 2")
        if self.memo_capacity < 1:
            raise ValueError("memo_capacity must be >= 1")


def _jsonable(value: Any) -> Any:
    """Coerce an agent output into a JSON-stable value."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return str(value)


def _clamped_budget(params: dict, key: str, cap: int) -> int:
    """The request's ``key`` budget clamped into [1, cap] (default: cap)."""
    asked = params.get(key)
    if asked is None:
        return cap
    if not isinstance(asked, int) or isinstance(asked, bool) or asked < 1:
        raise HandlerError("bad_request", f"{key} must be an int >= 1")
    return min(asked, cap)


# ---------------------------------------------------------------------------
# Method handlers — pure functions of (params, config), so the chaos gate
# can compute gold-standard answers by calling them directly.
# ---------------------------------------------------------------------------


def _validated_scenario(params: dict) -> tuple[str, int]:
    """Shared ``scenario``/``seed`` validation for the protocol methods."""
    from repro.matrix.scenarios import SCENARIOS

    scenario = params.get("scenario")
    if scenario not in SCENARIOS:
        raise HandlerError(
            "bad_request",
            f"scenario must be one of {', '.join(sorted(SCENARIOS))}",
        )
    seed = params.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise HandlerError("bad_request", "seed must be an int >= 0")
    return scenario, seed


def handle_protocol_run(params: dict, config: ServiceConfig) -> dict:
    """``protocol.run``: execute one registered scenario under supervision.

    Params: ``scenario`` (a :data:`repro.matrix.scenarios.SCENARIOS` name),
    ``seed`` (instance seed, default 0), optional ``step_budget`` /
    ``bit_budget`` (clamped to the service caps).  The request is *priced
    before it runs*: the symbolic model in :mod:`repro.costs` predicts the
    per-agent bit cost exactly, and a request whose predicted cost exceeds
    its bit budget is rejected ``budget_exceeded`` without burning any
    executor work.  Admitted runs happen on a clean in-process channel
    under :func:`repro.comm.agents.run_supervised` — a blown budget there
    is still a structured ``budget_exceeded`` error (the belt to the
    pricer's suspenders), any other non-ok outcome ``execution_failed``.
    """
    from repro.comm.agents import run_supervised
    from repro.matrix.scenarios import SCENARIOS, case_shape
    from repro.util.rng import ReproducibleRNG, derive_seed

    scenario, seed = _validated_scenario(params)
    step_budget = _clamped_budget(params, "step_budget", config.step_budget)
    bit_budget = _clamped_budget(params, "bit_budget", config.bit_budget)
    unknown = sorted(
        k for k in params
        if k not in ("scenario", "seed", "step_budget", "bit_budget")
    )
    if unknown:
        raise HandlerError("bad_request", f"unknown params: {', '.join(unknown)}")
    case = SCENARIOS[scenario](seed)
    shape = case_shape(case)
    priced = max(shape.bits_from(0), shape.bits_from(1))
    if priced > bit_budget:
        obs.counter("serve.priced_out").inc()
        raise HandlerError(
            "budget_exceeded",
            f"predicted cost {priced} bits from one agent exceeds the bit "
            f"budget {bit_budget}; rejected before execution",
        )
    coins = (
        ReproducibleRNG(derive_seed(seed, "serve", scenario))
        if case.randomized
        else None
    )
    report = run_supervised(
        case.protocol.agent0,
        case.protocol.agent1,
        case.input0,
        case.input1,
        public_randomness=coins,
        step_budget=step_budget,
        bit_budget=bit_budget,
    )
    if report.outcome == "budget_exceeded":
        raise HandlerError("budget_exceeded", report.detail)
    if not report.ok:
        raise HandlerError(
            "execution_failed", f"outcome {report.outcome}: {report.detail}"
        )
    return {
        "scenario": scenario,
        "seed": seed,
        "answer": _jsonable(report.agreed_output()),
        "bits": report.bits_exchanged,
        "rounds": report.transcript.rounds,
        "ticks": report.ticks,
    }


def handle_cost_estimate(params: dict, config: ServiceConfig) -> dict:
    """``cost.estimate``: price a ``protocol.run`` request without running it.

    Params: ``scenario``/``seed`` exactly as ``protocol.run``, plus an
    optional ``bit_budget`` (clamped to the service cap) to price against.
    The response carries the exact predicted bit counts from the symbolic
    calculus (:mod:`repro.costs`) — total, per agent, round count and the
    clean-channel ARQ wire total — and ``admitted``: whether a
    ``protocol.run`` with this budget would pass admission pricing.
    """
    from repro.costs import scenario_shape

    scenario, seed = _validated_scenario(params)
    bit_budget = _clamped_budget(params, "bit_budget", config.bit_budget)
    unknown = sorted(
        k for k in params if k not in ("scenario", "seed", "bit_budget")
    )
    if unknown:
        raise HandlerError("bad_request", f"unknown params: {', '.join(unknown)}")
    shape = scenario_shape(scenario, seed)
    bits0, bits1 = shape.bits_from(0), shape.bits_from(1)
    return {
        "scenario": scenario,
        "seed": seed,
        "bits": shape.total_bits,
        "bits_agent0": bits0,
        "bits_agent1": bits1,
        "rounds": shape.rounds,
        "arq_wire_bits": shape.arq_wire_bits(),
        "bit_budget": bit_budget,
        "admitted": max(bits0, bits1) <= bit_budget,
    }


def _validated_matrix(params: dict, limit: int) -> list[list[int]]:
    """Schema-check the ``matrix`` param: rectangular 0/1, within bounds."""
    matrix = params.get("matrix")
    if not isinstance(matrix, list) or not matrix:
        raise HandlerError("bad_request", "matrix must be a non-empty list of rows")
    if not all(isinstance(row, list) and row for row in matrix):
        raise HandlerError("bad_request", "matrix rows must be non-empty lists")
    width = len(matrix[0])
    if any(len(row) != width for row in matrix):
        raise HandlerError("bad_request", "matrix rows must have equal length")
    for row in matrix:
        for cell in row:
            if cell not in (0, 1) or isinstance(cell, bool):
                raise HandlerError("bad_request", "matrix entries must be 0 or 1")
    if len(matrix) > limit or width > limit:
        raise HandlerError(
            "too_large",
            f"matrix is {len(matrix)}x{width}; this service admits up to "
            f"{limit}x{limit}",
        )
    return matrix


def exhaustive_key(matrix: list[list[int]]) -> str:
    """The coalescing key of an ``exhaustive.cc`` request.

    Exactly the persistent cache's content address
    (:func:`repro.cache.keys.matrix_key` over the search's version tag), so
    identical matrices coalesce against the same identity the on-disk
    store uses.
    """
    from repro.cache.keys import canonical_matrix_bytes, matrix_key
    from repro.comm.exhaustive import ENGINE_VERSION

    shape = (len(matrix), len(matrix[0]))
    return matrix_key(ENGINE_VERSION, shape, canonical_matrix_bytes(matrix))


def handle_exhaustive_cc(params: dict, config: ServiceConfig) -> dict:
    """``exhaustive.cc``: exact ``D(f)`` and ``d^P(f)`` of a truth matrix.

    Params: ``matrix`` — a rectangular 0/1 list-of-rows, at most
    ``exhaustive_limit`` in either dimension.  Served through the shared
    bitset search (and the persistent :mod:`repro.cache` store when one
    is configured), so repeated matrices are cheap by construction.
    """
    import numpy as np

    from repro.comm.exhaustive import communication_complexity, partition_number
    from repro.comm.truth_matrix import TruthMatrix

    matrix = _validated_matrix(params, config.exhaustive_limit)
    unknown = sorted(k for k in params if k != "matrix")
    if unknown:
        raise HandlerError("bad_request", f"unknown params: {', '.join(unknown)}")
    rows, cols = len(matrix), len(matrix[0])
    tm = TruthMatrix(
        np.array(matrix, dtype=np.uint8), tuple(range(rows)), tuple(range(cols))
    )
    return {
        "d": communication_complexity(tm),
        "leaves": partition_number(tm),
        "shape": [rows, cols],
        "key": exhaustive_key(matrix),
    }


def _parity_predicate(bits) -> bool:
    """Odd parity of the input bits."""
    return sum(bits) % 2 == 1


def _eq_pairs_predicate(bits) -> bool:
    """First half equals second half."""
    half = len(bits) // 2
    return tuple(bits[:half]) == tuple(bits[half:])


#: Named predicates ``partition.search`` serves.
PARTITION_PROBLEMS: dict[str, Callable] = {
    "parity": _parity_predicate,
    "eq_pairs": _eq_pairs_predicate,
}


def handle_partition_search(params: dict, config: ServiceConfig) -> dict:
    """``partition.search``: Comm(f) = min over even partitions of D(f, π).

    Params: ``problem`` (one of :data:`PARTITION_PROBLEMS`) and
    ``total_bits`` (even, 2..``partition_bits_limit``).  Runs the exact
    sweep serially in-process.
    """
    from repro.comm.partition_search import best_partition_cc

    problem = params.get("problem")
    if problem not in PARTITION_PROBLEMS:
        raise HandlerError(
            "bad_request",
            f"problem must be one of {', '.join(sorted(PARTITION_PROBLEMS))}",
        )
    total_bits = params.get("total_bits")
    if (
        not isinstance(total_bits, int)
        or isinstance(total_bits, bool)
        or total_bits < 2
        or total_bits % 2
    ):
        raise HandlerError("bad_request", "total_bits must be an even int >= 2")
    if total_bits > config.partition_bits_limit:
        raise HandlerError(
            "too_large",
            f"total_bits {total_bits} exceeds the service cap "
            f"{config.partition_bits_limit}",
        )
    unknown = sorted(k for k in params if k not in ("problem", "total_bits"))
    if unknown:
        raise HandlerError("bad_request", f"unknown params: {', '.join(unknown)}")
    result = best_partition_cc(
        PARTITION_PROBLEMS[problem], total_bits, workers=1
    )
    return {
        "problem": problem,
        "total_bits": total_bits,
        "best_d": result.best_cost,
        "worst_d": result.worst_cost,
        "partitions": len(result.costs),
    }


#: Pure handlers by method name (``cache.stats`` is service-stateful and
#: handled inside :class:`Service`).
PURE_HANDLERS: dict[str, Callable[[dict, ServiceConfig], dict]] = {
    "protocol.run": handle_protocol_run,
    "exhaustive.cc": handle_exhaustive_cc,
    "partition.search": handle_partition_search,
    "cost.estimate": handle_cost_estimate,
}


def execute_method(method: str, params: dict, config: ServiceConfig) -> dict:
    """Run one deterministic method directly (no service, no queue).

    The chaos gate's gold standard: the faulty-path response for a
    deterministic method must equal this clean, in-process answer.
    """
    return PURE_HANDLERS[method](params, config)


def coalesce_key(method: str, params: dict) -> str | None:
    """The content address requests coalesce on (None = not coalescable).

    ``exhaustive.cc`` uses the persistent cache's blake2b matrix address;
    the other deterministic methods hash their canonical params under a
    serve-specific domain prefix.
    """
    if method not in DETERMINISTIC_METHODS:
        return None
    if method == "exhaustive.cc":
        matrix = params.get("matrix")
        try:
            return "cc:" + exhaustive_key(matrix)
        except Exception:
            return None  # invalid matrix — validation will reject it
    digest = hashlib.blake2b(digest_size=20)
    digest.update(_KEY_PREFIX)
    digest.update(b"\0")
    digest.update(method.encode("ascii"))
    digest.update(b"\0")
    digest.update(wire.canonical_json(params).encode("utf-8"))
    return f"{method}:{digest.hexdigest()}"


@dataclass
class _Pending:
    """One queued request: what the executor needs to finish it."""

    request: Request
    key: str | None
    admit_tick: int
    deadline_ticks: int
    future: asyncio.Future = field(repr=False, default=None)  # type: ignore[assignment]


class Service:
    """The multi-tenant protocol service (in-process, transport-agnostic).

    Use as an async context manager (or call :meth:`start`/:meth:`stop`):

    >>> async with Service() as service:                    # doctest: +SKIP
    ...     response = await service.call(request_bytes, tenant="c1")

    :meth:`call` is the whole surface: bytes in, bytes out, never raises,
    never hangs.  The TCP shell (:mod:`repro.serve.server`), the chaos
    harness and the load generator all drive this one method.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        #: The logical clock: completed work units since start.
        self.ticks = 0
        self._queue: asyncio.Queue[_Pending | None] | None = None
        self._queued = 0
        self._tenant_inflight: dict[str, int] = {}
        self._inflight_keys: dict[str, asyncio.Future] = {}
        self._memo: OrderedDict[str, dict] = OrderedDict()
        self._executor: asyncio.Task | None = None
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Service":
        """Create the bounded queue and start the executor task."""
        if self._executor is not None:
            raise RuntimeError("service already started")
        self._stopping = False
        self._queue = asyncio.Queue()
        self._executor = asyncio.create_task(
            self._worker_loop(), name="serve-executor"
        )
        return self

    async def stop(self) -> None:
        """Drain and stop: the executor finishes queued work, then exits."""
        if self._executor is None:
            return
        self._stopping = True
        assert self._queue is not None
        self._queue.put_nowait(None)
        await self._executor
        self._executor = None
        self._queue = None

    async def __aenter__(self) -> "Service":
        """``async with Service() as service:`` — start on entry."""
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        """Stop (draining queued work) on exit."""
        await self.stop()

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    async def call(self, data: bytes, tenant: str | None = None) -> bytes:
        """One request, one response — the service's entire contract.

        ``tenant`` is the transport-level identity fallback; a validated
        frame's own ``tenant`` field wins.  Never raises: every failure
        mode is a structured error response.  Never hangs: rejections are
        immediate and accepted work is executed from the bounded queue.
        """
        obs.counter("serve.requests").inc()
        try:
            frame = wire.decode_frame(data)
            request = wire.validate_request(frame)
        except FrameError as exc:
            return self._error(exc.frame_id, exc.code, str(exc))
        if tenant is not None and frame.get("tenant") is None:
            request = Request(
                id=request.id,
                method=request.method,
                params=request.params,
                tenant=tenant,
                deadline_ticks=request.deadline_ticks,
            )
        if self._queue is None or self._stopping:
            return self._error(
                request.id, "shutting_down", "service is not accepting requests"
            )
        # -- admission (synchronous; spans stay well-nested) -----------
        with trace.span("serve.admit", method=request.method):
            held = self._tenant_inflight.get(request.tenant, 0)
            if held >= self.config.max_inflight_per_tenant:
                obs.counter("serve.shed.client_limit").inc()
                return self._error(
                    request.id,
                    "client_limit",
                    f"tenant {request.tenant!r} holds {held} in-flight "
                    f"requests (cap {self.config.max_inflight_per_tenant})",
                    backoff_ticks=max(1, held),
                )
            self._tenant_inflight[request.tenant] = held + 1
            trace.event(
                "serve.admit", method=request.method, tenant=request.tenant,
                queued=self._queued,
            )
        obs.counter("serve.admitted").inc()
        try:
            return await self._dispatch(request)
        finally:
            remaining = self._tenant_inflight.get(request.tenant, 1) - 1
            if remaining <= 0:
                self._tenant_inflight.pop(request.tenant, None)
            else:
                self._tenant_inflight[request.tenant] = remaining

    async def _dispatch(self, request: Request) -> bytes:
        """Coalesce / shed / enqueue one admitted request, await its result."""
        if request.method == "cache.stats":
            # Service-stateful, cheap, never queued: answer immediately.
            obs.counter("serve.executed").inc()
            return self._ok(request.id, self._stats_result())
        key = coalesce_key(request.method, request.params)
        if key is not None:
            memoized = self._memo.get(key)
            if memoized is not None:
                self._memo.move_to_end(key)
                obs.counter("serve.memo_hits").inc()
                trace.event("serve.coalesce", kind="memo", method=request.method)
                return self._ok(request.id, memoized)
            running = self._inflight_keys.get(key)
            if running is not None:
                obs.counter("serve.coalesced").inc()
                trace.event(
                    "serve.coalesce", kind="inflight", method=request.method
                )
                verdict = await asyncio.shield(running)
                return self._verdict_response(request.id, verdict)
        if self._queued >= self.config.max_queue:
            obs.counter("serve.shed.overloaded").inc()
            return self._error(
                request.id,
                "overloaded",
                f"work queue is full ({self._queued} queued); shedding",
                backoff_ticks=max(1, self._queued),
            )
        assert self._queue is not None
        pending = _Pending(
            request=request,
            key=key,
            admit_tick=self.ticks,
            deadline_ticks=(
                request.deadline_ticks
                if request.deadline_ticks is not None
                else self.config.default_deadline_ticks
            ),
        )
        pending.future = asyncio.get_running_loop().create_future()
        if key is not None:
            self._inflight_keys[key] = pending.future
        self._queued += 1
        self._queue.put_nowait(pending)
        verdict = await asyncio.shield(pending.future)
        return self._verdict_response(request.id, verdict)

    async def _worker_loop(self) -> None:
        """The executor: dequeue, check the deadline, execute, resolve."""
        assert self._queue is not None
        queue = self._queue
        while True:
            pending = await queue.get()
            if pending is None:
                return
            self._queued -= 1
            request = pending.request
            waited = self.ticks - pending.admit_tick
            if waited >= pending.deadline_ticks:
                obs.counter("serve.deadline_expired").inc()
                verdict = (
                    "error",
                    "deadline_exceeded",
                    f"waited {waited} ticks; deadline was "
                    f"{pending.deadline_ticks}",
                )
                self._resolve(pending, verdict)
                continue
            with trace.span(
                "serve.execute", method=request.method, tenant=request.tenant
            ):
                try:
                    result = PURE_HANDLERS[request.method](
                        request.params, self.config
                    )
                    verdict = ("ok", result)
                except HandlerError as exc:
                    verdict = ("error", exc.code, str(exc))
                except Exception as exc:  # noqa: BLE001 — containment boundary
                    obs.counter("serve.errors.internal").inc()
                    verdict = (
                        "error",
                        "internal",
                        f"handler failed: {type(exc).__name__}: {exc}",
                    )
            self.ticks += 1
            obs.counter("serve.executed").inc()
            if verdict[0] == "ok" and pending.key is not None:
                self._memo[pending.key] = verdict[1]
                self._memo.move_to_end(pending.key)
                while len(self._memo) > self.config.memo_capacity:
                    self._memo.popitem(last=False)
            self._resolve(pending, verdict)

    def _resolve(self, pending: _Pending, verdict: tuple) -> None:
        """Hand the verdict to every waiter and clear the in-flight key."""
        if pending.key is not None:
            self._inflight_keys.pop(pending.key, None)
        if not pending.future.done():
            pending.future.set_result(verdict)

    # ------------------------------------------------------------------
    # Responses and introspection
    # ------------------------------------------------------------------
    def _verdict_response(self, request_id: str, verdict: tuple) -> bytes:
        """Encode a worker verdict for one (possibly coalesced) waiter."""
        if verdict[0] == "ok":
            return self._ok(request_id, verdict[1])
        _tag, code, message = verdict
        return self._error(request_id, code, message)

    def _ok(self, request_id: str, result: dict) -> bytes:
        """Encode + count one success response."""
        obs.counter("serve.responses.ok").inc()
        trace.event("serve.respond", ok=True)
        return wire.ok_response(request_id, result)

    def _error(
        self,
        request_id: str | None,
        code: str,
        message: str,
        backoff_ticks: int | None = None,
    ) -> bytes:
        """Encode + count one structured error response."""
        obs.counter("serve.responses.error").inc()
        obs.counter(f"serve.error.{code}").inc()
        trace.event("serve.respond", ok=False, code=code)
        return wire.error_response(
            request_id, code, message, backoff_ticks=backoff_ticks
        )

    def _stats_result(self) -> dict:
        """The ``cache.stats`` payload: serve-level + persistent store."""
        from repro import cache

        snapshot = obs.snapshot()["counters"]
        serve_counters = {
            name: snapshot[name]
            for name in sorted(snapshot)
            if name.startswith("serve.")
        }
        store = cache.active_store()
        return {
            "ticks": self.ticks,
            "queued": self._queued,
            "memo_entries": len(self._memo),
            "inflight_keys": len(self._inflight_keys),
            "counters": serve_counters,
            "store": store.stats() if store is not None else None,
        }
