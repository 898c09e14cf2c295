"""Service-layer chaos: the six fault kinds re-applied to wire frames.

PR 1 hardened the *bit channel*: seeded fault models, gold-standard
comparison, the "zero silent corruption" gate.  This module lifts that
exact methodology one layer up, to the serve wire.  The same six fault
kinds (``flip``, ``burst``, ``erase``, ``duplicate``, ``delay``,
``drop``) now mangle whole request/response frames in flight:

* ``flip`` / ``burst`` — garble one bit / a burst of bytes of the frame,
* ``erase`` — truncate the frame mid-line,
* ``duplicate`` — deliver the frame twice,
* ``delay`` — hold the frame until later traffic releases it (the
  :class:`repro.comm.faults.DelayFaults` countdown scheme),
* ``drop`` — deliver nothing.

Frames cross an in-process :class:`FramePipe` — deterministic, seeded,
no wall clock — and clients run *bounded* retry loops driven by the
structured ``retryable``/``backoff_ticks`` guidance in error payloads,
so no outcome is ever "wait forever": every request terminates as a
correct result, a structured error, or (measurably) lost.

The standing gate (:func:`chaos_sweep`, also ``python -m repro
serve-chaos``): across seeded sweeps of every kind, each response is
compared against the gold-standard answer computed by calling the same
pure handler directly — **zero silent corruption** (never ``ok`` with a
wrong answer, never a wrong structured verdict), **zero hung
connections** (every client coroutine completes) and **zero lost
requests** (no request exhausts its :data:`MAX_ATTEMPTS` retries).  At
rate 0 the same sweep is a clean load run, which the service tests use
to gate that clean load loses nothing and that overload sheds.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.serve import wire
from repro.serve.service import (
    HandlerError,
    Service,
    ServiceConfig,
    execute_method,
)
from repro.serve.wire import FrameError
from repro.util.rng import ReproducibleRNG, derive_seed

#: The service-layer fault taxonomy — same six kinds as the bit layer.
FRAME_FAULT_KINDS = ("flip", "burst", "erase", "duplicate", "delay", "drop")

#: Bounded client persistence: attempts per request before declaring it
#: lost.  At the swept fault rates the loss probability is negligible
#: (independent per-frame faults across 32 attempts), yet the bound is
#: what *guarantees* no client can hang.
MAX_ATTEMPTS = 32


class FrameFaultModel:
    """Seeded per-frame fault decisions for one direction of one client.

    The frame-level analogue of :class:`repro.comm.faults.FaultModel`:
    all randomness flows from :func:`repro.util.rng.derive_seed`, so a
    (kind, rate, seed) triple replays the identical fault sequence.
    """

    def __init__(self, kind: str, rate: float, seed: int):
        if kind not in FRAME_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; have {', '.join(FRAME_FAULT_KINDS)}"
            )
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.kind = kind
        self.rate = rate
        self._rng = ReproducibleRNG(derive_seed(seed, "serve-chaos", kind))

    def apply(self, data: bytes) -> tuple[list[bytes], int]:
        """Fault one frame: ``(deliver_now, hold_for)``.

        ``deliver_now`` is what arrives immediately (empty = dropped or
        held); ``hold_for`` > 0 means the frame is additionally delayed
        for that many subsequent transfers.
        """
        if self._rng.random() >= self.rate:
            return [data], 0
        if self.kind == "drop":
            return [], 0
        if self.kind == "duplicate":
            return [data, data], 0
        if self.kind == "delay":
            return [], 1 + self._rng.randrange(3)
        if self.kind == "erase":
            if len(data) <= 1:
                return [b""], 0
            return [data[: self._rng.randrange(1, len(data))]], 0
        if self.kind == "flip":
            index = self._rng.randrange(len(data) * 8)
            garbled = bytearray(data)
            garbled[index // 8] ^= 1 << (index % 8)
            return [bytes(garbled)], 0
        # burst: garble a short run of adjacent bytes
        start = self._rng.randrange(len(data))
        length = 1 + self._rng.randrange(min(4, len(data) - start))
        garbled = bytearray(data)
        for offset in range(length):
            garbled[start + offset] ^= self._rng.randrange(1, 256)
        return [bytes(garbled)], 0


def make_frame_fault_model(kind: str, rate: float, seed: int) -> FrameFaultModel:
    """Build one seeded frame fault model (the registry entrypoint)."""
    return FrameFaultModel(kind, rate, seed)


class FramePipe:
    """One faulty direction of a client's connection, deterministically.

    Frames pushed through :meth:`transfer` come out garbled, duplicated,
    dropped, or held; held frames are released by *later traffic* on the
    same pipe — the countdown scheme of
    :class:`repro.comm.faults.FaultyChannel`, so delay never needs a wall
    clock and a retry naturally flushes stragglers out.
    """

    def __init__(self, model: FrameFaultModel | None = None):
        self.model = model
        self._held: list[list] = []  # [remaining_transfers, frame]

    def transfer(self, data: bytes) -> list[bytes]:
        """Push one frame through; returns every frame arriving now."""
        arrived: list[bytes] = []
        for slot in self._held:
            slot[0] -= 1
        ready = [slot for slot in self._held if slot[0] <= 0]
        self._held = [slot for slot in self._held if slot[0] > 0]
        arrived.extend(slot[1] for slot in ready)
        if self.model is None:
            arrived.append(data)
            return arrived
        now, hold = self.model.apply(data)
        arrived.extend(now)
        if hold > 0:
            self._held.append([hold, data])
        return arrived

    def flush(self) -> list[bytes]:
        """Release every still-held frame (end-of-connection drain)."""
        ready = [slot[1] for slot in self._held]
        self._held = []
        return ready


@dataclass
class ServeChaosPoint:
    """One (kind, rate) cell of the service chaos sweep.

    The gate reads three fields: ``silent_wrong`` (an ``ok`` response
    whose result differs from the gold standard, or a final structured
    verdict with the wrong code — the service lied), ``hung`` (a client
    coroutine that never completed) and ``lost`` (a request that used up
    its bounded retries without a definite verdict).  All three must be
    zero at every cell.
    """

    kind: str
    rate: float
    requests: int = 0
    ok: int = 0
    expected_errors: int = 0
    lost: int = 0
    silent_wrong: int = 0
    hung: int = 0
    retries: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def terminated(self) -> int:
        """Requests that reached a definite verdict (all of them, gated)."""
        return self.ok + self.expected_errors + self.lost

    def as_dict(self) -> dict:
        """JSON-stable view for reports and ``--json`` output."""
        return {
            "kind": self.kind,
            "rate": self.rate,
            "requests": self.requests,
            "ok": self.ok,
            "expected_errors": self.expected_errors,
            "lost": self.lost,
            "silent_wrong": self.silent_wrong,
            "hung": self.hung,
            "retries": self.retries,
        }


def make_workload(seed: int, count: int) -> list[dict]:
    """A seeded deterministic request mix over the four served methods.

    Mostly valid work (small matrices — with deliberate repeats so
    coalescing has something to chew on — protocol scenarios, partition
    sweeps), salted with requests *designed* to earn structured errors
    (``too_large`` matrices, starvation ``bit_budget``) so the error path
    is exercised on every sweep, plus occasional ``cache.stats`` probes.

    The ``protocol.run`` mix is drawn from
    :func:`repro.matrix.scenarios.canonical_scenarios` — the live
    scenarios the scenario matrix measures and gates — so the chaos gate
    exercises exactly the workload the matrix certifies.
    """
    from repro.matrix.scenarios import canonical_scenarios

    rng = ReproducibleRNG(derive_seed(seed, "serve-workload"))
    scenarios = canonical_scenarios()
    requests: list[dict] = []
    repeat_pool: list[dict] = []
    for index in range(count):
        roll = rng.randrange(10)
        if roll < 4:
            if repeat_pool and rng.random() < 0.5:
                params = repeat_pool[rng.randrange(len(repeat_pool))]
            else:
                size = 2 + rng.randrange(3)
                params = {
                    "matrix": [
                        [rng.randrange(2) for _ in range(size)]
                        for _ in range(size)
                    ]
                }
                repeat_pool.append(params)
            requests.append({"method": "exhaustive.cc", "params": params})
        elif roll < 7:
            requests.append({
                "method": "protocol.run",
                "params": {
                    "scenario": scenarios[rng.randrange(len(scenarios))],
                    "seed": rng.randrange(3),
                },
            })
        elif roll == 7:
            requests.append({
                "method": "partition.search",
                "params": {
                    "problem": ("parity", "eq_pairs")[rng.randrange(2)],
                    "total_bits": (2, 4)[rng.randrange(2)],
                },
            })
        elif roll == 8:
            # Deliberate structured-error bait.
            if rng.random() < 0.5:
                requests.append({
                    "method": "exhaustive.cc",
                    "params": {"matrix": [[0] * 12 for _ in range(12)]},
                })
            else:
                requests.append({
                    "method": "protocol.run",
                    "params": {"scenario": "equality", "seed": 0,
                               "bit_budget": 1},
                })
        else:
            requests.append({"method": "cache.stats", "params": {}})
    return requests


def gold_verdict(method: str, params: dict, config: ServiceConfig):
    """The clean in-process answer a faulty run is compared against.

    ``("ok", result)`` or ``("error", code)`` from calling the same pure
    handler the service executes; None for the non-deterministic
    ``cache.stats`` (excluded from comparison).
    """
    if method == "cache.stats":
        return None
    try:
        return ("ok", execute_method(method, params, config))
    except HandlerError as exc:
        return ("error", exc.code)


async def _chaos_client(
    service: Service,
    client: int,
    jobs: list[tuple[int, dict]],
    kind: str,
    rate: float,
    seed: int,
    point: ServeChaosPoint,
    golds: dict[int, tuple | None],
) -> None:
    """One simulated client: serial requests over its own faulty pipes."""
    request_pipe = FramePipe(
        make_frame_fault_model(kind, rate, derive_seed(seed, "req", client))
    )
    response_pipe = FramePipe(
        make_frame_fault_model(kind, rate, derive_seed(seed, "resp", client))
    )
    tenant = f"chaos-{client}"
    for job_index, job in jobs:
        request_id = f"{tenant}-{job_index}"
        frame = wire.request_frame(
            request_id, job["method"], job["params"], tenant=tenant
        )
        verdict = None
        for _attempt in range(MAX_ATTEMPTS):
            responses: list[bytes] = []
            for delivered in request_pipe.transfer(frame):
                raw = await service.call(delivered, tenant=tenant)
                responses.extend(response_pipe.transfer(raw))
            backoff = 0
            for raw in responses:
                try:
                    decoded = wire.validate_response(wire.decode_frame(raw))
                except FrameError:
                    continue  # garbled response: never accept, retry instead
                if decoded["id"] is not None and decoded["id"] != request_id:
                    continue  # stale straggler from an earlier request
                if decoded["ok"]:
                    verdict = ("ok", decoded["result"])
                    break
                error = decoded["error"]
                if error["retryable"]:
                    # shed/garbled/expired: back off and resend
                    backoff = max(backoff, error["backoff_ticks"])
                    continue
                verdict = ("error", error["code"])
                break
            if verdict is not None:
                break
            point.retries += 1
            # Honour the server's backoff guidance by yielding the loop
            # that many scheduling rounds — deterministic, no wall sleep.
            for _ in range(max(1, backoff)):
                await asyncio.sleep(0)
        _score(point, verdict, golds[job_index])


def _score(point: ServeChaosPoint, verdict, gold) -> None:
    """Fold one client verdict into the sweep point, vs the gold answer."""
    if verdict is None:
        point.lost += 1
        return
    if verdict[0] == "ok":
        point.ok += 1
        if gold is not None and verdict != gold:
            point.silent_wrong += 1
        return
    point.expected_errors += 1
    if gold is not None and verdict != gold:
        point.silent_wrong += 1


async def _run_point(
    kind: str,
    rate: float,
    requests: int,
    clients: int,
    seed: int,
    config: ServiceConfig,
    point: ServeChaosPoint,
) -> None:
    """Run one sweep cell: ``clients`` concurrent loops over the workload."""
    from repro import obs

    workload = make_workload(derive_seed(seed, kind), requests)
    golds = {
        index: gold_verdict(job["method"], job["params"], config)
        for index, job in enumerate(workload)
    }
    assignments: list[list[tuple[int, dict]]] = [[] for _ in range(clients)]
    for index, job in enumerate(workload):
        assignments[index % clients].append((index, job))
    with obs.scoped():
        async with Service(config) as service:
            tasks = [
                asyncio.create_task(
                    _chaos_client(
                        service, client, jobs, kind, rate, seed, point, golds
                    )
                )
                for client, jobs in enumerate(assignments)
            ]
            # Wall-clock safety net for the *harness only* — protocol
            # decisions stay tick-based.  A task still pending here is a
            # hung connection, the thing the gate exists to catch.
            done, pending = await asyncio.wait(tasks, timeout=120)
            point.hung = len(pending)
            for task in pending:
                task.cancel()
            for task in done:
                task.result()  # surface client crashes loudly
        snapshot = obs.snapshot()["counters"]
        point.counters = {
            name: value
            for name, value in sorted(snapshot.items())
            if name.startswith("serve.")
        }


def chaos_sweep(
    kinds: tuple[str, ...] = FRAME_FAULT_KINDS,
    rate: float = 0.05,
    requests_per_kind: int = 500,
    clients: int = 10,
    seed: int = 0,
    config: ServiceConfig | None = None,
) -> list[ServeChaosPoint]:
    """The standing service-layer robustness gate.

    For every fault kind: run ``requests_per_kind`` seeded requests from
    ``clients`` concurrent clients through faulty pipes against a live
    service, compare every definite verdict against the gold-standard
    in-process answer, and report silent corruption, hung connections and
    lost requests (all must be zero) plus retry pressure.
    """
    config = config or ServiceConfig()
    points: list[ServeChaosPoint] = []
    for kind in kinds:
        point = ServeChaosPoint(kind=kind, rate=rate, requests=requests_per_kind)
        asyncio.run(
            _run_point(
                kind, rate, requests_per_kind, clients, seed, config, point
            )
        )
        points.append(point)
    return points
