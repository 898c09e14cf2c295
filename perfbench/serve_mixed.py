"""Workload ``serve_mixed``: an open loop of independent users against
an in-process :class:`repro.serve.Service`.

One asyncio loop runs the load generator and the service.  Requests are
due on a fixed-rate schedule, one tenant per request, and each is timed
from its *due* time, so a handler that holds the loop is charged to every
request that fell due behind it.  The mix is pinned here, not drawn from
the program's catalogue: light canonical traffic (small ``exhaustive.cc``
matrices with repeats, ``protocol.run``, ``cost.estimate``,
``partition.search``, error bait, ``cache.stats``) plus four unique
6x6 ``exhaustive.cc`` searches per hundred requests.  Those searches run
synchronously on the loop and set the tail.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import time
from dataclasses import dataclass, field

from common import classify, cpu_seconds, percentile, percentile_or_zero, share

#: Scenario names of the ``protocol.run``/``cost.estimate`` mix.
SCENARIOS = ("equality", "fingerprint", "matmul_verify", "solvability",
             "trivial")

#: Light traffic: (kind, weight); four of every hundred requests are
#: unique heavy searches instead (:data:`HEAVY_PER_HUNDRED`).
LIGHT_MIX = (
    ("small_cc", 34),
    ("protocol_run", 25),
    ("cost_estimate", 10),
    ("partition", 8),
    ("too_large", 5),
    ("budget_bait", 5),
    ("stats", 10),
)
HEAVY_PER_HUNDRED = 4

#: The nominal and peak rates of the latency metrics.  The nominal rate
#: keeps the loop under a quarter busy and the peak rate under two
#: fifths: this host's speed drifts by up to 2x over minutes, and a busier
#: loop turns every slow stretch into queueing that swamps the latency
#: metrics.
NOMINAL_RPS = 125
PEAK_RPS = 200

#: ``max_rate_rps`` comes from step ramps.  A ramp serves
#: :data:`RAMP_REQUESTS` requests at each rung of :data:`RAMP_RPS` in turn
#: and stops after the first rung that misses the latency limit; its
#: reading is the highest rung it passed.  The rate at which the loop
#: saturates swings between about 630 and 1080 req/s with this host's
#: speed, so a fixed ladder with rungs far enough apart to read the same
#: rung on every run would need a top rung near 1400 req/s, where the
#: loop is so far behind that the service sheds requests.  A ramp stops
#: one rung past the edge instead, so it never overloads the loop by more
#: than one rung's step.  The rungs are 1.12x apart, finer than the 0.25
#: bound, so the reading follows the edge rather than jumping across
#: the bound between two rungs; the top rung lies above what the service
#: sustains today.
RAMP_RPS = (540, 600, 670, 750, 840, 940, 1050, 1180, 1320)
RAMP_REQUESTS = 400
RAMP = "ramp"

#: The run: fixed-rate ``(rate, share of the run)`` segments and three
#: ramps, which take the rest of the run.  The nominal and peak rates get
#: three segments each, spread over the run, so their pooled samples
#: (over 1500 at 36 s, so a p99 with 15 beyond it) see every stretch of
#: the run rather than one; ``max_rate_rps`` is the median of the three
#: ramps' readings.  A segment draws at most 48 unique heavy searches,
#: which caps ``--seconds`` at about 60.
SCHEDULE = (
    (125, 0.13), (200, 0.10), RAMP,
    (125, 0.13), (200, 0.10), RAMP,
    (125, 0.13), (200, 0.10), RAMP,
)

#: A rate meets the latency limit when its p99 (failures count as
#: infinitely late) and the backlog each of its segments leaves after its
#: last due time both stay within this many milliseconds.
LATENCY_LIMIT_MS = 100.0

#: The heavy searches come from this pinned pool of ``(size, index)``
#: draws of :func:`_pool_matrix`, each served as one of four variants
#: (itself, transposed, complemented, both).  The variants have the same
#: D(f) and d^P and, for these members, the same search cost within about
#: 10%; the members all cost 20-27 ms on a 2-core Xeon.  Permuting rows
#: and columns instead would change the cost by up to 3x.  The heavy
#: searches set the tail, and one search's cost already swings with this
#: host's speed; equal-cost members keep the p99 a quantile of many alike
#: stalls instead of the few largest a seed happened to draw.
HEAVY_POOL_SEED = 1989
HEAVY_POOL = tuple(
    (6, i) for i in (3, 52, 77, 92, 106, 117, 122, 138, 154, 160, 187, 190)
)
HEAVY_VARIANTS = 4

#: Seconds a segment may run past its schedule before requests count as
#: lost.
DRAIN_TIMEOUT_S = 60.0

#: Share of the run each of the reference and traced passes takes: one
#: nominal segment, of at most 1200 requests (48 unique heavy searches),
#: so ``--trace 1`` runs take ``--seconds`` up to 38.
TRACED_SHARE = 0.25


def _pool_matrix(size: int, index: int) -> list[list[int]]:
    rng = random.Random(f"{HEAVY_POOL_SEED}:{size}:{index}")
    return [[rng.randrange(2) for _ in range(size)] for _ in range(size)]


def _variant(matrix, which: int) -> list[list[int]]:
    """Variant ``which`` of :data:`HEAVY_VARIANTS`: bit 0 transposes, bit 1
    complements."""
    out = [list(col) for col in zip(*matrix)] if which & 1 else matrix
    return [[1 - v for v in row] if which & 2 else list(row) for row in out]


def _heavy_matrices(rng: random.Random, count: int) -> list:
    """``count`` distinct heavy matrices: every pool member once per round,
    in a seeded order, each round with a fresh variant of each member."""
    rounds = -(-count // len(HEAVY_POOL))
    if rounds > HEAVY_VARIANTS:
        raise ValueError(f"{count} heavy searches exceed the pool's "
                         f"{len(HEAVY_POOL) * HEAVY_VARIANTS} unique variants")
    variants = [rng.sample(range(HEAVY_VARIANTS), rounds) for _ in HEAVY_POOL]
    out = []
    for r in range(rounds):
        order = list(range(len(HEAVY_POOL)))
        rng.shuffle(order)
        for member in order:
            size, index = HEAVY_POOL[member]
            out.append(_variant(_pool_matrix(size, index), variants[member][r]))
    return out[:count]


def make_requests(seed: int, stream: str, count: int) -> list[tuple]:
    """``count`` seeded ``(method, params)`` requests for one segment."""
    rng = random.Random(f"{seed}:serve:{stream}")
    kinds, weights = zip(*LIGHT_MIX)
    heavy = iter(_heavy_matrices(rng, count * HEAVY_PER_HUNDRED // 100))
    repeat_pool: list = []
    requests = []
    for index in range(count):
        # Evenly spaced: two heavy searches never fall due back to back,
        # so the tail measures the loop holding, not rare collisions.
        if (index + 1) * HEAVY_PER_HUNDRED // 100 > index * HEAVY_PER_HUNDRED // 100:
            requests.append(("exhaustive.cc", {"matrix": next(heavy)}))
            continue
        kind = rng.choices(kinds, weights)[0]
        if kind == "small_cc":
            if repeat_pool and rng.random() < 0.5:
                params = repeat_pool[rng.randrange(len(repeat_pool))]
            else:
                size = 2 + rng.randrange(3)
                params = {"matrix": [[rng.randrange(2) for _ in range(size)]
                                     for _ in range(size)]}
                repeat_pool.append(params)
            requests.append(("exhaustive.cc", params))
        elif kind in ("protocol_run", "cost_estimate"):
            method = "protocol.run" if kind == "protocol_run" else "cost.estimate"
            requests.append((method, {"scenario": rng.choice(SCENARIOS),
                                      "seed": rng.randrange(3)}))
        elif kind == "partition":
            requests.append(("partition.search", {
                "problem": rng.choice(("parity", "eq_pairs")),
                "total_bits": rng.choice((2, 4)),
            }))
        elif kind == "too_large":
            size = 9 + rng.randrange(4)
            requests.append(("exhaustive.cc", {"matrix": [
                [rng.randrange(2) for _ in range(size)] for _ in range(size)
            ]}))
        elif kind == "budget_bait":
            requests.append(("protocol.run", {"scenario": rng.choice(SCENARIOS),
                                              "seed": rng.randrange(3),
                                              "bit_budget": 1}))
        else:
            requests.append(("cache.stats", {}))
    return requests


@dataclass
class Timing:
    """When one request was due, sent and answered (clock seconds)."""

    due: float
    sent: float = 0.0
    done: float | None = None
    reply: object = None

    @property
    def lag(self) -> float:
        return self.sent - self.due

    @property
    def latency(self) -> float | None:
        return None if self.done is None else self.done - self.due


async def open_loop(due_times, send, clock, sleep, drain_timeout: float):
    """Send request ``i`` at ``start + due_times[i]`` whatever came before.

    ``send(i)`` is awaited in its own task; ``clock`` and ``sleep`` are
    injectable so a test can drive a fake clock.  Latency runs from the
    due time, never the send time: when the loop is held, the generator
    wakes late and every request that fell due meanwhile carries the
    stall.  Returns one :class:`Timing` per request; a request still
    unanswered ``drain_timeout`` seconds after the last due time has
    ``done`` None (lost).
    """
    start = clock()
    timings = [Timing(due=start + offset) for offset in due_times]

    async def _one(index: int) -> None:
        timing = timings[index]
        timing.reply = await send(index)
        timing.done = clock()

    tasks = []
    for index, timing in enumerate(timings):
        now = clock()
        if now < timing.due:
            await sleep(timing.due - now)
            now = clock()
        timing.sent = now
        tasks.append(asyncio.ensure_future(_one(index)))
    if tasks:
        _done, pending = await asyncio.wait(tasks, timeout=drain_timeout)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.wait(pending)
        for task in _done:
            task.result()
    return timings


@dataclass
class Segment:
    """What one fixed-rate segment of the schedule measured."""

    rate: int
    requests: list
    timings: list = field(default_factory=list)
    encode_ns: list = field(default_factory=list)
    decode_ns: list = field(default_factory=list)
    cpu_s: float = 0.0

    def latencies_ms(self) -> list[float]:
        """Per-request latency; a lost, shed, expired or crashed request is
        infinitely late, so any failure above 1% makes the p99 miss every
        limit (a quickly shed request must not pass for a fast answer)."""
        return [
            float("inf") if classify(verdict_of(t.reply), None) == "failed"
            else t.latency * 1000.0
            for t in self.timings
        ]

    def backlog_ms(self) -> float:
        """How long the last answer came after the last due time."""
        last_due = max(t.due for t in self.timings)
        done = [t.done for t in self.timings if t.done is not None]
        if len(done) < len(self.timings):
            return float("inf")
        return max(0.0, (max(done) - last_due) * 1000.0)


def meets_limit(segments) -> bool:
    """Whether the pooled p99 and every segment's backlog stay within
    :data:`LATENCY_LIMIT_MS`."""
    latencies = [ms for segment in segments for ms in segment.latencies_ms()]
    return (percentile(latencies, 99) <= LATENCY_LIMIT_MS
            and all(s.backlog_ms() <= LATENCY_LIMIT_MS for s in segments))


def ramp_reading(ramp, floor: float) -> float:
    """The highest rung a ramp passed, or ``floor`` when it failed its
    first rung.  A ramp ends at its first failing rung, so every rung
    before that one passed."""
    passed = [segment.rate for segment in ramp if meets_limit([segment])]
    return float(max(passed, default=floor))


def verdict_of(reply):
    """``("ok", result)``, ``("error", code)`` or None from a decoded reply."""
    if reply is None:
        return None
    if reply["ok"]:
        return ("ok", reply["result"])
    return ("error", reply["error"]["code"])


def run_segment(rate: int, requests: list, tenant_prefix: str) -> Segment:
    """Drive one segment against a fresh default service."""
    from repro.comm.exhaustive import clear_search_cache
    from repro.serve import Service, ServiceConfig, wire

    segment = Segment(rate=rate, requests=requests)
    clear_search_cache()

    async def _run():
        async with Service(ServiceConfig()) as service:

            async def send(index: int):
                method, params = requests[index]
                tenant = f"{tenant_prefix}-{index}"
                t0 = time.perf_counter_ns()
                frame = wire.request_frame(f"r{index}", method, params,
                                           tenant=tenant)
                segment.encode_ns.append(time.perf_counter_ns() - t0)
                raw = await service.call(frame, tenant=tenant)
                t0 = time.perf_counter_ns()
                reply = wire.validate_response(wire.decode_frame(raw))
                segment.decode_ns.append(time.perf_counter_ns() - t0)
                return reply

            segment.timings = await open_loop(
                [i / rate for i in range(len(requests))],
                send, time.perf_counter, asyncio.sleep, DRAIN_TIMEOUT_S,
            )

    cpu0 = cpu_seconds()
    asyncio.run(_run())
    segment.cpu_s = cpu_seconds() - cpu0
    return segment


def gold_verdicts(requests) -> dict:
    """Clean in-process answers per distinct request, from the service's
    own pure handlers (the serve chaos gate's rule); None for
    ``cache.stats``."""
    from repro.serve.service import HandlerError, ServiceConfig, execute_method

    config = ServiceConfig()
    golds: dict = {}
    for method, params in requests:
        key = (method, json.dumps(params, sort_keys=True))
        if key in golds:
            continue
        if method == "cache.stats":
            golds[key] = None
            continue
        try:
            result = execute_method(method, params, config)
            golds[key] = ("ok", json.loads(json.dumps(result)))
        except HandlerError as exc:
            golds[key] = ("error", exc.code)
    return golds


def judge(segments) -> tuple[int, int, int]:
    """``(attempted, failed, wrong)`` over every request of every segment."""
    from repro.comm.exhaustive import clear_search_cache

    clear_search_cache()
    golds = gold_verdicts([req for segment in segments for req in segment.requests])
    attempted = failed = wrong = 0
    for segment in segments:
        for (method, params), timing in zip(segment.requests, segment.timings):
            gold = golds[(method, json.dumps(params, sort_keys=True))]
            outcome = classify(verdict_of(timing.reply), gold)
            attempted += 1
            failed += outcome == "failed"
            wrong += outcome == "wrong"
    return attempted, failed, wrong


#: One request per method, answered by :func:`setup` on a fresh service:
#: the time to first answer includes every lazy import a method needs.
SETUP_REQUESTS = (
    ("cache.stats", {}),
    ("cost.estimate", {"scenario": "equality", "seed": 0}),
    ("protocol.run", {"scenario": "equality", "seed": 0}),
    ("exhaustive.cc", {"matrix": [[0, 1], [1, 0]]}),
    ("partition.search", {"problem": "parity", "total_bits": 2}),
)


def setup(scratch: str) -> None:
    """Start a fresh service and answer one request of every method."""
    from repro.serve import Service, ServiceConfig, wire

    async def _probe():
        async with Service(ServiceConfig()) as service:
            for index, (method, params) in enumerate(SETUP_REQUESTS):
                raw = await service.call(
                    wire.request_frame(f"setup{index}", method, params),
                    tenant="setup",
                )
                reply = wire.validate_response(wire.decode_frame(raw))
                if not reply["ok"]:
                    raise RuntimeError(f"set-up {method} failed: {reply}")

    asyncio.run(_probe())


def run_ramp(seed: int, index: int) -> list:
    """One ramp: the rungs of :data:`RAMP_RPS` in turn, up to and including
    the first that misses the latency limit."""
    ramp = []
    for rate in RAMP_RPS:
        requests = make_requests(seed, f"ramp{index}-{rate}", RAMP_REQUESTS)
        ramp.append(run_segment(rate, requests, f"r{index}-{rate}"))
        if not meets_limit(ramp[-1:]):
            break
    return ramp


def measure(seed: int, seconds: float, scratch: str) -> dict:
    """The untraced schedule, gold-checked afterwards."""
    setup(scratch)
    segments, ramps = [], []
    for index, item in enumerate(SCHEDULE):
        if item == RAMP:
            ramps.append(run_ramp(seed, index))
            segments += ramps[-1]
            continue
        rate, part = item
        requests = make_requests(seed, f"segment{index}",
                                 int(rate * seconds * part))
        segments.append(run_segment(rate, requests, f"u{index}"))
    attempted, failed, wrong = judge(segments)

    def at(rate):
        return [s for s in segments if s.rate == rate]

    def latencies(rate):
        return [ms for s in at(rate) for ms in s.latencies_ms()]

    floor = max((rate for rate in (NOMINAL_RPS, PEAK_RPS)
                 if meets_limit(at(rate))), default=0)
    nominal = at(NOMINAL_RPS)
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "values": {
            "latency_p50_ms": percentile(latencies(NOMINAL_RPS), 50),
            "latency_p99_ms": percentile(latencies(NOMINAL_RPS), 99),
            "latency_p99_ms_peak": percentile(latencies(PEAK_RPS), 99),
            "max_rate_rps": statistics.median(
                ramp_reading(ramp, floor) for ramp in ramps),
            "throughput": share(sum(len(s.timings) for s in nominal),
                                sum(s.cpu_s for s in nominal)),
        },
    }


def layer_pass(seed: int, seconds: float, traced: bool, scratch: str) -> dict:
    """One nominal segment, traced or not, for the per-layer breakdown."""
    from repro import obs

    setup(scratch)
    duration = seconds * TRACED_SHARE
    requests = make_requests(seed, "layers", int(NOMINAL_RPS * duration))
    obs.reset()
    if traced:
        from repro import trace

        with trace.capture(capacity=4_000_000) as tracer:
            segment = run_segment(NOMINAL_RPS, requests, "t")
        events = tracer.events()
        dropped = tracer.dropped
    else:
        segment = run_segment(NOMINAL_RPS, requests, "t")
        events, dropped = [], 0
    counters = obs.snapshot()["counters"]
    attempted, failed, wrong = judge([segment])
    out = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "work_s": segment.cpu_s,
        "dropped": dropped,
    }
    if traced:
        out["layers"] = serve_layers(segment, events, counters, requests, "t")
    return out


def serve_layers(segment: Segment, events, counters: dict, requests,
                 tenant_prefix: str) -> dict:
    """The serve-side per-layer metrics of one traced segment."""
    from layers import (
        closed_spans, comm_layers, exhaustive_layers, pair_queue_waits,
    )
    from repro.costs import scenario_shape

    spans = closed_spans(events)
    admits = [
        (e.fields.get("tenant"), e.fields.get("method"), e.tick_ns)
        for e in events if e.kind == "event" and e.name == "serve.admit"
    ]
    executes = [
        (s.fields.get("tenant"), s.fields.get("method"), s.start_ns)
        for s in spans if s.name == "serve.execute"
    ]
    waits_ms = [w / 1e6 for w in pair_queue_waits(admits, executes)]
    admit_us = [s.duration_ns / 1e3 for s in spans if s.name == "serve.admit"]
    shape_us = []
    for method, params in requests:
        if method == "protocol.run" and "bit_budget" not in params:
            t0 = time.perf_counter_ns()
            scenario_shape(params["scenario"], params["seed"])
            shape_us.append((time.perf_counter_ns() - t0) / 1e3)
    lags_ms = [t.lag * 1000.0 for t in segment.timings]
    admitted = counters.get("serve.admitted", 0)
    absorbed = counters.get("serve.memo_hits", 0) + counters.get(
        "serve.coalesced", 0)
    layers = {
        "wire.request_frame_us.p50": percentile_or_zero(
            [n / 1e3 for n in segment.encode_ns], 50),
        "wire.decode_response_us.p50": percentile_or_zero(
            [n / 1e3 for n in segment.decode_ns], 50),
        "serve.absorbed_share": share(absorbed, admitted),
        "serve.admit_us.p50": percentile_or_zero(admit_us, 50),
        "serve.queue_wait_ms.p50": percentile_or_zero(waits_ms, 50),
        "serve.queue_wait_ms.p99": percentile_or_zero(waits_ms, 99),
        "loadgen.lag_ms.p50": percentile_or_zero(lags_ms, 50),
        "loadgen.lag_ms.p99": percentile_or_zero(lags_ms, 99),
        "costs.scenario_shape_us.p50": percentile_or_zero(shape_us, 50),
    }
    for name in ("admitted", "executed", "memo_hits", "coalesced",
                 "shed.overloaded", "deadline_expired", "priced_out"):
        layers[f"serve.{name}"] = counters.get(f"serve.{name}", 0)
    for method in ("protocol.run", "exhaustive.cc", "partition.search",
                   "cost.estimate"):
        times = [s.duration_ns / 1e6 for s in spans
                 if s.name == "serve.execute" and s.fields.get("method") == method]
        layers[f"serve.execute_ms.{method}.p50"] = percentile_or_zero(times, 50)
        layers[f"serve.execute_ms.{method}.p99"] = percentile_or_zero(times, 99)
    layers.update(tail_breakdown(segment, events, spans, tenant_prefix))
    layers.update(comm_layers(spans, events, counters))
    layers.update(exhaustive_layers(spans, counters))
    return layers


def tail_breakdown(segment: Segment, events, spans, tenant_prefix: str) -> dict:
    """Where the slowest 1% of requests spent their time, in mean ms:
    generator lag (the request was due but the loop was held, so it was
    not yet sent), queue wait (admitted, not yet executing) and handler
    execution.  The rest of each latency is wire, admission and the
    response path."""
    admitted = {}
    for e in events:
        if e.kind == "event" and e.name == "serve.admit":
            admitted.setdefault(e.fields.get("tenant"), e.tick_ns)
    executed = {s.fields.get("tenant"): s for s in spans
                if s.name == "serve.execute"}
    latencies = segment.latencies_ms()
    cutoff = percentile(latencies, 99)
    tail = [i for i, ms in enumerate(latencies) if ms >= cutoff]
    parts = {"lag_ms": 0.0, "queue_wait_ms": 0.0, "execute_ms": 0.0}
    for index in tail:
        tenant = f"{tenant_prefix}-{index}"
        parts["lag_ms"] += segment.timings[index].lag * 1000.0
        span = executed.get(tenant)
        if span is not None and tenant in admitted:
            parts["queue_wait_ms"] += (span.start_ns - admitted[tenant]) / 1e6
            parts["execute_ms"] += span.duration_ns / 1e6
    out = {f"serve.p99_tail.{k}": v / len(tail) for k, v in parts.items()}
    out["serve.p99_tail.latency_ms"] = sum(latencies[i] for i in tail) / len(tail)
    return out
