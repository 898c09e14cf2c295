"""Tests of the benchmark's own logic (no ``repro`` needed).

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import asyncio
import builtins
import dis
import importlib
import json
import os
import types

import pytest

from common import classify, percentile, quartiles
from compare import verdict
from layers import (
    closed_spans, pair_queue_waits, ring_drops, self_time_ns, worker_events,
)
from run import end_to_end
from serve_mixed import (
    RAMP, RAMP_REQUESTS, RAMP_RPS, SCHEDULE, Segment, Timing, make_requests,
    open_loop, ramp_reading,
)

SPEC_PATH = os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")


def ev(seq, tick, kind, name, span=None, parent=None, **fields):
    return types.SimpleNamespace(seq=seq, tick_ns=tick, kind=kind, name=name,
                                 span=span, parent=parent, fields=fields)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 11))
        assert percentile(values, 50) == 5
        assert percentile(values, 90) == 9
        assert percentile(values, 99) == 10
        assert percentile(values, 100) == 10
        assert percentile(values, 0) == 1

    def test_order_of_input_does_not_matter(self):
        assert percentile([9, 1, 5, 3, 7], 50) == 5

    def test_p99_needs_a_hundred_values_to_leave_the_maximum(self):
        values = list(range(1, 201))
        assert percentile(values, 99) == 198
        assert percentile(values[:99], 99) == 99

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_quartiles_match_statistics(self):
        assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    async def sleep(self, seconds):
        # Let ready tasks run first; one of them may hold the "loop" and
        # move the clock past the wake-up time.
        target = self.now + seconds
        await asyncio.sleep(0)
        self.now = max(self.now, target)


class TestOpenLoop:
    def run(self, due, stall_at, stall):
        clock = FakeClock()

        async def send(index):
            if index == stall_at:
                clock.now += stall  # the handler holds the loop
            return index

        return asyncio.run(open_loop(due, send, clock, clock.sleep, 60.0))

    def test_no_stall_means_no_latency(self):
        timings = self.run([0.0, 1.0, 2.0, 3.0], stall_at=None, stall=0)
        assert [t.latency for t in timings] == [0.0, 0.0, 0.0, 0.0]
        assert [t.lag for t in timings] == [0.0, 0.0, 0.0, 0.0]

    def test_a_stall_is_charged_to_every_later_request(self):
        due = [float(i) for i in range(10)]
        timings = self.run(due, stall_at=2, stall=5.0)
        stall_end = timings[2].done
        assert stall_end == 7.0
        for timing in timings[3:]:
            if timing.due < stall_end:
                # Sent late and timed from its due time, not its send time.
                assert timing.lag > 0
                assert timing.latency == pytest.approx(stall_end - timing.due)
        assert all(t.latency > 0 for t in timings[3:7])
        assert timings[-1].latency == pytest.approx(max(0.0, stall_end - 9.0))

    def test_a_closed_loop_would_hide_the_stall(self):
        timings = self.run([0.0, 1.0, 2.0, 3.0], stall_at=0, stall=2.5)
        send_based = [t.done - t.sent for t in timings[1:]]
        due_based = [t.latency for t in timings[1:]]
        assert send_based == [0.0, 0.0, 0.0]
        assert due_based[0] > 0 and due_based[1] > 0


class TestFailureAccounting:
    def test_bait_errors_matching_gold_are_successes(self):
        assert classify(("error", "too_large"), ("error", "too_large")) == "ok"
        assert classify(("error", "budget_exceeded"),
                        ("error", "budget_exceeded")) == "ok"

    @pytest.mark.parametrize(
        "code", ["overloaded", "client_limit", "deadline_exceeded", "internal"]
    )
    def test_shed_expired_and_internal_are_failures(self, code):
        assert classify(("error", code), ("ok", {"d": 2})) == "failed"

    def test_lost_is_a_failure(self):
        assert classify(None, ("ok", {"d": 2})) == "failed"

    def test_a_different_answer_is_wrong_not_failed(self):
        assert classify(("ok", {"d": 3}), ("ok", {"d": 2})) == "wrong"
        assert classify(("error", "too_large"), ("ok", {"d": 2})) == "wrong"

    def test_stats_requests_only_need_to_succeed(self):
        assert classify(("ok", {"ticks": 7}), None) == "ok"
        assert classify(("error", "bad_request"), None) == "wrong"

    def test_failed_requests_miss_every_latency_limit(self):
        def reply(code):
            if code is None:
                return {"ok": True, "result": {"d": 2}}
            return {"ok": False, "error": {"code": code}}

        segment = Segment(rate=1, requests=[], timings=[
            Timing(due=0.0, done=0.002, reply=reply(None)),
            Timing(due=0.0, done=0.001, reply=reply("too_large")),
            Timing(due=0.0, done=0.001, reply=reply("overloaded")),
            Timing(due=0.0, done=0.001, reply=reply("deadline_exceeded")),
            Timing(due=0.0),
        ])
        assert segment.latencies_ms() == [
            pytest.approx(2.0), pytest.approx(1.0),
            float("inf"), float("inf"), float("inf"),
        ]

    def test_ok_share_counts_failures_over_attempts(self):
        measured = {"values": {"throughput": 9.0}, "peak_rss_mb": 1.0,
                    "attempted": 200, "failed": 3}
        metrics = end_to_end(["ok_share", "setup_s", "max_rate_rps"],
                             [{"setup_s": 0.2}, {"setup_s": 0.4},
                              {"setup_s": 0.3}], measured)
        assert metrics == {"ok_share": 0.985, "setup_s": 0.3,
                           "max_rate_rps": 9.0}


class TestQueueWaitPairing:
    def test_pairs_by_tenant(self):
        admits = [("a", "exhaustive.cc", 100), ("b", "exhaustive.cc", 110),
                  ("c", "protocol.run", 120)]
        executes = [("b", "exhaustive.cc", 150), ("a", "exhaustive.cc", 400),
                    ("c", "protocol.run", 410)]
        assert sorted(pair_queue_waits(admits, executes)) == [40, 290, 300]

    def test_admits_that_never_execute_stay_unpaired(self):
        admits = [("memo", "exhaustive.cc", 100), ("run", "exhaustive.cc", 105)]
        executes = [("run", "exhaustive.cc", 130)]
        assert pair_queue_waits(admits, executes) == [25]

    def test_an_execute_before_its_admit_is_not_paired(self):
        assert pair_queue_waits([("a", "m", 200)], [("a", "m", 100)]) == []


class TestSpans:
    def test_self_time_subtracts_children(self):
        events = [
            ev(0, 0, "span_start", "outer", span=0),
            ev(1, 10, "span_start", "inner", span=1, parent=0),
            ev(2, 40, "span_end", "inner", span=1, parent=0),
            ev(3, 50, "span_start", "inner", span=3, parent=0),
            ev(4, 60, "span_end", "inner", span=3, parent=0),
            ev(5, 100, "span_end", "outer", span=0),
        ]
        spans = {s.span_id: s for s in closed_spans(events)}
        assert spans[0].duration_ns == 100
        assert self_time_ns(spans[0]) == 60
        assert self_time_ns(spans[1]) == 30

    def test_worker_events_skip_the_forked_copy(self):
        events = [
            ev(0, 0, "span_start", "parmap", span=0),
            ev(1, 5, "span_start", "parmap.shard", span=1, parent=0),
            ev(2, 9, "span_end", "parmap.shard", span=1, parent=0),
        ]
        assert [e.seq for e in worker_events(events)] == [1, 2]
        assert ring_drops(events) == 0
        assert ring_drops(events[1:]) == 1


class TestVerdict:
    def test_regression_beyond_the_bound_is_worse(self):
        assert verdict([10.0] * 5, [12.0] * 5, "lower", 0.1) == "worse"

    def test_within_the_bound_is_no_worse(self):
        assert verdict([10.0, 10.1, 9.9], [10.5, 10.4, 10.6], "lower",
                       0.1) == "no worse"

    def test_clear_gain_is_better(self):
        assert verdict([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0],
                       "lower", 0.1) == "better"

    def test_noise_wider_than_the_bound_is_unresolved(self):
        assert verdict([5.0, 10.0, 15.0, 10.0], [11.0, 6.0, 14.0, 9.0],
                       "higher", 0.1) == "unresolved"


class TestInputs:
    def test_same_seed_same_inputs(self):
        assert make_requests(3, "rung", 300) == make_requests(3, "rung", 300)
        assert make_requests(3, "rung", 300) != make_requests(4, "rung", 300)

    def test_heavy_searches_are_unique_and_evenly_spaced(self):
        requests = make_requests(1, "rung", 1000)
        heavy = [i for i, (method, params) in enumerate(requests)
                 if method == "exhaustive.cc"
                 and len(params["matrix"]) == 6]
        assert len(heavy) == 40
        assert min(b - a for a, b in zip(heavy, heavy[1:])) >= 25
        keys = {str(requests[i][1]["matrix"]) for i in heavy}
        assert len(keys) == len(heavy)

    def test_every_segment_fits_the_pool_of_unique_heavy_searches(self):
        with open(SPEC_PATH) as handle:
            seconds = json.load(handle)["run_seconds"]
        fixed = [item for item in SCHEDULE if item != RAMP]
        assert sum(part for _rate, part in fixed) < 1
        for index, (rate, part) in enumerate(fixed):
            make_requests(1, f"segment{index}", int(rate * seconds * part))
        make_requests(1, "ramp", RAMP_REQUESTS)


def _segment(rate, latency_s):
    """A one-request segment answered ``latency_s`` after it fell due."""
    reply = {"ok": True, "result": {}}
    return Segment(rate=rate, requests=[], timings=[
        Timing(due=0.0, sent=0.0, done=latency_s, reply=reply)])


class TestRamp:
    def test_rungs_are_finer_than_the_bound(self):
        with open(SPEC_PATH) as handle:
            spec = json.load(handle)
        bound = {m["name"]: m["bound"]
                 for m in spec["end_to_end"]}["max_rate_rps"]
        for low, high in zip(RAMP_RPS, RAMP_RPS[1:]):
            assert 1 < high / low and 1 - low / high < bound

    def test_reading_is_the_last_rung_before_the_first_miss(self):
        ramp = [_segment(540, 0.030), _segment(600, 0.050),
                _segment(670, 0.400)]
        assert ramp_reading(ramp, floor=200) == 600.0

    def test_a_ramp_that_misses_its_first_rung_reads_the_floor(self):
        assert ramp_reading([_segment(540, 0.400)], floor=200) == 200.0

    def test_a_ramp_that_never_misses_reads_its_top_rung(self):
        ramp = [_segment(rate, 0.030) for rate in RAMP_RPS]
        assert ramp_reading(ramp, floor=200) == float(RAMP_RPS[-1])


def _global_loads(code):
    """Every name ``code`` and the code nested in it load as a global."""
    for instruction in dis.get_instructions(code):
        if instruction.opname == "LOAD_GLOBAL":
            yield instruction.argval
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _global_loads(const)


@pytest.mark.parametrize("name", [
    "common", "compare", "exact_batch", "layers", "matrix_sweep", "passes",
    "run", "sample", "serve_mixed",
])
def test_every_global_a_module_loads_is_defined(name):
    # A pass that only runs traced (or only untraced) can hold a misspelt
    # name that no other test reaches; this finds it without running it.
    module = importlib.import_module(name)
    with open(module.__file__) as handle:
        code = compile(handle.read(), module.__file__, "exec")
    missing = sorted({
        global_name for global_name in _global_loads(code)
        if not hasattr(module, global_name)
        and not hasattr(builtins, global_name)
    })
    assert missing == []
