"""The Service: admission, deadlines, shedding, coalescing, budgets."""

import asyncio

import pytest

from repro import cache, obs
from repro.comm.exhaustive import clear_search_cache
from repro.serve import wire
from repro.serve.chaos import chaos_sweep
from repro.serve.service import (
    HandlerError,
    Service,
    ServiceConfig,
    coalesce_key,
    execute_method,
    handle_exhaustive_cc,
    handle_partition_search,
    handle_protocol_run,
)
from repro.serve.wire import decode_frame, request_frame, validate_response


def run(coro):
    return asyncio.run(coro)


def response_of(raw: bytes) -> dict:
    return validate_response(decode_frame(raw.rstrip(b"\n")))


async def one_call(data: bytes, config: ServiceConfig | None = None, tenant="t"):
    async with Service(config) as service:
        return response_of(await service.call(data, tenant=tenant))


def clean_load(clients: int, requests: int, seed: int, config=None):
    """The seeded mixed workload from concurrent retrying clients, no faults."""
    (point,) = chaos_sweep(
        kinds=("flip",), rate=0.0, requests_per_kind=requests,
        clients=clients, seed=seed, config=config,
    )
    return point


class TestHandlers:
    def test_protocol_run_equality(self):
        result = handle_protocol_run(
            {"scenario": "equality", "seed": 1}, ServiceConfig()
        )
        assert result["answer"] in (True, False)
        assert result["bits"] > 0

    def test_protocol_run_budget_exceeded(self):
        with pytest.raises(HandlerError) as err:
            handle_protocol_run(
                {"scenario": "equality", "seed": 0, "bit_budget": 1},
                ServiceConfig(),
            )
        assert err.value.code == "budget_exceeded"

    def test_protocol_run_rejects_unknown_scenario_and_params(self):
        with pytest.raises(HandlerError):
            handle_protocol_run({"scenario": "nope"}, ServiceConfig())
        with pytest.raises(HandlerError):
            handle_protocol_run(
                {"scenario": "equality", "bogus": 1}, ServiceConfig()
            )

    def test_exhaustive_cc_identity_matrix(self):
        result = handle_exhaustive_cc(
            {"matrix": [[1, 0], [0, 1]]}, ServiceConfig()
        )
        assert result["d"] == 2
        assert result["leaves"] == 4
        assert len(result["key"]) == 40  # blake2b-20 hex

    def test_exhaustive_cc_too_large(self):
        with pytest.raises(HandlerError) as err:
            handle_exhaustive_cc(
                {"matrix": [[0] * 9 for _ in range(9)]},
                ServiceConfig(exhaustive_limit=8),
            )
        assert err.value.code == "too_large"

    def test_exhaustive_cc_schema_violations(self):
        for bad in ([], [[]], [[2]], [[0], [0, 1]], "nope"):
            with pytest.raises(HandlerError) as err:
                handle_exhaustive_cc({"matrix": bad}, ServiceConfig())
            assert err.value.code == "bad_request"

    def test_partition_search_parity(self):
        result = handle_partition_search(
            {"problem": "parity", "total_bits": 4}, ServiceConfig()
        )
        assert result["best_d"] == result["worst_d"] == 2

    def test_partition_search_limits(self):
        with pytest.raises(HandlerError) as err:
            handle_partition_search(
                {"problem": "parity", "total_bits": 6},
                ServiceConfig(partition_bits_limit=4),
            )
        assert err.value.code == "too_large"
        with pytest.raises(HandlerError):
            handle_partition_search(
                {"problem": "parity", "total_bits": 3}, ServiceConfig()
            )

    def test_exact_handlers_search_in_this_process(self, monkeypatch):
        """``REPRO_WORKERS`` starts no process pool behind the event loop:
        both exact-search handlers count their search work here."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        cases = (
            (handle_exhaustive_cc,
             {"matrix": [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 0], [0, 1, 0, 1]]}),
            (handle_partition_search, {"problem": "parity", "total_bits": 4}),
        )
        for handler, params in cases:
            clear_search_cache()
            with cache.disabled(), obs.scoped():
                handler(params, ServiceConfig())
                counters = obs.snapshot()["counters"]
            assert counters.get("exhaustive.subproblems", 0) > 0, handler


class TestCoalescing:
    def test_identical_matrices_share_a_key(self):
        params_a = {"matrix": [[1, 0], [0, 1]]}
        params_b = {"matrix": [[1, 0], [0, 1]]}
        assert coalesce_key("exhaustive.cc", params_a) == coalesce_key(
            "exhaustive.cc", params_b
        )
        assert coalesce_key("exhaustive.cc", params_a) != coalesce_key(
            "exhaustive.cc", {"matrix": [[1, 1], [0, 1]]}
        )

    def test_cache_stats_is_never_coalesced(self):
        assert coalesce_key("cache.stats", {}) is None

    def test_duplicate_requests_hit_the_memo(self):
        async def scenario():
            with obs.scoped():
                async with Service() as service:
                    frames = [
                        request_frame(
                            f"r{i}", "exhaustive.cc",
                            {"matrix": [[1, 0], [0, 1]]}, tenant=f"t{i}",
                        )
                        for i in range(4)
                    ]
                    results = [
                        response_of(await service.call(f)) for f in frames
                    ]
                counters = obs.snapshot()["counters"]
            return results, counters

        results, counters = run(scenario())
        assert all(r["ok"] for r in results)
        assert len({wire.canonical_json(r["result"]) for r in results}) == 1
        assert counters["serve.executed"] == 1
        assert counters["serve.memo_hits"] == 3

    def test_concurrent_duplicates_coalesce_in_flight(self):
        async def scenario():
            with obs.scoped():
                async with Service(ServiceConfig()) as service:
                    frames = [
                        request_frame(
                            f"c{i}", "protocol.run",
                            {"scenario": "fingerprint", "seed": 7},
                            tenant=f"t{i}",
                        )
                        for i in range(6)
                    ]
                    results = await asyncio.gather(
                        *(service.call(f) for f in frames)
                    )
                counters = obs.snapshot()["counters"]
            return [response_of(r) for r in results], counters

        results, counters = run(scenario())
        assert all(r["ok"] for r in results)
        # One execution total; the rest either joined it in flight or hit
        # the memo after it resolved.
        assert counters["serve.executed"] == 1
        assert (
            counters.get("serve.coalesced", 0)
            + counters.get("serve.memo_hits", 0)
        ) == 5

    def test_coalescing_pays_under_clean_load(self):
        point = clean_load(clients=20, requests=80, seed=0)
        saved = point.counters.get("serve.memo_hits", 0) + point.counters.get(
            "serve.coalesced", 0
        )
        assert saved > 0
        assert point.counters["serve.executed"] < point.requests


class TestAdmissionAndShedding:
    def test_tenant_inflight_cap(self):
        async def scenario():
            config = ServiceConfig(max_inflight_per_tenant=1)
            async with Service(config) as service:
                slow = service.call(
                    request_frame(
                        "a", "protocol.run",
                        {"scenario": "matmul_verify", "seed": 0},
                        tenant="same",
                    ),
                    tenant="same",
                )
                fast = service.call(
                    request_frame("b", "cache.stats", tenant="same"),
                    tenant="same",
                )
                first, second = await asyncio.gather(slow, fast)
            return response_of(first), response_of(second)

        first, second = run(scenario())
        outcomes = {first["id"]: first, second["id"]: second}
        assert outcomes["a"]["ok"] is True
        rejected = outcomes["b"]
        assert rejected["ok"] is False
        assert rejected["error"]["code"] == "client_limit"
        assert rejected["error"]["retryable"] is True
        assert rejected["error"]["backoff_ticks"] >= 1

    def test_queue_full_sheds_with_overloaded(self):
        async def scenario():
            config = ServiceConfig(max_queue=1)
            async with Service(config) as service:
                calls = [
                    service.call(
                        request_frame(
                            f"q{i}", "protocol.run",
                            {"scenario": "equality", "seed": i},
                            tenant=f"t{i}",
                        ),
                        tenant=f"t{i}",
                    )
                    for i in range(6)
                ]
                raws = await asyncio.gather(*calls)
            return [response_of(r) for r in raws]

        responses = run(scenario())
        shed = [
            r for r in responses
            if not r["ok"] and r["error"]["code"] == "overloaded"
        ]
        served = [r for r in responses if r["ok"]]
        assert shed and served  # some shed, some served — and none hung
        for r in shed:
            assert r["error"]["retryable"] is True
            assert r["error"]["backoff_ticks"] >= 1

    def test_clean_load_loses_nothing(self):
        first = clean_load(clients=8, requests=24, seed=2)
        assert first.lost == first.hung == first.retries == 0
        assert first.ok + first.expected_errors == first.requests
        assert first.as_dict() == clean_load(clients=8, requests=24, seed=2).as_dict()

    def test_overload_sheds_and_backed_off_retries_lose_nothing(self):
        point = clean_load(
            clients=30, requests=60, seed=0,
            config=ServiceConfig(max_queue=2),
        )
        # With a starved queue the shed path must actually fire …
        assert point.counters.get("serve.shed.overloaded", 0) > 0
        assert point.retries > 0
        # … and clients that honour backoff_ticks still settle every request.
        assert point.lost == point.hung == point.silent_wrong == 0

    def test_unstarted_service_reports_shutting_down(self):
        raw = run(
            Service().call(request_frame("x", "cache.stats"), tenant="t")
        )
        frame = response_of(raw)
        assert frame["error"]["code"] == "shutting_down"


class TestDeadlines:
    def test_deadline_expires_by_ticks_not_wall_clock(self):
        async def scenario():
            config = ServiceConfig()
            async with Service(config) as service:
                calls = [
                    service.call(
                        request_frame(
                            f"d{i}", "protocol.run",
                            {"scenario": "equality", "seed": i},
                            tenant=f"t{i}",
                            deadline_ticks=1,
                        ),
                        tenant=f"t{i}",
                    )
                    for i in range(5)
                ]
                raws = await asyncio.gather(*calls)
            return [response_of(r) for r in raws]

        responses = run(scenario())
        expired = [
            r for r in responses
            if not r["ok"] and r["error"]["code"] == "deadline_exceeded"
        ]
        assert expired  # later arrivals waited > 1 tick behind the queue
        for r in expired:
            assert r["error"]["retryable"] is True

    def test_ticks_count_executions_not_expiries(self):
        """``Service.ticks`` advances once per executed request; a request
        answered ``deadline_exceeded`` is not executed and leaves it."""

        async def scenario():
            with obs.scoped():
                async with Service(ServiceConfig()) as service:
                    before = service.ticks
                    first = response_of(await service.call(
                        request_frame("solo", "exhaustive.cc",
                                      {"matrix": [[0, 1], [1, 1]]}),
                        tenant="t",
                    ))
                    after_one = service.ticks
                    raws = await asyncio.gather(*[
                        service.call(
                            request_frame(
                                f"d{i}", "protocol.run",
                                {"scenario": "equality", "seed": i},
                                tenant=f"t{i}", deadline_ticks=1,
                            ),
                            tenant=f"t{i}",
                        )
                        for i in range(5)
                    ])
                    ticks = service.ticks
                counters = obs.snapshot()["counters"]
            return before, first, after_one, raws, ticks, counters

        before, first, after_one, raws, ticks, counters = run(scenario())
        assert first["ok"] is True
        assert (before, after_one) == (0, 1)
        codes = [
            None if r["ok"] else r["error"]["code"]
            for r in map(response_of, raws)
        ]
        expired = codes.count("deadline_exceeded")
        assert expired  # the later arrivals waited behind the queue
        assert ticks == after_one + len(codes) - expired
        assert counters["serve.executed"] == ticks
        assert counters["serve.deadline_expired"] == expired

    def test_generous_deadline_never_expires(self):
        frame = request_frame(
            "ok-1", "exhaustive.cc", {"matrix": [[1]]}, deadline_ticks=1000
        )
        response = run(one_call(frame))
        assert response["ok"] is True


class TestServiceStats:
    def test_cache_stats_reports_counters_and_memo(self):
        async def scenario():
            with obs.scoped():
                async with Service() as service:
                    await service.call(
                        request_frame(
                            "w", "exhaustive.cc", {"matrix": [[1, 0], [0, 1]]}
                        ),
                        tenant="t",
                    )
                    raw = await service.call(
                        request_frame("s", "cache.stats"), tenant="t"
                    )
            return response_of(raw)

        frame = run(scenario())
        result = frame["result"]
        assert result["memo_entries"] == 1
        assert result["counters"]["serve.executed"] >= 1
        assert result["ticks"] == 1

    def test_internal_errors_are_contained(self, monkeypatch):
        import repro.serve.service as service_module

        def explode(params, config):
            raise RuntimeError("engine on fire")

        monkeypatch.setitem(
            service_module.PURE_HANDLERS, "exhaustive.cc", explode
        )
        response = run(
            one_call(request_frame("x", "exhaustive.cc", {"matrix": [[1]]}))
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "internal"
        assert response["error"]["retryable"] is False


class TestExecuteMethod:
    def test_gold_matches_served_answer(self):
        params = {"matrix": [[1, 0], [0, 1]]}
        gold = execute_method("exhaustive.cc", params, ServiceConfig())
        served = run(one_call(request_frame("g", "exhaustive.cc", params)))
        assert served["result"] == gold

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServiceConfig(default_deadline_ticks=0)


class TestCostEstimate:
    """``cost.estimate`` and the pre-execution pricing it shares with
    ``protocol.run``: predictions are the exact symbolic costs, and an
    over-budget run is rejected before any executor work happens."""

    def test_estimate_matches_the_symbolic_calculus(self):
        from repro.costs import scenario_shape
        from repro.serve.service import handle_cost_estimate

        result = handle_cost_estimate(
            {"scenario": "fingerprint", "seed": 3}, ServiceConfig()
        )
        shape = scenario_shape("fingerprint", 3)
        assert result["bits"] == shape.total_bits
        assert result["bits_agent0"] == shape.bits_from(0)
        assert result["bits_agent1"] == shape.bits_from(1)
        assert result["rounds"] == shape.rounds
        assert result["arq_wire_bits"] == shape.arq_wire_bits()
        assert result["arq_wire_bits"] > result["bits"]  # framing isn't free

    def test_estimate_prices_admission_correctly(self):
        from repro.serve.service import handle_cost_estimate

        priced = handle_cost_estimate(
            {"scenario": "equality", "seed": 0}, ServiceConfig()
        )
        need = max(priced["bits_agent0"], priced["bits_agent1"])
        exact = handle_cost_estimate(
            {"scenario": "equality", "seed": 0, "bit_budget": need},
            ServiceConfig(),
        )
        assert exact["admitted"] is True
        starved = handle_cost_estimate(
            {"scenario": "equality", "seed": 0, "bit_budget": need - 1},
            ServiceConfig(),
        )
        assert starved["admitted"] is False
        # The estimate's verdict is the run's reality, both ways.
        assert (
            handle_protocol_run(
                {"scenario": "equality", "seed": 0, "bit_budget": need},
                ServiceConfig(),
            )["bits"]
            > 0
        )
        with pytest.raises(HandlerError) as err:
            handle_protocol_run(
                {"scenario": "equality", "seed": 0, "bit_budget": need - 1},
                ServiceConfig(),
            )
        assert err.value.code == "budget_exceeded"

    def test_estimate_validates_like_protocol_run(self):
        from repro.serve.service import handle_cost_estimate

        with pytest.raises(HandlerError) as err:
            handle_cost_estimate({"scenario": "nope"}, ServiceConfig())
        assert err.value.code == "bad_request"
        with pytest.raises(HandlerError) as err:
            handle_cost_estimate(
                {"scenario": "equality", "bogus": 1}, ServiceConfig()
            )
        assert err.value.code == "bad_request"

    def test_over_budget_run_rejected_before_execution(self):
        # The pricer fires before the executor: the rejection increments
        # serve.priced_out and the message says so explicitly.
        with obs.scoped():
            with pytest.raises(HandlerError) as err:
                handle_protocol_run(
                    {"scenario": "equality", "seed": 0, "bit_budget": 2},
                    ServiceConfig(),
                )
            counters = obs.snapshot()["counters"]
        assert err.value.code == "budget_exceeded"
        assert "rejected before execution" in str(err.value)
        assert counters.get("serve.priced_out") == 1

    def test_estimate_served_over_the_wire(self):
        frame = request_frame("r1", "cost.estimate", {"scenario": "trivial"})
        response = run(one_call(frame))
        assert response["ok"], response
        assert response["result"]["admitted"] is True
        assert response["result"]["bits"] == response["result"][
            "bits_agent0"
        ] + response["result"]["bits_agent1"]
