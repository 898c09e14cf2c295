"""Every rule code fires on its seeded fixture violation — and only there.

The fixture tree (tests/lint/fixtures) mirrors the real layout so the
default scope patterns apply; each test pins one rule code to the symbol
that seeds it, plus a control that must stay clean.
"""

from tests.lint.conftest import codes_at, findings_at

EXA = "src/repro/exact/exa_cases.py"
SES = "src/repro/protocols/ses_cases.py"
COST = "src/repro/protocols/cost_cases.py"
PLAN = "src/repro/costs/plan.py"
ASY = "src/repro/serve/asy_cases.py"
DET = "src/repro/protocols/det_cases.py"
CACHE = "src/repro/cache/cache_cases.py"
TRACE = "src/repro/trace/trace_cases.py"
ISO = "src/repro/protocols/iso_cases.py"
WIRE = "src/repro/protocols/wire.py"
SERVE = "src/repro/serve/serve_cases.py"


class TestExaFamily:
    def test_float_literal(self, fixture_report):
        assert codes_at(fixture_report, EXA, "half") == {"EXA101"}

    def test_complex_literal(self, fixture_report):
        assert codes_at(fixture_report, EXA, "spin") == {"EXA101"}

    def test_float_conversion(self, fixture_report):
        assert codes_at(fixture_report, EXA, "to_float") == {"EXA102"}

    def test_float_math_member(self, fixture_report):
        assert codes_at(fixture_report, EXA, "log_of") == {"EXA102"}

    def test_integer_math_is_clean(self, fixture_report):
        assert codes_at(fixture_report, EXA, "isqrt_ok") == set()

    def test_float_dtype_kwarg(self, fixture_report):
        assert "EXA103" in codes_at(fixture_report, EXA, "as_float_array")

    def test_astype_string_dtype(self, fixture_report):
        assert "EXA103" in codes_at(fixture_report, EXA, "stringly_typed")

    def test_np_linalg(self, fixture_report):
        assert codes_at(fixture_report, EXA, "numeric_rank") == {"EXA103"}

    def test_tolerance_comparison(self, fixture_report):
        assert codes_at(fixture_report, EXA, "near") == {"EXA104"}

    def test_integer_dtype_is_clean(self, fixture_report):
        assert codes_at(fixture_report, EXA, "uint_ok") == set()

    def test_allowlisted_module_is_skipped(self, fixture_report):
        assert findings_at(fixture_report, "src/repro/exact/modnp.py") == []

    def test_out_of_scope_module_is_skipped(self, fixture_report):
        assert findings_at(fixture_report, "src/repro/util/out_of_scope.py") == []


class TestDetFamily:
    def test_ambient_random_attribute(self, fixture_report):
        assert codes_at(fixture_report, DET, "ambient_coin") == {"DET201"}

    def test_from_random_import(self, fixture_report):
        module_level = findings_at(fixture_report, DET, symbol="", code="DET201")
        assert module_level, "from random import ... must flag at module level"

    def test_numpy_random(self, fixture_report):
        assert codes_at(fixture_report, DET, "np_noise") == {"DET202"}

    def test_wall_clock(self, fixture_report):
        assert codes_at(fixture_report, DET, "wall_clock_deadline") == {"DET203"}

    def test_datetime_now(self, fixture_report):
        assert codes_at(fixture_report, DET, "stamped") == {"DET203"}

    def test_set_iteration_feeding_send(self, fixture_report):
        assert codes_at(fixture_report, DET, "leaks_set_order") == {"DET204"}

    def test_values_view_feeding_send(self, fixture_report):
        assert codes_at(fixture_report, DET, "leaks_values_view") == {"DET204"}

    def test_set_iteration_without_sink_is_clean(self, fixture_report):
        assert codes_at(fixture_report, DET, "harmless_set_iteration") == set()

    def test_sorted_iteration_in_sink_is_clean(self, fixture_report):
        assert codes_at(fixture_report, DET, "canonical_order") == set()


class TestDetOnCache:
    """The DET family watches repro.cache.* (byte-stable record contract)."""

    def test_ambient_random(self, fixture_report):
        assert codes_at(fixture_report, CACHE, "jittered_retry_delay") == {"DET201"}

    def test_wall_clock(self, fixture_report):
        assert codes_at(fixture_report, CACHE, "timestamped_record") == {"DET203"}

    def test_from_time_import(self, fixture_report):
        module_level = findings_at(fixture_report, CACHE, symbol="", code="DET203")
        assert module_level, "from time import time must flag at module level"

    def test_values_view_feeding_encoder(self, fixture_report):
        assert codes_at(fixture_report, CACHE, "leaks_field_order") == {"DET204"}

    def test_set_iteration_feeding_encoder(self, fixture_report):
        assert codes_at(fixture_report, CACHE, "leaks_key_set") == {"DET204"}

    def test_set_without_sink_is_clean(self, fixture_report):
        assert codes_at(fixture_report, CACHE, "harmless_set_membership") == set()

    def test_sorted_encoding_is_clean(self, fixture_report):
        assert codes_at(fixture_report, CACHE, "canonical_encoding") == set()


class TestDetOnTrace:
    """The DET family watches repro.trace.* (byte-stable trace records)."""

    def test_ambient_random(self, fixture_report):
        assert codes_at(fixture_report, TRACE, "jittered_flush_delay") == {"DET201"}

    def test_wall_clock(self, fixture_report):
        assert codes_at(fixture_report, TRACE, "wall_clock_stamp") == {"DET203"}

    def test_undeclared_monotonic_tick(self, fixture_report):
        assert codes_at(fixture_report, TRACE, "bare_monotonic_tick") == {"DET203"}

    def test_pragma_declared_tick_is_suppressed(self, fixture_report):
        found = findings_at(
            fixture_report, TRACE, "pragma_declared_tick", code="DET203"
        )
        assert found and all(f.suppressed == "pragma" for f in found)

    def test_values_view_feeding_encoder(self, fixture_report):
        assert codes_at(fixture_report, TRACE, "leaks_field_order") == {"DET204"}

    def test_sorted_encoding_is_clean(self, fixture_report):
        assert codes_at(fixture_report, TRACE, "canonical_event_encoding") == set()


class TestIsoFamily:
    def test_other_party_view_param_and_read(self, fixture_report):
        found = findings_at(
            fixture_report, ISO, "PeekingProtocol.agent0", code="ISO301"
        )
        assert len(found) >= 2  # the parameter and the read

    def test_mutable_global_touch(self, fixture_report):
        assert codes_at(fixture_report, ISO, "PeekingProtocol.agent1") == {"ISO302"}

    def test_global_statement(self, fixture_report):
        found = findings_at(
            fixture_report, ISO, "PeekingProtocol.alice_sneaky", code="ISO302"
        )
        assert found and "global statement" in found[0].message

    def test_direct_channel_calls(self, fixture_report):
        found = findings_at(fixture_report, ISO, "bob_direct", code="ISO303")
        assert len(found) == 2  # .send() and the constructor

    def test_split_input_in_agent(self, fixture_report):
        assert codes_at(fixture_report, ISO, "agent0") == {"ISO304"}

    def test_neutral_function_is_clean(self, fixture_report):
        assert codes_at(fixture_report, ISO, "neutral_helper") == set()


class TestWireFamily:
    def test_encoder_without_decoder(self, fixture_report):
        found = findings_at(fixture_report, WIRE, "encode_orphan", code="WIRE401")
        assert found and "decode_orphan" in found[0].message

    def test_decoder_without_encoder(self, fixture_report):
        found = findings_at(fixture_report, WIRE, "decode_widow", code="WIRE402")
        assert found and "encode_widow" in found[0].message

    def test_unexercised_pair(self, fixture_report):
        found = findings_at(fixture_report, WIRE, "encode_untested", code="WIRE403")
        assert found

    def test_exercised_pair_is_clean(self, fixture_report):
        assert codes_at(fixture_report, WIRE, "encode_tag") == set()
        assert codes_at(fixture_report, WIRE, "decode_tag") == set()


class TestServeCases:
    """DET/ISO scope extended over repro.serve: handlers stay tick-pure."""

    def test_wall_clock_deadline_flagged(self, fixture_report):
        assert codes_at(
            fixture_report, SERVE, "deadline_from_wall_clock"
        ) == {"DET203"}

    def test_unseeded_backoff_jitter_flagged(self, fixture_report):
        assert codes_at(fixture_report, SERVE, "jittered_backoff") == {"DET201"}

    def test_dict_order_reaching_encoder_flagged(self, fixture_report):
        assert codes_at(fixture_report, SERVE, "leaks_param_order") == {"DET204"}

    def test_pragma_declared_latency_probe_is_suppressed(self, fixture_report):
        found = findings_at(
            fixture_report, SERVE, "latency_probe", code="DET203"
        )
        assert found and all(f.suppressed == "pragma" for f in found)

    def test_sorted_iteration_into_encoder_is_clean(self, fixture_report):
        assert codes_at(fixture_report, SERVE, "canonical_response") == set()

    def test_shared_per_client_state_flagged(self, fixture_report):
        found = findings_at(fixture_report, SERVE, "agent0", code="ISO302")
        assert found  # a party writing a mutable module global

    def test_global_statement_in_party_flagged(self, fixture_report):
        found = findings_at(
            fixture_report, SERVE, "alice_session", code="ISO302"
        )
        assert found and "global statement" in found[0].message

    def test_tick_deadline_control_is_clean(self, fixture_report):
        assert codes_at(fixture_report, SERVE, "tick_deadline") == set()

    def test_asy_fixture_codes_do_not_leak_into_serve_cases(self, fixture_report):
        """serve_cases.py has no coroutines: the ASY family stays silent."""
        assert not any(
            f.code.startswith("ASY")
            for f in findings_at(fixture_report, SERVE)
        )

    def test_real_serve_modules_are_clean(self):
        from pathlib import Path

        from repro.lint import default_config, run_lint

        repo_root = Path(__file__).resolve().parents[2]
        config = default_config(repo_root)
        report = run_lint(config, repo_root=repo_root)
        serve_findings = [
            f for f in report.findings if "/serve/" in f.path.replace("\\", "/")
        ]
        # The serve package reads no wall clock and needs no pragma: no
        # finding at all, suppressed or active.
        assert serve_findings == []


class TestSesFamily:
    """Session duality over the seeded fixture protocols."""

    def test_turn_order_mismatch(self, fixture_report):
        assert codes_at(fixture_report, SES, "MismatchedTurnOrder") == {"SES501"}

    def test_unmatched_recv(self, fixture_report):
        found = findings_at(fixture_report, SES, "UnmatchedRecv", code="SES501")
        assert found and "unmatched" in found[0].message

    def test_width_mismatch(self, fixture_report):
        found = findings_at(fixture_report, SES, "WidthMismatch", code="SES502")
        assert len(found) == 1
        assert "width" in found[0].message
        assert codes_at(fixture_report, SES, "WidthMismatch") == {"SES502"}

    def test_loop_bound_mismatch(self, fixture_report):
        found = findings_at(
            fixture_report, SES, "LoopBoundMismatch", code="SES503"
        )
        assert found and "rounds" in found[0].message
        assert codes_at(fixture_report, SES, "LoopBoundMismatch") == {"SES503"}

    def test_well_paired_control_is_clean(self, fixture_report):
        assert codes_at(fixture_report, SES, "WellPaired") == set()

    def test_helper_dispatch_control_is_clean(self, fixture_report):
        assert codes_at(fixture_report, SES, "DispatchedProtocol") == set()

    def test_unbounded_streaming_control_is_clean(self, fixture_report):
        """Data-dependent while loops degrade to UNBOUNDED, not findings."""
        assert codes_at(fixture_report, SES, "StreamingRecv") == set()

    def test_pragma_suppresses_ses(self, fixture_report):
        found = findings_at(
            fixture_report, SES, "SilencedMismatch", code="SES501"
        )
        assert found and all(f.suppressed == "pragma" for f in found)


class TestCostFamily:
    """Plan accounting between cost_cases.py and the fixture plan table."""

    def test_drifted_width(self, fixture_report):
        found = findings_at(fixture_report, COST, "DriftedProtocol", code="COST601")
        assert len(found) == 1
        assert "2*n_bits" in found[0].message and "n_bits" in found[0].message

    def test_undeclared_protocol(self, fixture_report):
        assert codes_at(fixture_report, COST, "UndeclaredProtocol") == {"COST602"}

    def test_orphan_plan_entry(self, fixture_report):
        found = findings_at(
            fixture_report, PLAN, "PROTOCOL_PLANS", code="COST603"
        )
        assert len(found) == 1
        assert "GhostProtocol" in found[0].message

    def test_accounted_control_is_clean(self, fixture_report):
        assert codes_at(fixture_report, COST, "AccountedProtocol") == set()

    def test_pragma_suppresses_cost(self, fixture_report):
        found = findings_at(fixture_report, COST, "SilencedDrift", code="COST601")
        assert found and all(f.suppressed == "pragma" for f in found)


class TestAsyFamily:
    """asyncio hazards in the seeded serve fixture."""

    def test_blocking_call_in_coroutine(self, fixture_report):
        assert codes_at(
            fixture_report, ASY, "BlockingHandler.handle"
        ) == {"ASY701"}

    def test_awaited_sleep_control_is_clean(self, fixture_report):
        assert codes_at(fixture_report, ASY, "BlockingHandler.polite") == set()

    def test_dropped_coroutine(self, fixture_report):
        found = findings_at(
            fixture_report, ASY, "DroppedCoroutine.stop", code="ASY702"
        )
        assert found and "_flush" in found[0].message

    def test_awaited_and_scheduled_controls_are_clean(self, fixture_report):
        assert codes_at(
            fixture_report, ASY, "DroppedCoroutine.stop_properly"
        ) == set()
        assert codes_at(
            fixture_report, ASY, "DroppedCoroutine.stop_scheduled"
        ) == set()

    def test_stale_writeback_across_await(self, fixture_report):
        found = findings_at(
            fixture_report, ASY, "StaleCounter.release", code="ASY703"
        )
        assert len(found) == 1
        assert "_inflight" in found[0].message

    def test_reread_after_await_control_is_clean(self, fixture_report):
        assert codes_at(
            fixture_report, ASY, "StaleCounter.release_fresh"
        ) == set()

    def test_pragma_suppresses_asy(self, fixture_report):
        found = findings_at(
            fixture_report, ASY, "SilencedBlocking.handle", code="ASY701"
        )
        assert found and all(f.suppressed == "pragma" for f in found)
