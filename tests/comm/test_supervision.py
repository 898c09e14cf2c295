"""Tests for the supervision layer: budgets, timeouts, structured reports."""

import pytest

from repro.comm.agents import (
    OUTCOMES,
    BudgetExceeded,
    Drain,
    ProtocolDeadlock,
    ProtocolError,
    Recv,
    RunReport,
    Send,
    run_protocol,
    run_supervised,
    run_with_retries,
)
from repro.comm.bits import bits_to_int
from repro.comm.channel import BitChannel, ChannelClosed, Transcript
from repro.comm.faults import ChannelDropFaults, FaultyChannel


def ping_pong0(_):
    """Send one bit, read one back."""
    yield Send(1, 1)
    bit = yield Recv(1)
    return bit


def ping_pong1(_):
    """Read one bit, echo it."""
    bit = yield Recv(1)
    yield Send(bit, 1)
    return bit


class TestEffects:
    def test_recv_validation(self):
        with pytest.raises(ValueError):
            Recv(-1)
        with pytest.raises(ValueError):
            Recv(1, timeout=0)
        assert Recv(1).timeout is None

    def test_drain_returns_queued_bits(self):
        def agent0(_):
            yield Send(bits_to_int([1, 0, 1]), 3)
            return "sent"

        def agent1(_):
            got = yield Drain()
            return got

        result = run_protocol(agent0, agent1, None, None)
        assert result.outputs == ("sent", (bits_to_int([1, 0, 1]), 3))

    def test_recv_timeout_injects_none(self):
        def agent0(_):
            got = yield Recv(5, timeout=7)
            return got

        def agent1(_):
            return "silent"
            yield  # pragma: no cover — makes this a generator

        report = run_supervised(agent0, agent1, None, None)
        assert report.outcome == "ok"
        assert report.outputs == (None, "silent")
        assert report.ticks >= 7  # the clock jumped to the deadline


class TestOutcomes:
    def test_ok(self):
        report = run_supervised(ping_pong0, ping_pong1, None, None)
        assert report.outcome == "ok" and report.ok
        assert report.outputs == (1, 1)
        assert report.agreed_output() == 1
        assert report.bits_exchanged == 2
        assert report.outcome in OUTCOMES

    def test_deadlock(self):
        def agent(_):
            yield Recv(1)
            return None

        report = run_supervised(agent, agent, None, None)
        assert report.outcome == "deadlock"
        assert "blocked" in report.detail
        with pytest.raises(ProtocolError):
            report.agreed_output()

    def test_agent_error(self):
        def agent0(_):
            raise RuntimeError("boom")
            yield  # pragma: no cover

        report = run_supervised(agent0, ping_pong1, None, None)
        assert report.outcome == "agent_error"
        assert "boom" in report.detail

    def test_step_budget(self):
        def chatty0(_):
            for _ in range(100):
                yield Send(1, 1)
            return None

        def sink1(_):
            got = yield Recv(100)
            return got

        report = run_supervised(chatty0, sink1, None, None, step_budget=10)
        assert report.outcome == "budget_exceeded"
        assert "step budget" in report.detail

    def test_bit_budget(self):
        def blaster0(_):
            yield Send((1 << 50) - 1, 50)
            return None

        def sink1(_):
            got = yield Recv(50)
            return got

        report = run_supervised(blaster0, sink1, None, None, bit_budget=10)
        assert report.outcome == "budget_exceeded"
        assert "bit budget" in report.detail

    def test_transport_failure_on_channel_drop(self):
        channel = FaultyChannel(ChannelDropFaults(after_messages=0))
        report = run_supervised(ping_pong0, ping_pong1, None, None, channel=channel)
        assert report.outcome == "transport_failure"
        assert "ChannelClosed" in report.detail

    def test_unread_bits_reported_not_raised(self):
        def agent0(_):
            yield Send(0b111, 3)
            return "done"

        def agent1(_):
            bit = yield Recv(1)
            return bit

        report = run_supervised(agent0, agent1, None, None)
        assert report.outcome == "ok"
        assert report.unread_bits == 2

    def test_strict_entry_point_still_raises(self):
        def agent(_):
            yield Recv(1)
            return None

        with pytest.raises(ProtocolDeadlock):
            run_protocol(agent, agent, None, None)

        def blaster0(_):
            yield Send((1 << 50) - 1, 50)
            return None

        def sink1(_):
            got = yield Recv(50)
            return got

        with pytest.raises(BudgetExceeded):
            run_protocol(blaster0, sink1, None, None, bit_budget=10)

    def test_strict_entry_point_unwraps_crash(self):
        def agent0(_):
            raise KeyError("inner")
            yield  # pragma: no cover

        with pytest.raises(KeyError):
            run_protocol(agent0, ping_pong1, None, None)


class TestRunReport:
    def test_fault_events_copied_from_channel(self):
        channel = FaultyChannel(ChannelDropFaults(after_messages=0))
        report = run_supervised(ping_pong0, ping_pong1, None, None, channel=channel)
        assert report.faults_injected == 1
        assert report.fault_events[0].kind == "drop"

    def test_agreed_output_disagreement(self):
        report = RunReport(
            outcome="ok", outputs=(1, 2), transcript=Transcript()
        )
        with pytest.raises(ProtocolError):
            report.agreed_output()

    def test_defaults(self):
        report = RunReport(outcome="ok", outputs=(None, None), transcript=Transcript())
        assert report.attempts == 1
        assert report.retries == 0
        assert report.overhead_bits == 0


class TestRunWithRetries:
    def test_flaky_protocol_eventually_succeeds(self):
        def flaky0(_, coins):
            if coins.spawn("luck").random() < 0.7:
                raise RuntimeError("flaked")
            yield Send(1, 1)
            return 1

        def agent1(_, coins):
            bit = yield Recv(1)
            return bit

        # seed 4: the first four attempts' coins flake, the fifth succeeds
        report = run_with_retries(flaky0, agent1, None, None, attempts=50, seed=4)
        assert report.outcome == "ok"
        assert report.attempts > 1  # it actually had to retry

    def test_all_attempts_fail_returns_last_report(self):
        def hopeless0(_, coins):
            raise RuntimeError("always")
            yield  # pragma: no cover

        def agent1(_, coins):
            bit = yield Recv(1)
            return bit

        report = run_with_retries(hopeless0, agent1, None, None, attempts=4, seed=0)
        assert report.outcome == "agent_error"
        assert report.attempts == 4

    def test_accept_predicate_drives_retry(self):
        def agent0(_, coins):
            bit = 1 if coins.spawn("draw").random() < 0.5 else 0
            yield Send(bit, 1)
            return bit

        def agent1(_, coins):
            bit = yield Recv(1)
            return bit

        report = run_with_retries(
            agent0,
            agent1,
            None,
            None,
            attempts=32,
            seed=5,
            accept=lambda r: r.agreed_output() == 1,
        )
        assert report.outcome == "ok"
        assert report.agreed_output() == 1

    def test_coinless_mode_with_channel_factory(self):
        drops = iter([0, 10_000])  # first channel dies instantly, second lives

        def factory(attempt):
            return FaultyChannel(ChannelDropFaults(after_messages=next(drops)))

        report = run_with_retries(
            ping_pong0,
            ping_pong1,
            None,
            None,
            attempts=2,
            seed=None,
            channel_factory=factory,
        )
        assert report.outcome == "ok"
        assert report.attempts == 2

    def test_attempts_validation(self):
        with pytest.raises(ValueError):
            run_with_retries(ping_pong0, ping_pong1, None, None, attempts=0)

    def test_attempt_budget_zero_and_negative_raise_before_any_run(self):
        ran = []

        def tattler0(_):
            ran.append(0)
            yield Send(1, 1)
            return None

        for attempts in (0, -1):
            with pytest.raises(ValueError):
                run_with_retries(
                    tattler0, ping_pong1, None, None, attempts=attempts
                )
        assert ran == []  # the budget is validated before any execution

    def test_attempt_budget_one_failing_run_is_not_retried(self):
        runs = []

        def crash0(_):
            runs.append(1)
            raise RuntimeError("boom")
            yield  # pragma: no cover — makes this a generator

        def wait1(_):
            got = yield Recv(1)
            return got

        report = run_with_retries(
            crash0, wait1, None, None, attempts=1, seed=None
        )
        assert report.outcome == "agent_error"
        assert report.attempts == 1
        assert runs == [1]  # exactly one execution, no retry

    def test_attempt_budget_one_clean_run_reports_one_attempt(self):
        report = run_with_retries(
            ping_pong0, ping_pong1, None, None, attempts=1, seed=None
        )
        assert report.outcome == "ok"
        assert report.attempts == 1


class TestDeadlineEdges:
    def test_recv_expiring_exactly_at_the_deadline_tick(self):
        def patient0(_):
            got = yield Recv(1, timeout=3)
            return got

        def silent1(_):
            return "done"
            yield  # pragma: no cover — makes this a generator

        report = run_supervised(patient0, silent1, None, None)
        assert report.outcome == "ok"
        # The clock jumps to exactly the deadline — not one tick past it —
        # and the Recv resolves to None (timed out) at that instant.
        assert report.ticks == 3
        assert report.outputs == (None, "done")

    def test_tied_deadlines_fire_agent0_first_at_the_shared_tick(self):
        order = []

        def racer0(_):
            got = yield Recv(1, timeout=5)
            order.append(0)
            return got

        def racer1(_):
            got = yield Recv(1, timeout=5)
            order.append(1)
            return got

        report = run_supervised(racer0, racer1, None, None)
        assert report.outcome == "ok"
        assert report.ticks == 5  # one jump lands both deadlines
        assert order == [0, 1]  # deterministic tie-break: lowest agent id
        assert report.outputs == (None, None)


class TestBudgetEdges:
    def test_bit_budget_exhausted_mid_message(self):
        def two_sends0(_):
            yield Send(0b111, 3)  # 3 bits: within budget
            yield Send(0b111, 3)  # crosses 5 mid-message at bit 2 of 3
            return None

        def sink1(_):
            got = yield Recv(6)
            return got

        report = run_supervised(two_sends0, sink1, None, None, bit_budget=5)
        assert report.outcome == "budget_exceeded"
        assert "bit budget of 5" in report.detail
        # The offending message never reaches the channel: the transcript
        # holds only the first, in-budget send.
        assert report.transcript.total_bits == 3
        assert report.unread_bits == 3

    def test_bit_budget_exactly_met_is_not_exceeded(self):
        def exact0(_):
            yield Send((1 << 5) - 1, 5)
            return "sent"

        def sink1(_):
            got = yield Recv(5)
            return got

        report = run_supervised(exact0, sink1, None, None, bit_budget=5)
        assert report.outcome == "ok"  # budget is a cap, not a strict bound
        assert report.transcript.total_bits == 5


class TestChannelHardening:
    def test_bad_agent_ids_rejected(self):
        ch = BitChannel()
        with pytest.raises(ValueError, match="sender must be agent 0 or 1"):
            ch.send(2, 1, 1)
        with pytest.raises(ValueError, match="receiver must be agent 0 or 1"):
            ch.available(-1)
        with pytest.raises(ValueError, match="receiver must be agent 0 or 1"):
            ch.recv("a", 1)
        with pytest.raises(ValueError, match="receiver must be agent 0 or 1"):
            ch.drain(None)

    def test_drain_empties_queue(self):
        ch = BitChannel()
        ch.send(0, bits_to_int([1, 0, 1]), 3)
        assert ch.drain(1) == (bits_to_int([1, 0, 1]), 3)
        assert ch.drain(1) == (0, 0)
        assert ch.drained()

    def test_closed_channel_refuses_drain(self):
        ch = BitChannel()
        ch.close()
        with pytest.raises(ChannelClosed):
            ch.drain(0)
