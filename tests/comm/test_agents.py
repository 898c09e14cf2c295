"""Tests for the two-agent generator runtime."""

import pytest

from repro.comm.agents import (
    ProtocolDeadlock,
    ProtocolError,
    Recv,
    Send,
    run_protocol,
)
from repro.comm.bits import bits_to_int


def test_simple_exchange():
    def alice(x):
        yield Send(x, 1)
        reply = yield Recv(1)
        return reply

    def bob(y):
        received = yield Recv(1)
        yield Send(received ^ y, 1)
        return received ^ y

    result = run_protocol(alice, bob, 1, 1)
    assert result.outputs == (0, 0)
    assert result.bits_exchanged == 2
    assert result.rounds == 2


def test_agreed_output():
    def alice(_):
        yield Send(1, 1)
        return "answer"

    def bob(_):
        _ = yield Recv(1)
        return None

    assert run_protocol(alice, bob, 0, 0).agreed_output() == "answer"


def test_disagreement_detected():
    def alice(_):
        yield Send(1, 1)
        return "a"

    def bob(_):
        _ = yield Recv(1)
        return "b"

    result = run_protocol(alice, bob, 0, 0)
    with pytest.raises(ProtocolError):
        result.agreed_output()


def test_multi_round_ping_pong():
    def alice(_):
        total = 0
        for _ in range(5):
            yield Send(1, 1)
            bit = yield Recv(1)
            total += bit
        return total

    def bob(_):
        total = 0
        for _ in range(5):
            bit = yield Recv(1)
            total += bit
            yield Send(bit, 1)
        return total

    result = run_protocol(alice, bob, None, None)
    assert result.outputs == (5, 5)
    assert result.bits_exchanged == 10
    assert result.rounds == 10


def test_deadlock_detection():
    def both(_):
        _ = yield Recv(1)
        return None

    with pytest.raises(ProtocolDeadlock):
        run_protocol(both, both, 0, 0)


def test_unread_bits_detected():
    def alice(_):
        yield Send(0b111, 3)
        return 0

    def bob(_):
        _ = yield Recv(1)
        return 0

    with pytest.raises(ProtocolError):
        run_protocol(alice, bob, 0, 0)


def test_bad_yield_rejected():
    def alice(_):
        yield "not-an-effect"
        return 0

    def bob(_):
        return 0
        yield  # pragma: no cover

    with pytest.raises(ProtocolError):
        run_protocol(alice, bob, 0, 0)


def test_silent_protocol():
    def silent(x):
        return x
        yield  # pragma: no cover

    result = run_protocol(silent, silent, "a", "b")
    assert result.outputs == ("a", "b")
    assert result.bits_exchanged == 0


def test_public_randomness_passed_to_both():
    seen = []

    def agent(_, coins):
        seen.append(coins)
        return None
        yield  # pragma: no cover

    run_protocol(agent, agent, 0, 0, public_randomness="COINS")
    assert seen == ["COINS", "COINS"]


def test_bulk_message_split_receive():
    def alice(_):
        yield Send(bits_to_int([1, 0, 1, 0]), 4)
        return None

    def bob(_):
        first = yield Recv(2)
        second = yield Recv(2)
        return (first, second)

    result = run_protocol(alice, bob, 0, 0)
    assert result.outputs[1] == (bits_to_int([1, 0]), bits_to_int([1, 0]))


def test_interleaved_sends_before_recv():
    # Agent 0 sends twice before agent 1 reads once — queuing must hold.
    def alice(_):
        yield Send(1, 1)
        yield Send(0, 1)
        done = yield Recv(1)
        return done

    def bob(_):
        bits = yield Recv(2)
        yield Send(1, 1)
        return bits

    result = run_protocol(alice, bob, 0, 0)
    assert result.outputs == (1, bits_to_int([1, 0]))
