"""Tests for the reliable (ARQ) transport layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.agents import Recv, Send, run_protocol, run_supervised
from repro.comm.bits import bits_to_int, int_to_bits
from repro.comm.channel import BitChannel, TransportFailure
from repro.comm.faults import (
    BitFlipFaults,
    ChannelDropFaults,
    Delivery,
    DuplicateFaults,
    ErasureFaults,
    FaultModel,
    FaultyChannel,
)
from repro.comm.transport import (
    ArqConfig,
    CRC_BITS,
    ArqEndpoint,
    TransportStats,
    crc16,
    reliable_pair,
)


class CorruptNth(FaultModel):
    """Flip one CRC-covered bit of exactly one message (by index).

    Flips the last pre-CRC bit, which for a data frame sits in the payload
    — past the framing fields — so the damage is caught by the checksum,
    not by misframing.
    """

    def __init__(self, target_index: int):
        super().__init__(0)
        self.target_index = target_index

    def apply(self, message_index, sender, value, width):
        """Corrupt only the targeted message."""
        if message_index != self.target_index or width < 18:
            return Delivery(value, width)
        return Delivery(value ^ 1 << (width - 17), width)


class TruncateNth(FaultModel):
    """Cut exactly one message (by index) down to its first 5 bits."""

    def __init__(self, target_index: int):
        super().__init__(0)
        self.target_index = target_index

    def apply(self, message_index, sender, value, width):
        """Truncate only the targeted message."""
        if message_index != self.target_index or width <= 5:
            return Delivery(value, width)
        return Delivery(value & 0b11111, 5)


def echo_pair(payload):
    """Agent 0 sends ``payload``; agent 1 echoes it back; both return it."""

    width = len(payload)

    def agent0(_):
        yield Send(bits_to_int(payload), width)
        back = yield Recv(width)
        return int_to_bits(back, width)

    def agent1(_):
        got = yield Recv(width)
        yield Send(got, width)
        return int_to_bits(got, width)

    return agent0, agent1


def run_reliable(payload, channel, config=None):
    """Echo ``payload`` through ARQ over ``channel``; return (report, stats)."""
    agent0, agent1 = echo_pair(payload)
    w0, w1, e0, e1 = reliable_pair(agent0(None), agent1(None), config)
    report = run_supervised(
        lambda _: w0, lambda _: w1, None, None, channel=channel
    )
    return report, e0.stats.merged(e1.stats)


def bitwise_crc16(bits) -> int:
    """Reference CRC-16-CCITT: init 0xFFFF, poly 0x1021, one wire bit at a
    time into an MSB-first register."""
    reg = 0xFFFF
    for bit in bits:
        msb = (reg >> 15) & 1
        reg = (reg << 1) & 0xFFFF
        if msb ^ bit:
            reg ^= 0x1021
    return reg


class TestCrc16:
    def test_detects_every_single_bit_flip(self):
        frame = bits_to_int([1, 0, 1, 1, 0, 0, 1, 0, 1, 1])
        checksum = crc16(frame, 10)
        for i in range(10):
            damaged = frame ^ 1 << i
            assert crc16(damaged, 10) != checksum

    def test_deterministic(self):
        assert crc16(0b101, 3) == crc16(0b101, 3)
        assert CRC_BITS == 16
        assert 0 <= crc16(0, 0) < 1 << CRC_BITS

    @given(st.integers(0, 300).flatmap(
        lambda width: st.tuples(st.integers(0, (1 << width) - 1), st.just(width))
    ))
    def test_table_matches_the_bitwise_reference(self, payload):
        value, width = payload
        assert crc16(value, width) == bitwise_crc16(int_to_bits(value, width))

    def test_standard_check_value(self):
        # The 72 bits of b"123456789", MSB-first within each byte.
        bits = [int(c) for byte in b"123456789" for c in f"{byte:08b}"]
        assert crc16(bits_to_int(bits), len(bits)) == 0x29B1
        assert bitwise_crc16(bits) == 0x29B1


class TestArqConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArqConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ArqConfig(base_timeout=0)
        with pytest.raises(ValueError):
            ArqConfig(base_timeout=10, max_timeout=5)
        with pytest.raises(ValueError):
            ArqConfig(seq_bits=0)
        with pytest.raises(ValueError):
            ArqConfig(linger_timeout=0)
        with pytest.raises(ValueError):
            ArqConfig(frame_payload=0)

    def test_max_payload_cap(self):
        assert ArqConfig(len_bits=4).max_payload == 15
        assert ArqConfig(len_bits=4, frame_payload=6).max_payload == 6
        assert ArqConfig(len_bits=4, frame_payload=100).max_payload == 15

    def test_frame_geometry(self):
        cfg = ArqConfig(seq_bits=8, len_bits=16)
        assert cfg.data_header_bits == 25
        assert cfg.control_frame_bits == 26


class TestCleanChannel:
    def test_payload_roundtrip_exact(self):
        payload = (1, 0, 1, 1, 0, 0, 1, 0)
        report, stats = run_reliable(payload, BitChannel())
        assert report.outcome == "ok"
        assert report.outputs == (payload, payload)
        assert stats.payload_bits == 2 * len(payload)
        assert stats.retransmissions == 0
        assert stats.overhead_bits > 0  # framing is never free
        assert stats.overhead_bits == stats.wire_bits - stats.payload_bits

    def test_overhead_is_bounded_and_deterministic(self):
        payload = (1,) * 16
        _, first = run_reliable(payload, BitChannel())
        _, second = run_reliable(payload, BitChannel())
        assert first.overhead_bits == second.overhead_bits
        # two data frames + two acks + bounded linger traffic
        cfg = ArqConfig()
        bound = 2 * (cfg.data_header_bits + 16 + 1) + 4 * cfg.control_frame_bits
        assert first.overhead_bits <= bound

    def test_empty_payload_still_framed(self):
        def agent0(_):
            yield Send(0, 0)
            return "done"

        def agent1(_):
            yield Recv(0)
            return "done"

        w0, w1, e0, e1 = reliable_pair(agent0(None), agent1(None))
        report = run_supervised(
            lambda _: w0, lambda _: w1, None, None, channel=BitChannel()
        )
        assert report.outcome == "ok"

    def test_chunking_splits_large_payloads(self):
        payload = tuple(i % 2 for i in range(40))
        config = ArqConfig(frame_payload=8)
        report, stats = run_reliable(payload, BitChannel(), config)
        assert report.outcome == "ok"
        assert report.outputs == (payload, payload)
        assert stats.frames_delivered == 2 * 5  # 40 bits / 8 per frame, echoed


class TestRecovery:
    def test_single_corrupt_frame_is_retransmitted(self):
        payload = (1, 0, 1, 1)
        channel = FaultyChannel(CorruptNth(0))
        report, stats = run_reliable(payload, channel)
        assert report.outcome == "ok"
        assert report.outputs == (payload, payload)
        assert stats.retransmissions >= 1
        assert stats.crc_failures >= 1

    def test_corrupt_ack_recovers(self):
        payload = (1, 1, 0, 0)
        channel = FaultyChannel(CorruptNth(1))  # message 1 = the first ACK
        report, stats = run_reliable(payload, channel)
        assert report.outcome == "ok"
        assert report.outputs == (payload, payload)

    def test_duplicates_are_dropped(self):
        payload = (0, 1, 0, 1, 1)
        channel = FaultyChannel(DuplicateFaults(1.0))
        report, stats = run_reliable(payload, channel)
        assert report.outcome == "ok"
        assert report.outputs == (payload, payload)
        assert stats.duplicates_dropped > 0

    def test_truncated_frame_times_out_and_retransmits(self):
        payload = (1,) * 12
        channel = FaultyChannel(TruncateNth(0))
        report, stats = run_reliable(payload, channel)
        assert report.outcome == "ok"
        assert report.outputs == (payload, payload)
        assert stats.timeouts >= 1
        assert stats.flushed_bits >= 1

    def test_erasure_storm_recovers_or_fails_loudly(self):
        payload = (1,) * 12
        ok = 0
        for seed in range(10):
            channel = FaultyChannel(ErasureFaults(0.3, seed=seed))
            report, _ = run_reliable(payload, channel)
            if report.outcome == "ok":
                ok += 1
                assert report.outputs == (payload, payload)
            else:
                assert report.outcome == "transport_failure"
        assert ok >= 3  # the budget rescues a solid fraction of storms

    def test_flip_storm_never_corrupts_silently(self):
        payload = tuple(i % 2 for i in range(16))
        for seed in range(30):
            channel = FaultyChannel(BitFlipFaults(0.02, seed=seed))
            report, _ = run_reliable(payload, channel)
            if report.outcome == "ok":
                assert report.outputs == (payload, payload)
            else:
                assert report.outcome == "transport_failure"


class TestBudgetExhaustion:
    def test_zero_retries_fails_fast_under_faults(self):
        payload = (1,) * 8
        channel = FaultyChannel(BitFlipFaults(1.0))
        report, _ = run_reliable(payload, channel, ArqConfig(max_retries=0))
        assert report.outcome == "transport_failure"
        assert "budget" in report.detail

    def test_failure_is_exception_in_strict_mode(self):
        payload = (1,) * 8
        agent0, agent1 = echo_pair(payload)
        w0, w1, _, _ = reliable_pair(
            agent0(None), agent1(None), ArqConfig(max_retries=0)
        )
        with pytest.raises(TransportFailure):
            run_protocol(
                lambda _: w0,
                lambda _: w1,
                None,
                None,
                channel=FaultyChannel(BitFlipFaults(1.0)),
            )

    def test_channel_drop_is_transport_failure(self):
        payload = (1,) * 8
        channel = FaultyChannel(ChannelDropFaults(after_messages=1))
        report, _ = run_reliable(payload, channel)
        assert report.outcome == "transport_failure"
        assert "dropped" in report.detail


class TestStats:
    def test_merged_sums_fieldwise(self):
        a = TransportStats(payload_bits=3, wire_bits=10, frames_sent=1)
        b = TransportStats(payload_bits=4, wire_bits=20, acks_sent=2)
        merged = a.merged(b)
        assert merged.payload_bits == 7
        assert merged.wire_bits == 30
        assert merged.frames_sent == 1 and merged.acks_sent == 2
        assert merged.overhead_bits == 23

    def test_retries_aggregate(self):
        stats = TransportStats(retransmissions=2, naks_sent=3, timeouts=4)
        assert stats.retries == 9

    def test_endpoint_defaults(self):
        endpoint = ArqEndpoint()
        assert endpoint.config.max_retries == 8
        assert endpoint.stats.wire_bits == 0


class TestBucketAccounting:
    """``wire_bits`` must decompose exactly into payload + framing +
    control + retransmit on every endpoint — clean, faulted, or aborted
    mid-send.  The symbolic cost calculus (:mod:`repro.costs`) predicts
    these buckets, so any leak here would surface as a sweep MISMATCH."""

    @staticmethod
    def run_endpoints(payload, channel, config=None):
        agent0, agent1 = echo_pair(payload)
        w0, w1, e0, e1 = reliable_pair(agent0(None), agent1(None), config)
        report = run_supervised(
            lambda _: w0, lambda _: w1, None, None, channel=channel
        )
        return report, e0, e1

    def test_clean_run_buckets_sum_to_wire(self):
        report, e0, e1 = self.run_endpoints(
            (1,) * 20, BitChannel(), ArqConfig(frame_payload=4)
        )
        assert report.ok
        for endpoint in (e0, e1):
            stats = endpoint.stats
            assert stats.wire_bits == (
                stats.payload_bits
                + stats.framing_bits
                + stats.control_bits
                + stats.retransmit_bits
            )
            assert stats.wire_bits == stats.accounted_bits
            assert stats.retransmit_bits == 0
        # Both directions carried the 20 payload bits exactly once.
        assert e0.stats.payload_bits == 20
        assert e1.stats.payload_bits == 20

    def test_retransmissions_land_in_their_own_bucket(self):
        channel = FaultyChannel(CorruptNth(0))
        report, e0, e1 = self.run_endpoints((1,) * 12, channel)
        assert report.ok
        merged = e0.stats.merged(e1.stats)
        assert merged.retransmissions >= 1
        assert merged.retransmit_bits > 0
        # A retry repeats framing+payload but inflates neither first-copy
        # bucket: the identity still holds per endpoint.
        for endpoint in (e0, e1):
            assert endpoint.stats.wire_bits == endpoint.stats.accounted_bits
        assert merged.payload_bits == 24  # 12 bits each way, counted once

    def test_aborted_multichunk_send_counts_only_transmitted_chunks(self):
        # The channel dies after the very first frame of a 10-chunk send.
        # Payload is accounted per chunk at first transmission, so the
        # nine never-sent chunks must not appear in payload_bits — if
        # send() counted eagerly, wire_bits != accounted_bits here.
        channel = FaultyChannel(ChannelDropFaults(after_messages=1))
        report, e0, e1 = self.run_endpoints(
            (1,) * 20, channel, ArqConfig(frame_payload=2)
        )
        assert report.outcome == "transport_failure"
        for endpoint in (e0, e1):
            assert endpoint.stats.wire_bits == endpoint.stats.accounted_bits
        assert e0.stats.payload_bits < 20
