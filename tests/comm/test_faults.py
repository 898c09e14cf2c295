"""Tests for the fault-injecting channel layer."""

import pytest

from repro.comm.bits import bits_to_int, int_to_bits
from repro.comm.channel import ChannelClosed
from repro.comm.faults import (
    BitFlipFaults,
    BurstFaults,
    ChannelDropFaults,
    CompositeFaults,
    DelayFaults,
    Delivery,
    DuplicateFaults,
    ErasureFaults,
    FaultEvent,
    FaultLog,
    FaultyChannel,
    NoFaults,
)


def packed(bits):
    """``(value, width)`` of a bit sequence, as the channel carries it."""
    return bits_to_int(bits), len(bits)


def delivered(delivery):
    """The delivered bit sequence of a :class:`Delivery`."""
    return int_to_bits(delivery.value, delivery.width)


class TestFaultLog:
    def test_count_and_kinds(self):
        log = FaultLog()
        log.record(FaultEvent(0, 0, "flip", 2))
        log.record(FaultEvent(1, 1, "flip", 1))
        log.record(FaultEvent(2, 0, "erase", 5))
        assert log.count() == 3
        assert log.count("flip") == 2
        assert log.kinds() == {"flip": 2, "erase": 1}
        assert log.bits_affected == 8


class TestModels:
    def test_no_faults_is_identity(self):
        delivery = NoFaults().apply(0, 0, *packed((1, 0, 1)))
        assert delivered(delivery) == (1, 0, 1)
        assert delivery.copies == 1 and delivery.delay == 0
        assert not delivery.drop_channel and not delivery.events

    def test_bit_flip_certain(self):
        delivery = BitFlipFaults(1.0).apply(0, 0, *packed((1, 0, 1)))
        assert delivered(delivery) == (0, 1, 0)
        assert delivery.events[0].kind == "flip"
        assert delivery.events[0].bits_affected == 3

    def test_bit_flip_replay(self):
        a, b = BitFlipFaults(0.5, seed=7), BitFlipFaults(0.5, seed=7)
        payload = tuple(i % 2 for i in range(64))
        for index in range(10):
            first = a.apply(index, 0, *packed(payload))
            second = b.apply(index, 0, *packed(payload))
            assert delivered(first) == delivered(second)

    def test_reset_rewinds_randomness(self):
        model = BitFlipFaults(0.5, seed=3)
        payload = (1,) * 32
        first = delivered(model.apply(0, 0, *packed(payload)))
        model.reset()
        assert delivered(model.apply(0, 0, *packed(payload))) == first

    def test_burst_is_contiguous(self):
        model = BurstFaults(1.0, burst_len=4, seed=1)
        delivery = model.apply(0, 0, *packed((0,) * 16))
        flipped = [i for i, bit in enumerate(delivered(delivery)) if bit]
        assert 1 <= len(flipped) <= 4
        assert flipped == list(range(flipped[0], flipped[0] + len(flipped)))

    def test_erasure_truncates(self):
        delivery = ErasureFaults(1.0, seed=0).apply(0, 0, *packed((1,) * 10))
        assert len(delivered(delivery)) < 10
        assert delivered(delivery) == (1,) * len(delivered(delivery))

    def test_duplicate_doubles(self):
        delivery = DuplicateFaults(1.0).apply(0, 0, *packed((1, 0)))
        assert delivery.copies == 2

    def test_delay_holds_back(self):
        delivery = DelayFaults(1.0, max_delay=3, seed=0).apply(0, 0, *packed((1,)))
        assert 1 <= delivery.delay <= 3

    def test_drop_after_messages(self):
        model = ChannelDropFaults(after_messages=2)
        assert not model.apply(1, 0, *packed((1,))).drop_channel
        assert model.apply(2, 0, *packed((1,))).drop_channel

    def test_composite_merges(self):
        model = CompositeFaults(
            [DuplicateFaults(1.0), DuplicateFaults(1.0), DelayFaults(1.0, seed=1)]
        )
        delivery = model.apply(0, 0, *packed((1, 1)))
        assert delivery.copies == 4
        assert delivery.delay >= 1
        assert len(delivery.events) == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BitFlipFaults(1.5)
        with pytest.raises(ValueError):
            BurstFaults(0.5, burst_len=0)
        with pytest.raises(ValueError):
            DelayFaults(0.5, max_delay=0)
        with pytest.raises(ValueError):
            ChannelDropFaults()
        with pytest.raises(ValueError):
            CompositeFaults([])


class TestFaultyChannel:
    def test_transcript_records_sender_cost_not_delivery(self):
        ch = FaultyChannel(BitFlipFaults(1.0))
        ch.send(0, *packed([1, 0, 1]))
        message = ch.transcript.messages[0]
        assert int_to_bits(message.value, message.width) == (1, 0, 1)
        assert ch.recv(1, 3) == bits_to_int((0, 1, 0))
        assert ch.fault_log.count("flip") == 1

    def test_erasure_starves_receiver(self):
        ch = FaultyChannel(ErasureFaults(1.0, seed=0))
        ch.send(0, *packed([1] * 10))
        assert ch.available(1) < 10
        assert ch.transcript.total_bits == 10

    def test_duplicate_delivers_twice(self):
        ch = FaultyChannel(DuplicateFaults(1.0))
        ch.send(0, *packed([1, 0]))
        assert ch.available(1) == 4
        assert ch.recv(1, 4) == bits_to_int((1, 0, 1, 0))
        assert ch.transcript.total_bits == 2

    def test_delay_releases_after_later_sends(self):
        ch = FaultyChannel(DelayFaults(1.0, max_delay=1, seed=0))
        ch.send(0, *packed([1, 1]))
        assert ch.available(1) == 0
        assert not ch.drained()  # held bits still count as undrained
        ch.fault_model = NoFaults()  # let the releasing send arrive clean
        ch.send(1, *packed([0]))
        assert ch.available(1) == 2

    def test_drop_closes_channel(self):
        ch = FaultyChannel(ChannelDropFaults(after_messages=1))
        ch.send(0, *packed([1]))
        with pytest.raises(ChannelClosed):
            ch.send(1, *packed([0]))
        with pytest.raises(ChannelClosed):
            ch.send(0, *packed([1]))

    def test_delivered_bits_accounting(self):
        ch = FaultyChannel(NoFaults())
        ch.send(0, *packed([1, 0, 1]))
        ch.send(1, *packed([0]))
        assert ch.delivered_bits == 4

    def test_default_model_is_clean(self):
        ch = FaultyChannel()
        ch.send(0, *packed([1, 0]))
        assert ch.recv(1, 2) == bits_to_int((1, 0))
        assert ch.fault_log.count() == 0

    def test_delivery_defaults(self):
        d = Delivery(*packed((1, 0)))
        assert d.copies == 1 and d.delay == 0 and not d.drop_channel
