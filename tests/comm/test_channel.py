"""Tests for the bit channel and transcripts."""

import pytest

from repro import trace
from repro.comm.bits import bits_to_int
from repro.comm.channel import BitChannel, ChannelClosed, Message, Transcript


def msg(sender, bits):
    """The packed message carrying the bit sequence ``bits``."""
    return Message(sender, bits_to_int(bits), len(bits))


class TestMessage:
    def test_validation(self):
        with pytest.raises(ValueError):
            msg(2, (0, 1))
        with pytest.raises(ValueError):
            Message(0, 2, 1)  # value wider than its width: not bits
        with pytest.raises(ValueError):
            Message(0, -1, 3)

    def test_len(self):
        assert len(msg(0, (1, 0, 1))) == 3


class TestTranscript:
    def test_total_bits(self):
        t = Transcript([msg(0, (1, 1)), msg(1, (0,))])
        assert t.total_bits == 3

    def test_rounds_counts_sender_runs(self):
        t = Transcript(
            [
                msg(0, (1,)),
                msg(0, (1,)),
                msg(1, (0,)),
                msg(0, (1,)),
            ]
        )
        assert t.rounds == 3

    def test_bits_from(self):
        t = Transcript([msg(0, (1, 1)), msg(1, (0, 0, 0))])
        assert t.bits_from(0) == 2
        assert t.bits_from(1) == 3

    def test_as_bit_string(self):
        t = Transcript([msg(0, (1, 0)), msg(1, (1,))])
        assert t.as_bit_string() == "101"


class TestBitChannel:
    def test_send_recv_order(self):
        ch = BitChannel()
        ch.send(0, bits_to_int([1, 0, 1]), 3)
        assert ch.available(1) == 3
        assert ch.recv(1, 2) == bits_to_int((1, 0))
        assert ch.recv(1, 1) == bits_to_int((1,))
        assert ch.drained()

    def test_duplex_independence(self):
        ch = BitChannel()
        ch.send(0, 1, 1)
        ch.send(1, 0, 2)
        assert ch.available(0) == 2
        assert ch.available(1) == 1

    def test_recv_underflow_blocks(self):
        ch = BitChannel()
        ch.send(0, 1, 1)
        with pytest.raises(BlockingIOError):
            ch.recv(1, 2)

    def test_recv_negative_rejected(self):
        with pytest.raises(ValueError):
            BitChannel().recv(0, -1)

    def test_only_bits_allowed(self):
        with pytest.raises(ValueError):
            BitChannel().send(0, 2, 1)

    def test_transcript_records_everything(self):
        ch = BitChannel()
        ch.send(0, 0b11, 2)
        ch.send(1, 0, 1)
        assert ch.total_bits == 3
        assert ch.transcript.messages[0].sender == 0

    def test_closed_channel_rejects(self):
        ch = BitChannel()
        ch.close()
        with pytest.raises(ChannelClosed):
            ch.send(0, 1, 1)
        with pytest.raises(ChannelClosed):
            ch.recv(0, 0)

    def test_drained_false_with_pending(self):
        ch = BitChannel()
        ch.send(0, 1, 1)
        assert not ch.drained()


class TestRoundSemantics:
    """Pin the round convention: maximal same-sender runs, with
    zero-length messages fully transparent (they move no information, so
    they neither open nor break a round).  The protocol-tree walk and the
    symbolic cost calculus both build on exactly this convention."""

    def test_empty_messages_neither_open_nor_break_a_round(self):
        t = Transcript(
            [
                msg(1, ()),  # noise before anyone speaks
                msg(0, (1,)),
                msg(1, ()),  # empty interjection...
                msg(0, (1,)),  # ...does not split agent 0's run
                msg(1, (0,)),
            ]
        )
        assert t.rounds == 2

    def test_all_empty_transcript_has_zero_rounds(self):
        t = Transcript([msg(0, ()), msg(1, ())])
        assert t.rounds == 0
        assert t.total_bits == 0

    def test_channel_mirror_agrees_with_transcript(self):
        # The transcript keeps an O(1) running round counter and the
        # channel stamps each wire.send with it; both must agree with a
        # from-scratch recount at every step.
        ch = BitChannel()
        script = [(0, [1]), (1, []), (0, [1]), (1, [0]), (1, []), (0, [1, 1])]
        recounts = []
        with trace.capture() as tracer:
            for sender, bits in script:
                ch.send(sender, bits_to_int(bits), len(bits))
                recounts.append(Transcript(ch.transcript.messages).rounds)
                assert ch.transcript.rounds == recounts[-1]
        stamped = [
            ev.fields["round"] for ev in tracer.events() if ev.name == "wire.send"
        ]
        assert stamped == recounts
        assert ch.transcript.rounds == 3

    def test_tree_owner_blocks_define_rounds(self):
        # A realized tree path with owners 0, 0, 1 costs 3 bits but only
        # 2 rounds: consecutive same-owner announcements are one block.
        from repro.comm.protocol import Leaf, Node, ProtocolTree

        tree = ProtocolTree(
            Node(
                0,
                lambda x: 1,
                Leaf("dead"),
                Node(
                    0,
                    lambda x: 0,
                    Node(1, lambda y: 1, Leaf("dead"), Leaf("ok")),
                    Leaf("dead"),
                ),
            )
        )
        result = tree.compile().run("in0", "in1")
        assert result.agreed_output() == "ok"
        assert result.transcript.total_bits == 3
        assert result.transcript.rounds == 2

    def test_message_shape_shares_the_convention(self):
        # The cost calculus predicts rounds with the same skip-empty rule,
        # so a shape and a transcript with matching senders always agree.
        from repro.costs import MessageShape

        shape = MessageShape("pin", ((0, 1), (1, 0), (0, 2), (1, 1)))
        t = Transcript(
            [
                msg(0, (1,)),
                msg(1, ()),
                msg(0, (1, 1)),
                msg(1, (0,)),
            ]
        )
        assert shape.rounds == t.rounds == 2
        assert shape.total_bits == t.total_bits == 4
