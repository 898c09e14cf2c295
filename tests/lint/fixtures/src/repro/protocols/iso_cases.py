"""Deliberate ISO violations — scanned by the lint tests, never imported."""

_SCRATCH = {}

PROTOCOL_NAME = "fixture"  # control: immutable module global


def Send(value, width):
    return value, width


def BitChannel(capacity):
    """Local stand-in for the channel type (never constructed for real)."""
    return capacity


class PeekingProtocol:
    def agent0(self, input0, input1):  # ISO301: takes the other view
        if input1[0]:  # ISO301: reads the other view
            return Send(1, 1)
        return Send(input0[0], 1)

    def agent1(self, view1):
        _SCRATCH["last"] = view1  # ISO302: mutable module global
        return _SCRATCH  # ISO302 again

    def alice_sneaky(self, view0):
        global PROTOCOL_NAME  # ISO302: global statement
        PROTOCOL_NAME = "peeked"
        return view0


def bob_direct(channel, view1):
    channel.send(1, view1)  # ISO303: drives the endpoint itself
    spare = BitChannel(4)  # ISO303: constructs a channel
    return spare


def agent0(partition, m):
    view0, _ = partition.split_input(m)  # ISO304: held the whole input
    return view0


def neutral_helper(input1):
    """Control: unclassified function — may mention any view or global."""
    _SCRATCH["ok"] = input1
    return _SCRATCH
