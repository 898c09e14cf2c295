"""The bit channel: the only way the two agents may interact.

The communication complexity of a run *is* the number of bits that crossed
this channel, so the channel is the measurement instrument of the whole
library.  It records a full transcript (direction, payload, round structure)
and enforces the model's rules: bits only, no shared memory, messages are
self-delimiting only through the protocol's own conventions.

Every payload is a packed ``(value, width)`` pair: bit ``i`` of ``value``
is the ``i``-th bit on the wire, so "only bits" is a property of the type
(``0 <= value < 2**width``) rather than a per-bit check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.trace import core as trace


def bit_string(value: int, width: int) -> str:
    """The ``width`` wire bits of a packed payload, first bit first."""
    return format(value, f"0{width}b")[::-1] if width else ""


@dataclass(frozen=True)
class Message:
    """One message on the channel.

    Attributes:
        sender: 0 or 1.
        value: the packed payload; bit ``i`` is the ``i``-th bit on the wire.
        width: the payload's length in bits (its communication cost).
    """

    sender: int
    value: int
    width: int

    def __post_init__(self):
        if self.sender not in (0, 1):
            raise ValueError("sender must be agent 0 or 1")
        if not (self.width >= 0 and 0 <= self.value < 1 << self.width):
            raise ValueError(f"payload {self.value!r} is not a {self.width}-bit value")

    def __len__(self) -> int:
        return self.width


@dataclass
class Transcript:
    """The full record of one protocol execution.

    ``rounds`` is kept as messages are appended (build with the
    constructor or :meth:`append`, never by mutating ``messages``).
    """

    messages: list[Message] = field(default_factory=list)
    #: Number of maximal same-sender runs (the round complexity).
    #: Zero-length messages move no information, so they neither start
    #: nor break a round -- exactly the protocol-tree notion where a round
    #: is a maximal block of bits spoken by one agent
    #: (:class:`repro.comm.protocol.TreeProtocol` walks owner blocks).
    rounds: int = field(default=0, init=False, compare=False)

    def __post_init__(self):
        self._last_sender: int | None = None
        messages, self.messages = self.messages, []
        for message in messages:
            self.append(message)

    def append(self, message: Message) -> None:
        """Record one message and advance the round count."""
        self.messages.append(message)
        if message.width and message.sender != self._last_sender:
            self.rounds += 1
            self._last_sender = message.sender

    @property
    def total_bits(self) -> int:
        """The quantity Comm(f, π, P) maximizes over inputs."""
        return sum(m.width for m in self.messages)

    def bits_from(self, agent: int) -> int:
        """Bits this agent sent."""
        return sum(m.width for m in self.messages if m.sender == agent)

    def as_bit_string(self) -> str:
        """The concatenated transcript bits (what a protocol tree leaf sees)."""
        return "".join(bit_string(m.value, m.width) for m in self.messages)


class ChannelClosed(Exception):
    """Raised when an agent tries to use a channel after shutdown."""


class TransportFailure(Exception):
    """A reliable-transport endpoint gave up (retry budget exhausted).

    Raised by :mod:`repro.comm.transport` when a frame could not be
    delivered within the configured retry budget; the supervised runtime
    (:func:`repro.comm.agents.run_supervised`) converts it into a structured
    ``RunReport`` with outcome ``"transport_failure"`` instead of letting it
    escape as a raw exception.
    """


class BitChannel:
    """A duplex, counted, recorded bit pipe between agents 0 and 1.

    The channel holds one packed FIFO per direction -- a ``(value, width)``
    pair whose bit ``i`` is the ``i``-th queued bit -- and the scheduler in
    :mod:`repro.comm.agents` moves control between the agents so a ``recv``
    always finds its bits (or deadlocks loudly).
    """

    def __init__(self):
        self.transcript = Transcript()
        self._pending: list[tuple[int, int]] = [(0, 0), (0, 0)]  # by receiver
        self._closed = False

    # ------------------------------------------------------------------
    # Agent-facing API
    # ------------------------------------------------------------------
    @staticmethod
    def _check_agent(agent: int, role: str) -> None:
        """Reject anything but the two legal agent ids, loudly."""
        if agent not in (0, 1):
            raise ValueError(f"{role} must be agent 0 or 1, got {agent!r}")

    def send(self, sender: int, value: int, width: int) -> None:
        """Queue the ``width``-bit payload ``value`` from ``sender`` to the
        other agent and record it."""
        self._check_agent(sender, "sender")
        if self._closed:
            raise ChannelClosed("channel is closed")
        self.transcript.append(Message(sender, value, width))
        obs.counter("channel.wire_bits").inc(width)
        tracer = trace.active_tracer()
        if tracer is not None:
            # The replayable wire transcript: sender, cost, round and the
            # payload itself (as a bit string, so replay is bit-for-bit).
            tracer.event(
                "wire.send",
                agent=sender,
                bits=width,
                round=self.transcript.rounds,
                payload=bit_string(value, width),
            )
        self._deliver(1 - sender, value, width)

    def _deliver(self, receiver: int, value: int, width: int) -> None:
        """Place a payload on a receiver's pending FIFO.

        Split out so fault-injecting subclasses
        (:class:`repro.comm.faults.FaultyChannel`) can corrupt, duplicate,
        delay or drop the delivery while the transcript above still records
        what the sender actually paid for.
        """
        queued, count = self._pending[receiver]
        self._pending[receiver] = (queued | value << count, count + width)

    def available(self, receiver: int) -> int:
        """How many bits are queued for ``receiver``."""
        self._check_agent(receiver, "receiver")
        return self._pending[receiver][1]

    def recv(self, receiver: int, nbits: int) -> int:
        """Dequeue exactly ``nbits`` bits addressed to ``receiver``, packed.

        Raises :class:`BlockingIOError` if not enough bits are queued —
        the scheduler treats that as "switch to the other agent".
        """
        self._check_agent(receiver, "receiver")
        if self._closed:
            raise ChannelClosed("channel is closed")
        if nbits < 0:
            raise ValueError("cannot receive a negative number of bits")
        queued, count = self._pending[receiver]
        if count < nbits:
            raise BlockingIOError(
                f"agent {receiver} wants {nbits} bits, only {count} queued"
            )
        self._pending[receiver] = (queued >> nbits, count - nbits)
        return queued & ((1 << nbits) - 1)

    def drain(self, receiver: int) -> tuple[int, int]:
        """Dequeue *everything* addressed to ``receiver`` as ``(value, width)``.

        The reliable-transport layer uses this to flush the tail of a
        corrupted or truncated frame before asking for a retransmission, so
        stream alignment recovers after a fault.
        """
        self._check_agent(receiver, "receiver")
        if self._closed:
            raise ChannelClosed("channel is closed")
        out = self._pending[receiver]
        self._pending[receiver] = (0, 0)
        return out

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @property
    def total_bits(self) -> int:
        """Bits sent so far (both directions)."""
        return self.transcript.total_bits

    def close(self) -> None:
        """Shut the channel (idempotent); further send/recv raises
        :class:`ChannelClosed`."""
        self._closed = True

    def drained(self) -> bool:
        """True when no sent bit remains unread (a well-formed protocol
        consumes everything it is sent)."""
        return not (self._pending[0][1] or self._pending[1][1])
