"""Fault injection for the bit channel: the adversarial physical layer.

The plain :class:`~repro.comm.channel.BitChannel` is a perfect pipe — every
bit arrives intact, in order, exactly once.  Real channels misbehave, and the
paper's randomized protocols (Leighton-style fingerprinting, cf. Grigoriev's
randomized fingerprints) only carry their error guarantees over channels
whose failures are *detected*.  This module supplies the misbehaviour:

* :class:`FaultModel` — a seeded, pluggable corruption policy applied to
  every delivery of a packed ``(value, width)`` payload: flips and bursts
  XOR a mask into ``value``, an erasure keeps its low ``keep`` bits (a
  prefix of the wire).  Concrete models: :class:`NoFaults`,
  :class:`BitFlipFaults` (independent flips at rate p),
  :class:`BurstFaults` (contiguous flip bursts), :class:`ErasureFaults`
  (tail truncation), :class:`DuplicateFaults` (repeated delivery),
  :class:`DelayFaults` (delivery held back behind later messages) and
  :class:`ChannelDropFaults` (the link dies mid-run, raising
  :class:`~repro.comm.channel.ChannelClosed`).  :class:`CompositeFaults`
  chains several models.
* :class:`FaultyChannel` — a :class:`BitChannel` that records the sender's
  honest transcript (the cost actually paid) while delivering whatever the
  fault model makes of it, and keeps an *injected-faults log*
  (:class:`FaultLog`) alongside the transcript so measured cost can be
  separated into payload bits and recovery overhead.
* :func:`make_fault_model` — the named-kind factory (:data:`FAULT_KINDS`)
  the scenario matrix's fault regimes are built from.

Everything is seeded through :class:`~repro.util.rng.ReproducibleRNG`; a
faulted matrix cell with the same seed injects byte-identical faults every
time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.comm.channel import BitChannel, ChannelClosed
from repro.util.rng import ReproducibleRNG


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the :class:`FaultLog`.

    Attributes:
        message_index: index of the affected message in the transcript.
        sender: the agent whose message was mangled.
        kind: fault taxonomy tag (``flip``/``burst``/``erase``/``duplicate``/
            ``delay``/``drop``).
        bits_affected: how many payload bits the fault touched.
        detail: human-readable specifics (positions, lengths, delays).
    """

    message_index: int
    sender: int
    kind: str
    bits_affected: int
    detail: str = ""


@dataclass
class FaultLog:
    """The injected-faults record kept alongside a channel transcript."""

    events: list[FaultEvent] = field(default_factory=list)

    def record(self, event: FaultEvent) -> None:
        """Append one fault event."""
        self.events.append(event)

    def count(self, kind: str | None = None) -> int:
        """Number of injected faults, optionally restricted to one kind."""
        if kind is None:
            return len(self.events)
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def bits_affected(self) -> int:
        """Total payload bits touched by any fault."""
        return sum(e.bits_affected for e in self.events)

    def kinds(self) -> dict[str, int]:
        """Histogram of fault kinds."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


@dataclass
class Delivery:
    """What a :class:`FaultModel` decided to do with one message.

    Attributes:
        value: the (possibly corrupted / truncated) packed payload to
            deliver; bit ``i`` is the ``i``-th delivered bit.
        width: how many bits are delivered (less than the sender's width
            after an erasure).
        copies: how many identical copies to deliver (0 = fully erased,
            2 = duplicated, …).
        delay: hold delivery back until this many *further* messages have
            been sent on the channel (0 = deliver now).
        drop_channel: if True the channel dies on this send — the send
            raises :class:`~repro.comm.channel.ChannelClosed` and every
            later operation fails the same way.
        events: the fault events to log for this message.
    """

    value: int
    width: int
    copies: int = 1
    delay: int = 0
    drop_channel: bool = False
    events: list[FaultEvent] = field(default_factory=list)


class FaultModel(ABC):
    """A seeded corruption policy applied to every channel delivery.

    Subclasses draw randomness exclusively from ``self.rng`` (a
    :class:`~repro.util.rng.ReproducibleRNG` derived from the constructor
    seed), so a fault model is replayable: construct with the same seed,
    get the same faults.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = ReproducibleRNG(seed).spawn("fault-model", type(self).__name__)

    def reset(self) -> None:
        """Rewind the model's randomness to its initial state."""
        self.rng = ReproducibleRNG(self.seed).spawn(
            "fault-model", type(self).__name__
        )

    @abstractmethod
    def apply(self, message_index: int, sender: int, value: int, width: int) -> Delivery:
        """Decide the fate of one ``width``-bit message; return the
        :class:`Delivery`."""


class NoFaults(FaultModel):
    """The identity model: a perfect channel (useful as a baseline)."""

    def apply(self, message_index: int, sender: int, value: int, width: int) -> Delivery:
        """Deliver the message untouched."""
        return Delivery(value, width)


class BitFlipFaults(FaultModel):
    """Flip each delivered bit independently with probability ``p``."""

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError("flip probability must be in [0, 1]")
        super().__init__(seed)
        self.p = p

    def apply(self, message_index: int, sender: int, value: int, width: int) -> Delivery:
        """XOR the payload with a mask of independent Bernoulli(p) bits."""
        flipped = [i for i in range(width) if self.rng.random() < self.p]
        delivery = Delivery(value ^ sum(1 << i for i in flipped), width)
        if flipped:
            detail = f"positions {flipped[:8]}{'…' if len(flipped) > 8 else ''}"
            delivery.events.append(
                FaultEvent(message_index, sender, "flip", len(flipped), detail)
            )
        return delivery


class BurstFaults(FaultModel):
    """With probability ``p`` per message, flip a contiguous burst of bits."""

    def __init__(self, p: float, burst_len: int = 8, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError("burst probability must be in [0, 1]")
        if burst_len < 1:
            raise ValueError("burst length must be >= 1")
        super().__init__(seed)
        self.p = p
        self.burst_len = burst_len

    def apply(self, message_index: int, sender: int, value: int, width: int) -> Delivery:
        """Maybe XOR one contiguous run of up to ``burst_len`` bits."""
        if not width or self.rng.random() >= self.p:
            return Delivery(value, width)
        start = self.rng.randrange(width)
        length = min(self.burst_len, width - start)
        detail = f"burst [{start}, {start + length})"
        event = FaultEvent(message_index, sender, "burst", length, detail)
        return Delivery(value ^ (((1 << length) - 1) << start), width, events=[event])


class ErasureFaults(FaultModel):
    """With probability ``p`` per message, truncate the payload's tail
    (only a prefix -- the low ``keep`` bits of the packed value -- arrives).

    Erasure on a bit FIFO manifests as *missing bits*: the receiver's
    ``Recv`` starves, which the reliable transport turns into a timeout,
    flush and retransmission.
    """

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError("erasure probability must be in [0, 1]")
        super().__init__(seed)
        self.p = p

    def apply(self, message_index: int, sender: int, value: int, width: int) -> Delivery:
        """Maybe cut the message at a uniformly random point (possibly 0)."""
        if not width or self.rng.random() >= self.p:
            return Delivery(value, width)
        keep = self.rng.randrange(width)
        detail = f"kept {keep}/{width} bits"
        event = FaultEvent(message_index, sender, "erase", width - keep, detail)
        return Delivery(value & ((1 << keep) - 1), keep, events=[event])


class DuplicateFaults(FaultModel):
    """With probability ``p`` per message, deliver the payload twice."""

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError("duplication probability must be in [0, 1]")
        super().__init__(seed)
        self.p = p

    def apply(self, message_index: int, sender: int, value: int, width: int) -> Delivery:
        """Maybe deliver two back-to-back copies of the message."""
        if not width or self.rng.random() >= self.p:
            return Delivery(value, width)
        event = FaultEvent(message_index, sender, "duplicate", width, "delivered twice")
        return Delivery(value, width, copies=2, events=[event])


class DelayFaults(FaultModel):
    """With probability ``p``, hold a message back behind later traffic.

    A delayed message is released only after ``delay`` further sends on the
    channel (any direction) — on a bit FIFO this reorders its bits behind
    younger messages, which is exactly the hazard sequence numbers exist
    to catch.
    """

    def __init__(self, p: float, max_delay: int = 2, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError("delay probability must be in [0, 1]")
        if max_delay < 1:
            raise ValueError("max delay must be >= 1")
        super().__init__(seed)
        self.p = p
        self.max_delay = max_delay

    def apply(self, message_index: int, sender: int, value: int, width: int) -> Delivery:
        """Maybe delay the delivery by 1..max_delay subsequent sends."""
        if not width or self.rng.random() >= self.p:
            return Delivery(value, width)
        delay = self.rng.randrange(1, self.max_delay + 1)
        detail = f"held for {delay} send(s)"
        event = FaultEvent(message_index, sender, "delay", width, detail)
        return Delivery(value, width, delay=delay, events=[event])


class ChannelDropFaults(FaultModel):
    """The link dies: after ``after_messages`` sends (or with probability
    ``p`` per message), the channel closes mid-run.

    The offending send raises :class:`~repro.comm.channel.ChannelClosed`;
    the supervised runtime reports the run as a transport failure rather
    than crashing.
    """

    def __init__(
        self,
        after_messages: int | None = None,
        p: float = 0.0,
        seed: int = 0,
    ):
        if after_messages is None and p <= 0.0:
            raise ValueError("need after_messages or a positive drop probability")
        if after_messages is not None and after_messages < 0:
            raise ValueError("after_messages must be >= 0")
        if not 0.0 <= p <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        super().__init__(seed)
        self.after_messages = after_messages
        self.p = p

    def apply(self, message_index: int, sender: int, value: int, width: int) -> Delivery:
        """Kill the channel at the configured point."""
        dead = (
            self.after_messages is not None
            and message_index >= self.after_messages
        ) or (self.p > 0.0 and self.rng.random() < self.p)
        if not dead:
            return Delivery(value, width)
        event = FaultEvent(message_index, sender, "drop", width, "channel dropped")
        return Delivery(value, width, drop_channel=True, events=[event])


class CompositeFaults(FaultModel):
    """Chain several fault models: each sees the previous one's output.

    Copies multiply, delays add, and a drop from any member kills the
    channel.
    """

    def __init__(self, models: list[FaultModel]):
        if not models:
            raise ValueError("composite needs at least one model")
        super().__init__(models[0].seed)
        self.models = list(models)

    def reset(self) -> None:
        """Rewind every member model."""
        for model in self.models:
            model.reset()

    def apply(self, message_index: int, sender: int, value: int, width: int) -> Delivery:
        """Apply every member model in order, merging their decisions."""
        out = Delivery(value, width)
        for model in self.models:
            step = model.apply(message_index, sender, out.value, out.width)
            out.value, out.width = step.value, step.width
            out.copies *= step.copies
            out.delay += step.delay
            out.drop_channel = out.drop_channel or step.drop_channel
            out.events.extend(step.events)
        return out


class FaultyChannel(BitChannel):
    """A :class:`BitChannel` whose deliveries pass through a fault model.

    The transcript still records exactly what each sender put on the wire
    (that is the communication cost the agents pay); the *delivered* bits
    are whatever the fault model returns.  Every injected fault is recorded
    in :attr:`fault_log`, so a run's measured cost can be decomposed into
    payload and fault-recovery overhead after the fact.
    """

    def __init__(self, fault_model: FaultModel | None = None):
        super().__init__()
        self.fault_model = fault_model or NoFaults()
        self.fault_log = FaultLog()
        self.delivered_bits = 0
        # [receiver, remaining_sends, value, width] for delayed messages.
        self._delayed: list[list] = []

    def _deliver(self, receiver: int, value: int, width: int) -> None:
        """Pass the delivery through the fault model, then queue it."""
        message_index = len(self.transcript.messages) - 1
        sender = 1 - receiver
        self._release_delayed()
        delivery = self.fault_model.apply(message_index, sender, value, width)
        for event in delivery.events:
            self.fault_log.record(event)
        if delivery.drop_channel:
            self.close()
            raise ChannelClosed(
                f"channel dropped by fault injection at message {message_index}"
            )
        for _ in range(delivery.copies):
            if delivery.delay > 0:
                self._delayed.append([receiver, delivery.delay, delivery.value, delivery.width])
            else:
                self._enqueue(receiver, delivery.value, delivery.width)

    def _enqueue(self, receiver: int, value: int, width: int) -> None:
        """Queue delivered bits for the receiver, counting them."""
        super()._deliver(receiver, value, width)
        self.delivered_bits += width

    def _release_delayed(self) -> None:
        """Tick held-back messages and flush the ones whose delay expired."""
        still_held: list[list] = []
        for entry in self._delayed:
            entry[1] -= 1
            if entry[1] <= 0:
                self._enqueue(entry[0], entry[2], entry[3])
            else:
                still_held.append(entry)
        self._delayed = still_held

    def drained(self) -> bool:
        """True when nothing is pending *and* nothing is held back delayed."""
        return super().drained() and not self._delayed


#: Fault kinds :func:`make_fault_model` understands.
FAULT_KINDS = ("flip", "burst", "erase", "duplicate", "delay")


def make_fault_model(kind: str, rate: float, seed: int = 0) -> FaultModel:
    """Build a seeded fault model of the named kind at the given rate.

    Kinds: ``flip`` (independent bit flips), ``burst`` (burst flips),
    ``erase`` (tail truncation), ``duplicate`` (message replays), ``delay``
    (deliveries postponed behind later sends).  ``rate = 0`` always means a
    clean channel.
    """
    if rate < 0:
        raise ValueError("fault rate must be >= 0")
    if rate == 0:
        return NoFaults()
    makers = {
        "flip": BitFlipFaults,
        "burst": BurstFaults,
        "erase": ErasureFaults,
        "duplicate": DuplicateFaults,
        "delay": DelayFaults,
    }
    if kind not in makers:
        raise ValueError(f"unknown fault kind {kind!r}; have {sorted(makers)}")
    return makers[kind](rate, seed=seed)
