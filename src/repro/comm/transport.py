"""Reliable transport over an unreliable bit channel: framing, CRC, ARQ.

The protocols in :mod:`repro.protocols` assume every bit arrives intact.
Once the channel injects faults (:mod:`repro.comm.faults`), that assumption
needs a transport layer to restore it — the classic ARQ (automatic repeat
request) stack, built here entirely out of the agent runtime's effects so
it composes with any protocol via ``yield from``:

* **Frames.**  A data frame is ``[type=0][seq][len][payload][crc16]``; a
  control frame is ``[type=1][flag][seq][crc16]`` with flag 1 = ACK,
  0 = NAK.  Fields are listed in wire order and a frame is one packed
  ``(value, width)`` payload like any other message: each field is a
  little-endian bit field of ``value`` (``type | seq << 1 | len << ...``),
  so frames are built by shift-and-OR and parsed by shift-and-mask.  The
  CRC is CRC-16-CCITT over every bit before it (see :func:`crc16`).
* **Stop-and-wait ARQ.**  :meth:`ArqEndpoint.send` transmits a frame and
  waits for a matching ACK; on NAK, timeout or garble it retransmits with
  exponentially growing (deterministic, tick-based) timeouts, up to the
  retry budget.  :meth:`ArqEndpoint.recv` validates checksum and sequence
  number, ACKs good frames, NAKs damage, re-ACKs duplicates, and flushes
  the stream (``Drain``) after any damage so alignment recovers.
* **Graceful degradation.**  When the budget is exhausted the endpoint
  raises :class:`~repro.comm.channel.TransportFailure`, which the
  supervised runtime converts into a structured report — never an uncaught
  exception in a production path.
* **Accounting.**  Every endpoint keeps :class:`TransportStats` separating
  the payload bits the inner protocol asked to move from the framing /
  retransmission overhead actually paid on the wire, so faulted
  experiments can plot recovery overhead against fault rate honestly.

:func:`arq_adapt` tunnels an arbitrary agent program through an endpoint,
turning any existing protocol into its reliable-transport variant without
touching the protocol's code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.comm.agents import AgentProgram, Drain, ProtocolError, Recv, Send
from repro.comm.channel import TransportFailure
from repro.trace import core as trace

#: Frame-type bits.
DATA_FRAME = 0
CONTROL_FRAME = 1
#: Control-frame flag bits.
ACK = 1
NAK = 0
#: CRC width in bits (CRC-16-CCITT).
CRC_BITS = 16

_CRC_INIT = 0xFFFF
#: The CCITT polynomial 0x1021, bit-reversed for the reflected register.
_CRC_POLY_REFLECTED = 0x8408


def _clock(reg: int, steps: int) -> int:
    """Shift the reflected CRC register ``steps`` times (input folded in)."""
    for _ in range(steps):
        reg = (reg >> 1) ^ (_CRC_POLY_REFLECTED if reg & 1 else 0)
    return reg


_CRC_TABLE = tuple(_clock(byte, 8) for byte in range(256))


def crc16(value: int, width: int) -> int:
    """CRC-16-CCITT of a ``width``-bit packed payload, as a 16-bit int.

    The bits are fed in wire order (bit 0 of ``value`` first) into an
    MSB-first register with init 0xFFFF and polynomial 0x1021, and bit
    ``i`` of the result is the ``i``-th CRC bit on the wire.  Wire order
    is LSB-first within each byte of ``value``, so the register runs
    bit-reflected: a byte at a time through a 256-entry table, then the
    ``width % 8`` tail bits one at a time, mirrored back at the end.
    Detects all 1- and 2-bit errors and any burst of ≤ 16 bits — exactly
    the damage the fault models inject most often.
    """
    data = value.to_bytes((width + 7) >> 3, "little")
    full, tail = divmod(width, 8)
    reg = _CRC_INIT
    for byte in data[:full]:
        reg = (reg >> 8) ^ _CRC_TABLE[(reg ^ byte) & 0xFF]
    if tail:
        reg = _clock(reg ^ data[full], tail)
    return int(f"{reg:016b}"[::-1], 2)


def _seal(body: int, width: int) -> tuple[int, int]:
    """Append the CRC of a ``width``-bit frame body: the packed frame."""
    return body | crc16(body, width) << width, width + CRC_BITS


class _Frame(NamedTuple):
    """One frame as :meth:`ArqEndpoint._read_frame` found it.

    ``kind`` is :data:`DATA_FRAME`/:data:`CONTROL_FRAME`, or None when the
    line stayed quiet.  ``status`` is ``"quiet"`` (nothing arrived),
    ``"cut"`` (the frame stopped short of its length), ``"garbled"`` (CRC
    mismatch) or ``"ok"``; the fields are meaningful only when ``"ok"``.
    """

    kind: int | None
    status: str
    seq: int = 0
    flag: int = 0
    payload: int = 0
    length: int = 0


@dataclass(frozen=True)
class ArqConfig:
    """Tuning knobs for an ARQ endpoint.

    Attributes:
        max_retries: retransmissions allowed per frame beyond the first
            transmission (0 = fire once, never retry).
        base_timeout: ticks to wait for an ACK (or frame) before the first
            retransmission; doubles per retry (exponential backoff).
        max_timeout: cap on the backed-off timeout.
        seq_bits: width of the sequence-number field (wraps mod 2^seq_bits).
        len_bits: width of the payload-length field; payloads longer than
            ``2^len_bits - 1`` are split across frames transparently.
        linger_timeout: how long a finished agent keeps re-ACKing stray
            retransmissions before truly returning (the TIME_WAIT analogue;
            prevents the peer's final frame from dying un-ACKed).
        frame_payload: optional cap on payload bits per frame, below the
            ``len_bits`` limit.  Smaller frames pay more framing overhead
            but survive high bit-error rates far better (each frame is an
            independent delivery attempt) — the knob behind E17's
            overhead-vs-robustness tradeoff.
    """

    max_retries: int = 8
    base_timeout: int = 16
    max_timeout: int = 4096
    seq_bits: int = 8
    len_bits: int = 16
    linger_timeout: int = 64
    frame_payload: int | None = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_timeout < 1 or self.max_timeout < self.base_timeout:
            raise ValueError("need 1 <= base_timeout <= max_timeout")
        if self.seq_bits < 1 or self.len_bits < 1:
            raise ValueError("seq_bits and len_bits must be >= 1")
        if self.linger_timeout < 1:
            raise ValueError("linger_timeout must be >= 1")
        if self.frame_payload is not None and self.frame_payload < 1:
            raise ValueError("frame_payload must be >= 1 when given")

    @property
    def max_payload(self) -> int:
        """Largest payload a single frame can carry."""
        cap = (1 << self.len_bits) - 1
        if self.frame_payload is not None:
            return min(cap, self.frame_payload)
        return cap

    @property
    def data_header_bits(self) -> int:
        """Bits in a data-frame header (type + seq + len)."""
        return 1 + self.seq_bits + self.len_bits

    @property
    def control_frame_bits(self) -> int:
        """Total bits in a control frame (type + flag + seq + crc)."""
        return 1 + 1 + self.seq_bits + CRC_BITS


@dataclass
class TransportStats:
    """Per-endpoint accounting: payload vs overhead, and every recovery act.

    The four bit buckets partition the wire exactly: every bit this
    endpoint puts on the channel lands in precisely one of ``payload_bits``
    (first transmission of inner-protocol bits), ``framing_bits`` (header +
    CRC of first data-frame transmissions), ``control_bits`` (ACK/NAK
    frames) or ``retransmit_bits`` (entire retransmitted data frames), so
    ``wire_bits == accounted_bits`` is an invariant — on clean and faulty
    channels alike — and the symbolic calculus in :mod:`repro.costs` can be
    checked bucket by bucket.

    Attributes:
        payload_bits: inner-protocol bits on their *first* transmission
            (a chunk that never reached the wire is never counted).
        wire_bits: bits this endpoint actually put on the channel
            (frames + control traffic + retransmissions).
        framing_bits: data-frame header + CRC bits of first transmissions.
        control_bits: bits spent on ACK/NAK control frames.
        retransmit_bits: full data-frame bits spent on retransmissions.
        frames_sent: data frames transmitted (including retransmissions).
        frames_delivered: data frames this endpoint accepted and passed up.
        retransmissions: data frames sent again after a failed attempt.
        acks_sent / naks_sent: control frames emitted.
        timeouts: Recv timeouts experienced (waiting for data or acks).
        crc_failures: frames rejected for checksum mismatch.
        duplicates_dropped: data frames discarded as replays.
        flushed_bits: bits discarded by resynchronizing drains.
    """

    payload_bits: int = 0
    wire_bits: int = 0
    framing_bits: int = 0
    control_bits: int = 0
    retransmit_bits: int = 0
    frames_sent: int = 0
    frames_delivered: int = 0
    retransmissions: int = 0
    acks_sent: int = 0
    naks_sent: int = 0
    timeouts: int = 0
    crc_failures: int = 0
    duplicates_dropped: int = 0
    flushed_bits: int = 0

    @property
    def overhead_bits(self) -> int:
        """Wire bits beyond the inner payload — the price of reliability."""
        return self.wire_bits - self.payload_bits

    @property
    def accounted_bits(self) -> int:
        """Sum of the four bit buckets; must always equal ``wire_bits``."""
        return (
            self.payload_bits
            + self.framing_bits
            + self.control_bits
            + self.retransmit_bits
        )

    @property
    def retries(self) -> int:
        """Total recovery actions (retransmissions + NAKs + timeouts)."""
        return self.retransmissions + self.naks_sent + self.timeouts

    def merged(self, other: "TransportStats") -> "TransportStats":
        """Field-wise sum of two endpoints' stats (one per agent)."""
        return TransportStats(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in self.__dataclass_fields__
            }
        )


@dataclass
class ArqEndpoint:
    """One agent's half of the reliable transport.

    Owns the direction-local sequence counters and statistics; its
    :meth:`send`/:meth:`recv` are generators meant to be driven with
    ``yield from`` inside an agent program (or via :func:`arq_adapt`).
    """

    config: ArqConfig = field(default_factory=ArqConfig)
    stats: TransportStats = field(default_factory=TransportStats)
    #: Which agent owns this endpoint (0/1; -1 = unattributed).  Set by
    #: :func:`reliable_pair` so trace events carry per-endpoint identity.
    agent: int = -1
    _send_seq: int = 0
    _recv_expected: int = 0
    # A data frame accepted while we were waiting for an ACK (see
    # _handle_stray_data): the next recv() returns it without touching
    # the channel.
    _stash: tuple[int, int] | None = None

    def _trace(self, name: str, **fields) -> None:
        """Emit one ARQ trace event tagged with this endpoint's agent id."""
        tracer = trace.active_tracer()
        if tracer is not None:
            tracer.event(name, agent=self.agent, **fields)

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def _data_frame(self, seq: int, payload: int, length: int) -> tuple[int, int]:
        """[type=0][seq][len][payload][crc], packed."""
        cfg = self.config
        body = (
            DATA_FRAME
            | seq << 1
            | length << (1 + cfg.seq_bits)
            | payload << cfg.data_header_bits
        )
        return _seal(body, cfg.data_header_bits + length)

    def _put(self, frame: tuple[int, int]):
        """Yield the Send for a packed frame, counting its wire bits."""
        self.stats.wire_bits += frame[1]
        yield Send(*frame)

    def _put_control(self, flag: int, seq: int):
        """Build, bucket-account and transmit one ACK/NAK control frame."""
        frame = _seal(CONTROL_FRAME | flag << 1 | seq << 2, 2 + self.config.seq_bits)
        self.stats.control_bits += frame[1]
        yield from self._put(frame)

    def _read_frame(self, timeout: int) -> AgentProgram:
        """Read one frame off the channel and check it (the one parser).

        Receives the type bit, then either the rest of a control frame or
        a data frame's ``[seq][len]`` head followed by ``len`` payload
        bits and the CRC, each ``Recv`` waiting at most ``timeout`` ticks.
        Returns a :class:`_Frame`; what to do about it is the caller's.
        """
        cfg = self.config
        seq_mask = (1 << cfg.seq_bits) - 1
        kind = yield Recv(1, timeout=timeout)
        if kind is None:
            return _Frame(None, "quiet")
        if kind == CONTROL_FRAME:
            rest = yield Recv(cfg.control_frame_bits - 1, timeout=timeout)
            if rest is None:
                return _Frame(CONTROL_FRAME, "cut")
            fields = 1 + cfg.seq_bits
            body = CONTROL_FRAME | (rest & ((1 << fields) - 1)) << 1
            intact = crc16(body, 1 + fields) == rest >> fields
            return _Frame(
                CONTROL_FRAME,
                "ok" if intact else "garbled",
                seq=rest >> 1 & seq_mask,
                flag=rest & 1,
            )
        head = yield Recv(cfg.seq_bits + cfg.len_bits, timeout=timeout)
        if head is None:
            return _Frame(DATA_FRAME, "cut")
        length = head >> cfg.seq_bits
        body = yield Recv(length + CRC_BITS, timeout=timeout)
        if body is None:
            return _Frame(DATA_FRAME, "cut")
        payload = body & ((1 << length) - 1)
        framed = DATA_FRAME | head << 1 | payload << cfg.data_header_bits
        intact = crc16(framed, cfg.data_header_bits + length) == body >> length
        return _Frame(
            DATA_FRAME,
            "ok" if intact else "garbled",
            seq=head & seq_mask,
            payload=payload,
            length=length,
        )

    def _flush(self) -> AgentProgram:
        """Drop whatever is queued so the stream realigns; the bit count."""
        _, flushed = yield Drain()
        self.stats.flushed_bits += flushed
        return flushed

    def _ack(self, seq: int, duplicate: bool) -> AgentProgram:
        """ACK data frame ``seq`` (a ``duplicate`` is dropped, not delivered)."""
        self.stats.acks_sent += 1
        if duplicate:
            self.stats.duplicates_dropped += 1
        self._trace("arq.ack", seq=seq, duplicate=duplicate)
        yield from self._put_control(ACK, seq)

    def _accept(self, frame: _Frame) -> AgentProgram:
        """ACK the expected data frame and advance the receive sequence."""
        yield from self._ack(frame.seq, duplicate=False)
        self._recv_expected = (frame.seq + 1) % (1 << self.config.seq_bits)
        self.stats.frames_delivered += 1

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, value: int, width: int) -> AgentProgram:
        """Reliably deliver a ``width``-bit payload to the peer
        (``yield from`` me).

        Splits into frames of at most ``config.max_payload`` bits (an
        empty payload still travels as one empty frame); each frame is
        retransmitted with exponential backoff until ACKed or the retry
        budget dies (:class:`~repro.comm.channel.TransportFailure`).
        """
        step = self.config.max_payload
        for offset in range(0, max(width, 1), step):
            length = min(step, width - offset)
            yield from self._send_frame(value >> offset & ((1 << length) - 1), length)

    def _send_frame(self, chunk: int, length: int) -> AgentProgram:
        """Stop-and-wait one frame through: transmit, await ACK, retry."""
        cfg = self.config
        seq = self._send_seq
        frame = self._data_frame(seq, chunk, length)
        timeout = cfg.base_timeout
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                self.stats.retransmissions += 1
                self.stats.retransmit_bits += frame[1]
                self._trace("arq.retransmit", seq=seq, attempt=attempt)
            else:
                # Bucket the first transmission: the chunk's payload bits
                # count only once they actually reach the wire (an aborted
                # multi-chunk send must not inflate payload_bits), and the
                # header + CRC land in the framing bucket.
                self.stats.payload_bits += length
                self.stats.framing_bits += cfg.data_header_bits + CRC_BITS
            self.stats.frames_sent += 1
            yield from self._put(frame)
            acked = yield from self._await_ack(seq, timeout)
            if acked:
                self._send_seq = (seq + 1) % (1 << cfg.seq_bits)
                return
            timeout = min(timeout * 2, cfg.max_timeout)
        raise TransportFailure(
            f"retry budget ({cfg.max_retries}) exhausted for frame seq={seq} "
            f"({length} payload bits)"
        )

    def _await_ack(self, seq: int, timeout: int) -> AgentProgram:
        """Wait for the ACK of ``seq``; returns True to proceed, False to
        retransmit.  Tolerates stray data frames (fault duplicates) and
        stale control frames while waiting."""
        for _ in range(4 + self.config.max_retries):
            frame = yield from self._read_frame(timeout)
            if frame.kind is None:
                self.stats.timeouts += 1
                self._trace("arq.timeout", awaiting="ack", seq=seq)
                return False
            if frame.kind == DATA_FRAME:
                verdict = yield from self._handle_stray_data(frame)
                if verdict == "acked":
                    return True  # implicit ACK: the peer has progressed
                if verdict == "retry":
                    return False
                continue
            if frame.status == "cut":
                self.stats.timeouts += 1
                self._trace("arq.timeout", awaiting="ack_body", seq=seq)
                return False
            if frame.status == "garbled":
                self.stats.crc_failures += 1
                self._trace("arq.crc_failure", frame="control")
                yield from self._flush()
                return False
            if frame.flag == ACK and frame.seq == seq:
                return True
            if frame.flag == ACK:
                continue  # stale duplicate ACK — keep waiting
            return False  # NAK — retransmit immediately
        return False

    def _handle_stray_data(self, frame: _Frame) -> AgentProgram:
        """Deal with a data frame that arrives while we await an ACK.

        Three cases, returned as a verdict string:

        * ``"retry"`` — the frame was truncated or garbled; flush and
          retransmit our own outstanding frame.
        * ``"continue"`` — a valid *duplicate* (old seq): the peer's copy
          of a frame we already delivered, meaning our ACK got lost.
          Re-ACK it and keep waiting.
        * ``"acked"`` — a valid *new* frame: the peer's inner program has
          progressed past our outstanding frame, so its ACK to us was lost
          in flight.  Treat it as an implicit ACK, ACK the new frame and
          stash its payload for the next :meth:`recv`.
        """
        if frame.status != "ok":
            if frame.status == "garbled":
                self.stats.crc_failures += 1
            yield from self._flush()
            return "retry"
        if frame.seq != self._recv_expected:
            yield from self._ack(frame.seq, duplicate=True)
            return "continue"
        if self._stash is not None:
            # Can't hold two frames — treat as damage and resynchronize.
            yield from self._flush()
            return "retry"
        yield from self._accept(frame)
        self._stash = (frame.payload, frame.length)
        return "acked"

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def recv(self) -> AgentProgram:
        """Reliably receive one frame's payload as ``(value, width)``
        (``yield from`` me).

        Validates CRC and sequence number; ACKs good frames, re-ACKs
        duplicates, NAKs damage after flushing the stream, and raises
        :class:`~repro.comm.channel.TransportFailure` when the budget
        dies without a good frame.
        """
        if self._stash is not None:
            payload, self._stash = self._stash, None
            return payload
        cfg = self.config
        timeout = cfg.base_timeout
        failures = 0
        while failures <= cfg.max_retries:
            frame = yield from self._read_frame(timeout)
            if frame.kind == CONTROL_FRAME:
                # Stale ACK/NAK from an earlier exchange — consume, ignore.
                if frame.status == "cut":
                    yield from self._flush()
                continue
            if frame.status == "ok":
                if frame.seq == self._recv_expected:
                    yield from self._accept(frame)
                    return frame.payload, frame.length
                # A retransmission (or fault duplicate) of an old frame:
                # its ACK must have been lost — re-ACK so the peer advances.
                yield from self._ack(frame.seq, duplicate=True)
                continue
            if frame.status == "garbled":
                self.stats.crc_failures += 1
                self._trace("arq.crc_failure", frame="data")
            else:  # nothing arrived, or the frame was cut short
                self.stats.timeouts += 1
                self._trace("arq.timeout", awaiting="data")
            failures += 1
            yield from self._flush_and_nak()
            timeout = min(timeout * 2, cfg.max_timeout)
        raise TransportFailure(
            f"receive budget ({cfg.max_retries}) exhausted waiting for frame "
            f"seq={self._recv_expected}"
        )

    def _flush_and_nak(self) -> AgentProgram:
        """Drop whatever is queued and ask the peer to retransmit."""
        flushed = yield from self._flush()
        self.stats.naks_sent += 1
        self._trace("arq.nak", seq=self._recv_expected, flushed=flushed)
        yield from self._put_control(NAK, self._recv_expected)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def linger(self) -> AgentProgram:
        """Serve stray retransmissions after the inner program finished.

        Without this, a fault hitting the *final* ACK of a run would leave
        the peer retransmitting at a wall of silence until its budget died.
        Lingering keeps re-ACKing (bounded by the retry budget) until the
        line stays quiet for ``linger_timeout`` ticks.
        """
        cfg = self.config
        for _ in range(cfg.max_retries + 1):
            frame = yield from self._read_frame(cfg.linger_timeout)
            if frame.kind is None:
                return  # line quiet — peer is done too
            if frame.kind == DATA_FRAME and frame.status == "ok":
                # A retransmission whose ACK was lost — re-ACK it.
                yield from self._ack(frame.seq, duplicate=True)
            elif frame.kind == DATA_FRAME or frame.status == "cut":
                yield from self._flush()


def arq_adapt(inner: AgentProgram, endpoint: ArqEndpoint) -> AgentProgram:
    """Tunnel an agent program's Send/Recv through reliable ARQ frames.

    Drives ``inner`` as a sub-generator: every ``Send`` becomes a framed,
    acknowledged, retransmitted transfer; every ``Recv(n)`` is satisfied
    from an inbox refilled one validated frame at a time.  The inner
    program needs no changes and never sees a corrupted bit — it either
    gets clean data or the run ends in a structured transport failure.
    """
    inbox, queued = 0, 0  # packed undelivered payload bits, and how many
    inject: Any = None
    while True:
        try:
            effect = inner.send(inject)
        except StopIteration as stop:
            yield from endpoint.linger()
            return stop.value
        inject = None
        if isinstance(effect, Send):
            yield from endpoint.send(effect.value, effect.width)
        elif isinstance(effect, Recv):
            while queued < effect.nbits:
                payload, length = yield from endpoint.recv()
                inbox |= payload << queued
                queued += length
            inject = inbox & ((1 << effect.nbits) - 1)
            inbox >>= effect.nbits
            queued -= effect.nbits
        elif isinstance(effect, Drain):
            inject = (inbox, queued)
            inbox, queued = 0, 0
        else:
            raise ProtocolError(
                f"adapted program yielded {effect!r}; expected Send, Recv or Drain"
            )


def reliable_pair(
    program0: AgentProgram,
    program1: AgentProgram,
    config: ArqConfig | None = None,
) -> tuple[AgentProgram, AgentProgram, ArqEndpoint, ArqEndpoint]:
    """Wrap two instantiated agent programs in ARQ transport.

    Returns ``(wrapped0, wrapped1, endpoint0, endpoint1)`` — keep the
    endpoints to read :class:`TransportStats` after the run.
    """
    cfg = config or ArqConfig()
    e0 = ArqEndpoint(cfg, agent=0)
    e1 = ArqEndpoint(cfg, agent=1)
    return arq_adapt(program0, e0), arq_adapt(program1, e1), e0, e1
