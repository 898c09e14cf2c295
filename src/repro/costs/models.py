"""Symbolic cost models: message shapes, ARQ overhead, paper bounds.

One protocol run is a fixed sequence of messages, and for every protocol
in :mod:`repro.protocols` that sequence is *predictable*: the senders and
the exact bit length of each message are functions of the instance
parameters alone (matrix size n, entry width k, fingerprint prime width,
Freivalds rounds) — never of the coin flips, because the wire widths are
sized to the drawn prime's fixed bit length.  :class:`MessageShape`
captures that plan, and everything the gates compare derives from it:

* ``total_bits`` — the clean-channel cost, which must equal
  ``Transcript.total_bits`` exactly;
* ``rounds`` — maximal same-sender runs of the shape, which must equal
  ``Transcript.rounds`` exactly;
* ``bits_from(agent)`` — the per-agent split, which must equal
  ``Transcript.bits_from`` exactly (this is what admission budgets bound);
* ``predicted_transport_stats(config)`` — the clean-channel ARQ plan:
  chunking, data-frame framing and per-chunk ACKs, which must equal each
  :class:`~repro.comm.transport.ArqEndpoint`'s measured
  :class:`~repro.comm.transport.TransportStats` field for field.

The bound formulas at the bottom evaluate the paper's Θ(k·n²) lower bound
and the trivial/Leighton upper bounds on the same (n, k) axes, so a sweep
cell can report measured, predicted and bound side by side.  Everything
here is integer arithmetic (the EXA lint rules watch this module).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.transport import CRC_BITS, ArqConfig, TransportStats
from repro.protocols.fingerprint import default_prime_bits

#: Width of the solvability protocols' column-count header.
SOLVABILITY_HEADER_BITS = 16

#: Width of the fraction-matrix wire header (rows + body length).
BASIS_HEADER_BITS = 48


@dataclass(frozen=True)
class MessageShape:
    """The predicted message plan of one protocol run.

    Attributes:
        protocol: the protocol's ``name`` (for reports).
        shape: ``((sender, bits), …)`` — one entry per inner ``Send``, in
            execution order.
    """

    protocol: str
    shape: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for sender, nbits in self.shape:
            if sender not in (0, 1):
                raise ValueError("message sender must be agent 0 or 1")
            if nbits < 0:
                raise ValueError("message bit counts must be >= 0")

    @property
    def total_bits(self) -> int:
        """Predicted ``Transcript.total_bits``: the protocol's exact cost."""
        return sum(nbits for _, nbits in self.shape)

    @property
    def rounds(self) -> int:
        """Predicted ``Transcript.rounds``: maximal same-sender runs.

        Zero-length messages carry no bits and therefore open no round —
        the same convention :class:`repro.comm.channel.Transcript` pins.
        """
        count = 0
        last = None
        for sender, nbits in self.shape:
            if nbits == 0:
                continue
            if sender != last:
                count += 1
                last = sender
        return count

    def bits_from(self, agent: int) -> int:
        """Predicted ``Transcript.bits_from(agent)`` (per-agent sent bits)."""
        return sum(nbits for sender, nbits in self.shape if sender == agent)

    # ------------------------------------------------------------------
    # Clean-channel ARQ predictions
    # ------------------------------------------------------------------
    def arq_chunks(self, nbits: int, config: ArqConfig) -> int:
        """Data frames one inner ``Send`` of ``nbits`` bits splits into."""
        return max(1, -(-nbits // config.max_payload))

    def predicted_transport_stats(
        self, config: ArqConfig | None = None
    ) -> tuple[TransportStats, TransportStats]:
        """The two endpoints' exact stats for a clean-channel ARQ run.

        On a clean channel stop-and-wait never retries: each inner ``Send``
        of P bits becomes ``ceil(P / max_payload)`` data frames (one when
        P = 0), each carrying ``data_header_bits + CRC_BITS`` of framing,
        and the receiving endpoint answers every frame with one ACK
        control frame.  No NAKs, no timeouts, no flushes, no duplicates —
        the returned :class:`~repro.comm.transport.TransportStats` must
        equal the live endpoints' stats field for field.
        """
        cfg = config or ArqConfig()
        stats = (TransportStats(), TransportStats())
        for sender, nbits in self.shape:
            chunks = self.arq_chunks(nbits, cfg)
            tx = stats[sender]
            tx.payload_bits += nbits
            tx.framing_bits += chunks * (cfg.data_header_bits + CRC_BITS)
            tx.frames_sent += chunks
            rx = stats[1 - sender]
            rx.control_bits += chunks * cfg.control_frame_bits
            rx.acks_sent += chunks
            rx.frames_delivered += chunks
        for endpoint in stats:
            endpoint.wire_bits = endpoint.accounted_bits
        return stats

    def arq_wire_bits(self, config: ArqConfig | None = None) -> int:
        """Total clean-channel wire bits (both endpoints, frames + ACKs)."""
        e0, e1 = self.predicted_transport_stats(config)
        return e0.wire_bits + e1.wire_bits


def arq_retry_ceiling_bits(
    shape: MessageShape, config: ArqConfig | None = None
) -> int:
    """Ceiling on data + ACK traffic when every frame burns its full retry
    budget: ``(max_retries + 1)`` transmissions (and induced ACKs) per
    chunk.  An admissible upper bound for budget provisioning — the clean
    channel spends exactly the ``predicted_transport_stats`` amount, and a
    faulty one additionally pays NAKs and flushed bits beyond this ceiling
    only through its recovery traffic, which the retry budget also caps.
    """
    cfg = config or ArqConfig()
    attempts = cfg.max_retries + 1
    total = 0
    for _, nbits in shape.shape:
        chunks = shape.arq_chunks(nbits, cfg)
        frame_bits = cfg.data_header_bits + CRC_BITS
        total += attempts * (
            chunks * frame_bits + nbits + chunks * cfg.control_frame_bits
        )
    return total


# ----------------------------------------------------------------------
# Wire-encoding size formulas (rank protocol payloads)
# ----------------------------------------------------------------------
def varint_bits(value: int) -> int:
    """Exact size of :func:`repro.protocols.wire.encode_varint`:
    16 length bits + 1 sign bit + ``max(1, bit_length(|value|))``."""
    return 16 + 1 + max(1, abs(value).bit_length())


def fraction_bits(value) -> int:
    """Exact size of an encoded fraction: numerator + denominator varints."""
    return varint_bits(value.numerator) + varint_bits(value.denominator)


def fraction_matrix_bits(matrix, ambient: int) -> int:
    """Exact size of :func:`repro.protocols.wire.encode_fraction_matrix`.

    The 48-bit header plus one fraction per entry of the ``rows × ambient``
    body; a ``None`` matrix (zero-dimensional basis) is header-only.
    """
    if matrix is None:
        return BASIS_HEADER_BITS
    from fractions import Fraction

    total = BASIS_HEADER_BITS
    for i in range(matrix.num_rows):
        for value in matrix.row(i):
            total += fraction_bits(Fraction(value))
    return total


# ----------------------------------------------------------------------
# Per-protocol shapes
# ----------------------------------------------------------------------
def shape_of(protocol, input0=None) -> MessageShape:
    """The exact :class:`MessageShape` of one run of ``protocol``.

    ``input0`` (agent 0's input) is required only for the protocols whose
    wire size depends on the instance rather than the parameters alone:
    the solvability protocols (column count travels in-band) and the
    column-basis rank protocol (the encoded basis size).  Randomized
    protocols need no coins — their wire widths are fixed by construction
    (``random_prime_with_bits`` always returns a prime of exactly the
    configured bit length, so residue widths never vary with the draw).
    """
    from repro.protocols.equality import (
        DeterministicEquality,
        RabinKarpEquality,
        RandomizedEquality,
    )
    from repro.protocols.fingerprint import FingerprintProtocol
    from repro.protocols.matmul_verify import (
        DeterministicMatMulVerify,
        FreivaldsVerify,
    )
    from repro.protocols.rank_protocol import ColumnBasisProtocol
    from repro.protocols.solvability import (
        FingerprintSolvability,
        TrivialSolvability,
    )
    from repro.protocols.trivial import TrivialProtocol

    if isinstance(protocol, DeterministicEquality):
        # x in full, then the verdict: n + 1 bits, two rounds.
        return MessageShape(protocol.name, ((0, protocol.n_bits), (1, 1)))
    if isinstance(protocol, RandomizedEquality):
        # One subset parity per round, then the verdict: rounds + 1 bits.
        return MessageShape(protocol.name, ((0, protocol.rounds), (1, 1)))
    if isinstance(protocol, RabinKarpEquality):
        # One fingerprint of width bit_length(next_prime(max(5, n²))).
        return MessageShape(protocol.name, ((0, protocol.width), (1, 1)))
    if isinstance(protocol, TrivialProtocol):
        # Agent 0's whole share, then the verdict.
        return MessageShape(
            protocol.name, ((0, len(protocol._agent0_positions)), (1, 1))
        )
    if isinstance(protocol, FingerprintProtocol):
        # One residue of exactly prime_bits per matrix cell (the drawn
        # prime always has its top bit set), then the verdict.
        cells = protocol.codec.rows * protocol.codec.cols
        return MessageShape(
            protocol.name, ((0, cells * protocol.prime_bits), (1, 1))
        )
    if isinstance(protocol, TrivialSolvability):
        # 16-bit column count + rows·cols·k payload in one send.
        cols = input0.num_cols
        body = protocol.n_rows * cols * protocol.k
        return MessageShape(
            protocol.name, ((0, SOLVABILITY_HEADER_BITS + body), (1, 1))
        )
    if isinstance(protocol, FingerprintSolvability):
        # Same header, entries reduced to prime_bits-wide residues.
        cols = input0.num_cols
        body = protocol.n_rows * cols * protocol.prime_bits
        return MessageShape(
            protocol.name, ((0, SOLVABILITY_HEADER_BITS + body), (1, 1))
        )
    if isinstance(protocol, DeterministicMatMulVerify):
        # A and B in full (2·k·n² bits), then the verdict.
        bits = 2 * protocol.n * protocol.n * protocol.k
        return MessageShape(protocol.name, ((0, bits), (1, 1)))
    if isinstance(protocol, FreivaldsVerify):
        # Agent 1 sends C·r per round (n residues of the fixed prime
        # width), agent 0 replies the one-bit verdict at the end.
        per_round = protocol.n * protocol.width
        shape = tuple((1, per_round) for _ in range(protocol.rounds))
        return MessageShape(protocol.name, shape + ((0, 1),))
    if isinstance(protocol, ColumnBasisProtocol):
        # The encoded column-space basis of agent 0's half, then the
        # verdict — instance-dependent but exactly computable from the
        # self-delimiting wire format.
        from repro.exact.span import Subspace

        basis = Subspace.column_space(input0).basis_matrix()
        body = fraction_matrix_bits(basis, input0.num_rows)
        return MessageShape(protocol.name, ((0, body), (1, 1)))
    raise TypeError(
        f"no cost model for {type(protocol).__name__}; "
        "every implemented protocol must have one"
    )


def scenario_shape(name: str, seed: int) -> MessageShape:
    """The cost model of one service scenario instance (serve's pricer).

    Builds the same :class:`~repro.matrix.scenarios.MatrixCase` that
    ``protocol.run`` would execute and returns its shape — so
    ``repro.serve`` can price a request exactly without running it.
    """
    from repro.matrix.scenarios import SCENARIOS, case_shape

    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; have {sorted(SCENARIOS)}")
    return case_shape(SCENARIOS[name](seed))


# ----------------------------------------------------------------------
# The paper's bounds, on the same axes
# ----------------------------------------------------------------------
def theorem_lower_bound_bits(n: int, k: int) -> int:
    """Theorem 1.1's Ω(k·n²) yardstick for 2n×2n k-bit singularity.

    The theorem's lower bound is ``c·k·n²`` for a positive constant c ≤ 1;
    ``k·n²`` is the admissible integer yardstick every deterministic
    protocol's cost must (and does) dominate at these sizes — see
    :mod:`repro.singularity.counting` for the rectangle-counting constant.
    """
    return k * n * n


def trivial_upper_bound_bits(n: int, k: int) -> int:
    """The trivial deterministic upper bound: one agent ships its half of
    a 2n×2n k-bit matrix (2·k·n² bits) plus the one-bit answer."""
    return 2 * k * n * n + 1


def leighton_upper_bound_bits(n: int, k: int, constant: int = 4) -> int:
    """Leighton's O(n² max(log n, log k)) upper bound, evaluated exactly
    as the fingerprint protocol pays it on π₀: one residue of
    ``default_prime_bits(n, k)`` bits per cell of the 2n×2n matrix, plus
    the answer bit."""
    return (2 * n) * (2 * n) * default_prime_bits(n, k, constant) + 1
