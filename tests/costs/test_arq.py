"""ARQ overlay predictions: framing, ACKs and chunking, bit for bit.

``MessageShape.predicted_transport_stats`` claims to reproduce the full
:class:`~repro.comm.transport.TransportStats` of a clean-channel ARQ run
— payload, framing, control and retransmit buckets, frame/ACK counters
and the wire total — from the message shape alone.  These tests run the
real endpoints with a tiny ``frame_payload`` so multi-chunk sends are the
norm, then compare field for field.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.agents import run_protocol
from repro.comm.transport import ArqConfig
from repro.costs import arq_retry_ceiling_bits, fraction_matrix_bits, varint_bits
from repro.costs.models import fraction_bits
from repro.matrix import run_arq as arq_leg
from repro.matrix.scenarios import (
    _det_equality,
    _det_rank_basis,
    _det_solvability,
    _rand_fingerprint,
)
from repro.protocols.wire import (
    encode_fraction,
    encode_fraction_matrix,
    encode_varint,
)
from repro.util.rng import ReproducibleRNG


def run_arq(case, cfg, coin_seed=0):
    """Run a case through the matrix's clean-channel ARQ leg.

    Returns ``(report, stats0, stats1)``: the supervised report and each
    endpoint's live :class:`~repro.comm.transport.TransportStats`.
    """
    coins = ReproducibleRNG(coin_seed) if case.randomized else None
    gold = run_protocol(
        case.protocol.agent0,
        case.protocol.agent1,
        case.input0,
        case.input1,
        public_randomness=coins,
    ).agreed_output()
    run = arq_leg(case, gold, coin_seed=coin_seed, config=cfg)
    assert run.recovered, run.report.outcome
    assert not run.problems, run.problems
    return (run.report, *run.endpoints)


class TestPredictedTransportStats:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 48),
        payload=st.sampled_from([1, 3, 8, 64]),
    )
    def test_equality_stats_field_for_field(self, seed, n, payload):
        case = _det_equality(seed, n)
        cfg = ArqConfig(frame_payload=payload)
        from repro.costs import shape_of

        shape = shape_of(case.protocol)
        report, s0, s1 = run_arq(case, cfg)
        predicted = shape.predicted_transport_stats(cfg)
        assert (s0, s1) == predicted
        # The dataclass equality above is field-for-field; also pin the
        # reconciliation invariants explicitly.
        for agent, stats in ((0, s0), (1, s1)):
            assert stats.wire_bits == stats.accounted_bits
            assert report.transcript.bits_from(agent) == stats.wire_bits

    def test_fingerprint_chunked_framing(self):
        # 128 payload bits through 8-bit frames: 16 data frames + 16 ACKs
        # for the fingerprint, one more pair for the 1-bit verdict.
        from repro.costs import shape_of

        case = _rand_fingerprint(5, 4, 2)
        cfg = ArqConfig(frame_payload=8)
        shape = shape_of(case.protocol, case.input0)
        _, s0, s1 = run_arq(case, cfg, coin_seed=5)
        pred0, pred1 = shape.predicted_transport_stats(cfg)
        assert s0 == pred0
        assert s1 == pred1
        assert s0.frames_sent == 16
        assert s1.acks_sent == 16

    def test_rank_basis_variable_length_payload(self):
        # The rank protocol's payload depends on the instance (basis
        # encoding) — the shape must track it exactly anyway.
        from repro.costs import shape_of

        case = _det_rank_basis(9, 4)
        cfg = ArqConfig(frame_payload=16)
        shape = shape_of(case.protocol, case.input0)
        _, s0, s1 = run_arq(case, cfg)
        assert (s0, s1) == shape.predicted_transport_stats(cfg)

    def test_solvability_header_plus_payload_single_send(self):
        from repro.costs import shape_of

        case = _det_solvability(11, 3, 4, 2)
        cfg = ArqConfig(frame_payload=8)
        shape = shape_of(case.protocol, case.input0)
        _, s0, s1 = run_arq(case, cfg)
        assert (s0, s1) == shape.predicted_transport_stats(cfg)

    def test_clean_channel_has_no_recovery_traffic(self):
        from repro.costs import shape_of

        case = _det_equality(3, 16)
        cfg = ArqConfig(frame_payload=4)
        shape = shape_of(case.protocol)
        _, s0, s1 = run_arq(case, cfg)
        for stats in (s0, s1):
            assert stats.retransmit_bits == 0
            assert stats.retransmissions == 0
            assert stats.naks_sent == 0
        assert shape.arq_wire_bits(cfg) == s0.wire_bits + s1.wire_bits


class TestRetryCeiling:
    def test_ceiling_dominates_clean_wire(self):
        # The worst-case budget (every frame retried to exhaustion) must
        # sit at or above the clean-channel wire count for any config.
        from repro.costs import shape_of

        case = _rand_fingerprint(5, 4, 2)
        shape = shape_of(case.protocol, case.input0)
        for payload in (1, 8, 64):
            for retries in (0, 1, 5):
                cfg = ArqConfig(frame_payload=payload, max_retries=retries)
                assert arq_retry_ceiling_bits(shape, cfg) >= shape.arq_wire_bits(cfg)

    def test_zero_retries_ceiling_equals_clean_wire(self):
        # With max_retries=0 every frame gets exactly one attempt, so the
        # ceiling IS the clean-channel cost.
        from repro.costs import shape_of

        case = _det_equality(3, 16)
        shape = shape_of(case.protocol)
        cfg = ArqConfig(frame_payload=8, max_retries=0)
        assert arq_retry_ceiling_bits(shape, cfg) == shape.arq_wire_bits(cfg)


class TestWireFormulas:
    """The symbolic encoders vs the real ones, on the same values."""

    @settings(max_examples=50, deadline=None)
    @given(value=st.integers(min_value=-(2**40), max_value=2**40))
    def test_varint_bits_matches_encoder(self, value):
        assert varint_bits(value) == len(encode_varint(value))

    @settings(max_examples=50, deadline=None)
    @given(
        num=st.integers(-(2**20), 2**20),
        den=st.integers(1, 2**20),
    )
    def test_fraction_bits_matches_encoder(self, num, den):
        value = Fraction(num, den)
        assert fraction_bits(value) == len(encode_fraction(value))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 4),
        ambient=st.integers(1, 4),
    )
    def test_fraction_matrix_bits_matches_encoder(self, seed, rows, ambient):
        from repro.exact.matrix import Matrix

        rng = ReproducibleRNG(seed)
        m = Matrix(
            [
                [
                    Fraction(rng.kbit_entry(6) - 32, rng.kbit_entry(4) + 1)
                    for _ in range(ambient)
                ]
                for _ in range(rows)
            ]
        )
        assert fraction_matrix_bits(m, ambient) == len(
            encode_fraction_matrix(m, ambient)
        )

    def test_fraction_matrix_bits_none_is_bare_header(self):
        assert fraction_matrix_bits(None, 5) == len(encode_fraction_matrix(None, 5))
