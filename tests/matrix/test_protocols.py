"""The live one-way and certificate protocols, and the clean-cell property.

Two halves:

* exhaustive correctness of :class:`OneWayTableProtocol` (realizes
  ``one_way_cc`` exactly, answers every (row, col) correctly) and
  :class:`CertificateProtocol` (complete with the honest certificate,
  sound against *every* certificate on non-value cells);
* the Hypothesis property at the heart of the matrix: at any seed,
  every catalogue point's clean cell is a ``MATCH`` — measured equals
  predicted by integer equality, ARQ stats field for field, ground
  truth reproduced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import one_way_cc, run_protocol
from repro.matrix import (
    CertificateProtocol,
    OneWayTableProtocol,
    catalogue,
    certificate_for,
    equality_truth_matrix,
    run_cell,
)
from repro.matrix.scenarios import index_truth_matrix
from repro.matrix.sweep import regimes
from repro.util.rng import derive_seed

EQ4 = equality_truth_matrix(2)
INDEX4 = index_truth_matrix(2)
CLEAN = regimes(quick=True)[0]


class TestOneWayTableProtocol:
    @pytest.mark.parametrize("tm", [EQ4, INDEX4], ids=["eq4", "index4"])
    def test_answers_every_cell_correctly(self, tm):
        protocol = OneWayTableProtocol(tm)
        rows, cols = tm.shape
        for row in range(rows):
            for col in range(cols):
                result = run_protocol(
                    protocol.agent0, protocol.agent1, row, col
                )
                assert result.agreed_output() == bool(tm.data[row, col])

    @pytest.mark.parametrize("tm", [EQ4, INDEX4], ids=["eq4", "index4"])
    def test_realizes_the_one_way_formula(self, tm):
        protocol = OneWayTableProtocol(tm)
        assert protocol.width == one_way_cc(tm, "0to1")
        result = run_protocol(protocol.agent0, protocol.agent1, 0, 0)
        assert result.transcript.total_bits == protocol.width + 1
        assert result.transcript.bits_from(0) == protocol.width
        assert result.transcript.bits_from(1) == 1

    def test_index_needs_the_whole_table_one_way(self):
        # The classic separation: 16 distinct rows -> 4 forward bits,
        # though two-way D(f) is far smaller.
        assert OneWayTableProtocol(INDEX4).width == 4


class TestCertificateProtocol:
    @pytest.mark.parametrize("value", [0, 1])
    def test_complete_and_sound_on_eq(self, value):
        protocol = CertificateProtocol(EQ4, value)
        rows, cols = EQ4.shape
        for row in range(rows):
            for col in range(cols):
                honest = certificate_for(protocol, row, col)
                result = run_protocol(
                    protocol.agent0, protocol.agent1, (row, honest), col
                )
                assert result.agreed_output() == bool(
                    EQ4.data[row, col] == value
                )

    def test_sound_against_every_certificate(self):
        # No certificate — honest or adversarial — makes the agents
        # accept a non-value cell: the cover rectangles are value-
        # monochromatic, so (row, col) membership implies f = value.
        protocol = CertificateProtocol(EQ4, 1)
        rows, cols = EQ4.shape
        for row in range(rows):
            for col in range(cols):
                if EQ4.data[row, col] == 1:
                    continue
                for certificate in range(len(protocol.cover)):
                    result = run_protocol(
                        protocol.agent0, protocol.agent1,
                        (row, certificate), col,
                    )
                    assert result.agreed_output() is False

    def test_eq_needs_one_rectangle_per_diagonal_one(self):
        # The diagonal is a fooling set: C¹(EQ_m) = m exactly.
        assert len(CertificateProtocol(EQ4, 1).cover) == 4

    def test_cost_is_width_plus_two_audits(self):
        protocol = CertificateProtocol(EQ4, 1)
        result = run_protocol(protocol.agent0, protocol.agent1, (0, 0), 0)
        assert result.transcript.total_bits == protocol.width + 2


class TestCleanCellProperty:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_catalogue_point_matches_at_any_seed(self, seed):
        # The tentpole invariant: measured == predicted is not a
        # property of seed 0 but of the protocols themselves.
        for builder, params in catalogue(quick=False):
            instance_seed = derive_seed(
                seed, "matrix", builder.__name__, *sorted(params.items())
            )
            case = builder(instance_seed, **params)
            cell = run_cell(case, instance_seed, CLEAN)
            assert cell["verdict"] == "MATCH", (
                f"{builder.__name__}({params}) at seed {seed}: "
                f"{cell['mismatches']}"
            )
