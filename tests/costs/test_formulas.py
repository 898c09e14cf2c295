"""Formula == wire, property-based: the tentpole's exactness guarantee.

Hypothesis drives (n, k, rounds, instance seeds) over every implemented
protocol and asserts the symbolic :class:`~repro.costs.models.MessageShape`
equals the live transcript *by integer equality* — total bits, round
count and the per-agent split.  The pinned small cases at the bottom are
the paper's worked numbers, frozen so a formula regression cannot hide
inside the property sweep's randomness.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.agents import run_protocol
from repro.costs import (
    leighton_upper_bound_bits,
    scenario_shape,
    shape_of,
    theorem_lower_bound_bits,
    trivial_upper_bound_bits,
)
from repro.matrix.scenarios import (
    _det_equality,
    _det_matmul,
    _det_rank_basis,
    _det_singularity,
    _det_solvability,
    _rand_equality,
    _rand_fingerprint,
    _rand_freivalds,
    _rand_rabin_karp,
    _rand_solvability,
)
from repro.util.rng import ReproducibleRNG

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def assert_shape_matches_wire(case, coin_seed: int = 0):
    """The one check everything here repeats: formula == transcript."""
    shape = shape_of(case.protocol, case.input0)
    coins = ReproducibleRNG(coin_seed) if case.randomized else None
    transcript = run_protocol(
        case.protocol.agent0,
        case.protocol.agent1,
        case.input0,
        case.input1,
        public_randomness=coins,
    ).transcript
    assert transcript.total_bits == shape.total_bits
    assert transcript.rounds == shape.rounds
    assert transcript.bits_from(0) == shape.bits_from(0)
    assert transcript.bits_from(1) == shape.bits_from(1)


class TestFormulaEqualsWire:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 64))
    def test_equality_deterministic(self, seed, n):
        assert_shape_matches_wire(_det_equality(seed, n))

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 32), rounds=st.integers(1, 24))
    def test_equality_randomized(self, seed, n, rounds):
        assert_shape_matches_wire(
            _rand_equality(seed, n, rounds), coin_seed=seed
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 40))
    def test_equality_rabin_karp(self, seed, n):
        assert_shape_matches_wire(_rand_rabin_karp(seed, n), coin_seed=seed)

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS, size=st.sampled_from([2, 4, 6]), k=st.integers(1, 4))
    def test_trivial_singularity(self, seed, size, k):
        assert_shape_matches_wire(_det_singularity(seed, size, k))

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS, size=st.sampled_from([2, 4, 6]), k=st.integers(1, 3))
    def test_fingerprint_singularity(self, seed, size, k):
        assert_shape_matches_wire(_rand_fingerprint(seed, size, k), coin_seed=seed)

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS, size=st.sampled_from([2, 4, 6]))
    def test_rank_column_basis(self, seed, size):
        assert_shape_matches_wire(_det_rank_basis(seed, size))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=SEEDS,
        n_rows=st.integers(1, 4),
        n_cols=st.sampled_from([2, 4, 6]),
        k=st.integers(1, 3),
    )
    def test_solvability_trivial(self, seed, n_rows, n_cols, k):
        assert_shape_matches_wire(
            _det_solvability(seed, n_rows, n_cols, k)
        )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=SEEDS,
        n_rows=st.integers(1, 4),
        n_cols=st.sampled_from([2, 4]),
        k=st.integers(1, 3),
    )
    def test_solvability_fingerprint(self, seed, n_rows, n_cols, k):
        assert_shape_matches_wire(
            _rand_solvability(seed, n_rows, n_cols, k), coin_seed=seed
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 4), k=st.integers(1, 4))
    def test_matmul_deterministic(self, seed, n, k):
        assert_shape_matches_wire(_det_matmul(seed, n, k))

    @settings(max_examples=15, deadline=None)
    @given(seed=SEEDS, n=st.integers(1, 4), k=st.integers(1, 3), rounds=st.integers(1, 4))
    def test_matmul_freivalds(self, seed, n, k, rounds):
        assert_shape_matches_wire(
            _rand_freivalds(seed, n, k, rounds), coin_seed=seed
        )


class TestPinnedSmallCases:
    """The paper's worked numbers, frozen as exact integers."""

    def test_equality_sixteen_bits(self):
        # Deterministic EQ_n costs exactly n + 1 bits.
        case = _det_equality(7, 16)
        assert shape_of(case.protocol).total_bits == 17

    def test_trivial_four_by_four(self):
        # π₀ on a 4×4 2-bit matrix: half of 32 payload bits + the answer,
        # which is theoretical_trivial_cost(n=2, k=2) = 17 and equals the
        # trivial upper bound exactly.
        from repro.protocols.trivial import theoretical_trivial_cost

        case = _det_singularity(7, 4, 2)
        shape = shape_of(case.protocol, case.input0)
        assert shape.total_bits == 17 == theoretical_trivial_cost(2, 2)
        assert shape.total_bits == trivial_upper_bound_bits(2, 2)

    def test_matmul_two_by_two(self):
        # A and B in full: 2·k·n² = 16 bits, plus the verdict.
        case = _det_matmul(7, 2, 2)
        assert shape_of(case.protocol).total_bits == 17

    def test_fingerprint_four_by_four(self):
        # default_prime_bits(2, 2) = 8, so 16 cells × 8 bits + 1 = 129 —
        # and that is leighton_upper_bound_bits(2, 2) exactly.
        case = _rand_fingerprint(7, 4, 2)
        shape = shape_of(case.protocol, case.input0)
        assert shape.total_bits == 129
        assert shape.total_bits == leighton_upper_bound_bits(2, 2)

    def test_bound_ordering_on_the_paper_axes(self):
        # Ω(kn²) yardstick below the trivial upper bound on every axis
        # point, and both are pure integers.
        for n in range(1, 12):
            for k in range(1, 6):
                lower = theorem_lower_bound_bits(n, k)
                upper = trivial_upper_bound_bits(n, k)
                assert isinstance(lower, int) and isinstance(upper, int)
                assert lower < upper

    def test_scenario_shapes_price_the_serve_catalogue(self):
        # Every service scenario is pricable, and the price is the exact
        # clean-channel cost of the run protocol.run would execute.
        from repro.matrix.scenarios import SCENARIOS

        for name in sorted(SCENARIOS):
            shape = scenario_shape(name, seed=3)
            case = SCENARIOS[name](3)
            coins = ReproducibleRNG(0) if case.randomized else None
            transcript = run_protocol(
                case.protocol.agent0,
                case.protocol.agent1,
                case.input0,
                case.input1,
                public_randomness=coins,
            ).transcript
            assert transcript.total_bits == shape.total_bits
            assert transcript.bits_from(0) == shape.bits_from(0)

    def test_scenario_shape_rejects_unknown_names(self):
        import pytest

        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_shape("no-such-protocol", 0)
