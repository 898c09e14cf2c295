"""Tests for the randomized-protocol evaluation harness."""

import pytest

from repro.comm.agents import AgentProgram, Recv, Send
from repro.comm.randomized import (
    RandomizedProtocol,
    amplify_by_majority,
    estimate_cost,
    estimate_error,
    worst_input_error,
)
from repro.util.rng import ReproducibleRNG


class NoisyEquality(RandomizedProtocol):
    """One-round parity EQ on 2 bits: errs with probability 1/2 on unequal
    inputs — a controlled error source for the estimator tests."""

    def _mask(self, coins: ReproducibleRNG):
        return coins.spawn("mask").bit_vector(2)

    def agent0(self, x, coins) -> AgentProgram:
        mask = self._mask(coins)
        parity = (x[0] & mask[0]) ^ (x[1] & mask[1])
        yield Send(parity, 1)
        answer = yield Recv(1)
        return bool(answer)

    def agent1(self, y, coins) -> AgentProgram:
        mask = self._mask(coins)
        received = yield Recv(1)
        mine = (y[0] & mask[0]) ^ (y[1] & mask[1])
        answer = received == mine
        yield Send(1 if answer else 0, 1)
        return answer


class TestRunSemantics:
    def test_same_seed_same_outcome(self):
        p = NoisyEquality()
        a = p.run((1, 0), (0, 1), seed=7)
        b = p.run((1, 0), (0, 1), seed=7)
        assert a.outputs == b.outputs
        assert a.bits_exchanged == b.bits_exchanged

    def test_equal_inputs_never_err(self):
        p = NoisyEquality()
        for seed in range(20):
            assert p.output((1, 1), (1, 1), seed) is True


class TestErrorEstimation:
    def test_zero_error_on_equal(self):
        est = estimate_error(NoisyEquality(), (1, 0), (1, 0), True, trials=50)
        assert est.error_rate == 0.0
        assert est.max_bits == 2

    def test_half_error_on_unequal(self):
        est = estimate_error(NoisyEquality(), (1, 0), (0, 0), False, trials=400)
        # The parity distinguishes only when mask hits the differing bit: 1/2.
        assert 0.35 < est.error_rate < 0.65

    def test_confidence_radius_shrinks(self):
        small = estimate_error(NoisyEquality(), (1, 0), (0, 0), False, trials=50)
        large = estimate_error(NoisyEquality(), (1, 0), (0, 0), False, trials=500)
        assert large.error_confidence_radius() < small.error_confidence_radius()

    def test_worst_input_error(self):
        pairs = [((1, 1), (1, 1)), ((1, 0), (0, 0))]
        worst, est = worst_input_error(
            NoisyEquality(), pairs, lambda x, y: x == y, trials=100
        )
        assert worst > 0.2
        assert est.trials == 100

    def test_estimate_cost(self):
        mean, worst = estimate_cost(NoisyEquality(), [((1, 1), (1, 1))], 10)
        assert mean == 2.0 and worst == 2


class TestAmplification:
    def test_majority_reduces_error(self):
        assert amplify_by_majority(0.25, 5) < 0.25

    def test_zero_and_one_edge(self):
        assert amplify_by_majority(0.0, 3) == 0.0
        assert amplify_by_majority(1.0, 3) == 1.0

    def test_single_repetition_identity(self):
        assert amplify_by_majority(0.3, 1) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            amplify_by_majority(1.5, 3)
        with pytest.raises(ValueError):
            amplify_by_majority(0.1, 0)

    def test_known_binomial_value(self):
        # 3 reps at error 1/2: majority errs with prob C(3,2)/8 + C(3,3)/8 = 1/2.
        assert amplify_by_majority(0.5, 3) == pytest.approx(0.5)
