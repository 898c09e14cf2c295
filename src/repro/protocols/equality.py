"""Equality (the identity problem) — Vuillemin's workhorse, as protocols.

Section 1 notes that Vuillemin's transitivity method works for functions
"powerful enough to express the identity problem (given two strings x and y,
are x and y identical?)" but does not seem to reach singularity.  We provide
the identity problem itself as a baseline:

* :class:`DeterministicEquality` — the optimal-order deterministic protocol:
  agent 0 ships all n bits, agent 1 replies (n + 1 bits; deterministic EQ
  provably needs n + 1, which the exact D(f) engine confirms at small n);
* :class:`RandomizedEquality` — the classic public-coin O(1)-bit protocol
  (inner-product fingerprints), error ≤ 2^{-rounds};
* :class:`RabinKarpEquality` — fingerprint by evaluating the strings as
  polynomials at a random point mod a prime: O(log n) bits private-coin
  style (coins still drawn from the public stream for determinism).
"""

from __future__ import annotations

from repro.comm.agents import AgentProgram, Recv, Send
from repro.comm.bits import bits_to_int
from repro.comm.protocol import TwoPartyProtocol
from repro.comm.randomized import RandomizedProtocol
from repro.exact.modular import next_prime
from repro.util.rng import ReproducibleRNG


class DeterministicEquality(TwoPartyProtocol):
    """EQ_n at the optimal deterministic cost n + 1."""

    name = "equality-deterministic"

    def __init__(self, n_bits: int):
        if n_bits < 1:
            raise ValueError("need at least one bit per side")
        self.n_bits = n_bits

    def agent0(self, x: tuple[int, ...]) -> AgentProgram:
        """Ship the whole string."""
        self._check(x)
        yield Send(bits_to_int(x), len(x))
        answer = yield Recv(1)
        return bool(answer)

    def agent1(self, y: tuple[int, ...]) -> AgentProgram:
        """Compare and reply one bit."""
        self._check(y)
        received = yield Recv(self.n_bits)
        answer = received == bits_to_int(y)
        yield Send(int(answer), 1)
        return answer

    def _check(self, s) -> None:
        if len(s) != self.n_bits:
            raise ValueError(f"inputs must have {self.n_bits} bits")


class RandomizedEquality(RandomizedProtocol):
    """Public-coin EQ: compare ``rounds`` random-subset parities.

    Each round, the public coins choose a uniform subset S of positions;
    agent 0 announces ⊕_{i∈S} x_i, agent 1 compares with its own parity.
    Unequal strings disagree on a uniform subset parity with probability
    exactly 1/2, so the error is 2^{-rounds}; cost is rounds + 1 bits.
    """

    name = "equality-randomized-parity"

    def __init__(self, n_bits: int, rounds: int = 16):
        if n_bits < 1 or rounds < 1:
            raise ValueError("need n_bits >= 1 and rounds >= 1")
        self.n_bits = n_bits
        self.rounds = rounds

    def _subsets(self, coins: ReproducibleRNG) -> list[list[int]]:
        stream = coins.spawn("subsets")
        return [stream.bit_vector(self.n_bits) for _ in range(self.rounds)]

    def agent0(self, x, coins: ReproducibleRNG) -> AgentProgram:
        """Announce the subset parities chosen by the public coins."""
        parities = [
            sum(a & b for a, b in zip(x, mask)) & 1
            for mask in self._subsets(coins)
        ]
        yield Send(bits_to_int(parities), len(parities))
        answer = yield Recv(1)
        return bool(answer)

    def agent1(self, y, coins: ReproducibleRNG) -> AgentProgram:
        """Compare parities and reply one bit."""
        masks = self._subsets(coins)
        received = yield Recv(self.rounds)
        mine = [sum(a & b for a, b in zip(y, mask)) & 1 for mask in masks]
        answer = received == bits_to_int(mine)
        yield Send(int(answer), 1)
        return answer

    def error_bound(self) -> float:
        """P[error on unequal inputs] = 2^-rounds."""
        return 2.0**-self.rounds


class RabinKarpEquality(RandomizedProtocol):
    """EQ by polynomial fingerprinting: O(log n) bits.

    View x as coefficients of a degree-(n-1) polynomial over GF(p) with
    ``p`` the first prime above n²; the coins pick an evaluation point r.
    Different polynomials of degree < n agree on at most n - 1 points, so
    the error is ≤ (n-1)/p ≤ 1/n.
    """

    name = "equality-rabin-karp"

    def __init__(self, n_bits: int):
        if n_bits < 1:
            raise ValueError("need at least one bit per side")
        self.n_bits = n_bits
        self.p = next_prime(max(5, n_bits * n_bits))
        self.width = self.p.bit_length()

    def _point(self, coins: ReproducibleRNG) -> int:
        return coins.spawn("eval-point").randrange(self.p)

    def _evaluate(self, s, r: int) -> int:
        value = 0
        for bit in reversed(list(s)):  # Horner
            value = (value * r + bit) % self.p
        return value

    def agent0(self, x, coins: ReproducibleRNG) -> AgentProgram:
        """Send the polynomial fingerprint at the public point."""
        r = self._point(coins)
        yield Send(self._evaluate(x, r), self.width)
        answer = yield Recv(1)
        return bool(answer)

    def agent1(self, y, coins: ReproducibleRNG) -> AgentProgram:
        """Compare fingerprints and reply one bit."""
        r = self._point(coins)
        received = yield Recv(self.width)
        answer = received == self._evaluate(y, r)
        yield Send(int(answer), 1)
        return answer

    def error_bound(self) -> float:
        """<= (n-1)/p: distinct degree-<n polynomials agree on < n points."""
        return (self.n_bits - 1) / self.p if self.n_bits > 1 else 0.0


def equality_reference(x, y) -> bool:
    """Ground truth for the testers."""
    return tuple(x) == tuple(y)
