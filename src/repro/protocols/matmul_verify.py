"""Matrix-product verification: deterministic vs Freivalds, over the channel.

Section 1 recalls Lin–Wu's Θ(k n²) bound for deciding "A·B = C?" and the
paper's ``[[I, B], [A, C]]`` bridge from that problem to rank.  Protocol-side
we provide:

* :class:`DeterministicMatMulVerify` — agent 0 (holding A and B) ships both;
  agent 1 (holding C) multiplies and compares: Θ(k n²) bits, matching the
  lower bound;
* :class:`FreivaldsVerify` — the randomized classic: the public coins pick a
  vector r over GF(p); the agents exchange only the n-vectors needed to
  compare ``A·(B·r)`` with ``C·r``: O(n·(k + log n)) bits, error ≤ n/p per
  round.  The gap between these two is another executable instance of the
  paper's deterministic-vs-randomized theme.

Input convention (fixed partition): agent 0 holds ``(A, B)``, agent 1 holds
``C``, all n×n with k-bit entries.
"""

from __future__ import annotations

from repro.comm.agents import AgentProgram, Recv, Send
from repro.comm.bits import bits_to_int, int_to_bits, unpack_rows
from repro.comm.protocol import TwoPartyProtocol
from repro.comm.randomized import RandomizedProtocol
from repro.exact.matrix import Matrix
from repro.exact.modular import next_prime
from repro.util.rng import ReproducibleRNG


class DeterministicMatMulVerify(TwoPartyProtocol):
    """Ship A and B entirely; compare against C exactly."""

    name = "matmul-verify-deterministic"

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k

    def _encode_matrix(self, m: Matrix) -> list[int]:
        bits: list[int] = []
        for row in m.to_int_rows():
            for value in row:
                bits.extend(int_to_bits(value, self.k))
        return bits

    def _decode_matrix(self, packed: int) -> Matrix:
        return Matrix(unpack_rows(packed, self.n, self.n, self.k))

    def agent0(self, input0: tuple[Matrix, Matrix]) -> AgentProgram:
        """Ship A and B entirely."""
        a, b = input0
        payload = self._encode_matrix(a) + self._encode_matrix(b)
        yield Send(bits_to_int(payload), len(payload))
        answer = yield Recv(1)
        return bool(answer)

    def agent1(self, c: Matrix) -> AgentProgram:
        """Multiply and compare against C."""
        cells = self.n * self.n * self.k
        received = yield Recv(2 * cells)
        a = self._decode_matrix(received & ((1 << cells) - 1))
        b = self._decode_matrix(received >> cells)
        answer = (a @ b) == c
        yield Send(int(answer), 1)
        return answer

    def exact_cost_bits(self) -> int:
        """2 k n^2 + 1 on every input."""
        return 2 * self.n * self.n * self.k + 1


class FreivaldsVerify(RandomizedProtocol):
    """A·B = C tested on a random vector over GF(p).

    One round: coins give r ∈ GF(p)^n; agent 1 sends ``C·r mod p``; agent 0
    checks ``A·(B·r) ≡ C·r`` and replies.  Cost 2·(n·log p) + 1 per round
    (agent 1's vector dominates); error ≤ n/p when A·B ≠ C... sharper: a
    nonzero matrix D = AB - C has some nonzero row, and ``D·r = 0`` for
    uniform r with probability ≤ 1/p per independent coordinate — overall
    ≤ 1/p.  Rounds multiply the exponent.
    """

    name = "matmul-verify-freivalds"

    def __init__(self, n: int, k: int, rounds: int = 2):
        if rounds < 1:
            raise ValueError("at least one round")
        self.n = n
        self.k = k
        self.rounds = rounds
        # p just needs headroom over entries of A·(B·r): pick > 2^{2k}·n² so
        # residues are cheap (O(k + log n) bits) yet collisions are rare.
        self.p = next_prime((1 << (2 * k)) * n * n + 1)
        self.width = self.p.bit_length()

    def _vectors(self, coins: ReproducibleRNG) -> list[list[int]]:
        stream = coins.spawn("freivalds")
        return [
            [stream.randrange(self.p) for _ in range(self.n)]
            for _ in range(self.rounds)
        ]

    def agent0(self, input0: tuple[Matrix, Matrix], coins: ReproducibleRNG) -> AgentProgram:
        """Check A(Br) against the received Cr, per round."""
        a, b = input0
        a_rows = a.to_int_rows()
        b_rows = b.to_int_rows()
        verdict = 1
        for r in self._vectors(coins):
            received = yield Recv(self.n * self.width)
            mask = (1 << self.width) - 1
            c_r = [received >> i * self.width & mask for i in range(self.n)]
            br = [
                sum(b_rows[i][j] * r[j] for j in range(self.n)) % self.p
                for i in range(self.n)
            ]
            abr = [
                sum(a_rows[i][j] * br[j] for j in range(self.n)) % self.p
                for i in range(self.n)
            ]
            if abr != c_r:
                verdict = 0
        yield Send(verdict, 1)
        return bool(verdict)

    def agent1(self, c: Matrix, coins: ReproducibleRNG) -> AgentProgram:
        """Send C·r for each public random vector r."""
        c_rows = c.to_int_rows()
        for r in self._vectors(coins):
            cr = [
                sum(c_rows[i][j] * r[j] for j in range(self.n)) % self.p
                for i in range(self.n)
            ]
            payload: list[int] = []
            for value in cr:
                payload.extend(int_to_bits(value, self.width))
            yield Send(bits_to_int(payload), len(payload))
        verdict = yield Recv(1)
        return bool(verdict)

    def cost_bits(self) -> int:
        """Exact cost: rounds · n · (prime width) + 1."""
        return self.rounds * self.n * self.width + 1

    def error_bound(self) -> float:
        """<= p^-rounds on false products."""
        return (1.0 / self.p) ** self.rounds


def matmul_reference(input0: tuple[Matrix, Matrix], c: Matrix) -> bool:
    """Ground truth A·B == C for the error estimators."""
    a, b = input0
    return (a @ b) == c
