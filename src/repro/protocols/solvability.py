"""Protocols for Corollary 1.3's problem: does ``A·x = b`` have a solution?

Two executable protocols over the standard split (agent 0 holds the left
half of the columns of ``[A | b]``, agent 1 the right half including b):

* :class:`TrivialSolvability` — ship everything, decide by exact
  Rouché–Capelli: the Θ(k n²) deterministic route;
* :class:`FingerprintSolvability` — decide ``rank([A|b]) == rank(A)`` over a
  public random prime: O(n² max(log n, log k)) bits, one-sided error
  (solvable over ℚ ⇒ solvable mod p... note the direction is opposite to
  singularity: insolvable systems can look solvable mod p only when p
  divides the wrong minors, and solvable ones *stay* solvable — measured,
  like everything else, by the harness).
"""

from __future__ import annotations

from repro.comm.agents import AgentProgram, Recv, Send
from repro.comm.bits import bits_to_int, int_to_bits, unpack_rows
from repro.comm.protocol import TwoPartyProtocol
from repro.comm.randomized import RandomizedProtocol
from repro.exact.matrix import Matrix
from repro.exact.modular import rank_mod, random_prime_with_bits
from repro.exact.solve import is_solvable
from repro.exact.vector import Vector
from repro.protocols.fingerprint import default_prime_bits
from repro.util.rng import ReproducibleRNG


def split_system(a: Matrix, b: Vector) -> tuple[Matrix, Matrix]:
    """The fixed partition: agent 0 gets A's left-half columns, agent 1 the
    right half plus b (appended as a final column)."""
    half = a.num_cols // 2
    left = a.slice(0, a.num_rows, 0, half)
    right = a.slice(0, a.num_rows, half, a.num_cols).hstack(Matrix.column(list(b)))
    return left, right


def join_system(left: Matrix, right: Matrix) -> tuple[Matrix, Vector]:
    """Inverse of :func:`split_system`."""
    a = left.hstack(right.slice(0, right.num_rows, 0, right.num_cols - 1))
    b = Vector(list(right.col(right.num_cols - 1)))
    return a, b


class TrivialSolvability(TwoPartyProtocol):
    """Agent 0 ships its columns (k-bit entries); agent 1 decides exactly."""

    name = "solvability-trivial"

    def __init__(self, n_rows: int, k: int):
        self.n_rows = n_rows
        self.k = k

    def agent0(self, left: Matrix) -> AgentProgram:
        """Ship the local columns (k-bit entries)."""
        payload: list[int] = list(int_to_bits(left.num_cols, 16))
        for row in left.to_int_rows():
            for value in row:
                payload.extend(int_to_bits(value, self.k))
        yield Send(bits_to_int(payload), len(payload))
        answer = yield Recv(1)
        return bool(answer)

    def agent1(self, right: Matrix) -> AgentProgram:
        """Reassemble the system and decide solvability exactly."""
        cols = yield Recv(16)
        body = yield Recv(self.n_rows * cols * self.k)
        rows = unpack_rows(body, self.n_rows, cols, self.k)
        a, b = join_system(Matrix(rows), right)
        answer = is_solvable(a, b)
        yield Send(int(answer), 1)
        return answer

    def run_on_system(self, a: Matrix, b: Vector):
        """Split (A, b) per the fixed partition and execute once."""
        left, right = split_system(a, b)
        return self.run(left, right)

    def decide(self, a: Matrix, b: Vector) -> bool:
        """The protocol's answer on (A, b)."""
        return bool(self.run_on_system(a, b).agreed_output())


class FingerprintSolvability(RandomizedProtocol):
    """rank([A|b]) == rank(A) over a public random prime."""

    name = "solvability-fingerprint"

    def __init__(self, n_rows: int, k: int, prime_bits: int | None = None):
        self.n_rows = n_rows
        self.k = k
        self.prime_bits = prime_bits or default_prime_bits(n_rows, k)

    def _draw_prime(self, coins: ReproducibleRNG) -> int:
        return random_prime_with_bits(coins.spawn("prime"), self.prime_bits)

    def agent0(self, left: Matrix, coins: ReproducibleRNG) -> AgentProgram:
        """Ship the local columns reduced mod the public prime."""
        p = self._draw_prime(coins)
        width = p.bit_length()
        payload: list[int] = list(int_to_bits(left.num_cols, 16))
        for row in left.mod(p):
            for value in row:
                payload.extend(int_to_bits(value, width))
        yield Send(bits_to_int(payload), len(payload))
        answer = yield Recv(1)
        return bool(answer)

    def agent1(self, right: Matrix, coins: ReproducibleRNG) -> AgentProgram:
        """Compare rank([A|b]) and rank(A) over GF(p); reply one bit."""
        p = self._draw_prime(coins)
        width = p.bit_length()
        cols = yield Recv(16)
        body = yield Recv(self.n_rows * cols * width)
        rows = unpack_rows(body, self.n_rows, cols, width)
        right_mod = right.mod(p)
        a_rows = [
            mine + theirs[:-1] for mine, theirs in zip(rows, right_mod)
        ]
        aug_rows = [mine + theirs for mine, theirs in zip(rows, right_mod)]
        answer = rank_mod(aug_rows, p) == rank_mod(a_rows, p)
        yield Send(int(answer), 1)
        return answer

    def run_on_system(self, a: Matrix, b: Vector, seed: int):
        """Split (A, b) per the fixed partition and execute with coins."""
        left, right = split_system(a, b)
        return self.run(left, right, seed)

    def decide(self, a: Matrix, b: Vector, seed: int) -> bool:
        """The protocol's (randomized) answer on (A, b)."""
        return bool(self.run_on_system(a, b, seed).agreed_output())


def solvability_reference(left: Matrix, right: Matrix) -> bool:
    """Ground truth on the split inputs, for the error estimators."""
    a, b = join_system(left, right)
    return is_solvable(a, b)
