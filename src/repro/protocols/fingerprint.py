"""The randomized fingerprinting protocol (Leighton's upper bound).

The paper contrasts its deterministic Θ(k n²) with a probabilistic
O(n² · max(log n, log k)) protocol.  The standard construction, implemented
here:

1. the public coins name a random prime ``p`` of
   Θ(max(log n, log k)) bits;
2. agent 0 reduces every entry it holds mod ``p`` and ships the residues —
   ``⌈log₂ p⌉`` bits each, so ≈ 2n²·log p total for an even split;
3. agent 1 assembles the matrix over GF(p), decides singularity there
   (:func:`repro.exact.modular.is_singular_mod`, any prime), and replies
   with one bit.

Error analysis (one-sided):  a matrix singular over ℚ is singular mod every
prime, so "singular" answers are always right.  A nonsingular matrix is
misjudged only when ``p | det(M)``; since ``0 < |det| ≤ Hadamard(n, k)``,
at most ``log_p Hadamard`` primes can divide it, out of ~``2^b / b·ln2``
b-bit primes — making the error < 1/2 − ε for a suitable constant, and
driven to any δ by independent repetition (:func:`repetitions_for_error`).
Both the cost and the error are *measured* by experiment E11, not assumed.
"""

from __future__ import annotations

import math

from repro.comm.agents import AgentProgram, Recv, Send
from repro.comm.bits import MatrixBitCodec, bits_to_int, int_to_bits
from repro.comm.partition import Partition
from repro.comm.randomized import RandomizedProtocol
from repro.exact.determinant import hadamard_bound_kbit
from repro.exact.modular import (
    count_primes_with_bits,
    is_singular_mod,
    random_prime_with_bits,
)
from repro.exact.matrix import Matrix
from repro.util.rng import ReproducibleRNG


def default_prime_bits(n: int, k: int, constant: int = 4) -> int:
    """Θ(max(log n, log k)) with an explicit constant (≥ 4·max for a
    comfortably small error at benchmark sizes)."""
    return max(4, constant * max(max(n, 2).bit_length(), max(k, 2).bit_length()))


class FingerprintProtocol(RandomizedProtocol):
    """Singularity testing mod a public random prime.

    Inputs are agents' views (position → bit dicts) of the codec's matrix.
    A partition may scatter the bits of a single entry across both agents,
    so agent 0 sends, for every entry, the residue of the *portion of the
    entry it owns* (its bits in place, unowned bits zeroed).  The two
    portions add up to the entry, so agent 1 reconstructs
    ``entry mod p = (part0 + part1) mod p`` — the same wire format and cost
    for every partition, scattered or not.
    """

    name = "randomized-fingerprint"

    def __init__(
        self,
        codec: MatrixBitCodec,
        partition: Partition,
        prime_bits: int | None = None,
    ):
        self.codec = codec
        self.partition = partition
        self.prime_bits = prime_bits or default_prime_bits(
            codec.rows // 2 if codec.rows % 2 == 0 else codec.rows, codec.k
        )

    # -- helpers ---------------------------------------------------------
    def _partial_residues(self, view: dict[int, int], p: int) -> list[list[int]]:
        """Entry-wise value of the owned bits (others zero), mod p."""
        rows = [[0] * self.codec.cols for _ in range(self.codec.rows)]
        for position, bit in view.items():
            if bit:
                i, j, b = self.codec.entry_of_bit(position)
                rows[i][j] += 1 << b
        return [[value % p for value in row] for row in rows]

    def _draw_prime(self, coins: ReproducibleRNG) -> int:
        return random_prime_with_bits(coins.spawn("prime"), self.prime_bits)

    # -- programs ----------------------------------------------------------
    def agent0(self, input0: dict[int, int], coins: ReproducibleRNG) -> AgentProgram:
        """Send every entry's owned-bits residue mod the public prime."""
        p = self._draw_prime(coins)
        width = p.bit_length()
        residues = self._partial_residues(input0, p)
        payload: list[int] = []
        for row in residues:
            for value in row:
                payload.extend(int_to_bits(value, width))
        yield Send(bits_to_int(payload), len(payload))
        answer = yield Recv(1)
        return bool(answer)

    def agent1(self, input1: dict[int, int], coins: ReproducibleRNG) -> AgentProgram:
        """Assemble the matrix mod p, decide, reply one bit."""
        p = self._draw_prime(coins)
        width = p.bit_length()
        cells = self.codec.rows * self.codec.cols
        received = yield Recv(cells * width)
        mine = self._partial_residues(input1, p)
        mask = (1 << width) - 1
        combined: list[list[int]] = []
        cursor = 0
        for i in range(self.codec.rows):
            row: list[int] = []
            for j in range(self.codec.cols):
                other = received >> cursor & mask
                cursor += width
                row.append((other + mine[i][j]) % p)
            combined.append(row)
        answer = bool(is_singular_mod(combined, p))
        yield Send(int(answer), 1)
        return answer

    # -- conveniences ------------------------------------------------------
    def run_on_matrix(self, m: Matrix, seed: int):
        """Split ``m`` per the partition and execute with the given coins."""
        bits = self.codec.encode(m)
        view0, view1 = self.partition.split_input(bits)
        return self.run(view0, view1, seed)

    def decide(self, m: Matrix, seed: int) -> bool:
        """The protocol's (randomized) answer on ``m``."""
        return bool(self.run_on_matrix(m, seed).agreed_output())

    def cost_bits(self) -> int:
        """Exact deterministic cost: cells · residue width + 1.

        (The width is the worst case over primes of the configured length.)
        """
        return self.codec.rows * self.codec.cols * self.prime_bits + 1


# ----------------------------------------------------------------------
# Error analysis
# ----------------------------------------------------------------------
def error_upper_bound(n: int, k: int, prime_bits: int) -> float:
    """P[p divides a fixed nonzero det] ≤ (#bad primes) / (#primes drawn from).

    #bad ≤ log₂(Hadamard)/(prime_bits-1) since every bad prime ≥ 2^{b-1};
    exact prime counts below 2^26, PNT estimate above.
    """
    hadamard = hadamard_bound_kbit(2 * n, k)
    bad = math.log2(max(2, hadamard)) / (prime_bits - 1)
    population = count_primes_with_bits(prime_bits)
    return min(1.0, bad / population)


def repetitions_for_error(base_error: float, target: float) -> int:
    """Independent repetitions (answer singular iff any run says singular —
    one-sided!) to push error below ``target``."""
    if not 0 < target < 1:
        raise ValueError("target must be in (0, 1)")
    if base_error <= 0:
        return 1
    if base_error >= 1:
        raise ValueError("base error must be < 1")
    return max(1, math.ceil(math.log(target) / math.log(base_error)))
