"""The trivial deterministic protocol: ship your half, decide locally.

This realizes the upper-bound side of Theorem 1.1: under any partition, one
agent sends every bit it holds (≈ k·(2n)²/2 bits for an even partition of a
2n×2n k-bit matrix), the other reconstructs the full matrix, decides
singularity exactly, and sends the one-bit answer back.  Together with the
paper's Ω(k n²) lower bound this pins the complexity to Θ(k n²).

The protocol is generic over the decided predicate, so the same machinery
measures Corollary 1.2/1.3 problems.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.comm.agents import AgentProgram, Recv, Send
from repro.comm.bits import MatrixBitCodec, bits_to_int
from repro.comm.partition import Partition
from repro.comm.protocol import TwoPartyProtocol
from repro.exact.matrix import Matrix
from repro.exact.rank import is_singular


class TrivialProtocol(TwoPartyProtocol):
    """Agent 0 sends its whole share; agent 1 decides and replies one bit.

    Inputs are the agents' views: position → bit dicts, as produced by
    :meth:`Partition.split_input`.

    Exact cost: ``|agent 0's share| + 1`` bits, independent of the input
    values — worst case equals every case.
    """

    name = "trivial-send-everything"

    def __init__(
        self,
        codec: MatrixBitCodec,
        partition: Partition,
        predicate: Callable[[Matrix], bool] = is_singular,
    ):
        self.codec = codec
        self.partition = partition
        self.predicate = predicate
        self._agent0_positions = sorted(partition.agent0)

    def agent0(self, input0: dict[int, int]) -> AgentProgram:
        payload = [input0[p] for p in self._agent0_positions]
        yield Send(bits_to_int(payload), len(payload))
        answer = yield Recv(1)
        return bool(answer)

    def agent1(self, input1: dict[int, int]) -> AgentProgram:
        received = yield Recv(len(self._agent0_positions))
        assembled = dict(input1)
        for i, position in enumerate(self._agent0_positions):
            assembled[position] = received >> i & 1
        matrix = self.codec.decode_partial(assembled)
        answer = bool(self.predicate(matrix))
        yield Send(int(answer), 1)
        return answer

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def run_on_matrix(self, m: Matrix):
        """Split ``m`` per the partition and execute once."""
        bits = self.codec.encode(m)
        view0, view1 = self.partition.split_input(bits)
        return self.run(view0, view1)

    def decide(self, m: Matrix) -> bool:
        """The protocol's answer on ``m``."""
        return bool(self.run_on_matrix(m).agreed_output())

    def exact_cost_bits(self) -> int:
        """The protocol's cost on every input: share size + 1."""
        return len(self._agent0_positions) + 1


def theoretical_trivial_cost(n: int, k: int) -> int:
    """k·(2n)²/2 + 1 for an exactly even partition of a 2n×2n k-bit input."""
    return k * (2 * n) * (2 * n) // 2 + 1
