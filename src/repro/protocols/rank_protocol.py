"""Deterministic rank/singularity via echelon-form exchange.

A smarter-looking deterministic protocol than "ship everything": under the
column partition π₀, agent 0 row-reduces its n columns locally and ships a
*basis of its column space* instead of the raw columns.  For singularity
this is still Θ(k n²) in the worst case — a basis of n k-bit columns is as
big as the columns — which is precisely the paper's point: no deterministic
summary of a half-matrix can be small.  The protocol exists so the
benchmarks can show an honest attempt at compression failing to beat the
trivial bound on worst-case inputs while winning on low-rank ones.

Wire format: agent 0 sends its column-space basis as exact rationals in a
self-delimiting encoding (:mod:`repro.protocols.wire`), agent 1 checks
whether the joint span is full.
"""

from __future__ import annotations

from repro.comm.agents import AgentProgram, Recv, Send
from repro.comm.bits import bits_to_int, int_to_bits
from repro.comm.protocol import TwoPartyProtocol
from repro.exact.matrix import Matrix
from repro.exact.span import Subspace
from repro.protocols.wire import decode_fraction_matrix, encode_fraction_matrix


class ColumnBasisProtocol(TwoPartyProtocol):
    """π₀ singularity: agent 0 ships a column-space basis, agent 1 joins.

    Inputs: each agent's ``2m x m`` half (a :class:`Matrix`).  Output: True
    iff the assembled ``2m x 2m`` matrix is singular.
    """

    name = "rank-column-basis"

    def agent0(self, half0: Matrix) -> AgentProgram:
        """Ship a column-space basis of the local half."""
        basis = Subspace.column_space(half0).basis_matrix()
        if basis is None:  # zero column space: send an explicit empty marker
            payload = encode_fraction_matrix(None, half0.num_rows)
        else:
            payload = encode_fraction_matrix(basis, half0.num_rows)
        yield Send(bits_to_int(payload), len(payload))
        answer = yield Recv(1)
        return bool(answer)

    def agent1(self, half1: Matrix) -> AgentProgram:
        """Join the received span with the local one; decide fullness."""
        ambient = half1.num_rows
        header = yield Recv(48)
        body_bits = header >> 16
        body = yield Recv(body_bits)
        basis = decode_fraction_matrix(
            int_to_bits(header | body << 48, 48 + body_bits), ambient
        )
        mine = Subspace.column_space(half1)
        theirs = (
            Subspace.zero(ambient)
            if basis is None
            else Subspace.span([list(basis.row(i)) for i in range(basis.num_rows)])
        )
        singular = not mine.sum(theirs).is_full()
        yield Send(int(singular), 1)
        return singular

    def run_on_matrix(self, m: Matrix):
        """Split ``m`` by π₀ and execute once."""
        if not m.is_square or m.num_cols % 2:
            raise ValueError("π₀ needs a 2m x 2m matrix")
        half = m.num_cols // 2
        left = m.slice(0, m.num_rows, 0, half)
        right = m.slice(0, m.num_rows, half, m.num_cols)
        return self.run(left, right)

    def decide(self, m: Matrix) -> bool:
        """The protocol's answer on ``m``."""
        return bool(self.run_on_matrix(m).agreed_output())

