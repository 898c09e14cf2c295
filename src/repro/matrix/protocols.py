"""Executable protocols for the one-way and nondeterministic models.

The scenario matrix measures *live transcripts* in every communication
model, so the two models that are usually treated purely combinatorially
get real agent programs here:

* :class:`OneWayTableProtocol` — the optimal deterministic one-way
  protocol for any function given as a :class:`~repro.comm.truth_matrix
  .TruthMatrix`.  Agent 0 sends the index of its row's *equivalence
  class* (rows with identical truth-matrix rows are indistinguishable to
  agent 1, so distinguishing classes is both sufficient and necessary);
  agent 1 looks the answer up and sends the one answer bit back.  The
  forward message costs exactly ``D^{0→1}(f) = ⌈log₂ #distinct rows⌉``
  bits (:func:`repro.comm.one_way.one_way_cc`), which is what makes the
  measured-equals-predicted gate meaningful: the protocol *realizes* the
  formula.

* :class:`CertificateProtocol` — a nondeterministic protocol as a
  verifiable certificate scheme.  The prover (the omniscient instance
  builder, not either agent) names one rectangle of a fixed minimum
  value-cover (:func:`repro.comm.nondeterministic.minimum_cover`); agent 0
  broadcasts that name in ``⌈log₂ C^value⌉`` bits and each agent then
  contributes one membership bit.  Both accept iff both bits are 1 —
  sound because a value-monochromatic rectangle cannot contain a
  non-value cell, complete because every value cell lies in some cover
  rectangle.  Measured cost = ``N^value(f)`` rounded up, plus the two
  audit bits.

Both protocols are deterministic functions of their inputs (no coins), so
the clean-channel leg of the sweep compares them against their
:class:`~repro.costs.models.MessageShape` by exact integer equality, and
the ARQ/fault legs inherit every transport prediction for free.
"""

from __future__ import annotations

from repro.comm.agents import Recv, Send
from repro.comm.nondeterministic import minimum_cover
from repro.comm.one_way import one_way_cc
from repro.comm.truth_matrix import TruthMatrix
from repro.costs.models import MessageShape

__all__ = ["CertificateProtocol", "OneWayTableProtocol"]


class OneWayTableProtocol:
    """The optimal one-way (0→1) protocol for a truth-matrix function.

    Both agents share the *function* (the truth matrix) as protocol
    structure — exactly like every other protocol in the suite shares its
    codec and partition; only the row/column indices are private inputs.

    Attributes:
        name: ``one-way-<family>`` (reports and shapes).
        tm: the shared truth matrix.
        width: forward message width — ``one_way_cc(tm)`` bits (0 when the
            function is constant in the row argument).
    """

    def __init__(self, tm: TruthMatrix, family: str = "table"):
        self.name = f"one-way-{family}"
        self.tm = tm
        self.width = one_way_cc(tm, "0to1")
        # Row classes in first-appearance order: deterministic, and shared
        # by both agents because it derives from the shared truth matrix.
        self._class_of_row: list[int] = []
        self._representative: list[int] = []
        seen: dict[tuple, int] = {}
        for index, row in enumerate(self.tm.data.tolist()):
            key = tuple(row)
            if key not in seen:
                seen[key] = len(seen)
                self._representative.append(index)
            self._class_of_row.append(seen[key])

    def agent0(self, row_index: int):
        """Send the row-class index; receive the answer bit."""
        label = self._class_of_row[row_index]
        yield Send(label, self.width)
        answer = yield Recv(1)
        return bool(answer)

    def agent1(self, col_index: int):
        """Receive the class, evaluate f on its representative row, answer."""
        label = yield Recv(self.width)
        answer = bool(self.tm.data[self._representative[label], col_index])
        yield Send(int(answer), 1)
        return answer

    def shape(self) -> MessageShape:
        """The exact message plan: class index forward, one answer bit back."""
        return MessageShape(self.name, ((0, self.width), (1, 1)))


class CertificateProtocol:
    """A nondeterministic protocol: verify one named cover rectangle.

    The certificate (a rectangle index into a canonical minimum
    value-cover) travels as part of agent 0's input — the *prover* is the
    instance builder, which knows the whole input and picks a rectangle
    containing it when ``f = value`` (see
    :func:`repro.matrix.scenarios.certificate_for`).  The agents never see
    each other's halves; they only audit membership:

    1. agent 0 sends the certificate (``⌈log₂ C^value⌉`` bits, min 1);
    2. agent 1 answers 1 iff its column lies in the rectangle;
    3. agent 0 answers 1 iff its row lies in the rectangle.

    Both output the AND — the run accepts iff the named rectangle contains
    the joint input, which (monochromaticity) happens only on value-cells.

    Attributes:
        name: ``certificate-<family>`` (reports and shapes).
        tm: the shared truth matrix.
        value: which cells are certified (1 = the paper's "singular").
        cover: the canonical minimum value-cover being indexed.
        width: certificate width in bits (``max(1, ⌈log₂ |cover|⌉)``).
    """

    def __init__(self, tm: TruthMatrix, value: int = 1, family: str = "table"):
        self.name = f"certificate-{family}"
        self.tm = tm
        self.value = value
        self.cover = minimum_cover(tm, value)
        if not self.cover:
            raise ValueError(f"function has no {value}-cells to certify")
        self.width = max(1, (len(self.cover) - 1).bit_length())

    def agent0(self, input0: tuple[int, int]):
        """Send the certificate, audit the row side after agent 1's bit."""
        row_index, certificate = input0
        yield Send(certificate, self.width)
        row_ok = 1 if row_index in self.cover[certificate][0] else 0
        col_ok = yield Recv(1)
        yield Send(row_ok, 1)
        return bool(row_ok and col_ok)

    def agent1(self, col_index: int):
        """Audit the column side of the received certificate."""
        certificate = yield Recv(self.width)
        col_ok = 1 if col_index in self.cover[certificate][1] else 0
        yield Send(col_ok, 1)
        row_ok = yield Recv(1)
        return bool(row_ok and col_ok)

    def shape(self) -> MessageShape:
        """Certificate forward, column audit back, row audit forward."""
        return MessageShape(self.name, ((0, self.width), (1, 1), (0, 1)))
