"""Protocol abstractions: the measured object of communication complexity.

Two complementary views of a deterministic protocol:

* :class:`TwoPartyProtocol` — an *executable* protocol: a pair of agent
  programs (see :mod:`repro.comm.agents`) plus input-formatting glue.  Its
  cost on an input is measured by actually running it; its worst-case cost
  over a finite input set is ``max`` of measured costs.  All upper-bound
  protocols in :mod:`repro.protocols` subclass this.

* :class:`ProtocolTree` — the *combinatorial* view: a binary tree whose
  internal nodes are owned by an agent and labeled with a function of that
  agent's input, and whose leaves are labeled with outputs.  This is the
  object Yao's lower-bound method talks about (each leaf induces a
  monochromatic rectangle), and the exhaustive optimizer in
  :mod:`repro.comm.exhaustive` synthesizes optimal trees for small truth
  matrices.

A :class:`ProtocolTree` can be compiled to an executable protocol, and an
executable protocol's transcript tree *is* a protocol tree — tests close the
loop in both directions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable

from repro.comm.agents import AgentProgram, Recv, RunResult, Send, run_protocol


class TwoPartyProtocol(ABC):
    """An executable deterministic protocol computing ``f(x0, x1)``.

    Subclasses provide the two generator programs; the base class runs them
    and exposes cost measurement.
    """

    name: str = "protocol"

    @abstractmethod
    def agent0(self, input0: Any) -> AgentProgram:
        """Agent 0's program (a generator yielding Send/Recv)."""

    @abstractmethod
    def agent1(self, input1: Any) -> AgentProgram:
        """Agent 1's program."""

    def run(self, input0: Any, input1: Any) -> RunResult:
        """Execute once over a fresh bit-counting channel."""
        return run_protocol(self.agent0, self.agent1, input0, input1)

    def output(self, input0: Any, input1: Any) -> Any:
        """The agreed answer of one execution."""
        return self.run(input0, input1).agreed_output()

    def cost(self, input0: Any, input1: Any) -> int:
        """Bits exchanged on this input."""
        return self.run(input0, input1).bits_exchanged

    def worst_case_cost(self, input_pairs) -> int:
        """``Comm(f, π, P)`` restricted to the given finite set of inputs."""
        worst = 0
        for x0, x1 in input_pairs:
            worst = max(worst, self.cost(x0, x1))
        return worst

    def is_correct_on(self, input_pairs, reference: Callable[[Any, Any], Any]) -> bool:
        """Does the protocol agree with ``reference`` on every listed input?"""
        return all(
            self.output(x0, x1) == reference(x0, x1) for x0, x1 in input_pairs
        )


# ----------------------------------------------------------------------
# Protocol trees
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Leaf:
    """A finished protocol: both agents output ``value``."""

    value: Any


@dataclass(frozen=True)
class Node:
    """An internal node: ``owner`` computes ``predicate(own_input)`` ∈ {0,1},
    announces the bit, and the protocol continues in the matching child."""

    owner: int
    predicate: Callable[[Any], int]
    child0: "Node | Leaf"
    child1: "Node | Leaf"

    def __post_init__(self):
        if self.owner not in (0, 1):
            raise ValueError("owner must be agent 0 or 1")


class ProtocolTree:
    """A deterministic protocol as an explicit decision tree.

    >>> # Agent 0 announces its bit; agent 1 hence knows x0 XOR nothing...
    >>> tree = ProtocolTree(Node(0, lambda x: x, Leaf(0), Leaf(1)))
    >>> tree.evaluate(1, "ignored")
    (1, 1)
    """

    def __init__(self, root: Node | Leaf):
        self.root = root

    def evaluate(self, input0: Any, input1: Any) -> tuple[Any, int]:
        """``(output, bits_spoken)`` by walking the tree."""
        node = self.root
        bits = 0
        while isinstance(node, Node):
            local = input0 if node.owner == 0 else input1
            b = node.predicate(local)
            if b not in (0, 1):
                raise ValueError("node predicates must return bits")
            node = node.child1 if b else node.child0
            bits += 1
        return node.value, bits

    def depth(self) -> int:
        """Worst-case bits — the tree height."""

        def height(node: Node | Leaf) -> int:
            if isinstance(node, Leaf):
                return 0
            return 1 + max(height(node.child0), height(node.child1))

        return height(self.root)

    def leaf_count(self) -> int:
        """Number of leaves (= monochromatic rectangles induced)."""
        def count(node: Node | Leaf) -> int:
            if isinstance(node, Leaf):
                return 1
            return count(node.child0) + count(node.child1)

        return count(self.root)

    def leaf_rectangles(self, inputs0, inputs1) -> list[tuple[set, set, Any]]:
        """The combinatorial heart of Yao's method.

        For each leaf, the set of inputs reaching it is a *rectangle*
        ``R = X' × Y'`` (because the walk factors through the two inputs
        independently), and ``f`` is constant on it.  Returns
        ``[(rows, cols, value), …]`` over the given finite input sets, so
        tests can verify the rectangle property directly.
        """
        buckets: dict[int, tuple[set, set, Any]] = {}

        def walk(node: Node | Leaf, x0, x1) -> tuple[int, Any]:
            path = 0
            depth = 0
            while isinstance(node, Node):
                local = x0 if node.owner == 0 else x1
                b = node.predicate(local)
                node = node.child1 if b else node.child0
                path = (path << 1) | b
                depth += 1
            return (path << 8) | depth, node.value  # unique leaf key

        for x0 in inputs0:
            for x1 in inputs1:
                key, value = walk(self.root, x0, x1)
                if key not in buckets:
                    buckets[key] = (set(), set(), value)
                rows, cols, v = buckets[key]
                if v != value:  # pragma: no cover — structurally impossible
                    raise AssertionError("leaf value changed between visits")
                rows.add(x0)
                cols.add(x1)
        return list(buckets.values())

    # ------------------------------------------------------------------
    # Compilation to an executable protocol
    # ------------------------------------------------------------------
    def compile(self) -> "TreeProtocol":
        """An executable protocol walking this tree over a channel."""
        return TreeProtocol(self)


class TreeProtocol(TwoPartyProtocol):
    """Execute a :class:`ProtocolTree` over a real channel.

    Both agents walk the tree in lockstep; the owner of each node announces
    its predicate bit on the channel, the peer receives it.  The measured
    cost therefore equals the tree-walk length exactly.
    """

    name = "tree-protocol"

    def __init__(self, tree: ProtocolTree):
        self.tree = tree

    def _program(self, me: int, local_input: Any) -> AgentProgram:
        node = self.tree.root
        while isinstance(node, Node):
            if node.owner == me:
                b = node.predicate(local_input)
                yield Send(b, 1)
            else:
                b = yield Recv(1)
            node = node.child1 if b else node.child0
        return node.value

    def agent0(self, input0: Any) -> AgentProgram:
        return self._program(0, input0)

    def agent1(self, input1: Any) -> AgentProgram:
        return self._program(1, input1)
