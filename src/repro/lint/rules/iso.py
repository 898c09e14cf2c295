"""ISO — two-party information-flow isolation in agent programs.

Yao's model is only as honest as the partition: the Ω(k n²) lower bound
(Theorem 1.1) is a statement about what Alice *cannot know* without
paying bits across the channel.  An agent program that peeks at the other
party's input view, shares mutable module state with its peer, or drives
the channel object directly produces transcripts whose measured bit count
no longer bounds information flow — the experiment silently measures
nothing.  Agent programs are classified Alice (party 0) / Bob (party 1)
via the registry in :class:`repro.lint.config.AgentRegistry`; inside them:

* ISO301 — referencing the other party's input view identifiers
  (``input1``/``view1`` from an Alice program, and symmetrically).
* ISO302 — reading/writing a mutable module-level global (or any
  ``global`` statement): covert channels between the parties.
* ISO303 — driving a channel endpoint directly (``.send``/``.recv``/
  ``.drain``/``.close`` calls or constructing a channel): agents must
  yield ``Send``/``Recv`` effects so every bit is metered.
* ISO304 — calling ``split_input``: splitting the full input inside an
  agent program means the agent held both halves.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.findings import Finding
from repro.lint.rules.base import ModuleContext, QualnameVisitor, register_code

ISO301 = register_code(
    "ISO301",
    "agent program references the other party's input view",
    """An Alice (agent-0) program that mentions input1/view1 has read data
it should only learn through Recv; every communication bound measured on
such a protocol is vacuous — the analogue of breaking the party/phase
separation the lower-bound proofs assume.  Keep each program a function
of its own view (plus received bits and public coins).""",
    "def agent0(self, input0, input1):\n    if input1[0]:  # peeks across the partition\n        ...",
    "def agent0(self, input0):\n    bit = yield Recv(1)  # pay for it on the channel",
)

ISO302 = register_code(
    "ISO302",
    "agent program touches a mutable module-level global",
    """A module-level list/dict/set reachable from both agent programs is
an unmetered side channel: one party writes, the other reads, zero bits
are counted.  Pass state through inputs or the channel; module constants
must be immutable.""",
    "_SCRATCH = {}\ndef agent0(self, input0):\n    _SCRATCH['x'] = input0",
    "def agent0(self, input0):\n    payload = encode_payload(input0)\n"
    "    yield Send(bits_to_int(payload), len(payload))",
)

ISO303 = register_code(
    "ISO303",
    "agent program drives a channel endpoint directly",
    """Bits that bypass the Send/Recv effect discipline bypass the
transcript too, so the measured cost undercounts the real communication.
Agents yield effects; only the scheduler touches the channel.""",
    "def agent0(self, input0):\n    self.channel.send(0, 0b101, 3)",
    "def agent0(self, input0):\n    yield Send(0b101, 3)",
)

ISO304 = register_code(
    "ISO304",
    "agent program splits the full input itself",
    """Partition.split_input exists for the *harness* (which holds the
whole matrix); calling it inside an agent program proves the agent held
the whole input, collapsing the two-party model to one party.  Split in
the driver, hand each program its own view.""",
    "def agent0(self, m):\n    view0, _ = self.partition.split_input(m)",
    "view0, view1 = partition.split_input(bits)  # in the driver\nprotocol.run(view0, view1)",
)

_CHANNEL_METHODS = {"send", "recv", "drain", "close"}
_CHANNEL_TYPES = {"BitChannel", "FaultyChannel", "Channel"}


def _mutable_module_globals(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound to mutable literals -> definition line."""
    out: dict[str, int] = {}
    for node in tree.body:
        targets: list[ast.expr] = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "dict", "set", "bytearray", "defaultdict")
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = node.lineno
    return out


class _IsoVisitor(QualnameVisitor):
    def __init__(self, ctx: ModuleContext):
        super().__init__()
        self.ctx = ctx
        self.findings: list[Finding] = []
        self.mutable_globals = _mutable_module_globals(ctx.tree)
        #: stack of the party (0/1) per enclosing agent-classified function,
        #: None entries for neutral functions.
        self._party_stack: list[int | None] = []
        #: names bound locally (params/assignments) inside the current agent
        #: function, which therefore shadow module globals.
        self._local_stack: list[set[str]] = []

    # -- classification -------------------------------------------------
    def enter_function(self, node) -> None:
        party = self.ctx.config.registry.classify(node.name)
        self._party_stack.append(party)
        locals_: set[str] = set()
        if party is not None:
            args = node.args
            for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *( [args.vararg] if args.vararg else [] ),
                *( [args.kwarg] if args.kwarg else [] ),
            ):
                locals_.add(a.arg)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    locals_.add(sub.id)
        self._local_stack.append(locals_)

    def leave_function(self, node) -> None:
        self._party_stack.pop()
        self._local_stack.pop()

    def _party(self) -> int | None:
        """The innermost agent classification, if any enclosing one exists."""
        for party in reversed(self._party_stack):
            if party is not None:
                return party
        return None

    def _flag(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(self.ctx.finding(code, node, self.symbol, message))

    # -- ISO301 + ISO302 (names) ----------------------------------------
    def visit_Name(self, node: ast.Name):
        party = self._party()
        if party is not None:
            forbidden = self.ctx.config.registry.forbidden_views(party)
            if node.id in forbidden:
                self._flag(
                    ISO301, node,
                    f"party-{party} program references the other party's "
                    f"view {node.id!r}",
                )
            if (
                node.id in self.mutable_globals
                and not any(node.id in loc for loc in self._local_stack)
            ):
                self._flag(
                    ISO302, node,
                    f"agent program touches mutable module global {node.id!r} "
                    f"(defined line {self.mutable_globals[node.id]})",
                )
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg):
        party = self._party()
        if party is not None:
            if node.arg in self.ctx.config.registry.forbidden_views(party):
                self._flag(
                    ISO301, node,
                    f"party-{party} program takes the other party's view "
                    f"{node.arg!r} as a parameter",
                )
        self.generic_visit(node)

    # -- ISO302 (global statements) -------------------------------------
    def visit_Global(self, node: ast.Global):
        if self._party() is not None:
            self._flag(
                ISO302, node,
                f"global statement in an agent program: {', '.join(node.names)}",
            )
        self.generic_visit(node)

    # -- ISO303 + ISO304 (calls) ----------------------------------------
    def visit_Call(self, node: ast.Call):
        if self._party() is not None:
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _CHANNEL_METHODS and _looks_like_channel(func.value):
                    self._flag(
                        ISO303, node,
                        f"direct channel call .{func.attr}() — yield "
                        f"Send/Recv effects instead",
                    )
                if func.attr == "split_input":
                    self._flag(
                        ISO304, node,
                        "split_input() inside an agent program implies access "
                        "to the full input",
                    )
            if isinstance(func, ast.Name) and func.id in _CHANNEL_TYPES:
                self._flag(
                    ISO303, node,
                    f"agent program constructs a {func.id} directly",
                )
        self.generic_visit(node)


def _looks_like_channel(value: ast.expr) -> bool:
    """Is the receiver plausibly a channel endpoint?

    ``channel.send(...)``, ``self.channel.send(...)``, ``ch.recv(...)`` —
    matched by name so that unrelated ``.send()`` methods (e.g. generator
    ``gen.send``) stay out of scope.
    """
    if isinstance(value, ast.Name):
        return "chan" in value.id.lower() or value.id.lower() in ("ch", "transport")
    if isinstance(value, ast.Attribute):
        return "chan" in value.attr.lower() or value.attr.lower() == "transport"
    return False


def check(ctx: ModuleContext) -> Iterable[Finding]:
    """Run the ISO family on one module (no-op outside the ISO scope)."""
    if not ctx.config.in_iso_scope(ctx.module):
        return []
    visitor = _IsoVisitor(ctx)
    visitor.visit(ctx.tree)
    return visitor.findings


CODES = (ISO301, ISO302, ISO303, ISO304)
