"""SES — session duality: the two agent programs must be wire-compatible.

A two-party protocol deadlocks (or desynchronizes) exactly when the two
programs disagree about whose turn it is or how many bits a turn holds.
This family extracts both agents' protocol skeletons with
:mod:`repro.lint.flow` and proves, statically, that agent0's skeleton is
the *dual* of agent1's: every ``Send`` faces a ``Recv`` of the same
total width, in the same order, under the same loop structure.  That is
a static deadlock-freedom and turn-order proof for every protocol in
scope — the session-type discipline of the paper's message sequences,
checked straight from source.

Classes where both agents dispatch to the *same* shared program
(``return self._program(0, ...)`` / ``return self._program(1, ...)``)
are dual by construction and are counted, not compared.

Codes:

* SES501 — structural duality failure: mismatched turn order, an
  unmatched ``Send``/``Recv``, a loop facing straight-line code, or an
  agent program the extractor cannot reduce to a skeleton at all.
* SES502 — both sides resolve a turn's width to a closed form and the
  totals differ (one party will starve or leave bits on the wire).
* SES503 — both sides resolve a loop bound to a closed form and the
  bounds diverge (the parties disagree on the number of rounds).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from types import SimpleNamespace

from repro import obs
from repro.lint import flow
from repro.lint.findings import Finding
from repro.lint.rules.base import ModuleContext, register_code

SES501 = register_code(
    "SES501",
    "agent programs are not structurally dual",
    """The scheduler delivers bits only when one party Sends exactly what
the other Recvs, in the same order.  A turn-order mismatch means both
parties wait (deadlock) or both speak (collision); an unmatched channel
operation means one side finishes while the other blocks forever.  This
is detected statically, before any run.""",
    "def agent0(...):\n    yield Send(x, 8)\n    yield Send(y, 8)\n"
    "def agent1(...):\n    got = yield Recv(8)",
    "def agent0(...):\n    yield Send(x | y << 8, 16)\n"
    "def agent1(...):\n    got = yield Recv(16)",
)

SES502 = register_code(
    "SES502",
    "send/recv widths disagree between the two agents",
    """When both sides' widths resolve to closed forms over the protocol's
parameters, they must be equal: a receiver asking for fewer bits than
were sent leaves bits queued (and the next Recv reads garbage); asking
for more deadlocks.  Width totals are compared per turn, so a receiver
may split one message across several Recv calls.""",
    "def agent0(...):\n    yield Send(v, self.width)\n"
    "def agent1(...):\n    got = yield Recv(self.width + 1)",
    "def agent1(...):\n    got = yield Recv(self.width)",
)

SES503 = register_code(
    "SES503",
    "loop bounds diverge between the two agents",
    """Round-based protocols repeat a message exchange; if the two
programs derive different repeat counts the extra rounds deadlock.  Both
bounds must come from the same instance parameter (e.g. self.rounds) or
be provably equal.""",
    "def agent0(...):\n    for r in range(self.rounds):\n        yield Send(...)\n"
    "def agent1(...):\n    for r in range(self.rounds + 1):\n        got = yield Recv(...)",
    "def agent1(...):\n    for r in range(self.rounds):\n        got = yield Recv(...)",
)

_PROBLEM_CODES = {"structure": SES501, "width": SES502, "bound": SES503}


def _anchor(line: int) -> SimpleNamespace:
    return SimpleNamespace(lineno=max(line, 1), col_offset=0)


def _extraction_failure(
    ctx: ModuleContext, pair: flow.AgentPair
) -> Iterable[Finding]:
    for skel, func, party in (
        (pair.skeleton0, pair.func0, 0),
        (pair.skeleton1, pair.func1, 1),
    ):
        if not skel.ok:
            yield ctx.finding(
                SES501,
                func,
                f"{pair.name}.{func.name}",
                f"cannot extract agent{party}'s protocol skeleton: "
                f"{skel.reason}; duality is unprovable for {pair.name}",
            )


def check(ctx: ModuleContext) -> Iterable[Finding]:
    """Run the SES family on one module (no-op outside the flow scope)."""
    if not ctx.config.in_flow_scope(ctx.module):
        return []
    findings: list[Finding] = []
    for pair in flow.extract_pairs(ctx.tree, ctx.config.registry):
        if pair.shared_program:
            # Both agents run the same program with a different party id:
            # dual by construction (every Send guards a symmetric Recv).
            obs.counter("lint.ses.shared_program").inc()
            continue
        if not pair.skeleton0.ok or not pair.skeleton1.ok:
            findings.extend(_extraction_failure(ctx, pair))
            continue
        if not pair.has_ops:
            continue  # not a channel protocol (plain paired methods)
        items0 = flow.normalize(pair.skeleton0.ops)
        items1 = flow.dualize(flow.normalize(pair.skeleton1.ops))
        problems = flow.compare_dual(items0, items1)
        if not problems:
            obs.counter("lint.ses.dual_pairs").inc()
        for problem in problems:
            findings.append(ctx.finding(
                _PROBLEM_CODES[problem.kind],
                _anchor(problem.line0 or problem.line1),
                pair.name,
                f"{problem.message} (agent0 line {problem.line0}, "
                f"agent1 line {problem.line1})",
            ))
    return findings


CODES = (SES501, SES502, SES503)
