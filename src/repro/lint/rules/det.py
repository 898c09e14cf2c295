"""DET — bit-identical determinism in protocol and sweep code.

Every measured communication cost in this repository is a claim of the
form "this transcript, on this seed".  The scenario matrix re-runs sweeps
across worker counts and asserts byte-identical results; ambient
randomness, wall-clock reads and unordered iteration all break that
contract silently.  Randomness must flow through
:class:`repro.util.rng.ReproducibleRNG` / :func:`repro.util.rng.derive_seed`.

Codes:

* DET201 — use of the ambient :mod:`random` module (unseeded global
  state).  Pass a ``ReproducibleRNG`` instead.
* DET202 — any ``numpy.random`` use; the legacy global generator and
  unseeded ``default_rng()`` are both non-replayable across processes.
* DET203 — wall-clock reads (``time.time``, ``datetime.now``, monotonic
  and perf counters) in protocol/sweep code: logical ticks only.
* DET204 — iteration over an unordered collection (``set(...)``,
  ``frozenset(...)``, set literals, ``.values()``) inside a function that
  feeds the wire or derives seeds; wrap in ``sorted(...)`` to fix.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.findings import Finding
from repro.lint.rules.base import (
    ModuleContext,
    QualnameVisitor,
    dotted_name,
    imported_module_aliases,
    register_code,
)

DET201 = register_code(
    "DET201",
    "ambient random module in protocol/sweep scope",
    """Module-level random.* draws from hidden global state: two sweeps
with the same nominal seed interleave differently across workers and the
measured transcript stops being a reproducible artifact.  All randomness
routes through repro.util.rng.ReproducibleRNG (explicitly seeded,
spawnable per task via derive_seed).""",
    "import random\ncoins = [random.randrange(2) for _ in range(n)]",
    "rng = ReproducibleRNG(derive_seed(seed, 'coins'))\ncoins = rng.bit_vector(n)",
)

DET202 = register_code(
    "DET202",
    "numpy.random in protocol/sweep scope",
    """np.random's global generator is process-local and import-order
sensitive; even seeded Generators are not part of this repo's replay
story.  Derive integers from ReproducibleRNG and hand them to the
vectorized kernels as data.""",
    "noise = np.random.randint(0, 2, size=n)",
    "rng = ReproducibleRNG(seed)\nnoise = np.array(rng.bit_vector(n), dtype=np.uint64)",
)

DET203 = register_code(
    "DET203",
    "wall-clock read in protocol/sweep scope",
    """Protocol scheduling uses a logical tick counter precisely so that
timeout/retransmission behavior replays bit-identically; a time.time()
or datetime.now() call reintroduces the wall clock and with it run-to-run
divergence.  Measurement code (repro.obs timers, the perfbench/
benchmark, the slow speed-bar tests) lives outside this scope on
purpose.""",
    "deadline = time.time() + 5.0",
    "yield Recv(n, timeout=5)  # logical ticks, scheduler-owned",
)

DET204 = register_code(
    "DET204",
    "unordered iteration feeding wire output or seed derivation",
    """Set and dict-view iteration order is not part of any contract; when
such an order reaches Send()/encode_*/derive_seed it becomes invisible
nondeterminism on the wire — transcripts differ while every local answer
looks right.  Iterate sorted(...) so the order is canonical.""",
    "for p in positions_set:\n    yield Send(view[p], 1)",
    "for p in sorted(positions_set):\n    yield Send(view[p], 1)",
)

_CLOCK_ATTRS = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
}
_DATETIME_ATTRS = {"now", "utcnow", "today"}


def _is_sink_call(node: ast.Call) -> bool:
    """Does this call put data on the wire or derive a seed?"""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ("Send", "derive_seed") or func.id.startswith("encode_")
    if isinstance(func, ast.Attribute):
        return func.attr in ("send", "derive_seed") or func.attr.startswith("encode_")
    return False


def _function_has_sink(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Call) and _is_sink_call(n) for n in ast.walk(node)
    )


def _unordered_reason(iterable: ast.AST) -> str | None:
    """Why ``iterable`` has no defined order (None when it does/unknown)."""
    if isinstance(iterable, (ast.Set, ast.SetComp)):
        return "set literal"
    if isinstance(iterable, ast.Call):
        func = iterable.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute) and func.attr == "values":
            return ".values() view"
    return None


class _DetVisitor(QualnameVisitor):
    def __init__(self, ctx: ModuleContext):
        super().__init__()
        self.ctx = ctx
        self.findings: list[Finding] = []
        self.random_aliases = imported_module_aliases(ctx.tree, "random")
        self.np_aliases = imported_module_aliases(ctx.tree, "numpy")
        self.time_aliases = imported_module_aliases(ctx.tree, "time")
        self.datetime_aliases = imported_module_aliases(ctx.tree, "datetime")
        self._sink_stack: list[bool] = []

    def _flag(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(self.ctx.finding(code, node, self.symbol, message))

    # -- imports --------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom):
        if node.module == "random":
            names = ", ".join(a.name for a in node.names)
            self._flag(DET201, node, f"from random import {names}")
        elif node.module in ("numpy.random",):
            self._flag(DET202, node, "from numpy.random import ...")
        elif node.module == "time":
            clocky = [a.name for a in node.names if a.name in _CLOCK_ATTRS]
            if clocky:
                self._flag(DET203, node, f"from time import {', '.join(clocky)}")
        elif node.module == "datetime":
            self._flag(DET203, node, "from datetime import ... (wall clock)")
        self.generic_visit(node)

    # -- attribute chains ----------------------------------------------
    def visit_Attribute(self, node: ast.Attribute):
        name = dotted_name(node)
        if name:
            head, _, rest = name.partition(".")
            if head in self.random_aliases and rest:
                self._flag(DET201, node, f"ambient random use {name}")
            elif head in self.np_aliases and rest.split(".")[0] == "random":
                self._flag(DET202, node, f"numpy.random use {name}")
            elif head in self.time_aliases and rest in _CLOCK_ATTRS:
                self._flag(DET203, node, f"wall-clock read {name}")
            elif (
                head in self.datetime_aliases or head == "datetime"
            ) and name.split(".")[-1] in _DATETIME_ATTRS:
                self._flag(DET203, node, f"wall-clock read {name}")
        self.generic_visit(node)

    # -- unordered iteration in sink functions --------------------------
    def enter_function(self, node) -> None:
        self._sink_stack.append(_function_has_sink(node))

    def leave_function(self, node) -> None:
        self._sink_stack.pop()

    def _in_sink_function(self) -> bool:
        return bool(self._sink_stack) and self._sink_stack[-1]

    def _check_iter(self, iterable: ast.AST) -> None:
        if not self._in_sink_function():
            return
        reason = _unordered_reason(iterable)
        if reason:
            self._flag(
                DET204, iterable,
                f"iteration over {reason} in a function that feeds the wire "
                f"or derives seeds; wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For):
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node):
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


def check(ctx: ModuleContext) -> Iterable[Finding]:
    """Run the DET family on one module (no-op outside the DET scope)."""
    if not ctx.config.in_det_scope(ctx.module):
        return []
    visitor = _DetVisitor(ctx)
    visitor.visit(ctx.tree)
    return visitor.findings


CODES = (DET201, DET202, DET203, DET204)
