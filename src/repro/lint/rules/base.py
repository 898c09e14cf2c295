"""Shared rule machinery: contexts, registration, AST helpers.

A *rule family* is a callable ``check(ctx) -> Iterable[Finding]``.  Most
families are per-module (they receive a :class:`ModuleContext`); the WIRE
family is project-level (it receives a :class:`ProjectContext` after every
module has been parsed).  Rule *codes* (``EXA102``…) are registered with an
explanation — summary, paper-level rationale, bad example, fix — which
feeds ``repro lint --explain``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.pragmas import PragmaIndex


@dataclass(frozen=True)
class Explanation:
    """The ``--explain`` payload for one rule code."""

    code: str
    summary: str
    rationale: str
    example_bad: str
    example_fix: str

    def render(self) -> str:
        return (
            f"{self.code}: {self.summary}\n\n"
            f"Why it matters\n--------------\n{self.rationale.strip()}\n\n"
            f"Example violation\n-----------------\n{self.example_bad.strip()}\n\n"
            f"Example fix\n-----------\n{self.example_fix.strip()}\n"
        )


#: code -> Explanation for every shipped rule.
EXPLANATIONS: dict[str, Explanation] = {}


def register_code(
    code: str, summary: str, rationale: str, example_bad: str, example_fix: str
) -> str:
    """Register a rule code with its explanation; returns the code."""
    if code in EXPLANATIONS:
        raise ValueError(f"duplicate rule code {code}")
    EXPLANATIONS[code] = Explanation(code, summary, rationale, example_bad, example_fix)
    return code


def all_codes() -> list[str]:
    """Every registered rule code, sorted."""
    return sorted(EXPLANATIONS)


@dataclass
class ModuleContext:
    """One parsed source file, as seen by per-module rules.

    Attributes:
        path: display path (relative to the lint invocation root).
        module: dotted module name (drives scope checks).
        tree: the parsed AST.
        pragmas: the file's pragma index.
        config: the active configuration.
    """

    path: str
    module: str
    tree: ast.Module
    pragmas: PragmaIndex
    config: LintConfig

    def finding(self, code: str, node: ast.AST, symbol: str, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            code=code,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            symbol=symbol,
            message=message,
        )


@dataclass
class ProjectContext:
    """Cross-module state for project-level rules (WIRE)."""

    config: LintConfig
    modules: list[ModuleContext] = field(default_factory=list)


class QualnameVisitor(ast.NodeVisitor):
    """An ``ast.NodeVisitor`` that tracks the dotted in-file qualname.

    Subclasses read ``self.symbol`` (e.g. ``"TrivialProtocol.agent0"``)
    instead of re-deriving scope, and may override ``enter_function`` /
    ``leave_function`` to maintain per-function state.
    """

    def __init__(self):
        self._stack: list[str] = []

    @property
    def symbol(self) -> str:
        return ".".join(self._stack)

    # -- scope plumbing -------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef):
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def _visit_func(self, node):
        self._stack.append(node.name)
        self.enter_function(node)
        self.generic_visit(node)
        self.leave_function(node)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef):
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef):
        self._visit_func(node)

    def enter_function(self, node) -> None:
        """Hook: called after the function's name is pushed."""

    def leave_function(self, node) -> None:
        """Hook: called before the function's name is popped."""


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def imported_module_aliases(tree: ast.Module, target: str) -> set[str]:
    """Local names bound to module ``target`` by plain imports.

    ``import numpy as np`` → ``{"np"}`` for target ``"numpy"``;
    ``import repro.util.rng`` binds the *top* name, so only a direct
    ``import target`` (or ``import target as x``) counts.
    """
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == target:
                    aliases.add(alias.asname or alias.name.split(".")[0])
    return aliases
