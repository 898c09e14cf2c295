"""COST — the derived message plan must match the declared plan table.

PR 7 validated the cost formulas (:func:`repro.costs.shape_of`) against
live channel transcripts.  This family closes the remaining edge of the
consistency triangle: the plan *derived statically from the agent
source* (via :mod:`repro.lint.flow`) is compared term-for-term against
the declared table in :mod:`repro.costs.plan`, which the cost tests in
turn evaluate numerically against ``shape_of``.  Code, declared plan and
formula therefore cannot drift independently — any one of the three
moving alone trips a gate.

The declared table is read with ``ast.literal_eval`` from the plan
module's source — the lint engine never imports checked code.

Codes:

* COST601 — a protocol's statically-derived plan disagrees with its
  declared ``PROTOCOL_PLANS`` entry (sender, width or repeat of some
  term).
* COST602 — an in-scope protocol class exchanges bits but has no
  ``PROTOCOL_PLANS`` entry: its cost story is untracked.
* COST603 — the declared table is unreadable (not a pure literal of the
  documented shape) or contains an orphan entry naming no in-scope
  protocol class.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from types import SimpleNamespace

from repro import obs
from repro.lint import flow
from repro.lint.findings import Finding
from repro.lint.rules.base import ModuleContext, ProjectContext, register_code

COST601 = register_code(
    "COST601",
    "statically-derived message plan disagrees with PROTOCOL_PLANS",
    """The declared plan is the term-level contract between the agent code
and the cost calculus; repro.costs prices runs and the service admits
requests with it.  If the code sends 2*k*n*n bits where the table says
k*n*n, every estimate downstream is silently wrong.  Fix whichever side
is wrong — and if the code is right, the shape_of() formula needs the
same change (the plan tests compare them numerically).""",
    'PROTOCOL_PLANS = {"MatMul": ({"sender": 0, "width": "k*n*n", ...},)}\n'
    "# but agent0 sends both matrices: 2*k*n*n bits",
    'PROTOCOL_PLANS = {"MatMul": ({"sender": 0, "width": "2*k*n*n", ...},)}',
)

COST602 = register_code(
    "COST602",
    "protocol class exchanges bits but declares no message plan",
    """Every protocol in scope must account for its traffic in
repro.costs.plan.PROTOCOL_PLANS; an undeclared protocol is priced as
free, which breaks admission control and the cost gates.  Derive the
entry from the skeleton the linter prints and add it to the table.""",
    "class NewProtocol(TwoPartyProtocol):\n    def agent0(self, x):\n"
    "        yield Send(bits_to_int(x), len(x))  # no PROTOCOL_PLANS entry",
    'PROTOCOL_PLANS = {..., "NewProtocol": ({"sender": 0, "width": "n", '
    '"repeat": "1"},)}',
)

COST603 = register_code(
    "COST603",
    "PROTOCOL_PLANS is unreadable or names an unknown protocol",
    """The table must stay a pure literal (the linter reads it without
importing) of tuples of {"sender", "width", "repeat"} dicts, and every
key must name a protocol class the flow analysis can see.  An orphan
entry is usually a renamed or deleted class whose plan was left behind —
stale plans misprice workloads just like missing ones.""",
    'PROTOCOL_PLANS = {"OldName": ...}  # class renamed to NewName',
    'PROTOCOL_PLANS = {"NewName": ...}',
)

_TERM_KEYS = {"sender", "width", "repeat"}


def _find_plan_assign(tree: ast.Module) -> ast.Assign | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PROTOCOL_PLANS"
            for t in node.targets
        ):
            return node
    return None


def _load_plans(plan_ctx: ModuleContext) -> tuple[dict | None, str, int]:
    """(plans, error, line) from the plan module's source, never importing."""
    assign = _find_plan_assign(plan_ctx.tree)
    if assign is None:
        return None, "no PROTOCOL_PLANS assignment found", 1
    try:
        plans = ast.literal_eval(assign.value)
    except (ValueError, SyntaxError, TypeError):
        return None, "PROTOCOL_PLANS is not a pure literal", assign.lineno
    if not isinstance(plans, dict):
        return None, "PROTOCOL_PLANS is not a dict", assign.lineno
    for name, terms in plans.items():
        if not isinstance(name, str) or not isinstance(terms, (tuple, list)):
            return None, f"malformed entry for {name!r}", assign.lineno
        for term in terms:
            if not isinstance(term, dict) or set(term) != _TERM_KEYS:
                return (
                    None,
                    f"entry {name!r} has a term without exactly the keys "
                    "{'sender', 'width', 'repeat'}",
                    assign.lineno,
                )
            try:
                flow.parse_width(term["width"])
                flow.parse_width(term["repeat"])
            except ValueError as exc:
                return None, f"entry {name!r}: {exc}", assign.lineno
            if term["sender"] not in (0, 1):
                return None, f"entry {name!r} has sender {term['sender']!r}", (
                    assign.lineno
                )
    return plans, "", assign.lineno


def _term_mismatch(derived: flow.PlanTerm, declared: dict) -> str | None:
    if derived.sender != declared["sender"]:
        return (
            f"sender agent{derived.sender} in code vs "
            f"agent{declared['sender']} declared"
        )
    if flow.parse_width(derived.width.expr) != flow.parse_width(declared["width"]):
        return f"width {derived.width.expr} in code vs {declared['width']} declared"
    if flow.parse_width(derived.repeat.expr) != flow.parse_width(declared["repeat"]):
        return (
            f"repeat {derived.repeat.expr} in code vs "
            f"{declared['repeat']} declared"
        )
    return None


def check(pctx: ProjectContext) -> Iterable[Finding]:
    """Run the COST family across the project (no-op without a plan module)."""
    config = pctx.config
    if config.plan_module is None:
        return []
    plan_module_name = config.module_of(config.plan_module)
    plan_ctx = next(
        (m for m in pctx.modules if m.module == plan_module_name), None
    )
    if plan_ctx is None:
        return []
    findings: list[Finding] = []
    plans, error, plan_line = _load_plans(plan_ctx)
    plan_anchor = SimpleNamespace(lineno=plan_line, col_offset=0)
    if plans is None:
        findings.append(plan_ctx.finding(
            COST603, plan_anchor, "PROTOCOL_PLANS", error
        ))
        return findings

    known_classes: set[str] = set()
    for mctx in pctx.modules:
        if not config.in_cost_scope(mctx.module):
            continue
        for pair in flow.extract_pairs(mctx.tree, config.registry):
            known_classes.add(pair.name)
            if pair.shared_program or not pair.has_ops:
                continue
            declared = plans.get(pair.name)
            if declared is None:
                findings.append(mctx.finding(
                    COST602,
                    pair.class_node,
                    pair.name,
                    f"{pair.name} exchanges bits but has no PROTOCOL_PLANS "
                    "entry; its traffic is invisible to the cost calculus",
                ))
                continue
            if not pair.skeleton0.ok or not pair.skeleton1.ok:
                continue  # SES501 already reports the extraction failure
            items0 = flow.normalize(pair.skeleton0.ops)
            items1 = flow.dualize(flow.normalize(pair.skeleton1.ops))
            if flow.compare_dual(items0, items1):
                continue  # SES flags the divergence; a merged plan is moot
            derived = flow.merged_plan(items0, items1)
            if len(derived) != len(declared):
                findings.append(mctx.finding(
                    COST601,
                    pair.class_node,
                    pair.name,
                    f"code derives {len(derived)} message term(s) "
                    f"[{'; '.join(t.render() for t in derived)}] but "
                    f"PROTOCOL_PLANS declares {len(declared)}",
                ))
                continue
            clean = True
            for index, (dterm, decl) in enumerate(zip(derived, declared)):
                why = _term_mismatch(dterm, decl)
                if why is not None:
                    clean = False
                    findings.append(mctx.finding(
                        COST601,
                        pair.class_node,
                        pair.name,
                        f"term {index}: {why}",
                    ))
            if clean:
                obs.counter("lint.cost.plans_verified").inc()

    for orphan in sorted(set(plans) - known_classes):
        findings.append(plan_ctx.finding(
            COST603,
            plan_anchor,
            "PROTOCOL_PLANS",
            f"entry {orphan!r} names no protocol class in the cost scope "
            "(renamed or deleted class? stale plan entries misprice "
            "workloads)",
        ))
    return findings


CODES = (COST601, COST602, COST603)
