"""The lint engine: discover, parse, run rules, suppress, report.

The engine never imports the code it checks — everything is :mod:`ast`
over source text — so linting cannot execute side effects, and fixture
trees full of deliberate violations are safe to scan.  Observability goes
through :mod:`repro.obs` (``lint.*`` counters), mirroring the exact
kernels and the scenario matrix.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from pathlib import Path

from repro import obs
from repro.lint.baseline import BaselineEntry, apply_baseline, load_baseline
from repro.lint.config import LintConfig
from repro.lint.findings import Finding, LintReport
from repro.lint.pragmas import PragmaIndex, parse_pragmas
from repro.lint.rules import MODULE_RULES, PROJECT_RULES, all_codes
from repro.lint.rules.base import ModuleContext, ProjectContext


def discover_files(paths) -> list[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    out: set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def _display_path(path: Path, root: Path) -> str:
    """Repo-relative display path with forward slashes (baseline-stable)."""
    resolved = path.resolve()
    try:
        rel = resolved.relative_to(Path(root).resolve())
    except ValueError:
        rel = path
    return rel.as_posix()


def _pragma_intervals(
    tree: ast.Module, pragmas: PragmaIndex
) -> list[tuple[int, int, set[str]]]:
    """(start, end, codes) for defs/classes whose header carries a pragma.

    A pragma on a ``def``/``class`` line (or a decorator line) widens to
    the whole body — the idiom for exempting a documented boundary
    function.
    """
    intervals: list[tuple[int, int, set[str]]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        header_lines = [node.lineno] + [d.lineno for d in node.decorator_list]
        codes: set[str] = set()
        for line in header_lines:
            codes |= pragmas.line_disables.get(line, set())
        if codes and node.end_lineno is not None:
            intervals.append((node.lineno, node.end_lineno, codes))
    return intervals


class _FileRecord:
    """Parsed state for one scanned file (internal)."""

    def __init__(self, path: Path, display: str, source: str):
        self.path = path
        self.display = display
        self.tree = ast.parse(source, filename=str(path))
        self.pragmas = parse_pragmas(source)
        self.intervals = _pragma_intervals(self.tree, self.pragmas)

    def suppressed_by_pragma(self, finding: Finding) -> bool:
        if self.pragmas.disabled_on_line(finding.line, finding.code):
            return True
        return any(
            start <= finding.line <= end
            and ("all" in codes or finding.code in codes)
            for start, end, codes in self.intervals
        )


def run_lint(
    config: LintConfig,
    *,
    repo_root: Path | None = None,
    baseline_entries: list[BaselineEntry] | None = None,
    use_baseline: bool = True,
) -> LintReport:
    """Lint the configured tree and return a full report.

    ``repo_root`` anchors display paths (default: the parent of
    ``config.src_root``).  ``baseline_entries`` overrides the committed
    file; ``use_baseline=False`` reports everything as active (the
    ``--no-baseline`` audit view).
    """
    repo_root = Path(repo_root) if repo_root else Path(config.src_root).parent
    report = LintReport(rules_run=all_codes())

    records: dict[Path, _FileRecord] = {}
    project = ProjectContext(config=config)
    findings: list[Finding] = []

    for path in discover_files(config.paths):
        display = _display_path(path, repo_root)
        try:
            record = _FileRecord(path, display, path.read_text(encoding="utf-8"))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            findings.append(Finding(
                code="LINT000", path=display, line=getattr(exc, "lineno", 1) or 1,
                col=0, symbol="", message=f"cannot parse file: {exc}",
            ))
            continue
        records[path.resolve()] = record
        report.files_scanned += 1
        obs.counter("lint.files_scanned").inc()

        ctx = ModuleContext(
            path=display,
            module=config.module_of(path),
            tree=record.tree,
            pragmas=record.pragmas,
            config=config,
        )
        project.modules.append(ctx)
        for rule in MODULE_RULES:
            obs.counter("lint.rules_run").inc()
            findings.extend(rule(ctx))

    for rule in PROJECT_RULES:
        obs.counter("lint.rules_run").inc()
        for f in rule(project):
            # Normalize project-rule paths (they anchor at real files).
            resolved = Path(f.path).resolve() if f.path else None
            display = _display_path(Path(f.path), repo_root) if f.path else f.path
            findings.append(replace(f, path=display))
            if resolved and resolved not in records:
                # Make pragma suppression reachable for unscanned anchors.
                try:
                    records[resolved] = _FileRecord(
                        resolved, display, resolved.read_text(encoding="utf-8")
                    )
                except (SyntaxError, UnicodeDecodeError, OSError):
                    pass

    # Pragma suppression.
    display_to_record = {r.display: r for r in records.values()}
    suppressed: list[Finding] = []
    for f in findings:
        record = display_to_record.get(f.path)
        if record and record.suppressed_by_pragma(f):
            f = replace(f, suppressed="pragma")
            obs.counter("lint.suppressed_pragma").inc()
        suppressed.append(f)
    findings = suppressed

    # Baseline suppression.
    if use_baseline:
        if baseline_entries is None and config.baseline_path is not None:
            baseline_entries = load_baseline(config.baseline_path)
        if baseline_entries:
            findings, stale = apply_baseline(findings, baseline_entries)
            report.stale_baseline = [e.as_dict() for e in stale]
            obs.counter("lint.suppressed_baseline").inc(
                sum(1 for f in findings if f.suppressed == "baseline")
            )

    report.findings = findings
    obs.counter("lint.findings").inc(len(report.active_findings))
    return report


def stale_baseline_entries(
    config: LintConfig, *, repo_root: Path | None = None
) -> list[BaselineEntry]:
    """Baseline entries that no longer match any finding (paid-off debt)."""
    if config.baseline_path is None:
        return []
    entries = load_baseline(config.baseline_path)
    if not entries:
        return []
    report = run_lint(
        config, repo_root=repo_root, baseline_entries=[], use_baseline=False
    )
    _, stale = apply_baseline(report.findings, entries)
    return stale
