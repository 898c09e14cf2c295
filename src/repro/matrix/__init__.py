"""The scenario matrix: one sweep over protocols × models × fault regimes.

The paper's headline is a *contrast between models*: deterministic
protocols for singularity need Θ(k·n²) bits while Leighton's randomized
protocol gets by with O(n² log n).  Every other part of this repo
measures one model at a time; this package runs the cross product —

* **models** (:data:`repro.matrix.scenarios.MODELS`): deterministic,
  randomized-Leighton, one-way, and nondeterministic certificates, each
  as *live agent programs* (the combinatorial models get executable
  protocols in :mod:`repro.matrix.protocols`);
* **families** (:func:`repro.matrix.scenarios.catalogue`): equality,
  π₀-singularity, column-basis rank, matmul verification, solvability,
  INDEX;
* **fault regimes** (:func:`repro.matrix.sweep.regimes`): clean plus
  seeded fault kinds at fixed permille rates, every ARQ run judged
  against the cell's gold answer by :func:`repro.matrix.sweep.run_arq`.

Each cell carries measured bits (live transcripts), predicted bits (the
:mod:`repro.costs` message shapes), the applicable bounds, and a verdict
— ``MATCH`` / ``WITHIN_BOUND`` / ``MISMATCH``.  ``MISMATCH`` anywhere
fails CI (the ``matrix-gate`` job, the one gate for the cost formulas,
the ARQ accounting and the no-silent-corruption rule).  The sweep is deterministic at any
worker count, traced, and cell-cached through :mod:`repro.cache`.
:mod:`repro.matrix.render` turns a report into ``docs/RESULTS.md``.

Entry points: ``python -m repro matrix --quick`` (CLI) or
:func:`run_sweep` / :func:`sweep_report` / :func:`render_results` here.
The same catalogue builders back ``repro.serve``'s scenarios
(:data:`SCENARIOS`) and the test suite.

See ``docs/scenario_matrix.md`` for the schema-v1 contract.
"""

from repro.matrix.protocols import CertificateProtocol, OneWayTableProtocol
from repro.matrix.render import render_results
from repro.matrix.scenarios import (
    MODELS,
    SCENARIOS,
    MatrixCase,
    canonical_scenarios,
    case_shape,
    catalogue,
    certificate_for,
    equality_truth_matrix,
    singularity_truth_matrix,
)
from repro.matrix.sweep import (
    MATRIX_SCHEMA_VERSION,
    ArqRun,
    FaultRegime,
    regimes,
    render_table,
    run_arq,
    run_cell,
    run_sweep,
    sweep_report,
)

__all__ = [
    "MATRIX_SCHEMA_VERSION",
    "MODELS",
    "SCENARIOS",
    "ArqRun",
    "CertificateProtocol",
    "FaultRegime",
    "MatrixCase",
    "OneWayTableProtocol",
    "canonical_scenarios",
    "case_shape",
    "catalogue",
    "certificate_for",
    "equality_truth_matrix",
    "regimes",
    "render_results",
    "render_table",
    "run_arq",
    "run_cell",
    "run_sweep",
    "singularity_truth_matrix",
    "sweep_report",
]
