"""The scenario-matrix sweep: every cell measured, predicted and judged.

One cell = (model, family, params) × fault regime.  Every run is judged
against a gold answer and every count is compared by integer equality:

* **clean regime** — the instance runs on a bare
  :class:`~repro.comm.channel.BitChannel` (transcript totals, rounds and
  per-agent splits must equal the :class:`~repro.costs.models
  .MessageShape` prediction by integer equality) and once more through
  clean-channel ARQ (each endpoint's live
  :class:`~repro.comm.transport.TransportStats` must equal
  ``predicted_transport_stats`` field for field).  Deterministic models
  must also reproduce the instance's ground truth.  Verdict: ``MATCH``
  or ``MISMATCH`` — nothing in between.

* **faulted regime** — the same instance, same coins, re-run several
  times through ARQ over a seeded
  :class:`~repro.comm.faults.FaultyChannel`, each run judged against the
  cell's gold answer (the bare-channel run, computed once per cell).  A
  run either recovers the gold answer, fails loudly, or — the
  unacceptable bucket — returns ``ok`` with a wrong answer.  Verdict:
  ``WITHIN_BOUND`` when there is zero silent corruption and every
  recovered run's wire total lands in ``[clean ARQ wire bits,
  arq_retry_ceiling_bits]``; any violation is a ``MISMATCH``.

Both regimes run their ARQ legs through one function, :func:`run_arq`,
which also reconciles the transport accounting on every run: each
endpoint's four bit buckets must sum to its wire bits, and on completed
runs the channel transcript must carry exactly the bits each endpoint
claims it sent.

The sweep fans out through :func:`repro.util.parallel.parmap` (one task
per cell, all randomness derived from the cell's coordinates, so the JSON
is byte-identical at any worker count), traces a ``matrix.sweep`` span
with one ``matrix.cell`` event per cell (faulted cells also carry their
fault kind, injected-fault and retry totals), and caches finished cells in the
active :class:`~repro.cache.store.CacheStore` under
:func:`repro.cache.keys.cell_key` addresses — a warm re-sweep reads every
cell back without running a single protocol.

The JSON layout is pinned at :data:`MATRIX_SCHEMA_VERSION`; see
``docs/scenario_matrix.md`` for the field-by-field contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.comm.agents import RunReport, run_protocol, run_supervised
from repro.comm.channel import BitChannel
from repro.comm.faults import FaultModel, FaultyChannel, make_fault_model
from repro.comm.transport import ArqConfig, TransportStats, reliable_pair
from repro.costs.models import arq_retry_ceiling_bits
from repro.matrix.scenarios import MatrixCase, case_shape, catalogue
from repro.trace import core as trace
from repro.util.fmt import Table
from repro.util.parallel import parmap
from repro.util.rng import ReproducibleRNG, derive_seed

__all__ = [
    "MATRIX_SCHEMA_VERSION",
    "ArqRun",
    "FaultRegime",
    "regimes",
    "render_table",
    "run_arq",
    "run_cell",
    "run_sweep",
    "sweep_report",
]

#: Version of the ``sweep_report`` JSON layout (bump on any key change).
MATRIX_SCHEMA_VERSION = 1

#: Cache engine tag for cell records; bump to orphan stale cells.
CELL_ENGINE_VERSION = "repro.matrix/1"

#: Frame-payload cap for the ARQ legs: small enough that the larger
#: protocols split into many frames (exercising the chunked framing/ACK
#: formulas), large enough that runs stay fast.
MATRIX_FRAME_PAYLOAD = 64

#: Scheduler step budget for one ARQ run.
_MAX_STEPS = 10_000_000

#: The pinned key set of one cell document (the frozen-schema contract).
CELL_KEYS = (
    "bounds",
    "family",
    "measured",
    "mismatches",
    "model",
    "params",
    "predicted",
    "regime",
    "seed",
    "verdict",
)


@dataclass(frozen=True)
class FaultRegime:
    """One point on the fault axis.

    Attributes:
        name: stable regime id (``clean``, ``flip@20``, ...).
        kind: fault kind for :func:`repro.comm.faults.make_fault_model`,
            or None for the clean regime.
        rate_permille: fault rate in permille — an integer so the schema
            stays float-free; the live rate is ``rate_permille / 1000``.
        runs: seeded executions aggregated (1 for the clean regime).
    """

    name: str
    kind: str | None
    rate_permille: int
    runs: int

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation (keys pinned by the schema test)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "rate_permille": self.rate_permille,
            "runs": self.runs,
        }


def regimes(quick: bool = True) -> list[FaultRegime]:
    """The fault axis: clean plus at least two faulted regimes.

    Quick mode (the CI gate) injects bit flips and erasures at 2%; full
    mode covers every kind in :data:`repro.comm.faults.FAULT_KINDS`.
    """
    if quick:
        return [
            FaultRegime("clean", None, 0, 1),
            FaultRegime("flip@20", "flip", 20, 3),
            FaultRegime("erase@20", "erase", 20, 3),
        ]
    return [FaultRegime("clean", None, 0, 1)] + [
        FaultRegime(f"{kind}@20", kind, 20, 5)
        for kind in ("flip", "burst", "erase", "duplicate", "delay")
    ]


def _arq_config() -> ArqConfig:
    return ArqConfig(frame_payload=MATRIX_FRAME_PAYLOAD)


def _predictions(shape, config: ArqConfig) -> dict[str, int]:
    return {
        "total_bits": shape.total_bits,
        "rounds": shape.rounds,
        "bits_agent0": shape.bits_from(0),
        "bits_agent1": shape.bits_from(1),
        "arq_wire_bits": shape.arq_wire_bits(config),
        "arq_ceiling_bits": arq_retry_ceiling_bits(shape, config),
    }


def _bound_mismatches(case: MatrixCase, predicted: dict[str, int]) -> list[str]:
    """Model-specific bound relations every cell must respect."""
    problems: list[str] = []
    bounds = case.bounds
    total = predicted["total_bits"]
    if case.model == "deterministic" and "lower" in bounds:
        if total < bounds["lower"]:
            problems.append(
                f"deterministic cost {total} beats the paper's lower bound "
                f"{bounds['lower']}"
            )
    if "trivial_upper" in bounds and case.model == "deterministic":
        if total > bounds["trivial_upper"]:
            problems.append(
                f"deterministic cost {total} exceeds the trivial upper "
                f"bound {bounds['trivial_upper']}"
            )
    if "leighton_upper" in bounds and case.model == "randomized-leighton":
        if total > bounds["leighton_upper"]:
            problems.append(
                f"randomized cost {total} exceeds Leighton's upper bound "
                f"{bounds['leighton_upper']}"
            )
    if case.model == "one-way":
        if total != bounds["one_way"] + 1:
            problems.append(
                f"one-way cost {total} != one_way_cc + answer bit "
                f"{bounds['one_way'] + 1}"
            )
        if bounds["d_exact"] > bounds["one_way"] + 1:
            problems.append(
                f"two-way D(f) {bounds['d_exact']} exceeds one-way + 1 "
                f"{bounds['one_way'] + 1} (sandwich violated)"
            )
    if case.model == "nondeterministic":
        width = max(1, bounds["nondet"])
        if total != width + 2:
            problems.append(
                f"certificate cost {total} != certificate width + audits "
                f"{width + 2}"
            )
        if bounds["nondet"] > bounds["d_exact"]:
            problems.append(
                f"N(f) {bounds['nondet']} exceeds D(f) {bounds['d_exact']} "
                "(log cover <= D violated)"
            )
    return problems


@dataclass(frozen=True)
class ArqRun:
    """One ARQ-tunneled run, judged against its gold answer.

    Attributes:
        report: the supervised run's structured report, with the transport
            accounting fields (retries, payload and overhead bits) filled
            in from the endpoints.
        gold: the answer the same instance and coins give on a bare channel.
        answer: the run's agreed answer (None unless ``ok``).
        endpoints: each agent's live :class:`TransportStats`.
        problems: transport-accounting violations (empty on a sound stack).
    """

    report: RunReport
    gold: Any
    answer: Any
    endpoints: tuple[TransportStats, TransportStats]
    problems: tuple[str, ...]

    @property
    def recovered(self) -> bool:
        """True when the run finished ``ok`` with the gold answer."""
        return self.report.ok and self.answer == self.gold

    @property
    def silent_wrong(self) -> bool:
        """True for the unacceptable bucket: ``ok`` but a different answer."""
        return self.report.ok and self.answer != self.gold

    @property
    def stats(self) -> TransportStats:
        """Both endpoints' stats, summed field by field."""
        return self.endpoints[0].merged(self.endpoints[1])


def _coins(case: MatrixCase, coin_seed: int) -> ReproducibleRNG | None:
    return ReproducibleRNG(coin_seed) if case.randomized else None


def run_arq(
    case: MatrixCase,
    gold: Any,
    fault_model: FaultModel | None = None,
    *,
    coin_seed: int,
    config: ArqConfig,
) -> ArqRun:
    """Run ``case`` through the ARQ transport and judge it against ``gold``.

    ``fault_model=None`` runs on a bare :class:`BitChannel`; otherwise the
    channel is a :class:`FaultyChannel` under that model.  The public
    coins are re-derived from ``coin_seed``, so ``gold`` — the bare-channel
    answer with the same coins — is the only correct answer and any
    disagreement is corruption, never coin luck.
    """
    coins = _coins(case, coin_seed)
    if coins is None:
        inner0 = case.protocol.agent0(case.input0)
        inner1 = case.protocol.agent1(case.input1)
    else:
        inner0 = case.protocol.agent0(case.input0, coins)
        inner1 = case.protocol.agent1(case.input1, coins)
    wrapped0, wrapped1, e0, e1 = reliable_pair(inner0, inner1, config)
    channel = BitChannel() if fault_model is None else FaultyChannel(fault_model)
    report = run_supervised(
        lambda _: wrapped0,
        lambda _: wrapped1,
        None,
        None,
        channel=channel,
        max_steps=_MAX_STEPS,
    )
    # The four buckets partition each endpoint's wire bits exactly.  The
    # channel cross-check is exact only on completed runs: a failed run
    # may die between an endpoint's accounting and a closed channel's
    # refusal.
    problems = []
    for agent, endpoint in ((0, e0), (1, e1)):
        live = endpoint.stats
        if live.wire_bits != live.accounted_bits:
            problems.append(
                f"arq endpoint {agent} buckets: wire {live.wire_bits} != "
                f"accounted {live.accounted_bits}"
            )
        seen = channel.transcript.bits_from(agent)
        if report.ok and seen != live.wire_bits:
            problems.append(
                f"arq endpoint {agent}: channel saw {seen} bits, endpoint "
                f"claims {live.wire_bits}"
            )
    stats = e0.stats.merged(e1.stats)
    return ArqRun(
        report=replace(
            report,
            retries=stats.retries,
            overhead_bits=stats.overhead_bits,
            payload_bits=stats.payload_bits,
        ),
        gold=gold,
        answer=report.agreed_output() if report.ok else None,
        endpoints=(e0.stats, e1.stats),
        problems=tuple(problems),
    )


def _bare_run(case: MatrixCase, coin_seed: int):
    """The instance on a bare channel: its transcript and gold answer."""
    return run_protocol(
        case.protocol.agent0,
        case.protocol.agent1,
        case.input0,
        case.input1,
        public_randomness=_coins(case, coin_seed),
    )


def _clean_legs(
    case: MatrixCase, coin_seed: int, shape, predicted: dict[str, int],
    config: ArqConfig,
):
    """Bare-channel run plus clean-channel ARQ run, both exactly audited.

    Returns ``(measured_clean, mismatches)`` — the integer measurements of
    the bare run and every exact-comparison failure across both legs.
    """
    mismatches: list[str] = []
    result = _bare_run(case, coin_seed)
    transcript = result.transcript
    answer = result.agreed_output()
    measured = {
        "total_bits": transcript.total_bits,
        "rounds": transcript.rounds,
        "bits_agent0": transcript.bits_from(0),
        "bits_agent1": transcript.bits_from(1),
        "answer": bool(answer),
    }
    for key in ("total_bits", "rounds", "bits_agent0", "bits_agent1"):
        if measured[key] != predicted[key]:
            mismatches.append(
                f"clean {key}: measured {measured[key]} != "
                f"predicted {predicted[key]}"
            )
    if case.expected is not None and bool(answer) != bool(case.expected):
        mismatches.append(
            f"clean answer {bool(answer)} != ground truth "
            f"{bool(case.expected)}"
        )

    run = run_arq(case, answer, coin_seed=coin_seed, config=config)
    if not run.report.ok:
        mismatches.append(f"clean arq run not ok: outcome {run.report.outcome}")
    elif not run.recovered:
        mismatches.append("clean arq answer disagrees with the bare channel")
    pred_stats = shape.predicted_transport_stats(config)
    for agent, live in enumerate(run.endpoints):
        pred = pred_stats[agent]
        for name in sorted(live.__dataclass_fields__):
            have, want = getattr(live, name), getattr(pred, name)
            if have != want:
                mismatches.append(
                    f"clean arq endpoint {agent} {name}: measured {have} "
                    f"!= predicted {want}"
                )
    mismatches.extend(f"clean {problem}" for problem in run.problems)
    measured["arq_wire_bits"] = run.stats.wire_bits
    return measured, mismatches


def _faulted_leg(
    case: MatrixCase,
    coin_seed: int,
    regime: FaultRegime,
    fault_seed_root: int,
    predicted: dict[str, int],
    config: ArqConfig,
):
    """``regime.runs`` seeded fault executions, gold-judged and bounded.

    Returns ``(measured_faulted, mismatches)``.  Each run reuses the cell
    instance and coins (the gold answer is computed once) and varies only
    the fault randomness, so a violation replays from its coordinates.
    """
    gold = _bare_run(case, coin_seed).agreed_output()
    rate = regime.rate_permille / 1000
    recovered = 0
    loud = 0
    silent = 0
    faults = 0
    retries = 0
    wire_min = 0
    wire_max = 0
    wire_total = 0
    mismatches: list[str] = []
    for run_index in range(regime.runs):
        model = make_fault_model(
            regime.kind, rate,
            seed=derive_seed(fault_seed_root, regime.name, run_index),
        )
        run = run_arq(case, gold, model, coin_seed=coin_seed, config=config)
        mismatches.extend(
            f"{regime.name} run {run_index}: {problem}"
            for problem in run.problems
        )
        stats = run.stats
        faults += run.report.faults_injected
        retries += stats.retries
        if run.silent_wrong:
            silent += 1
            mismatches.append(
                f"{regime.name} run {run_index}: SILENT CORRUPTION — "
                "ok with a wrong answer"
            )
        elif run.recovered:
            recovered += 1
            wire = stats.wire_bits
            wire_total += wire
            wire_min = wire if recovered == 1 else min(wire_min, wire)
            wire_max = max(wire_max, wire)
            if wire < predicted["arq_wire_bits"]:
                mismatches.append(
                    f"{regime.name} run {run_index}: recovered on "
                    f"{wire} wire bits, below the clean ARQ floor "
                    f"{predicted['arq_wire_bits']}"
                )
            if wire > predicted["arq_ceiling_bits"]:
                mismatches.append(
                    f"{regime.name} run {run_index}: {wire} wire bits "
                    f"exceed the retry ceiling "
                    f"{predicted['arq_ceiling_bits']}"
                )
        else:
            loud += 1
    measured = {
        "runs": regime.runs,
        "recovered": recovered,
        "loud_failures": loud,
        "silent_wrong": silent,
        "faults_injected": faults,
        "retries": retries,
        "wire_bits_min": wire_min,
        "wire_bits_max": wire_max,
        "wire_bits_total": wire_total,
    }
    return measured, mismatches


def run_cell(
    case: MatrixCase,
    instance_seed: int,
    regime: FaultRegime,
    config: ArqConfig | None = None,
) -> dict[str, Any]:
    """Execute and judge one cell; returns its pinned JSON document.

    The clean regime runs the exact clean-channel audits; a faulted
    regime runs the gold-judged fault legs against the same predictions.
    ``verdict`` is ``MATCH`` (clean, every integer comparison held),
    ``WITHIN_BOUND`` (faulted, no silent corruption, recovery inside the
    ARQ envelope) or ``MISMATCH``.
    """
    cfg = config or _arq_config()
    shape = case_shape(case)
    predicted = _predictions(shape, cfg)
    coin_seed = derive_seed(instance_seed, "coins")
    mismatches = _bound_mismatches(case, predicted)

    if regime.kind is None:
        clean, clean_problems = _clean_legs(
            case, coin_seed, shape, predicted, cfg
        )
        mismatches.extend(clean_problems)
        measured: dict[str, Any] = {"clean": clean, "faulted": None}
        verdict = "MATCH" if not mismatches else "MISMATCH"
    else:
        faulted, fault_problems = _faulted_leg(
            case, coin_seed, regime, instance_seed, predicted, cfg
        )
        mismatches.extend(fault_problems)
        measured = {"clean": None, "faulted": faulted}
        verdict = "WITHIN_BOUND" if not mismatches else "MISMATCH"

    return {
        "bounds": dict(case.bounds),
        "family": case.family,
        "measured": measured,
        "mismatches": mismatches,
        "model": case.model,
        "params": dict(case.params),
        "predicted": predicted,
        "regime": regime.as_dict(),
        "seed": instance_seed,
        "verdict": verdict,
    }


# ----------------------------------------------------------------------
# The sweep: coordinates → tasks → parmap → cached cells
# ----------------------------------------------------------------------
def _cell_coordinates(quick: bool, seed: int) -> list[tuple[int, int, int]]:
    """Every cell as ``(axis_index, regime_index, instance_seed)``.

    The instance seed is derived from the root seed and the cell's
    (builder, params) coordinates — never from list positions alone — so
    adding axis points does not reshuffle existing cells' randomness.
    """
    coords = []
    axes = catalogue(quick)
    for axis_index, (builder, params) in enumerate(axes):
        instance_seed = derive_seed(
            seed, "matrix", builder.__name__, *sorted(params.items())
        )
        for regime_index in range(len(regimes(quick))):
            coords.append((axis_index, regime_index, instance_seed))
    return coords


def _cell_task(task: tuple[int, int, int, bool]) -> dict[str, Any]:
    """One cell, computed purely from its coordinates (parmap-safe)."""
    axis_index, regime_index, instance_seed, quick = task
    builder, params = catalogue(quick)[axis_index]
    regime = regimes(quick)[regime_index]
    case = builder(instance_seed, **params)
    return run_cell(case, instance_seed, regime)


def _cell_cache_key(
    quick: bool, seed: int, axis_index: int, regime_index: int
) -> str:
    """The cell's content address (coordinates, not list positions)."""
    from repro.cache.keys import cell_key

    builder, params = catalogue(quick)[axis_index]
    regime = regimes(quick)[regime_index]
    return cell_key(
        CELL_ENGINE_VERSION,
        {
            "builder": builder.__name__,
            "params": {key: params[key] for key in sorted(params)},
            "regime": regime.name,
            "kind": regime.kind,
            "rate_permille": regime.rate_permille,
            "runs": regime.runs,
            "seed": seed,
            "frame_payload": MATRIX_FRAME_PAYLOAD,
        },
    )


def run_sweep(
    quick: bool = True,
    seed: int = 0,
    workers: int | None = None,
) -> list[dict[str, Any]]:
    """The full matrix: every (model, family) × regime cell, judged.

    Cells already in the active cache are read back verbatim; the rest
    fan out through parmap and are written back on completion.  The
    returned list is byte-identical (as canonical JSON) at every worker
    count and on warm and cold caches alike.
    """
    from repro.cache.store import active_store

    coords = _cell_coordinates(quick, seed)
    store = active_store()
    cells: list[dict[str, Any] | None] = [None] * len(coords)
    pending: list[tuple[int, tuple[int, int, int, bool]]] = []
    keys: list[str | None] = [None] * len(coords)
    for position, (axis_index, regime_index, instance_seed) in enumerate(
        coords
    ):
        if store is not None:
            key = _cell_cache_key(quick, seed, axis_index, regime_index)
            keys[position] = key
            cached = store.get_cell(key)
            if cached is not None:
                cells[position] = cached
                continue
        pending.append(
            (position, (axis_index, regime_index, instance_seed, quick))
        )
    with trace.span(
        "matrix.sweep",
        cells=len(coords),
        cached=len(coords) - len(pending),
        quick=quick,
    ):
        fresh = parmap(_cell_task, [task for _, task in pending], workers=workers)
        for (position, _task), cell in zip(pending, fresh):
            cells[position] = cell
            if store is not None and keys[position] is not None:
                store.put_cell(keys[position], cell)
        for cell in cells:
            faulted = cell["measured"]["faulted"]
            attribution = {} if faulted is None else {
                "kind": cell["regime"]["kind"],
                "faults_injected": faulted["faults_injected"],
                "retries": faulted["retries"],
            }
            trace.event(
                "matrix.cell",
                model=cell["model"],
                family=cell["family"],
                regime=cell["regime"]["name"],
                verdict=cell["verdict"],
                **attribution,
            )
    return [cell for cell in cells if cell is not None]


def sweep_report(
    cells: list[dict[str, Any]], quick: bool = True, seed: int = 0
) -> dict[str, Any]:
    """The pinned schema-v1 JSON document for a sweep's cells."""
    counts = {"MATCH": 0, "WITHIN_BOUND": 0, "MISMATCH": 0}
    for cell in cells:
        counts[cell["verdict"]] += 1
    return {
        "schema": MATRIX_SCHEMA_VERSION,
        "quick": quick,
        "seed": seed,
        "cells": cells,
        "counts": counts,
        "models": sorted({cell["model"] for cell in cells}),
        "regimes": sorted({cell["regime"]["name"] for cell in cells}),
        "mismatches": counts["MISMATCH"],
        "ok": counts["MISMATCH"] == 0,
    }


def render_table(cells: list[dict[str, Any]]) -> Table:
    """Render sweep cells as the standard experiment table."""
    table = Table(
        [
            "model",
            "family",
            "params",
            "regime",
            "measured",
            "predicted",
            "verdict",
        ],
        title="scenario matrix: models x families x fault regimes",
    )
    for cell in cells:
        params = ",".join(
            f"{k}={v}" for k, v in sorted(cell["params"].items())
        )
        clean = cell["measured"]["clean"]
        faulted = cell["measured"]["faulted"]
        if clean is not None:
            measured = clean["total_bits"]
        else:
            measured = (
                f"{faulted['recovered']}/{faulted['runs']} recovered"
            )
        table.add_row(
            [
                cell["model"],
                cell["family"],
                params,
                cell["regime"]["name"],
                measured,
                cell["predicted"]["total_bits"],
                cell["verdict"],
            ]
        )
    return table
