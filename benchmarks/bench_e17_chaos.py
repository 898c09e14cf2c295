"""E17 — chaos curves: what reliability costs when the channel misbehaves.

Two measured curves over the fault-injecting channel (docs/fault_model.md),
each point a set of scenario-matrix faulted cells
(:func:`repro.matrix.run_cell` under an explicit
:class:`~repro.matrix.FaultRegime`):

* **E17a** overhead bits vs fault rate, for the equality and fingerprint
  protocols under independent bit flips: at rate 0 the ARQ tax is a fixed
  bounded framing cost; as the rate rises, retransmissions drive the
  overhead up while answers stay exact.
* **E17b** success probability vs retry budget at a fixed fault rate: more
  budget buys recovery, and exhausted budgets fail loudly (structured
  transport failures), never silently.

A point aggregates ``INSTANCES`` seeded instances, each a cell of
``runs`` fault draws, so both instance and fault randomness vary.  Both
tables are also emitted as JSON (one object per point) so the curves can
be replotted without re-running the sweep.  The invariant the whole
experiment leans on: zero silent corruptions anywhere.
"""

import json

import pytest

from benchmarks.conftest import emit
from repro.comm.transport import ArqConfig
from repro.matrix import FaultRegime, run_cell
from repro.matrix.scenarios import SCENARIOS
from repro.util.fmt import Table
from repro.util.rng import derive_seed

RATES_PERMILLE = (0, 5, 10, 20)
BUDGETS = (0, 2, 8, 16)
INSTANCES = 5


def curve_point(name, permille, runs, config=None):
    """Sum ``INSTANCES`` faulted flip cells of one scenario into a point."""
    regime = FaultRegime(f"flip@{permille}", "flip", permille, runs)
    point = {
        "protocol": name,
        "rate_permille": permille,
        "runs": 0,
        "recovered": 0,
        "loud_failures": 0,
        "silent_wrong": 0,
        "faults_injected": 0,
        "retries": 0,
        "overhead_bits": 0,
    }
    for i in range(INSTANCES):
        seed = derive_seed(17, name, i)
        cell = run_cell(SCENARIOS[name](seed), seed, regime, config)
        faulted = cell["measured"]["faulted"]
        for key in ("runs", "recovered", "loud_failures", "silent_wrong",
                    "faults_injected", "retries"):
            point[key] += faulted[key]
        # Reliability tax of the recovered runs: wire bits beyond payload.
        payload = cell["predicted"]["total_bits"]
        point["overhead_bits"] += (
            faulted["wire_bits_total"] - faulted["recovered"] * payload
        )
    recovered = point["recovered"]
    point["recovery_rate"] = recovered / point["runs"]
    point["mean_retries"] = point["retries"] / point["runs"]
    point["mean_overhead_bits"] = (
        point["overhead_bits"] / recovered if recovered else 0.0
    )
    return point


def overhead_vs_fault_rate():
    table = Table(
        ["protocol", "rate_permille", "runs", "recovered", "silent_wrong",
         "loud_failures", "mean_retries", "mean_overhead_bits"],
        title="E17a: overhead bits vs fault rate (bit flips)",
    )
    points = []
    for name in ("equality", "fingerprint"):
        for permille in RATES_PERMILLE:
            point = curve_point(name, permille, runs=3)
            points.append(point)
            table.add_row(
                [
                    name,
                    permille,
                    point["runs"],
                    point["recovered"],
                    point["silent_wrong"],
                    point["loud_failures"],
                    f"{point['mean_retries']:.2f}",
                    f"{point['mean_overhead_bits']:.1f}",
                ]
            )
    return table, points


def success_vs_retry_budget():
    table = Table(
        ["protocol", "max_retries", "runs", "recovered", "silent_wrong",
         "recovery_rate", "mean_overhead_bits"],
        title="E17b: success probability vs retry budget (flip rate 20‰)",
    )
    curve = []
    for budget in BUDGETS:
        point = curve_point(
            "equality", 20, runs=4, config=ArqConfig(max_retries=budget)
        )
        curve.append((budget, point))
        table.add_row(
            [
                point["protocol"],
                budget,
                point["runs"],
                point["recovered"],
                point["silent_wrong"],
                f"{point['recovery_rate']:.2f}",
                f"{point['mean_overhead_bits']:.1f}",
            ]
        )
    return table, curve


@pytest.mark.benchmark(group="e17")
def test_e17_overhead_vs_fault_rate(benchmark):
    table, points = benchmark(overhead_vs_fault_rate)
    emit(table)
    print(json.dumps(points))
    assert sum(p["silent_wrong"] for p in points) == 0
    for name in ("equality", "fingerprint"):
        curve = [p for p in points if p["protocol"] == name]
        clean = curve[0]
        assert clean["rate_permille"] == 0
        # rate 0: every run recovers exactly, paying only the framing tax.
        assert clean["recovered"] == clean["runs"]
        assert clean["mean_retries"] == 0.0
        assert 0 < clean["mean_overhead_bits"] < 1000
        # faults make reliability strictly more expensive per delivered run.
        assert curve[-1]["mean_overhead_bits"] > clean["mean_overhead_bits"]
        assert curve[-1]["faults_injected"] > 0


@pytest.mark.benchmark(group="e17")
def test_e17_success_vs_retry_budget(benchmark):
    table, curve = benchmark(success_vs_retry_budget)
    emit(table)
    print(json.dumps([{"max_retries": b, **p} for b, p in curve]))
    assert all(p["silent_wrong"] == 0 for _, p in curve)
    rates = [p["recovery_rate"] for _, p in curve]
    # budget buys recovery: the curve ends high and above its start.
    assert rates[-1] >= rates[0]
    assert rates[-1] >= 0.7
    # every non-recovered run failed loudly with a structured outcome.
    for _, point in curve:
        assert point["recovered"] + point["loud_failures"] == point["runs"]
