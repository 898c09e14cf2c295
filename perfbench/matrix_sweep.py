"""Workload ``matrix_sweep``: batch scenario-matrix sweeps, no serving.

Each job is ``repro.matrix.run_sweep(quick=False)`` for one seed of a
fixed seed list, at ``workers = nproc`` with the persistent store
disabled.  It exercises the agent/channel/ARQ stack, the cost predictions
every clean cell is judged against, and the parmap process pool; it does
no deep search and touches no cache.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time

from common import percentile, percentile_or_zero, share

#: Cells one full sweep produced when this benchmark was written, and the
#: digest of its (family, model, regime) set.  A catalogue change shows up
#: as a printed note, not as a silent change of the inputs' meaning.
EXPECTED_CELLS = 96
EXPECTED_DIGEST = "0409526cfe2b7b0a"

def sweep_seeds(seed: int):
    """The job seeds of a run: a fixed sequence per run seed."""
    index = 0
    while True:
        yield seed * 1000 + index
        index += 1


def workers() -> int:
    return os.cpu_count() or 1


def catalogue_digest(cells) -> str:
    triples = sorted({
        (cell["family"], cell["model"], cell["regime"]["name"])
        for cell in cells
    })
    return hashlib.blake2b(repr(triples).encode(), digest_size=8).hexdigest()


def setup(scratch: str) -> None:
    """Import the sweep and run one quick sweep (catalogue, pool start)."""
    from repro import cache
    from repro.matrix import run_sweep

    with cache.disabled():
        run_sweep(quick=True, seed=0, workers=workers())


def _jobs(seed: int, seconds: float, min_jobs: int = 3):
    """Run sweep jobs until ``seconds`` have passed and at least
    ``min_jobs`` have run; returns ``(cells_per_job, job_seconds)``."""
    from repro import cache
    from repro.matrix import run_sweep

    seeds = sweep_seeds(seed)
    results, job_s = [], []
    start = time.perf_counter()
    with cache.disabled():
        while len(job_s) < min_jobs or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            cells = run_sweep(quick=False, seed=next(seeds), workers=workers())
            job_s.append(time.perf_counter() - t0)
            results.append(cells)
    return results, job_s


def _check(results) -> tuple[int, int, list[str]]:
    """``(attempted, wrong, notes)``: MISMATCH cells are wrong answers."""
    attempted = sum(len(cells) for cells in results)
    wrong = sum(
        cell["verdict"] == "MISMATCH" for cells in results for cell in cells
    )
    notes = []
    digest = catalogue_digest(results[0])
    if len(results[0]) != EXPECTED_CELLS or digest != EXPECTED_DIGEST:
        notes.append(
            f"matrix_sweep: catalogue is {len(results[0])} cells per sweep, "
            f"digest {digest} (pinned: {EXPECTED_CELLS}, {EXPECTED_DIGEST})"
        )
    return attempted, wrong, notes


def measure(seed: int, seconds: float, scratch: str) -> dict:
    """Untraced jobs for ``seconds``; end-to-end values."""
    setup(scratch)
    results, job_s = _jobs(seed, seconds)
    attempted, wrong, notes = _check(results)
    # The median job's rate: this host's speed drifts over seconds, and a
    # median over many short jobs follows the typical stretch.
    cells_per_s = statistics.median(
        len(cells) / secs for cells, secs in zip(results, job_s))
    job_ms = [s * 1000.0 for s in job_s]
    return {
        "attempted": attempted,
        "failed": 0,
        "wrong": wrong,
        "notes": notes,
        "values": {
            "latency_p50_ms": percentile(job_ms, 50),
            "latency_p99_ms": percentile(job_ms, 99),
            "latency_p99_ms_peak": percentile(job_ms, 99),
            "throughput": cells_per_s,
        },
    }


LAYER_JOBS = 4


def layer_pass(seed: int, seconds: float, traced: bool, scratch: str) -> dict:
    """A fixed number of jobs, traced into per-process files or untraced."""
    from repro import obs

    setup(scratch)
    obs.reset()
    if not traced:
        t0 = time.perf_counter()
        results, _job_s = _jobs(seed, 0.0, min_jobs=LAYER_JOBS)
        work_s = time.perf_counter() - t0
        attempted, wrong, notes = _check(results)
        return {"attempted": attempted, "failed": 0, "wrong": wrong,
                "notes": notes, "work_s": work_s, "dropped": 0}

    from repro import trace

    trace_dir = os.path.join(scratch, "trace")
    with trace.directory(trace_dir, capacity=4_000_000, label="bench") as tracer:
        t0 = time.perf_counter()
        results, _job_s = _jobs(seed, 0.0, min_jobs=LAYER_JOBS)
        work_s = time.perf_counter() - t0
        cell_ms = _timed_cells(seed)
    attempted, wrong, notes = _check(results)
    parent_events = tracer.events()
    layers, dropped = sweep_layers(parent_events, tracer.dropped, trace_dir,
                                   os.getpid(), results)
    layers.update(cell_ms)
    return {"attempted": attempted, "failed": 0, "wrong": wrong,
            "notes": notes, "work_s": work_s, "dropped": dropped,
            "layers": layers}


def _timed_cells(seed: int) -> dict:
    """``run_cell`` over one sweep's cells, serially, timed per regime kind."""
    from repro.matrix import regimes, run_cell
    from repro.matrix.scenarios import catalogue
    from repro.util.rng import derive_seed

    clean, faulted = [], []
    for builder, params in catalogue(False):
        instance_seed = derive_seed(
            seed, "matrix", builder.__name__, *sorted(params.items())
        )
        case = builder(instance_seed, **params)
        for regime in regimes(False):
            t0 = time.perf_counter_ns()
            run_cell(case, instance_seed, regime)
            elapsed = (time.perf_counter_ns() - t0) / 1e6
            (clean if regime.kind is None else faulted).append(elapsed)
    return {
        "matrix.cell_ms.clean.p50": percentile_or_zero(clean, 50),
        "matrix.cell_ms.faulted.p50": percentile_or_zero(faulted, 50),
    }


def sweep_layers(parent_events, parent_dropped, trace_dir, parent_pid,
                 results):
    """Per-layer metrics from the parent ring plus every worker's file."""
    from layers import closed_spans, comm_layers, ring_drops, worker_events
    from repro.trace import load_jsonl

    worker_lists = []
    dropped = parent_dropped
    for name in sorted(os.listdir(trace_dir)):
        if not name.endswith(".jsonl") or name.endswith(f"-{parent_pid}.jsonl"):
            continue
        events = load_jsonl(os.path.join(trace_dir, name))
        dropped += ring_drops(events)
        worker_lists.append(worker_events(events))
    worker_all = [e for events in worker_lists for e in events]
    parent_spans = closed_spans(parent_events)
    worker_spans = [s for events in worker_lists for s in closed_spans(events)]
    shards = [s for s in worker_spans if s.name == "parmap.shard"]
    pools = [s for s in parent_spans if s.name == "parmap"
             and s.fields.get("workers", 1) > 1]
    pool_capacity = sum(s.duration_ns * s.fields["workers"] for s in pools)
    counters: dict = {}
    for shard in shards:
        for name, value in shard.end_fields.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    layers = comm_layers(worker_spans, worker_all, counters)
    payload = wire = 0
    for cells in results:
        for cell in cells:
            clean = cell["measured"]["clean"]
            if clean is not None:
                payload += clean["total_bits"]
                wire += clean["arq_wire_bits"]
    layers["transport.payload_share"] = share(payload, wire)
    layers["parmap.shards"] = len(shards)
    layers["parmap.busy_share"] = share(
        sum(s.duration_ns for s in shards), pool_capacity
    )
    return layers, dropped
