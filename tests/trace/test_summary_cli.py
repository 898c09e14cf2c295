"""Trace summaries and the ``repro trace`` CLI, against the issue's bars.

Two acceptance criteria live here: a traced E15 exact-search run must
attribute at least 95% of its wall time to named spans, and the JSON
export schema is pinned — field-for-field — so downstream consumers can
rely on it (bump :data:`repro.trace.SCHEMA_VERSION` to change it).
"""

import json

import pytest

from repro import trace
from repro.cli import main
from repro.comm.agents import run_protocol
from repro.matrix.scenarios import SCENARIOS

#: Every key a schema-v1 event carries — no more, no less.
SCHEMA_V1_EVENT_KEYS = {
    "seq", "tick_ns", "kind", "name", "span", "parent", "fields",
}


def _quick_e15_suite():
    """The quick E15 D(f) suite: EQ6, GT6 and a seeded random 6x6."""
    import numpy as np

    from repro.comm.truth_matrix import TruthMatrix
    from repro.util.rng import ReproducibleRNG

    def tm_from(array):
        a = np.array(array, dtype=np.uint8)
        return TruthMatrix(a, tuple(range(a.shape[0])), tuple(range(a.shape[1])))

    rng = ReproducibleRNG(1515)
    return [
        ("EQ6", tm_from(np.eye(6, dtype=np.uint8))),
        ("GT6", tm_from([[1 if i > j else 0 for j in range(6)] for i in range(6)])),
        ("RAND6", tm_from([rng.bit_vector(6) for _ in range(6)])),
    ]


def _traced_e15_search():
    """A traced run of the quick E15 D(f) suite (fresh search, no memo)."""
    from repro.comm.exhaustive import (
        clear_search_cache,
        communication_complexity,
    )

    suite = _quick_e15_suite()
    clear_search_cache()
    with trace.capture() as tracer:
        values = {
            name: communication_complexity(tm, engine="bitset")
            for name, tm in suite
        }
    return tracer, values


class TestSummaryBars:
    def test_e15_run_attributes_95_percent_of_wall_time(self):
        tracer, values = _traced_e15_search()
        summary = trace.summarize(tracer.events(), tracer.dropped)
        assert summary["coverage"] >= 0.95, summary["coverage"]
        span_stats = summary["spans"]["exhaustive.communication_complexity"]
        assert span_stats["calls"] == len(values) == 3
        assert span_stats["total_ns"] > 0

    def test_summary_counts_events_and_spans_per_name(self):
        case = SCENARIOS["equality"](0)
        with trace.capture() as tracer:
            run_protocol(
                case.protocol.agent0, case.protocol.agent1,
                case.input0, case.input1,
            )
        summary = trace.summarize(tracer.events(), tracer.dropped)
        assert summary["schema"] == trace.SCHEMA_VERSION
        assert summary["spans"]["protocol.run"]["calls"] == 1
        assert summary["event_counts"]["run.report"] == 1
        assert summary["event_counts"]["wire.send"] >= 1
        assert summary["dropped"] == 0

    def test_dropped_count_is_surfaced(self):
        tracer = trace.Tracer(capacity=2)
        for _ in range(5):
            tracer.event("tick")
        summary = trace.summarize(tracer.events(), tracer.dropped)
        assert summary["dropped"] == 3

    def test_faulted_cells_fold_into_fault_attribution(self):
        with trace.capture() as tracer:
            trace.event(
                "matrix.cell", model="deterministic", family="equality",
                regime="clean", verdict="MATCH",
            )
            trace.event(
                "matrix.cell", model="deterministic", family="equality",
                regime="flip@20", verdict="WITHIN_BOUND",
                kind="flip", faults_injected=7, retries=10,
            )
            trace.event(
                "matrix.cell", model="deterministic", family="trivial",
                regime="erase@20", verdict="WITHIN_BOUND",
                kind="erase", faults_injected=2, retries=3,
            )
            trace.event(
                "matrix.cell", model="deterministic", family="trivial",
                regime="flip@20", verdict="WITHIN_BOUND",
                kind="flip", faults_injected=1, retries=0,
            )
        summary = trace.summarize(tracer.events())
        assert summary["faults_by_kind"] == {
            "erase": {"injected": 2, "retries": 3},
            "flip": {"injected": 8, "retries": 10},
        }
        rendered = trace.render_summary(summary)
        assert "fault kind" in rendered and "flip" in rendered

    def test_matrix_sweep_reports_its_fault_attribution(self):
        from repro.matrix import run_sweep

        with trace.capture() as tracer:
            cells = run_sweep(quick=True)
        summary = trace.summarize(tracer.events())
        for kind in ("flip", "erase"):
            faulted = [
                c["measured"]["faulted"]
                for c in cells
                if c["regime"]["kind"] == kind
            ]
            assert summary["faults_by_kind"][kind] == {
                "injected": sum(m["faults_injected"] for m in faulted),
                "retries": sum(m["retries"] for m in faulted),
            }

    def test_render_summary_is_humane(self):
        tracer, _ = _traced_e15_search()
        rendered = trace.render_summary(
            trace.summarize(tracer.events(), tracer.dropped)
        )
        assert "attributed to top-level spans" in rendered
        assert "exhaustive.communication_complexity" in rendered


@pytest.fixture()
def trace_file(tmp_path):
    """One flushed trace file holding a verified protocol run."""
    case = SCENARIOS["trivial"](0)
    with trace.capture() as tracer:
        run_protocol(
            case.protocol.agent0, case.protocol.agent1,
            case.input0, case.input1,
        )
    return tracer.flush(tmp_path / "run.jsonl")


class TestCli:
    def test_export_json_schema_is_pinned(self, trace_file, capsys):
        assert main(
            ["trace", "export", "--file", str(trace_file), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"schema", "events"}
        assert payload["schema"] == 1 == trace.SCHEMA_VERSION
        assert payload["events"], "export must carry the events"
        for event in payload["events"]:
            assert set(event) == SCHEMA_V1_EVENT_KEYS
            assert event["kind"] in trace.EVENT_KINDS
            assert isinstance(event["fields"], dict)

    def test_export_jsonl_is_the_canonical_passthrough(
        self, trace_file, capsys
    ):
        assert main(
            ["trace", "export", "--file", str(trace_file), "--format", "jsonl"]
        ) == 0
        out = capsys.readouterr().out
        assert out == trace_file.read_text()

    def test_summary_reads_a_directory(self, trace_file, capsys):
        assert main(
            ["trace", "summary", "--dir", str(trace_file.parent)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out and "protocol.run" in out

    def test_replay_verifies_and_exits_zero(self, trace_file, capsys):
        assert main(["trace", "replay", "--file", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "1/1 runs verified bit-for-bit" in out

    def test_replay_of_a_tampered_trace_exits_nonzero(
        self, trace_file, capsys
    ):
        tampered = []
        for line in trace_file.read_text().splitlines():
            raw = json.loads(line)
            if raw["kind"] == "event" and raw["name"] == "wire.send":
                payload = raw["fields"]["payload"]
                raw["fields"]["payload"] = (
                    "1" if payload[0] == "0" else "0"
                ) + payload[1:]
            tampered.append(json.dumps(raw))
        trace_file.write_text("\n".join(tampered) + "\n")
        assert main(["trace", "replay", "--file", str(trace_file)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_no_trace_files_is_a_usage_error(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.delenv(trace.ENV_VAR, raising=False)
        assert main(["trace", "summary", "--dir", str(tmp_path)]) == 2
        assert "no trace files" in capsys.readouterr().err

    def test_bad_format_for_action_is_rejected(self, trace_file, capsys):
        assert main(
            ["trace", "summary", "--file", str(trace_file),
             "--format", "jsonl"]
        ) == 2
        assert "not valid" in capsys.readouterr().err
