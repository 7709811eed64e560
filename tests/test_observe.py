"""Tests for the observability layer (repro.observe).

Covers the tracer's enable/disable overhead paths, ring-buffer bounds,
counter/histogram aggregation, the Chrome trace export, the ``trace`` CLI
subcommand, and the non-perturbation guarantee: a traced run must produce
byte-identical final states (and identical simulated cycles) to an
untraced run.
"""

import json

import pytest

from repro import algorithms, observe, runtime
from repro.__main__ import main
from repro.graph import datasets
from repro.hardware import HardwareConfig
from repro.observe import (
    NULL_TRACER,
    Histogram,
    MetricRegistry,
    NullTracer,
    Tracer,
    flame_summary,
    to_chrome_trace,
    tracing,
)


class TestNullTracer:
    def test_disabled_and_inert(self):
        null = NullTracer()
        assert null.enabled is False
        # every API is a no-op; nothing raises, nothing is recorded
        null.span("a", 0.0, 10.0)
        null.instant("b", 5.0)
        null.counter("c", 1.0, {"x": 1.0})
        null.name_track(1, "core 0")
        assert list(null.events()) == []

    def test_default_process_tracer_is_null(self):
        assert observe.get_tracer() is NULL_TRACER

    def test_tracing_context_restores_previous(self):
        tracer = Tracer()
        with tracing(tracer) as active:
            assert active is tracer
            assert observe.get_tracer() is tracer
        assert observe.get_tracer() is NULL_TRACER


class TestTracer:
    def test_records_spans_instants_counters(self):
        tracer = Tracer()
        tracer.span("work", 10.0, 5.0, track=1, args={"vertex": 3})
        tracer.instant("steal", 12.0, track=2)
        tracer.counter("activity", 15.0, {"active": 7.0})
        phases = [event[0] for event in tracer.events()]
        assert phases == ["X", "i", "C"]
        assert len(tracer) == 3

    def test_negative_duration_clamped(self):
        tracer = Tracer()
        tracer.span("w", 10.0, -1.0)
        (_, _, _, _, dur, _, _), = tracer.events()
        assert dur == 0.0

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.instant(f"e{i}", float(i))
        assert len(tracer) == 4
        assert tracer.dropped == 6
        names = [event[1] for event in tracer.events()]
        assert names == ["e6", "e7", "e8", "e9"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestChromeExport:
    def _tracer(self):
        tracer = Tracer()
        tracer.name_track(0, "scheduler")
        tracer.name_track(1, "core 0")
        tracer.span("round", 0.0, 100.0, track=0, args={"round": 0})
        tracer.span("root", 5.0, 20.0, track=1)
        tracer.instant("steal", 30.0, track=1)
        tracer.counter("activity", 100.0, {"active": 4.0})
        return tracer

    def test_structure_and_json_roundtrip(self):
        trace = to_chrome_trace(self._tracer(), system="depgraph-h")
        parsed = json.loads(json.dumps(trace))
        events = parsed["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "i", "C"}
        complete = [e for e in events if e["ph"] == "X"]
        assert all({"name", "ts", "dur", "pid", "tid"} <= e.keys() for e in complete)
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"scheduler", "core 0"}
        assert parsed["otherData"]["system"] == "depgraph-h"
        assert parsed["otherData"]["droppedEvents"] == 0

    def test_flame_summary_aggregates(self):
        summary = flame_summary(self._tracer())
        assert "round" in summary and "root" in summary
        # the widest span dominates the share column
        assert summary.index("round") < summary.index("root")

    def test_flame_summary_empty(self):
        assert "no spans" in flame_summary(Tracer())


class TestMetricRegistry:
    def test_counter_aggregation(self):
        registry = MetricRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        registry.set("gauge", 7.5)
        assert registry.counter_value("hits") == 5.0
        flat = registry.as_dict()
        assert flat == {"hits": 5.0, "gauge": 7.5}

    def test_histogram_observation(self):
        registry = MetricRegistry()
        for value in (1, 2, 3, 100):
            registry.observe("round.active", value)
        hist = registry.histogram("round.active")
        assert hist.count == 4
        assert hist.min == 1 and hist.max == 100
        assert hist.mean == pytest.approx(26.5)
        flat = registry.as_dict(prefix="obs.")
        assert flat["obs.round.active.count"] == 4.0
        assert flat["obs.round.active.max"] == 100.0

    def test_histogram_pow2_buckets(self):
        hist = Histogram()
        for value in (0, 1, 2, 3, 4, 100):
            hist.record(value)
        buckets = hist.buckets()
        assert buckets[0] == 2  # 0 and 1
        assert buckets[1] == 1  # 2
        assert buckets[2] == 2  # 3 and 4
        assert buckets[7] == 1  # 100 <= 128

    def test_merge_into_extra_and_json(self, tmp_path):
        registry = MetricRegistry()
        registry.inc("cache.l1.hits", 10)
        extra = {}
        registry.merge_into(extra)
        assert extra == {"obs.cache.l1.hits": 10.0}
        path = tmp_path / "metrics.json"
        registry.write_json(path, system="test")
        payload = json.loads(path.read_text())
        assert payload["system"] == "test"
        assert payload["metrics"]["cache.l1.hits"] == 10.0


@pytest.fixture(scope="module")
def small_workload():
    graph = datasets.load("GL", scale=0.05)
    hardware = HardwareConfig.scaled(num_cores=8)
    return graph, hardware


class TestNonPerturbation:
    """Observability must not change what the simulator computes."""

    @pytest.mark.parametrize("system", ["depgraph-h", "ligra-o", "minnow"])
    def test_traced_run_identical_to_untraced(self, small_workload, system):
        graph, hardware = small_workload
        tracer = Tracer()
        traced = runtime.run(
            system, graph, algorithms.make("pagerank"), hardware, tracer=tracer
        )
        untraced = runtime.run(
            system, graph, algorithms.make("pagerank"), hardware
        )
        assert traced.states.tobytes() == untraced.states.tobytes()
        assert traced.cycles == untraced.cycles
        assert traced.total_updates == untraced.total_updates
        assert len(tracer) > 0

    @pytest.mark.parametrize("system", ["depgraph-h", "ligra-o", "minnow"])
    def test_traced_partition_run_identical_to_untraced(
        self, small_workload, system
    ):
        """The non-perturbation guarantee must hold under the
        partition-aware scheduler too: tracing a run that steals, charges
        hop penalties, and rebalances ownership cannot change it."""
        graph, hardware = small_workload
        tracer = Tracer()
        traced = runtime.run(
            system,
            graph,
            algorithms.make("sssp"),
            hardware,
            tracer=tracer,
            steal_policy="partition",
        )
        untraced = runtime.run(
            system,
            graph,
            algorithms.make("sssp"),
            hardware,
            steal_policy="partition",
        )
        assert traced.states.tobytes() == untraced.states.tobytes()
        assert traced.cycles == untraced.cycles
        assert traced.total_updates == untraced.total_updates
        assert len(tracer) > 0

    @pytest.mark.parametrize("system", ["depgraph-h", "ligra-o", "minnow"])
    @pytest.mark.parametrize("policy", ["random", "partition"])
    def test_sched_counters_deterministic(self, small_workload, system, policy):
        """Two runs of the same workload must report identical
        ``obs.sched.*`` counters — the scheduler has no hidden RNG."""
        graph, hardware = small_workload

        def sched_extras():
            result = runtime.run(
                system,
                graph,
                algorithms.make("sssp"),
                hardware,
                steal_policy=policy,
            )
            return {
                k: v for k, v in result.extra.items() if k.startswith("obs.sched.")
            }

        first = sched_extras()
        second = sched_extras()
        assert first == second
        # the counter family is always flushed, whichever policy ran
        assert first["obs.sched.steals_attempted"] >= 0
        assert first["obs.sched.partition_aware"] == (
            1.0 if policy == "partition" else 0.0
        )

    def test_untraced_run_still_reports_metrics(self, small_workload):
        graph, hardware = small_workload
        result = runtime.run(
            "depgraph-h", graph, algorithms.make("pagerank"), hardware
        )
        # cheap counters are flushed even without a tracer attached
        assert "obs.cache.l1.hits" in result.extra
        assert "obs.hub_index.lookups" in result.extra
        assert "obs.round.active_vertices.count" in result.extra
        # the traced-only extras (per-access sampling) stay absent
        assert "obs.noc.transactions" not in result.extra

    def test_traced_run_adds_sampled_metrics(self, small_workload):
        graph, hardware = small_workload
        result = runtime.run(
            "depgraph-h",
            graph,
            algorithms.make("pagerank"),
            hardware,
            tracer=Tracer(),
        )
        assert "obs.noc.transactions" in result.extra
        assert "obs.engine.fetch_latency.count" in result.extra


class TestTraceCLI:
    def test_trace_subcommand_writes_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "trace",
                "pagerank",
                "GL",
                "--scale",
                "0.05",
                "--cores",
                "4",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        # the default steal policy is "auto"; non-random policies are
        # recorded in the artifact stem
        trace_path = tmp_path / "depgraph-h_pagerank_GL_auto.trace.json"
        metrics_path = tmp_path / "depgraph-h_pagerank_GL_auto.metrics.json"
        assert trace_path.exists() and metrics_path.exists()
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"], "trace must contain events"
        assert {"X", "M"} <= {e["ph"] for e in trace["traceEvents"]}
        metrics = json.loads(metrics_path.read_text())
        assert metrics["metrics"]["cache.l1.hits"] > 0
        assert metrics["converged"] is True
        out = capsys.readouterr().out
        assert "where the cycles went" in out
        assert "round" in out

    def test_trace_subcommand_file_sink(self, tmp_path, capsys):
        code = main(
            [
                "trace",
                "sssp",
                "AZ",
                "--scale",
                "0.05",
                "--cores",
                "4",
                "--sink",
                "file",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        events_path = tmp_path / "depgraph-h_sssp_AZ_auto.events.jsonl"
        trace_path = tmp_path / "depgraph-h_sssp_AZ_auto.trace.json"
        assert events_path.exists() and trace_path.exists()
        lines = events_path.read_text().strip().splitlines()
        trace = json.loads(trace_path.read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] in ("X", "i", "C")]
        # the export was built from the sinked events, one line each
        assert len(lines) == len(spans)
        out = capsys.readouterr().out
        assert "none dropped" in out


class TestFileSink:
    def sample_events(self, tracer):
        tracer.span("work", 10.0, 5.0, track=1, args={"vertex": 3})
        tracer.instant("steal", 12.0, track=2)
        tracer.counter("activity", 15.0, {"active": 7.0})

    def test_streams_and_replays_events(self, tmp_path):
        from repro.observe import FileSink

        with FileSink(tmp_path / "ev.jsonl") as sink:
            tracer = Tracer(sink=sink)
            self.sample_events(tracer)
            events = list(tracer.events())
        assert [e[0] for e in events] == ["X", "i", "C"]
        assert events[0][1] == "work" and events[0][6] == {"vertex": 3}
        assert len(tracer) == 3 and sink.count == 3

    def test_never_drops_past_ring_capacity(self, tmp_path):
        from repro.observe import FileSink

        sink = FileSink(tmp_path / "ev.jsonl")
        tracer = Tracer(capacity=4, sink=sink)
        for i in range(10):
            tracer.instant(f"e{i}", float(i))
        # the ring would have kept only the last 4; the sink keeps all 10
        # including the start of the run, and reports nothing dropped
        assert tracer.dropped == 0
        names = [event[1] for event in tracer.events()]
        assert names == [f"e{i}" for i in range(10)]
        sink.close()

    def test_export_works_from_sink(self, tmp_path):
        from repro.observe import FileSink

        with FileSink(tmp_path / "ev.jsonl") as sink:
            tracer = Tracer(sink=sink)
            tracer.name_track(1, "core 0")
            self.sample_events(tracer)
            trace = to_chrome_trace(tracer)
            assert {"X", "i", "C"} <= {e["ph"] for e in trace["traceEvents"]}
            assert "dropped" not in trace.get("metadata", {}) or not trace[
                "metadata"
            ].get("dropped")


class TestPerfGateArtifacts:
    """``gate.py fig11`` fails on a broken fig11 artifact even where no
    baseline covers the run."""

    def test_empty_table_and_unbaselined_run_without_counters_fail(
        self, gate, tmp_path, capsys
    ):
        metrics = tmp_path / "fig11.metrics.json"
        runs = {"not-baselined": {"counters": {"obs.sim.cycles": 1.0}}}
        metrics.write_text(json.dumps({"scale": 0.05, "cores": 8, "runs": runs}))
        (tmp_path / "fig11.txt").write_text("")
        assert gate.main(["fig11", "--metrics", str(metrics)]) == 1
        out = capsys.readouterr().out
        assert "fig11.txt is missing or empty" in out
        assert (
            "not-baselined: counters lack obs.sched.steals_attempted, "
            "obs.cache.llc.hit_rate" in out
        )

    def test_complete_artifact_adds_no_failure(self, gate, tmp_path):
        table = tmp_path / "fig11.txt"
        table.write_text("table\n")
        runs = {"run": {"counters": {gate.STEALS: 0.0, gate.LLC: 0.5}}}
        assert gate._fig11_artifacts(runs, table) == []
