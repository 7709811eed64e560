"""Tests for the streaming-ingest driver (repro.serve.stream) and gate.

Covers the seeded edge-event generator (validity by construction,
bit-determinism), window-boundary property tests (an event with a
timestamp exactly on a window edge lands in exactly one snapshot;
windowed net-effect deltas reconstruct the same CSR as sequential
per-event application and as a one-shot batch rebuild), same-seed
bit-determinism of ``obs.stream.*`` counters and snapshot version
chains, warm-vs-cold standing-query state match, compaction cadence,
the ``stream`` CLI, and the ``gate.py stream`` gate
including its one-line missing-file/missing-section errors and the
``GITHUB_STEP_SUMMARY`` tables.
"""

import json
import random

import pytest

from repro.__main__ import EXPERIMENT_MODULES, main
from repro.experiments.stream_ingest import level_label, match_states
from repro.graph import datasets
from repro.graph.stream import (
    EVENT_KINDS,
    EdgeEvent,
    LiveEdgeSet,
    generate_edge_events,
)
from repro.serve import (
    GraphDelta,
    GraphStore,
    StreamConfig,
    StreamRun,
    chain_digest,
    fold_events,
    iter_windows,
    run_stream,
)
from repro.serve.stream import STREAM_COUNTER_FAMILY
from repro.serve.traffic import QuerySpec

def stream_graph(weighted=True):
    return datasets.load("AZ", scale=0.05, weighted=weighted)


def fast_config(**overrides):
    """A stream config small enough for unit tests: cheap min-type
    standing queries, a short stream, eager compaction."""
    defaults = dict(
        scale=0.05,
        events=12,
        window=4.0,
        queries=(QuerySpec("sssp", (("source", 0),)), QuerySpec("wcc")),
        compact_every=2,
        keep_last=2,
    )
    defaults.update(overrides)
    return StreamConfig(**defaults)


# ----------------------------------------------------------------------
# Event generator.
# ----------------------------------------------------------------------
class TestEventGenerator:
    def test_same_seed_bit_identical(self):
        graph = stream_graph()
        a = generate_edge_events(graph, 40, seed=3)
        b = generate_edge_events(graph, 40, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        graph = stream_graph()
        assert generate_edge_events(graph, 40, seed=0) != generate_edge_events(
            graph, 40, seed=1
        )

    def test_events_valid_by_construction(self):
        graph = stream_graph()
        events = generate_edge_events(graph, 60, seed=5)
        assert len(events) == 60
        live = LiveEdgeSet(graph)
        last = 0.0
        for event in events:
            assert event.kind in EVENT_KINDS
            assert event.timestamp > last
            last = event.timestamp
            assert event.source != event.target
            live.apply(event)  # raises on any invalid add/remove/reweight

    def test_unweighted_graph_never_reweights(self):
        graph = stream_graph(weighted=False)
        events = generate_edge_events(
            graph, 60, seed=2, mix=(0.2, 0.2, 0.6)
        )
        assert all(event.kind != "reweight" for event in events)

    def test_rejects_bad_arguments(self):
        graph = stream_graph()
        with pytest.raises(ValueError):
            generate_edge_events(graph, -1)
        with pytest.raises(ValueError):
            generate_edge_events(graph, 4, mean_gap_cycles=0.0)
        with pytest.raises(ValueError):
            generate_edge_events(graph, 4, mix=(0.0, 0.0, 0.0))


# ----------------------------------------------------------------------
# Window semantics.
# ----------------------------------------------------------------------
def synthetic_events(timestamps):
    """Adds of distinct edges at the given instants (semantics-neutral)."""
    return tuple(
        EdgeEvent(t, "add", 0, i + 1, 1.0) for i, t in enumerate(timestamps)
    )


class TestWindowing:
    def test_count_windows_chunk_and_flush_partial(self):
        events = synthetic_events([10, 20, 30, 40, 50])
        windows = list(iter_windows(events, "count", 2))
        assert [len(chunk) for _, chunk in windows] == [2, 2, 1]
        # count windows publish at their last event's timestamp
        assert [at for at, _ in windows] == [20, 40, 50]

    def test_interval_boundary_event_in_exactly_one_window(self):
        # 100 sits exactly on the first window edge: half-open [0, 100)
        # puts it in the *second* window, and only there
        events = synthetic_events([40, 100, 150, 300])
        windows = list(iter_windows(events, "interval", 100.0))
        assert [at for at, _ in windows] == [100.0, 200.0, 400.0]
        flattened = [event for _, chunk in windows for event in chunk]
        assert flattened == list(events)  # every event exactly once
        assert events[1] in dict(windows)[200.0]
        assert events[1] not in dict(windows)[100.0]

    def test_interval_skips_empty_windows(self):
        events = synthetic_events([50, 950])
        windows = list(iter_windows(events, "interval", 100.0))
        assert [at for at, _ in windows] == [100.0, 1000.0]

    def test_every_event_lands_in_exactly_one_window(self):
        rng = random.Random("windows")
        for cadence, window in (
            ("count", 3),
            ("count", 7),
            ("interval", 50.0),
            ("interval", 173.0),
        ):
            stamps, t = [], 0.0
            for _ in range(40):
                # mix exact multiples of the window edge with random gaps
                t += rng.choice([window, window / 2, rng.uniform(1, 90)])
                stamps.append(t)
            events = synthetic_events(stamps)
            windows = list(iter_windows(events, cadence, float(window)))
            flattened = [event for _, chunk in windows for event in chunk]
            assert flattened == list(events), (cadence, window)
            publishes = [at for at, _ in windows]
            assert publishes == sorted(publishes)
            # every window closes at or after its last member
            for at, chunk in windows:
                assert all(event.timestamp <= at for event in chunk)

    def test_rejects_bad_cadence_and_window(self):
        events = synthetic_events([1.0])
        with pytest.raises(ValueError):
            list(iter_windows(events, "hourly", 4.0))
        with pytest.raises(ValueError):
            list(iter_windows(events, "count", 0))
        with pytest.raises(ValueError):
            list(iter_windows(events, "interval", -1.0))


# ----------------------------------------------------------------------
# Net-effect folding: windowed == sequential == one-shot.
# ----------------------------------------------------------------------
def sequential_replay(graph, events):
    """Each event as its own delta — the reference semantics."""
    store = GraphStore(graph)
    weighted = graph.is_weighted
    for event in events:
        if event.kind == "add":
            delta = GraphDelta(
                add_edges=(event.edge,),
                add_weights=(event.weight,) if weighted else None,
            )
        elif event.kind == "remove":
            delta = GraphDelta(remove_edges=(event.edge,))
        else:
            delta = GraphDelta(
                reweight=((event.source, event.target, event.weight),)
            )
        store.apply(delta)
    return store.get(store.latest_version).graph


def windowed_replay(graph, events, cadence, window):
    store = GraphStore(graph)
    live = LiveEdgeSet(graph)
    for _, chunk in iter_windows(events, cadence, window):
        store.apply(fold_events(chunk, live, graph.is_weighted))
    return store.get(store.latest_version).graph


class TestFoldEvents:
    @pytest.mark.parametrize("weighted", [True, False])
    def test_windowed_replay_matches_sequential_and_one_shot(self, weighted):
        graph = stream_graph(weighted=weighted)
        # churn-heavy mix maximises same-edge add/remove/reweight overlap
        events = generate_edge_events(
            graph, 80, seed=7, mix=(0.4, 0.3, 0.3)
        )
        reference = sequential_replay(graph, events)
        for cadence, window in (
            ("count", 5.0),
            ("count", 80.0),  # one-shot batch rebuild: a single window
            ("interval", 120_000.0),
        ):
            rebuilt = windowed_replay(graph, events, cadence, window)
            assert rebuilt == reference, (cadence, window)

    def test_remove_then_add_within_one_window(self):
        graph = stream_graph()
        live = LiveEdgeSet(graph)
        edge = live.sample(random.Random(0))
        events = (
            EdgeEvent(1.0, "remove", edge[0], edge[1]),
            EdgeEvent(2.0, "add", edge[0], edge[1], 7.5),
        )
        delta = fold_events(events, LiveEdgeSet(graph), True)
        # nets to a reweight of the surviving edge — never the same edge
        # in both add_edges and remove_edges
        assert delta.add_edges == ()
        assert delta.remove_edges == ()
        assert delta.reweight == ((edge[0], edge[1], 7.5),)

    def test_add_then_remove_nets_to_nothing(self):
        graph = stream_graph()
        events = (
            EdgeEvent(1.0, "add", 0, 1, 2.0),
            EdgeEvent(2.0, "remove", 0, 1),
        )
        live = LiveEdgeSet(graph)
        if (0, 1) in live:
            live.remove((0, 1))
        delta = fold_events(events, live, True)
        assert delta.is_empty


# ----------------------------------------------------------------------
# The driver.
# ----------------------------------------------------------------------
class TestStreamRun:
    def test_same_seed_counters_and_chain_bit_identical(self):
        config = fast_config()
        a = run_stream(config)
        b = run_stream(config)
        assert a.counters == b.counters
        assert a.chain_sha == b.chain_sha
        assert a.staleness == b.staleness

    def test_counter_family_zero_seeded_and_accounted(self):
        config = fast_config()
        stats = run_stream(config)
        for name in STREAM_COUNTER_FAMILY:
            assert f"obs.{name}" in stats.counters, name
        counters = stats.counters
        assert counters["obs.stream.events_ingested"] == config.events
        assert counters["obs.stream.snapshots_published"] == stats.snapshots
        assert counters["obs.stream.standing_refreshes"] == stats.snapshots * len(
            config.queries
        )
        kinds = sum(
            counters[f"obs.stream.events_{kind}"] for kind in EVENT_KINDS
        )
        assert kinds == config.events
        assert counters["obs.stream.staleness_cycles.count"] == len(
            stats.staleness
        )

    def test_staleness_positive_and_quantiles_ordered(self):
        stats = run_stream(fast_config())
        assert stats.staleness
        assert all(sample > 0 for sample in stats.staleness)
        assert stats.staleness_quantile(0.50) <= stats.staleness_quantile(0.95)

    def test_compaction_prunes_but_standing_queries_stay_warm(self):
        config = fast_config(events=16, compact_every=1, keep_last=1)
        run = StreamRun(config)
        stats = run.run()
        assert stats.compactions > 0
        assert run.service.store.first_version > 0
        # lineage baselines sit one publication back, inside keep_last=1,
        # so the warm path survives compaction (refreshes only fall back
        # cold for soundness — e.g. removals under min-type accumulators)
        later = [r for r in stats.refreshes if r.version > 1]
        assert later and any(r.warm for r in later)

    def test_warm_matches_cold_control_states(self):
        config = fast_config()
        warm = run_stream(config, warm=True)
        cold = run_stream(config, warm=False)
        ok, compared = match_states(warm, cold)
        assert ok
        assert compared == len(warm.refreshes)
        assert warm.engine_updates < cold.engine_updates
        assert warm.warm_share > 0.0
        assert cold.warm_share == 0.0

    def test_chain_digest_is_order_sensitive(self):
        delta = GraphDelta(add_edges=((0, 1),), add_weights=(1.0,))
        other = GraphDelta(remove_edges=((0, 1),))
        assert chain_digest([(1, delta)]) != chain_digest([(1, other)])
        assert chain_digest([(1, delta), (2, other)]) != chain_digest(
            [(2, other), (1, delta)]
        )

    def test_cluster_mode_runs_and_is_deterministic(self):
        config = fast_config(workers=2, transport="inline", events=8)
        a = run_stream(config)
        b = run_stream(config)
        assert a.snapshots > 0
        assert a.refreshes and all(r.summary is not None for r in a.refreshes)
        assert a.counters == b.counters
        assert a.chain_sha == b.chain_sha

    def test_interval_cadence_end_to_end(self):
        stats = run_stream(fast_config(cadence="interval", window=150_000.0))
        assert stats.snapshots > 0
        assert stats.events == 12


# ----------------------------------------------------------------------
# CLI + experiment registry.
# ----------------------------------------------------------------------
class TestStreamCLI:
    def test_stream_command_prints_summary(self, capsys):
        assert (
            main(
                [
                    "stream",
                    "--scale", "0.05",
                    "--events", "8",
                    "--window", "4",
                    "--queries", "sssp,wcc",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "snapshots" in out
        assert "staleness" in out
        assert "chain" in out

    def test_experiment_registry_has_stream(self):
        assert EXPERIMENT_MODULES["stream"] == "stream_ingest"


# ----------------------------------------------------------------------
# The gate.py stream section.
# ----------------------------------------------------------------------
def synthetic_stream_metrics(
    tmp_path, rate=25.0, staleness=700_000.0, chain="abc123", **flags
):
    label = level_label("count", 8.0)
    payload = {
        "config": {
            "dataset": "AZ",
            "scale": 0.05,
            "seed": 0,
            "system": "depgraph-h",
            "cores": 4,
            "backend": "scalar",
            "reorder": "identity",
            "cadence": "count",
            "events": 12,
            "mean_gap_cycles": 25_000.0,
            "event_mix": [0.7, 0.15, 0.15],
            "queries": ["sssp(source=0)", "wcc()"],
            "compact_every": 2,
            "keep_last": 2,
            "queue_limit": 64,
            "cache_capacity": 32,
            "workers": 0,
            "cadence_levels": [["count", 8.0]],
        },
        "levels": {
            label: {
                "updates_per_mcycle": rate,
                "staleness_p95_cycles": staleness,
            }
        },
        "gate_level": label,
        "states_match": flags.get("states_match", True),
        "deterministic_replay": flags.get("deterministic_replay", True),
        "chain_sha": chain,
    }
    path = tmp_path / "stream_ingest.metrics.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestCheckSloStream:
    def test_update_then_check_round_trip(self, gate, tmp_path, capsys):
        metrics = synthetic_stream_metrics(tmp_path)
        baselines = tmp_path / "baselines.json"
        argv = [
            "stream",
            "--metrics", str(metrics),
            "--baselines", str(baselines),
        ]
        assert gate.main(["--update"] + argv) == 0
        assert gate.main(argv) == 0
        payload = json.loads(baselines.read_text(encoding="utf-8"))
        assert "count@8" in payload["stream"]["levels"]
        assert payload["stream"]["chain_sha"] == "abc123"

    def test_update_preserves_foreign_sections(self, gate, tmp_path):
        baselines = tmp_path / "baselines.json"
        baselines.write_text(json.dumps({"runs": {"keep": 1}}))
        metrics = synthetic_stream_metrics(tmp_path)
        gate.main(
            ["stream", "--update",
             "--metrics", str(metrics), "--baselines", str(baselines)]
        )
        payload = json.loads(baselines.read_text(encoding="utf-8"))
        assert payload["runs"] == {"keep": 1}
        assert "stream" in payload

    def test_detects_regressions(self, gate, tmp_path, capsys):
        baselines = tmp_path / "baselines.json"
        good = synthetic_stream_metrics(tmp_path)
        base_argv = ["stream", "--baselines", str(baselines)]
        assert gate.main(
            base_argv + ["--update", "--metrics", str(good)]
        ) == 0
        capsys.readouterr()

        slow = synthetic_stream_metrics(tmp_path, rate=10.0)
        assert gate.main(base_argv + ["--metrics", str(slow)]) == 1
        assert "sustained ingest" in capsys.readouterr().out

        stale = synthetic_stream_metrics(tmp_path, staleness=2_000_000.0)
        assert gate.main(base_argv + ["--metrics", str(stale)]) == 1
        assert "p95 staleness" in capsys.readouterr().out

        drifted = synthetic_stream_metrics(tmp_path, chain="ffff00")
        assert gate.main(base_argv + ["--metrics", str(drifted)]) == 1
        assert "chain digest" in capsys.readouterr().out

        mismatch = synthetic_stream_metrics(tmp_path, states_match=False)
        assert gate.main(base_argv + ["--metrics", str(mismatch)]) == 1
        assert "cold control" in capsys.readouterr().out

        replay = synthetic_stream_metrics(
            tmp_path, deterministic_replay=False
        )
        assert gate.main(base_argv + ["--metrics", str(replay)]) == 1
        assert "replay diverged" in capsys.readouterr().out

    def test_missing_metrics_file_is_one_line(self, gate, tmp_path, capsys):
        rc = gate.main(
            ["stream",
             "--metrics", str(tmp_path / "nope.json"),
             "--baselines", str(tmp_path / "baselines.json")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL:")
        assert "not found" in out

    def test_missing_section_key_in_metrics_is_one_line(
        self, gate, tmp_path, capsys
    ):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"workers": {}}), encoding="utf-8")
        rc = gate.main(
            ["stream", "--metrics", str(wrong),
             "--baselines", str(tmp_path / "baselines.json")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "no 'levels' key" in out
        assert "Traceback" not in out

    def test_missing_baseline_section_is_one_line(self, gate, tmp_path, capsys):
        metrics = synthetic_stream_metrics(tmp_path)
        baselines = tmp_path / "baselines.json"
        baselines.write_text(json.dumps({"runs": {}}), encoding="utf-8")
        rc = gate.main(
            ["stream", "--metrics", str(metrics),
             "--baselines", str(baselines)]
        )
        assert rc == 1
        assert "no 'stream' section" in capsys.readouterr().out

    def test_missing_section_errors_for_other_sections(
        self, gate, tmp_path, capsys
    ):
        # the bugfix covers every section, not just stream
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"levels": {}}), encoding="utf-8")
        rc = gate.main(
            ["cluster", "--metrics", str(wrong),
             "--baselines", str(tmp_path / "baselines.json")]
        )
        assert rc == 1
        assert "no 'workers' key" in capsys.readouterr().out


class TestStepSummary:
    def test_gate_writes_step_summary_tables(
        self, gate, tmp_path, capsys, monkeypatch
    ):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        metrics = synthetic_stream_metrics(tmp_path)
        baselines = tmp_path / "baselines.json"
        argv = ["stream", "--baselines", str(baselines)]
        gate.main(argv + ["--update", "--metrics", str(metrics)])
        assert gate.main(argv + ["--metrics", str(metrics)]) == 0
        bad = synthetic_stream_metrics(tmp_path, rate=1.0)
        assert gate.main(argv + ["--metrics", str(bad)]) == 1
        text = summary.read_text(encoding="utf-8")
        assert "### SLO gate (stream)" in text
        assert ":white_check_mark: PASS" in text
        assert ":x: FAIL" in text
        assert "| status | detail |" in text

    def test_no_op_without_environment(self, gate, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        assert gate.write_step_summary("gate", []) is False
        target = tmp_path / "explicit.md"
        assert gate.write_step_summary(
            "gate", ["pipe | in | detail"], path=str(target)
        )
        text = target.read_text(encoding="utf-8")
        assert "\\|" in text
