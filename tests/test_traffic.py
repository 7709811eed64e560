"""Tests for the traffic harness (repro.serve.traffic) and its SLO gate.

Covers the Zipf catalog, property tests for ``Batcher`` single-flight
coalescing and ``ResultCache`` LRU eviction under randomized request
streams (checked against reference models), the scalar-vs-vector serve
differential, bit-determinism of same-seed traffic runs (counters and
latency histograms), admission-control edge cases (queue-full
shed-newest ordering, the exact deadline-boundary cycle, zero-capacity
queues and caches), and the sweep artifacts + ``gate.py traffic`` gate.
"""

import json
import random
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.graph import datasets
from repro.serve import (
    Batcher,
    GraphService,
    QueryKey,
    ResultCache,
    ServeConfig,
    TrafficConfig,
    TrafficRun,
    ZipfChooser,
    default_catalog,
    run_level,
)
from repro.serve.traffic import run_sweep, write_artifacts

REPO_ROOT = Path(__file__).resolve().parents[1]

#: warm-vs-cold / scalar-vs-vector agreement bound for sum-type
#: accumulators (the cross-schedule spread; see docs/SERVING.md)
SUM_TOL = 1e-3


def bench_graph():
    return datasets.load("AZ", scale=0.1)


def fast_config(**overrides):
    """A harness config small enough for unit tests: cheap min/max
    queries only (no pagerank), short think times, frequent mutations."""
    defaults = dict(
        scale=0.05,
        algorithms=("sssp", "bfs"),
        requests_per_level=8,
        think_cycles=30_000.0,
        mutation_every_cycles=150_000.0,
        levels=(1.0, 2.0),
    )
    defaults.update(overrides)
    return TrafficConfig(**defaults)


def key(i, version=0):
    return QueryKey("algo", (("p", i),), version)


class TestZipfChooser:
    def test_probabilities_sum_to_one_and_decrease(self):
        zipf = ZipfChooser(8, 1.1)
        probs = [zipf.probability(rank) for rank in range(8)]
        assert sum(probs) == pytest.approx(1.0)
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_zero_exponent_is_uniform(self):
        zipf = ZipfChooser(5, 0.0)
        for rank in range(5):
            assert zipf.probability(rank) == pytest.approx(0.2)

    def test_picks_in_range_and_skewed_to_head(self):
        zipf = ZipfChooser(6, 1.1)
        rng = random.Random(7)
        draws = [zipf.pick(rng) for _ in range(2000)]
        assert all(0 <= d < 6 for d in draws)
        counts = [draws.count(rank) for rank in range(6)]
        assert counts[0] == max(counts)  # rank 0 is the most popular

    def test_picks_deterministic_under_one_seed(self):
        zipf = ZipfChooser(6, 1.1)
        a = [zipf.pick(random.Random(3)) for _ in range(1)]
        b = [zipf.pick(random.Random(3)) for _ in range(1)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfChooser(0, 1.0)
        with pytest.raises(ValueError):
            ZipfChooser(4, -0.5)


class TestDefaultCatalog:
    def test_rank_order_preserved_for_known_algorithms(self):
        catalog = default_catalog(("sssp", "bfs"))
        assert [spec.algorithm for spec in catalog] == [
            "sssp", "sssp", "bfs", "sssp", "bfs",
        ]

    def test_unranked_algorithm_appended_with_default_params(self):
        catalog = default_catalog(("sssp", "kcore"))
        assert catalog[-1].algorithm == "kcore"
        assert catalog[-1].params == ()

    def test_duplicates_collapse(self):
        assert default_catalog(("wcc", "wcc")) == default_catalog(("wcc",))

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            default_catalog(())


class TestBatcherProperties:
    """Single-flight coalescing vs a reference model, under a randomized
    add/pop stream: FIFO by first arrival, group integrity, exact
    pending/group accounting."""

    def test_randomized_stream_matches_model(self):
        rng = random.Random(1234)
        batcher = Batcher()
        model = OrderedDict()  # key -> list of requests, FIFO by first add
        next_token = 0
        for _ in range(600):
            if rng.random() < 0.65 or not model:
                k = key(rng.randrange(6), rng.randrange(3))
                token = next_token
                next_token += 1
                size = batcher.add(k, token)
                model.setdefault(k, []).append(token)
                assert size == len(model[k])
            else:
                popped = batcher.next_batch()
                want_key = next(iter(model))
                want_group = model.pop(want_key)
                assert popped == (want_key, want_group)
            assert len(batcher) == sum(len(g) for g in model.values())
            assert batcher.groups == len(model)
        while model:
            want_key = next(iter(model))
            assert batcher.next_batch() == (want_key, model.pop(want_key))
        assert batcher.next_batch() is None
        assert len(batcher) == 0 and batcher.groups == 0

    def test_coalescing_returns_every_request_exactly_once(self):
        rng = random.Random(5)
        batcher = Batcher()
        tokens = list(range(200))
        for token in tokens:
            batcher.add(key(rng.randrange(4)), token)
        seen = []
        while True:
            batch = batcher.next_batch()
            if batch is None:
                break
            seen.extend(batch[1])
        assert sorted(seen) == tokens  # nothing lost, nothing duplicated


class TestResultCacheProperties:
    """Bounded-LRU invariants vs an OrderedDict reference model under a
    randomized get/put stream: capacity never exceeded, eviction order
    is exactly least-recently-*used*, hit/miss/eviction counts exact."""

    def test_randomized_stream_matches_lru_model(self):
        rng = random.Random(99)
        capacity = 8
        cache = ResultCache(capacity)
        model = OrderedDict()
        hits = misses = evictions = 0
        for step in range(1200):
            k = key(rng.randrange(24))
            if rng.random() < 0.5:
                got = cache.get(k)
                if k in model:
                    model.move_to_end(k)
                    hits += 1
                    assert got == model[k]
                else:
                    misses += 1
                    assert got is None
            else:
                cache.put(k, step)
                if k in model:
                    model.move_to_end(k)
                model[k] = step
                while len(model) > capacity:
                    model.popitem(last=False)
                    evictions += 1
            assert len(cache) == len(model) <= capacity
            assert (cache.hits, cache.misses, cache.evictions) == (
                hits, misses, evictions,
            )
        for k in model:  # survivors agree exactly
            assert k in cache
        assert cache.hit_rate == pytest.approx(hits / (hits + misses))

    def test_zero_capacity_never_stores(self):
        cache = ResultCache(0)
        for i in range(10):
            cache.put(key(i), i)
            assert cache.get(key(i)) is None
        assert len(cache) == 0 and cache.evictions == 0
        assert cache.misses == 10

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1)

    def test_invalidate_before_drops_old_versions_only(self):
        cache = ResultCache(16)
        for version in range(6):
            cache.put(key(0, version), version)
        assert cache.invalidate_before(3) == 3
        for version in range(6):
            assert (key(0, version) in cache) == (version >= 3)


class TestBackendDifferential:
    """The serve path must agree across execution backends: bit-identical
    states for min/max accumulators, <= 1e-3 for sum-type."""

    @staticmethod
    def run_once(backend, algorithm, params):
        service = GraphService(
            bench_graph(), ServeConfig(cores=4, backend=backend)
        )
        service.submit(algorithm, dict(params))
        (response,) = service.drain()
        assert response.ok and response.run is not None
        return response.run.result.states

    def test_minmax_states_bit_identical(self):
        scalar = self.run_once("scalar", "sssp", {"source": 0})
        vector = self.run_once("vector", "sssp", {"source": 0})
        assert np.array_equal(scalar, vector)

    def test_sum_type_states_within_tolerance(self):
        scalar = self.run_once("scalar", "pagerank", {})
        vector = self.run_once("vector", "pagerank", {})
        assert float(np.max(np.abs(scalar - vector))) <= SUM_TOL

    def test_backend_flows_through_serve_config(self):
        service = GraphService(
            bench_graph(), ServeConfig(cores=4, backend="vector")
        )
        service.submit("sssp", {"source": 0})
        (response,) = service.drain()
        assert response.run.result.extra["obs.backend.vector"] == 1.0


class TestTrafficDeterminism:
    def test_closed_loop_same_seed_bit_identical(self):
        config = fast_config()
        first = run_level(config, 2.0)
        second = run_level(config, 2.0)
        assert first.counters == second.counters
        assert first.latencies == second.latencies
        assert first.counters.keys() == second.counters.keys()

    def test_open_loop_same_seed_bit_identical(self):
        config = fast_config(mode="open")
        first = run_level(config, 20.0)
        second = run_level(config, 20.0)
        assert first.counters == second.counters
        assert first.latencies == second.latencies

    def test_latency_histogram_reported_in_counters(self):
        stats = run_level(fast_config(), 2.0)
        for suffix in ("count", "sum", "mean", "min", "max"):
            assert f"obs.traffic.latency_cycles.{suffix}" in stats.counters
        assert stats.counters["obs.traffic.latency_cycles.count"] == float(
            stats.ok
        )

    def test_traffic_counter_family_zero_seeded(self):
        # a run with mutations disabled still reports the whole family
        stats = run_level(fast_config(mutation_every_cycles=0.0), 1.0)
        for name in ("arrivals", "mutations", "completed", "ok", "shed"):
            assert f"obs.traffic.{name}" in stats.counters
        assert stats.counters["obs.traffic.mutations"] == 0.0

    def test_warm_and_cold_control_share_event_streams(self):
        config = fast_config()
        warm = TrafficRun(config, 2.0, warm=True)
        cold = TrafficRun(config, 2.0, warm=False)
        # same Zipf draws, think times, and mutation schedule: the cold
        # column isolates caching + warm-start, not workload luck
        assert [warm.spec_rng.random() for _ in range(8)] == [
            cold.spec_rng.random() for _ in range(8)
        ]
        assert warm.time_rng.random() == cold.time_rng.random()
        assert warm.mut_rng.random() == cold.mut_rng.random()

    def test_distinct_seeds_diverge(self):
        base = run_level(fast_config(), 2.0)
        other = run_level(fast_config(seed=1), 2.0)
        assert base.latencies != other.latencies


class TestAdmissionEdges:
    @staticmethod
    def make_service(**overrides):
        config = ServeConfig(
            cores=4,
            queue_limit=overrides.pop("queue_limit", 8),
            cache_capacity=overrides.pop("cache_capacity", 16),
            **overrides,
        )
        return GraphService(bench_graph(), config)

    def test_queue_full_sheds_newest_and_keeps_fifo_order(self):
        service = self.make_service(queue_limit=2)
        first = service.submit("sssp", {"source": 0})
        second = service.submit("bfs", {"source": 0})
        shed = service.submit("wcc")
        assert isinstance(first, int) and isinstance(second, int)
        assert shed.status == "shed-queue" and shed.request_id > second
        responses = service.drain()
        # the two admitted requests are untouched and answer in FIFO order
        assert [r.request_id for r in responses] == [first, second]
        assert all(r.ok for r in responses)

    def test_deadline_boundary_cycle_is_not_shed(self):
        # shedding is strict: waited > deadline, so waiting *exactly* the
        # deadline still gets served
        service = self.make_service()
        service.submit("sssp", {"source": 0}, deadline_cycles=1_000.0)
        service.advance_clock(1_000.0)
        (response,) = service.drain()
        assert response.ok
        assert service.metrics_snapshot()["obs.serve.shed_deadline"] == 0.0

    def test_one_cycle_past_deadline_is_shed(self):
        service = self.make_service()
        service.submit("sssp", {"source": 0}, deadline_cycles=1_000.0)
        service.advance_clock(1_000.5)
        (response,) = service.drain()
        assert response.status == "shed-deadline"
        assert service.metrics_snapshot()["obs.serve.shed_deadline"] == 1.0

    def test_zero_capacity_queue_sheds_everything(self):
        service = self.make_service(queue_limit=0)
        for _ in range(3):
            response = service.submit("sssp", {"source": 0})
            assert response.status == "shed-queue"
        snapshot = service.metrics_snapshot()
        assert snapshot["obs.serve.shed_queue"] == 3.0
        assert snapshot["obs.serve.admitted"] == 0.0

    def test_zero_capacity_cache_runs_engine_every_time(self):
        service = self.make_service(cache_capacity=0)
        for _ in range(2):
            service.submit("sssp", {"source": 0})
            service.drain()
        assert service.engine.runs == 2
        assert service.metrics_snapshot()["obs.serve.cache_hits"] == 0.0

    def test_advance_clock_never_rewinds(self):
        service = self.make_service()
        service.advance_clock(500.0)
        service.advance_clock(100.0)
        assert service.now_cycles == 500.0


class TestHarnessBehaviour:
    def test_closed_loop_reaches_target_terminals(self):
        config = fast_config()
        stats = run_level(config, 2.0)
        assert stats.completed >= config.requests_per_level
        assert stats.ok + stats.shed == stats.completed
        assert stats.arrivals >= stats.completed
        assert stats.mutations >= 1  # the background process actually ran

    def test_open_loop_offers_exactly_count_arrivals(self):
        config = fast_config(mode="open", mutation_every_cycles=0.0)
        stats = run_level(config, 25.0)
        assert stats.arrivals == config.requests_per_level
        assert stats.completed == stats.arrivals  # stream fully drained

    def test_bad_levels_rejected(self):
        with pytest.raises(ValueError):
            run_level(fast_config(), 0.0)
        with pytest.raises(ValueError):
            run_level(fast_config(mode="open"), 0.0)
        with pytest.raises(ValueError):
            run_level(fast_config(mode="oscillating"), 1.0)


def synthetic_metrics(tmp_path, p95=95_000.0, mean=50_000.0, shed=0.0,
                      cold_p95=90_000.0, cold_mean=200_000.0):
    config = TrafficConfig()
    payload = {
        "config": config.gate_config(),
        "levels": {
            "closed@1": {
                "offered_load": 1.0,
                "counters": {
                    "obs.traffic.latency_p95_cycles": p95,
                    "obs.traffic.latency_cycles.mean": mean,
                    "obs.traffic.shed_rate": shed,
                },
                "cold": {
                    "p95_cycles": cold_p95,
                    "shed_rate": 0.0,
                    "counters": {
                        "obs.traffic.latency_cycles.mean": cold_mean
                    },
                },
            }
        },
    }
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestCheckSLOGate:
    def test_update_then_check_round_trip(self, gate, tmp_path, capsys):
        metrics = synthetic_metrics(tmp_path)
        baselines = tmp_path / "baselines.json"
        argv = ["traffic", "--metrics", str(metrics), "--baselines", str(baselines)]
        assert gate.main(["--update"] + argv) == 0
        assert gate.main(argv) == 0
        payload = json.loads(baselines.read_text(encoding="utf-8"))
        assert "closed@1" in payload["traffic"]["levels"]

    def test_update_preserves_foreign_sections(self, gate, tmp_path):
        baselines = tmp_path / "baselines.json"
        baselines.write_text(json.dumps({"runs": {"keep": 1}}))
        metrics = synthetic_metrics(tmp_path)
        gate.main(
            ["traffic", "--update", "--metrics", str(metrics),
             "--baselines", str(baselines)]
        )
        payload = json.loads(baselines.read_text(encoding="utf-8"))
        assert payload["runs"] == {"keep": 1}  # a foreign section survives
        assert "traffic" in payload

    def test_p95_regression_fails(self, gate, tmp_path, capsys):
        baselines = tmp_path / "baselines.json"
        good = synthetic_metrics(tmp_path)
        gate.main(
            ["traffic", "--update", "--metrics", str(good), "--baselines", str(baselines)]
        )
        slow = synthetic_metrics(
            tmp_path, p95=95_000.0 * 1.26 + 5_001.0, cold_p95=10**9
        )
        assert gate.main(
            ["traffic", "--metrics", str(slow), "--baselines", str(baselines)]
        ) == 1
        assert "p95 latency" in capsys.readouterr().out

    def test_shed_rate_regression_fails(self, gate, tmp_path, capsys):
        baselines = tmp_path / "baselines.json"
        good = synthetic_metrics(tmp_path)
        gate.main(
            ["traffic", "--update", "--metrics", str(good), "--baselines", str(baselines)]
        )
        shedding = synthetic_metrics(tmp_path, shed=0.06)
        assert gate.main(
            ["traffic", "--metrics", str(shedding), "--baselines", str(baselines)]
        ) == 1
        assert "shed rate" in capsys.readouterr().out

    def test_warm_losing_to_cold_control_fails(self, gate, tmp_path, capsys):
        baselines = tmp_path / "baselines.json"
        good = synthetic_metrics(tmp_path)
        gate.main(
            ["traffic", "--update", "--metrics", str(good), "--baselines", str(baselines)]
        )
        # mean not below the control: caching + warm-start stopped helping
        lazy = synthetic_metrics(tmp_path, mean=200_000.0)
        assert gate.main(
            ["traffic", "--metrics", str(lazy), "--baselines", str(baselines)]
        ) == 1
        assert "not below cold control" in capsys.readouterr().out
        # p95 more than 10% past the control fails too
        tail = synthetic_metrics(tmp_path, p95=90_000.0 * 1.11)
        assert gate.main(
            ["traffic", "--metrics", str(tail), "--baselines", str(baselines)]
        ) == 1

    def test_config_mismatch_fails(self, gate, tmp_path, capsys):
        baselines = tmp_path / "baselines.json"
        good = synthetic_metrics(tmp_path)
        gate.main(
            ["traffic", "--update", "--metrics", str(good), "--baselines", str(baselines)]
        )
        payload = json.loads(good.read_text(encoding="utf-8"))
        payload["config"]["seed"] = 42
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(payload), encoding="utf-8")
        assert gate.main(
            ["traffic", "--metrics", str(drifted), "--baselines", str(baselines)]
        ) == 1
        out = capsys.readouterr().out
        assert "seed" in out and "42" in out

    def test_missing_level_fails(self, gate, tmp_path, capsys):
        baselines = tmp_path / "baselines.json"
        good = synthetic_metrics(tmp_path)
        gate.main(
            ["traffic", "--update", "--metrics", str(good), "--baselines", str(baselines)]
        )
        payload = json.loads(good.read_text(encoding="utf-8"))
        payload["levels"]["closed@2"] = payload["levels"].pop("closed@1")
        renamed = tmp_path / "renamed.json"
        renamed.write_text(json.dumps(payload), encoding="utf-8")
        assert gate.main(
            ["traffic", "--metrics", str(renamed), "--baselines", str(baselines)]
        ) == 1
        assert "missing from the sweep" in capsys.readouterr().out

    def test_committed_baselines_pass_against_committed_artifact(self, gate):
        metrics = REPO_ROOT / "results" / "traffic_slo.metrics.json"
        baselines = REPO_ROOT / "benchmarks" / "baselines.json"
        assert gate.main(
            ["traffic", "--metrics", str(metrics), "--baselines", str(baselines)]
        ) == 0


class TestSweepArtifacts:
    def test_sweep_writes_parsable_artifacts(self, tmp_path):
        config = fast_config(
            levels=(1.0, 2.0),
            requests_per_level=5,
            out_dir=str(tmp_path),
        )
        sweep = run_sweep(config)
        table_path, metrics_path = write_artifacts(sweep)
        assert table_path.exists() and metrics_path.exists()
        rendered = table_path.read_text(encoding="utf-8")
        assert "traffic_slo" in rendered and "cold_p95_kcyc" in rendered
        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert payload["config"]["levels"] == [1.0, 2.0]
        assert set(payload["levels"]) == {"closed@1", "closed@2"}
        for level in payload["levels"].values():
            assert "obs.traffic.latency_p95_cycles" in level["counters"]
            assert "p95_cycles" in level["cold"]

    def test_no_cold_control_omits_cold_column(self, tmp_path):
        config = fast_config(
            levels=(1.0,),
            requests_per_level=4,
            cold_control=False,
            out_dir=str(tmp_path),
        )
        sweep = run_sweep(config)
        _, metrics_path = write_artifacts(sweep)
        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert "cold" not in payload["levels"]["closed@1"]


class TestTrafficCLI:
    def test_traffic_subcommand_writes_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "traffic",
                "--scale", "0.05",
                "--levels", "1,2",
                "--requests", "4",
                "--algorithms", "sssp,bfs",
                "--think-cycles", "30000",
                "--no-cold-control",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "traffic_slo" in out
        payload = json.loads(
            (tmp_path / "traffic_slo.metrics.json").read_text(encoding="utf-8")
        )
        assert payload["config"]["scale"] == 0.05
        assert payload["config"]["algorithms"] == ["sssp", "bfs"]

    def test_open_mode_via_cli(self, tmp_path, capsys):
        code = main(
            [
                "traffic",
                "--scale", "0.05",
                "--mode", "open",
                "--levels", "10",
                "--requests", "5",
                "--algorithms", "sssp",
                "--mutation-every", "0",
                "--no-cold-control",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads(
            (tmp_path / "traffic_slo.metrics.json").read_text(encoding="utf-8")
        )
        assert set(payload["levels"]) == {"open@10"}
