"""Tests for the serving subsystem (repro.serve).

Covers the version store's snapshot isolation, the warm-start soundness
rules (sum-type residual seeding vs the min/max monotone-only regime and
its cold fallbacks), batching/caching behaviour (cache hits answered with
zero engine runs), admission control and deadline shedding, the
determinism of ``obs.serve.*`` counters, and the ``serve-bench`` CLI
subcommand with its artifacts.
"""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.hardware import HardwareConfig
from repro.runtime.scheduling import SchedulingPolicy, resolve_auto_policy
from repro.serve import (
    Batcher,
    GraphDelta,
    GraphStore,
    GraphService,
    QueryEngine,
    QueryKey,
    ResultCache,
    ServeConfig,
    canonical_params,
)
from repro.serve.warmstart import (
    FALLBACK_NO_BASELINE,
    FALLBACK_REANCHOR,
    FALLBACK_REMOVAL,
    FALLBACK_UNSUPPORTED,
    FALLBACK_UNTRANSFORMABLE,
)

#: warm-vs-cold agreement bound for sum-type accumulators: 2x the
#: cross-schedule spread, because warm and cold runs truncate their
#: epsilon-fixpoints independently (see docs/SERVING.md)
SUM_TOL = 2e-3


def small_graph():
    edges = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3), (3, 1)]
    return CSRGraph.from_edges(4, edges, weights=[1.0] * len(edges))


def bench_graph():
    return datasets.load("AZ", scale=0.1)


def make_engine(store, **kw):
    kw.setdefault("hardware", HardwareConfig.scaled(num_cores=4))
    return QueryEngine(store, **kw)


class TestGraphDelta:
    def test_normalises_and_describes(self):
        delta = GraphDelta(
            add_edges=[(0, 1)], remove_edges=[(2, 3)],
            reweight=[(1, 2, 5.0)], add_vertices=2,
        )
        assert delta.add_edges == ((0, 1),)
        assert delta.touched_sources() == {0, 1, 2}
        assert delta.changed_pairs() == {(0, 1), (1, 2)}
        assert delta.num_changes == 5
        assert delta.has_removals
        assert delta.describe() == "+2v,+1e,-1e,~1w"
        assert GraphDelta().is_empty

    def test_misaligned_weights_rejected(self):
        with pytest.raises(ValueError):
            GraphDelta(add_edges=[(0, 1), (1, 2)], add_weights=(1.0,))

    def test_negative_vertices_rejected(self):
        with pytest.raises(ValueError):
            GraphDelta(add_vertices=-1)


class TestGraphStore:
    def test_append_only_chain(self):
        store = GraphStore(small_graph())
        assert store.latest_version == 0
        v1 = store.apply(GraphDelta(add_edges=[(3, 0)], add_weights=(1.0,)))
        v2 = store.apply(GraphDelta(remove_edges=[(0, 1)]))
        assert (v1.version, v2.version) == (1, 2)
        assert v2.parent == 1
        assert len(store) == 3
        assert [d.describe() for d in store.chain(0, 2)] == ["+1e", "-1e"]

    def test_snapshot_isolation(self):
        store = GraphStore(small_graph())
        before = store.get(0)
        edges0 = before.graph.num_edges
        store.apply(GraphDelta(add_edges=[(3, 0)], add_weights=(1.0,)))
        # the held snapshot is untouched by the update
        assert store.get(0).graph.num_edges == edges0
        assert store.get(0) is before
        assert store.latest.graph.num_edges == edges0 + 1

    def test_unknown_version_rejected(self):
        store = GraphStore(small_graph())
        with pytest.raises(KeyError):
            store.get(5)
        with pytest.raises(ValueError):
            store.chain(2, 1)

    def test_save_load_round_trip(self, tmp_path):
        store = GraphStore(small_graph())
        store.apply(
            GraphDelta(
                add_edges=[(3, 0)], add_weights=(2.5,), add_vertices=1
            )
        )
        store.apply(GraphDelta(remove_edges=[(0, 1)], reweight=[(1, 2, 9.0)]))
        store.save(tmp_path / "store")
        restored = GraphStore.load(tmp_path / "store")
        assert len(restored) == len(store)
        assert restored.latest_version == store.latest_version
        for v in range(len(store)):
            original, loaded = store.get(v), restored.get(v)
            assert loaded.parent == original.parent
            assert np.array_equal(loaded.graph.offsets, original.graph.offsets)
            assert np.array_equal(loaded.graph.targets, original.graph.targets)
            assert np.array_equal(loaded.graph.weights, original.graph.weights)
        # the restored chain serves warm-start planning like the original
        assert [d.describe() for d in restored.chain(0, 2)] == [
            d.describe() for d in store.chain(0, 2)
        ]

    def test_save_load_base_only_and_bad_format(self, tmp_path):
        store = GraphStore(small_graph())
        store.save(tmp_path / "s")
        restored = GraphStore.load(tmp_path / "s")
        assert len(restored) == 1
        assert restored.latest.graph.num_edges == small_graph().num_edges
        manifest = tmp_path / "s" / "manifest.json"
        manifest.write_text(json.dumps({"format": 99, "deltas": []}))
        with pytest.raises(ValueError):
            GraphStore.load(tmp_path / "s")

    def test_save_is_resumable(self, tmp_path):
        # save, restart, keep applying updates, save again over the same dir
        store = GraphStore(small_graph())
        store.apply(GraphDelta(add_edges=[(3, 0)], add_weights=(1.0,)))
        store.save(tmp_path / "s")
        resumed = GraphStore.load(tmp_path / "s")
        resumed.apply(GraphDelta(remove_edges=[(3, 0)]))
        resumed.save(tmp_path / "s")
        final = GraphStore.load(tmp_path / "s")
        assert len(final) == 3
        assert final.latest.graph.num_edges == small_graph().num_edges


class TestBatcherAndCache:
    def key(self, algo, version=0):
        return QueryKey(algo, canonical_params(None), version)

    def test_batcher_coalesces_identical_keys_fifo(self):
        batcher = Batcher()
        a, b = self.key("pagerank"), self.key("sssp")
        batcher.add(a, "r0")
        batcher.add(b, "r1")
        assert batcher.add(a, "r2") == 2
        assert len(batcher) == 3
        key, group = batcher.next_batch()
        assert key == a and group == ["r0", "r2"]
        key, group = batcher.next_batch()
        assert key == b and group == ["r1"]
        assert batcher.next_batch() is None

    def test_cache_lru_eviction_and_counts(self):
        cache = ResultCache(capacity=2)
        k = [self.key("a"), self.key("b"), self.key("c")]
        cache.put(k[0], "A")
        cache.put(k[1], "B")
        assert cache.get(k[0]) == "A"  # refresh: a is now most-recent
        cache.put(k[2], "C")  # evicts b
        assert cache.get(k[1]) is None
        assert cache.get(k[0]) == "A"
        assert cache.hits == 2 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_cache_invalidate_before_version(self):
        cache = ResultCache(capacity=8)
        old, new = self.key("a", version=1), self.key("a", version=3)
        cache.put(old, "OLD")
        cache.put(new, "NEW")
        cache.invalidate_before(3)
        assert old not in cache and new in cache

    def test_canonical_params_order_insensitive(self):
        assert canonical_params({"a": 1, "b": 2}) == canonical_params(
            {"b": 2, "a": 1}
        )


class TestWarmStart:
    """Warm-start soundness per accumulator kind (the acceptance gates)."""

    def test_sum_type_warm_fewer_updates_states_close(self):
        store = GraphStore(bench_graph())
        engine = make_engine(store)
        engine.execute("pagerank")  # establish the baseline at v0
        store.apply(GraphDelta(add_edges=[(5, 9), (9, 3)], add_weights=(1.0, 1.0)))
        warm = engine.execute("pagerank")
        cold = make_engine(GraphStore(store.latest.graph)).execute("pagerank")
        assert warm.warm and warm.seeded > 0
        assert warm.updates < cold.updates
        diff = np.max(np.abs(np.asarray(warm.result.states) - np.asarray(cold.result.states)))
        assert diff < SUM_TOL

    def test_sum_type_warm_after_removal_via_signed_residuals(self):
        graph = bench_graph()
        store = GraphStore(graph)
        engine = make_engine(store)
        engine.execute("pagerank")
        target = int(graph.targets[0])
        store.apply(GraphDelta(remove_edges=[(0, target)]))
        warm = engine.execute("pagerank")
        cold = make_engine(GraphStore(store.latest.graph)).execute("pagerank")
        assert warm.warm  # removals are fine for sum: retract + reassert
        diff = np.max(np.abs(np.asarray(warm.result.states) - np.asarray(cold.result.states)))
        assert diff < SUM_TOL

    def test_min_type_warm_bit_identical_on_improving_delta(self):
        store = GraphStore(bench_graph())
        engine = make_engine(store)
        engine.execute("sssp")
        store.apply(GraphDelta(add_edges=[(2, 40)], add_weights=(0.5,)))
        warm = engine.execute("sssp")
        cold = make_engine(GraphStore(store.latest.graph)).execute("sssp")
        assert warm.warm
        assert warm.updates < cold.updates
        assert np.array_equal(
            np.asarray(warm.result.states), np.asarray(cold.result.states)
        )

    def test_min_type_falls_back_cold_on_removal(self):
        graph = bench_graph()
        store = GraphStore(graph)
        engine = make_engine(store)
        engine.execute("sssp")
        target = int(graph.targets[0])
        store.apply(GraphDelta(remove_edges=[(0, target)]))
        run = engine.execute("sssp")
        assert not run.warm
        assert run.fallback_reason == FALLBACK_REMOVAL
        cold = make_engine(GraphStore(store.latest.graph)).execute("sssp")
        assert np.array_equal(
            np.asarray(run.result.states), np.asarray(cold.result.states)
        )

    def test_untransformable_algorithm_falls_back(self):
        store = GraphStore(bench_graph())
        engine = make_engine(store)
        engine.execute("kcore")
        store.apply(GraphDelta(add_edges=[(1, 7)], add_weights=(1.0,)))
        run = engine.execute("kcore")
        assert not run.warm
        assert run.fallback_reason in (
            FALLBACK_UNSUPPORTED,
            FALLBACK_UNTRANSFORMABLE,
        )

    def test_first_run_reports_no_baseline(self):
        engine = make_engine(GraphStore(bench_graph()))
        run = engine.execute("pagerank")
        assert not run.warm
        assert run.fallback_reason == FALLBACK_NO_BASELINE
        assert engine.baseline_version("pagerank") == 0

    def test_sum_type_reanchors_after_streak(self):
        # pagerank drifts along an unbroken warm chain (each warm run is
        # an epsilon-fixpoint seeded from the previous warm result), so
        # after `sum_reanchor_every` consecutive warm runs the lineage
        # must re-anchor cold, then resume warm-starting from the fresh
        # baseline
        store = GraphStore(bench_graph())
        engine = make_engine(store, sum_reanchor_every=3)
        engine.execute("pagerank")  # cold: no baseline
        outcomes = []
        for step in range(5):
            store.apply(
                GraphDelta(add_edges=[(step, step + 50)], add_weights=(1.0,))
            )
            outcomes.append(engine.execute("pagerank"))
        assert [run.warm for run in outcomes] == [True, True, True, False, True]
        assert outcomes[3].fallback_reason == FALLBACK_REANCHOR

    def test_min_type_never_reanchors(self):
        store = GraphStore(bench_graph())
        engine = make_engine(store, sum_reanchor_every=2)
        engine.execute("sssp")
        for step in range(4):
            store.apply(
                GraphDelta(add_edges=[(step, step + 50)], add_weights=(0.5,))
            )
            run = engine.execute("sssp")
            assert run.warm, f"min-type run {step} should stay warm"

    def test_force_cold_and_drop_baselines(self):
        store = GraphStore(bench_graph())
        engine = make_engine(store)
        engine.execute("pagerank")
        store.apply(GraphDelta(add_edges=[(5, 9)], add_weights=(1.0,)))
        assert engine.execute("pagerank", force_cold=True).warm is False
        engine.drop_baselines()
        assert engine.baseline_version("pagerank") is None


def make_service(**overrides):
    config = ServeConfig(
        cores=4,
        queue_limit=overrides.pop("queue_limit", 8),
        cache_capacity=overrides.pop("cache_capacity", 16),
        **overrides,
    )
    return GraphService(bench_graph(), config)


class TestGraphService:
    def test_cache_hit_answers_with_zero_engine_runs(self):
        service = make_service()
        service.submit("pagerank")
        service.drain()
        runs_before = service.engine.runs
        service.submit("pagerank")
        (response,) = service.drain()
        assert response.ok and response.cache_hit
        assert service.engine.runs == runs_before  # no engine work at all
        snapshot = service.metrics_snapshot()
        assert snapshot["obs.serve.cache_hits"] == 1.0
        assert snapshot["obs.serve.engine_runs"] == 1.0

    def test_duplicate_submissions_coalesce_into_one_run(self):
        service = make_service()
        for _ in range(3):
            service.submit("sssp")
        responses = service.drain()
        assert len(responses) == 3 and all(r.ok for r in responses)
        assert service.engine.runs == 1

    def test_queue_full_sheds_newest_deterministically(self):
        service = make_service(queue_limit=2)
        r1 = service.submit("pagerank")
        r2 = service.submit("sssp")
        shed = service.submit("wcc")
        assert isinstance(r1, int) and isinstance(r2, int)
        assert not isinstance(shed, int) and shed.status == "shed-queue"
        assert service.metrics_snapshot()["obs.serve.shed_queue"] == 1.0

    def test_bad_query_rejected_at_admission(self):
        service = make_service()
        with pytest.raises(ValueError, match="unknown algorithm"):
            service.submit("no-such-algorithm")
        with pytest.raises(ValueError):
            service.submit("sssp", {"no_such_param": 1})
        with pytest.raises(ValueError):
            service.submit("sssp", {"source": -1})
        assert len(service.batcher) == 0
        assert service.drain() == []
        snapshot = service.metrics_snapshot()
        assert snapshot["obs.serve.submitted"] == 3.0
        assert snapshot["obs.serve.admitted"] == 0.0

    def test_every_admitted_request_gets_one_terminal_response(self):
        service = make_service(queue_limit=3)
        admitted, terminal = [], []
        queries = [
            ("pagerank", None), ("no-such-algorithm", None),
            ("sssp", {"source": 0}), ("sssp", {"bogus": 2}),
            ("wcc", None), ("bfs", None), ("sssp", {"source": 0}),
        ]
        for algorithm, params in queries:
            try:
                outcome = service.submit(algorithm, params)
            except ValueError:
                continue
            if isinstance(outcome, int):
                admitted.append(outcome)
            else:
                terminal.append(outcome)  # shed at admission
        terminal += service.drain()
        assert len(admitted) == 3 and len(terminal) == 5
        ids = [response.request_id for response in terminal]
        assert sorted(ids) == sorted(set(ids))
        assert set(admitted) <= set(ids)
        assert set(ids) == set(admitted) | {
            r.request_id for r in terminal if r.status == "shed-queue"
        }

    def test_deadline_expired_at_dispatch_is_shed(self):
        service = make_service()
        service.submit("pagerank")  # first group: advances the clock
        service.submit("sssp", deadline_cycles=1.0)
        responses = service.drain()
        by_status = {r.status for r in responses}
        assert by_status == {"ok", "shed-deadline"}
        assert service.metrics_snapshot()["obs.serve.shed_deadline"] == 1.0

    def test_version_resolved_at_admission(self):
        service = make_service()
        service.submit("pagerank")  # admitted against v0
        service.apply_update(GraphDelta(add_edges=[(5, 9)], add_weights=(1.0,)))
        service.submit("pagerank")  # admitted against v1
        responses = service.drain()
        versions = sorted(r.key.version for r in responses)
        assert versions == [0, 1]
        assert service.engine.runs == 2  # different snapshots, no coalescing

    def test_counters_bit_identical_across_repeat_runs(self):
        def run_once():
            service = make_service()
            service.submit("pagerank")
            service.submit("sssp")
            service.drain()
            service.apply_update(
                GraphDelta(add_edges=[(5, 9)], add_weights=(1.0,))
            )
            service.submit("pagerank")
            service.submit("pagerank")
            service.drain()
            return service.metrics_snapshot()

        assert run_once() == run_once()

    def test_counter_family_zero_seeded(self):
        snapshot = make_service().metrics_snapshot()
        for name in ("cache_hits", "warm_runs", "shed_queue", "engine_runs"):
            assert snapshot[f"obs.serve.{name}"] == 0.0


class TestAutoStealPolicy:
    def test_minnow_dense_keeps_random(self):
        dense = datasets.load("GL", scale=0.05)
        assert resolve_auto_policy("minnow", dense) == "random"

    def test_minnow_sparse_gets_partition(self):
        sparse = datasets.load("AZ", scale=0.05)
        assert resolve_auto_policy("minnow", sparse) == "partition"

    def test_other_systems_get_partition_even_when_dense(self):
        dense = datasets.load("GL", scale=0.05)
        for system in ("depgraph-h", "ligra-o", "hats"):
            assert resolve_auto_policy(system, dense) == "partition"

    def test_policy_resolved_pins_auto(self):
        policy = SchedulingPolicy(steal_policy="auto")
        with pytest.raises(RuntimeError):
            policy.partition_aware
        resolved = policy.resolved("depgraph-h", datasets.load("AZ", scale=0.05))
        assert resolved.steal_policy == "partition"
        assert resolved.partition_aware

    def test_concrete_policy_passes_through(self):
        policy = SchedulingPolicy(steal_policy="random")
        assert policy.resolved("minnow", None) is policy


class TestServeBenchCLI:
    def test_serve_bench_writes_parsable_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "serve-bench",
                "--dataset", "AZ",
                "--scale", "0.1",
                "--slots", "8",
                "--cores", "4",
                "--seed", "0",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve_bench" in out
        table = (tmp_path / "serve_bench.txt").read_text()
        assert "cache_hits" in table
        payload = json.loads(
            (tmp_path / "serve_bench.metrics.json").read_text()
        )
        counters = payload["metrics"]
        assert counters["serve.cache_hits"] > 0
        assert counters["serve.engine_runs"] > 0
