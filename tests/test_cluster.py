"""Tests for the multi-worker serving cluster (repro.serve.cluster).

Covers rendezvous routing (determinism, minimal disruption, restart
stability), the dispatcher's discrete-event clocks and deterministic
``obs.cluster.*`` counters (same seed -> bit-identical), worker-death
fault handling (restart + requeue, no silent drops, warm inheritance
through the shared baseline spool), inline/process transport
equivalence, the HTTP/JSON front door, cross-engine baseline
inheritance, version-chain compaction, and the shared serve-config
builder.
"""

import asyncio
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.hardware import HardwareConfig
from repro.serve import (
    GraphDelta,
    GraphStore,
    QueryEngine,
    ServeConfig,
    build_serve_config,
)
from repro.serve.cluster import (
    CLUSTER_COUNTER_FAMILY,
    ClusterHTTPServer,
    ClusterService,
    RoutingTable,
)
from repro.serve.cluster import dispatch as dispatch_module
from repro.serve.cluster.http_api import _MAX_BODY
from repro.serve.cluster.routing import score
from repro.serve.cluster.worker import InlineWorkerClient, WorkerDied
from repro.serve.traffic import TrafficConfig
from repro.serve.warmstart import FALLBACK_COMPACTED
from tests.goldens.serving_script import (
    golden_config,
    golden_graph,
    response_rows,
    run_script,
)


def small_graph():
    edges = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3), (3, 1)]
    return CSRGraph.from_edges(4, edges, weights=[1.0] * len(edges))


def make_cluster(tmp_path, workers=2, transport="inline", **config_kw):
    config_kw.setdefault("cores", 4)
    return ClusterService(
        small_graph(),
        ServeConfig(**config_kw),
        workers=workers,
        transport=transport,
        spool_dir=str(tmp_path / "spool"),
    )


WORKLOAD = (
    ("sssp", {"source": 0}),
    ("wcc", {}),
    ("sssp", {"source": 0}),  # coalesces/caches with the first
    ("pagerank", {"damping": 0.85}),
    ("bfs", {"source": 1}),
)


def run_workload(service, mutate=True):
    """Submit the canned workload, mutate mid-stream, drain everything."""
    for algorithm, params in WORKLOAD[:3]:
        service.submit(algorithm, params)
    service.drain()
    if mutate:
        service.apply_update(GraphDelta(add_edges=[(3, 0)]))
    for algorithm, params in WORKLOAD:
        service.submit(algorithm, params)
    service.drain()
    return service.metrics_snapshot()


class TestRouting:
    def test_deterministic_and_total(self):
        table = RoutingTable(["w0", "w1", "w2"])
        keys = [f"lineage-{i}" for i in range(40)]
        first = [table.route(k) for k in keys]
        assert first == [table.route(k) for k in keys]
        assert set(first) <= {"w0", "w1", "w2"}
        # rendezvous hashing spreads 40 keys over 3 workers; none empty
        assert len(set(first)) == 3

    def test_minimal_disruption_on_add(self):
        table = RoutingTable(["w0", "w1", "w2"])
        keys = [f"lineage-{i}" for i in range(60)]
        before = {k: table.route(k) for k in keys}
        table.add_worker("w3")
        moved = [k for k in keys if table.route(k) != before[k]]
        # only keys whose top scorer is the new worker may move
        assert all(table.route(k) == "w3" for k in moved)
        assert 0 < len(moved) < len(keys) / 2

    def test_remove_reassigns_only_the_lost_worker(self):
        table = RoutingTable(["w0", "w1", "w2"])
        keys = [f"lineage-{i}" for i in range(60)]
        before = {k: table.route(k) for k in keys}
        table.remove_worker("w1")
        for key in keys:
            if before[key] != "w1":
                assert table.route(key) == before[key]
            else:
                assert table.route(key) in ("w0", "w2")

    def test_restart_under_same_name_is_stable(self):
        # a restarted slot keeps its name, so its assignments are stable
        table = RoutingTable(["w0", "w1"])
        assignment = {f"k{i}": table.route(f"k{i}") for i in range(20)}
        rebuilt = RoutingTable(["w1", "w0"])  # order must not matter
        assert assignment == {k: rebuilt.route(k) for k in assignment}

    def test_last_worker_cannot_be_removed(self):
        table = RoutingTable(["w0"])
        with pytest.raises(ValueError):
            table.remove_worker("w0")

    def test_score_is_pure(self):
        assert score("w0", "k") == score("w0", "k")
        assert score("w0", "k") != score("w1", "k")


class TestClusterDeterminism:
    def test_same_seed_replay_bit_identical(self, tmp_path):
        with make_cluster(tmp_path / "a") as a, make_cluster(tmp_path / "b") as b:
            first = run_workload(a)
            second = run_workload(b)
        keys = [
            k
            for k in first
            if k.startswith("obs.cluster.") or k.startswith("obs.serve.")
        ]
        assert keys
        for key in keys:
            assert first[key] == second[key], key

    def test_zero_seeded_counter_family(self, tmp_path):
        with make_cluster(tmp_path) as service:
            snapshot = service.metrics_snapshot()
        for name in CLUSTER_COUNTER_FAMILY:
            assert f"obs.{name}" in snapshot, name
            assert snapshot[f"obs.{name}"] == 0.0

    def test_process_transport_matches_inline(self, tmp_path):
        inline = run_workload(make_cluster(tmp_path / "i", transport="inline"))
        with make_cluster(tmp_path / "p", transport="process") as cluster:
            process = run_workload(cluster)
        for key, value in inline.items():
            if key.startswith("obs.cluster.") or key.startswith("obs.serve."):
                assert process[key] == value, key

    def test_multi_worker_overlaps_batches(self, tmp_path):
        # needs engine runs that outlast the per-batch dispatch charge,
        # so a backlog actually forms behind a single worker
        graph = datasets.load("AZ", scale=0.05)
        queries = [
            ("sssp", {"source": 0}),
            ("sssp", {"source": 1}),
            ("sssp", {"source": 2}),
            ("wcc", {}),
            ("bfs", {"source": 0}),
            ("pagerank", {"damping": 0.85}),
        ]
        spans = {}
        for workers in (1, 4):
            with ClusterService(
                graph,
                ServeConfig(cores=4),
                workers=workers,
                spool_dir=str(tmp_path / f"w{workers}"),
            ) as service:
                for algorithm, params in queries:
                    service.submit(algorithm, params)
                assert all(r.ok for r in service.drain())
                spans[workers] = service.makespan_cycles
        # the pool overlaps engine runs: strictly shorter makespan
        assert spans[4] < spans[1]


class TestFaultHandling:
    def test_worker_death_restarts_requeues_and_answers(self, tmp_path):
        with make_cluster(tmp_path) as service:
            # warm every lineage once so the spool holds their baselines
            for algorithm, params in WORKLOAD[:2]:
                service.submit(algorithm, params)
            responses = service.drain()
            assert all(r.ok for r in responses)
            victim = responses[0].worker

            service.apply_update(GraphDelta(add_edges=[(3, 0)]))
            service.kill_worker(victim)
            ids = [
                service.submit(algorithm, params)
                for algorithm, params in WORKLOAD[:2]
            ]
            replies = service.drain()
            snapshot = service.metrics_snapshot()
            alive_after = service.workers_alive()[victim]

        # no silent drops: every admitted request reached a terminal reply
        assert sorted(r.request_id for r in replies) == sorted(ids)
        assert all(r.ok for r in replies)
        assert snapshot["obs.cluster.worker_restarts"] == 1.0
        assert snapshot["obs.cluster.requeued"] >= 1.0
        # the replacement answered from the shared spool: warm, inherited
        revived = [r for r in replies if r.worker == victim]
        assert revived
        assert all(r.warm for r in revived)
        assert all(r.inherited for r in revived)
        assert snapshot["obs.serve.baseline_inherited"] >= 1.0
        assert alive_after

    def test_routing_pin_survives_restart(self, tmp_path):
        with make_cluster(tmp_path) as service:
            service.submit("wcc", {})
            (first,) = service.drain()
            service.kill_worker(first.worker)
            service.apply_update(GraphDelta(add_edges=[(3, 0)]))
            service.submit("wcc", {})
            (second,) = service.drain()
            snapshot = service.metrics_snapshot()
        assert second.worker == first.worker
        # the lineage was routed once; the restart did not re-route it
        assert snapshot["obs.cluster.routed"] == 1.0


class _DiesOnBfs(InlineWorkerClient):
    """An inline worker that dies on every bfs batch, restarts included."""

    def call(self, command, timeout=0.0):
        if command[0] == "execute" and command[1] == "bfs":
            raise WorkerDied(f"worker {self.name} dies on bfs")
        return super().call(command, timeout)


class TestUnservableBatch:
    def test_fails_only_its_own_requests(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dispatch_module, "InlineWorkerClient", _DiesOnBfs)
        with make_cluster(tmp_path) as service:
            bfs = [service.submit("bfs", {"source": 1}) for _ in range(2)]
            wcc = service.submit("wcc", {})
            responses = {r.request_id: r for r in service.drain()}
            snapshot = service.metrics_snapshot()
        assert sorted(responses) == sorted(bfs + [wcc])
        for request_id in bfs:
            assert responses[request_id].status == "failed"
            assert "could not be served" in responses[request_id].error
        assert responses[wcc].ok
        assert snapshot["obs.cluster.requeued"] == 3.0
        assert snapshot["obs.cluster.worker_restarts"] == 3.0


class TestBaselineInheritance:
    def test_forked_engine_answers_warm_from_spool(self, tmp_path):
        spool = str(tmp_path / "baselines")
        store = GraphStore(small_graph())
        hardware = HardwareConfig.scaled(num_cores=4)
        parent = QueryEngine(store, hardware=hardware, baseline_dir=spool)
        cold = parent.execute("sssp", {"source": 0})
        assert not cold.warm and not cold.inherited

        store.apply(GraphDelta(add_edges=[(3, 0)]))
        fork = QueryEngine(store, hardware=hardware, baseline_dir=spool)
        run = fork.execute("sssp", {"source": 0})
        assert run.warm
        assert run.inherited
        # once the fork converges its own baseline, inheritance clears
        store.apply(GraphDelta(add_edges=[(1, 3)]))
        assert not fork.execute("sssp", {"source": 0}).inherited

    def test_inherit_from_transfers_every_lineage(self):
        store = GraphStore(small_graph())
        hardware = HardwareConfig.scaled(num_cores=4)
        parent = QueryEngine(store, hardware=hardware)
        parent.execute("sssp", {"source": 0})
        parent.execute("wcc", None)
        child = QueryEngine(store, hardware=hardware)
        assert child.inherit_from(parent) == 2
        store.apply(GraphDelta(add_edges=[(3, 0)]))
        assert child.execute("sssp", {"source": 0}).inherited


class TestCompaction:
    def _mutated_store(self, versions=6):
        store = GraphStore(small_graph())
        for i in range(versions):
            store.apply(GraphDelta(reweight=[(0, 1, 2.0 + i)]))
        return store

    def test_retained_versions_resolve_identically(self):
        store = self._mutated_store()
        latest = store.latest_version
        keep = {
            v: store.get(v).graph.num_edges
            for v in range(latest - 2, latest + 1)
        }
        pruned = store.compact(keep_last=2)
        assert pruned > 0
        assert store.first_version == latest - 2
        for version, num_edges in keep.items():
            assert store.get(version).graph.num_edges == num_edges
        with pytest.raises(KeyError):
            store.get(latest - 3)

    def test_compacted_baseline_falls_back_cold(self):
        store = self._mutated_store()
        engine = QueryEngine(store, hardware=HardwareConfig.scaled(num_cores=4))
        engine.execute("sssp", {"source": 0})  # baseline at latest
        store.apply(GraphDelta(reweight=[(0, 1, 9.0)]))
        store.compact(keep_last=0)  # drops the baseline's delta chain
        run = engine.execute("sssp", {"source": 0})
        assert not run.warm
        assert run.fallback_reason == FALLBACK_COMPACTED

    def test_cluster_compact_broadcasts(self, tmp_path):
        with make_cluster(
            tmp_path, transport="process", workers=2
        ) as service:
            for i in range(4):
                service.apply_update(GraphDelta(reweight=[(0, 1, 2.0 + i)]))
            pruned = service.compact(keep_last=1)
            assert pruned > 0
            # replicas answered the broadcast and agree on the chain head
            service.submit("wcc", {})
            assert all(r.ok for r in service.drain())
            snapshot = service.metrics_snapshot()
        assert snapshot["obs.cluster.compactions"] == 1.0


#: the fixed serving script (tests/goldens/serving_script.py) on a
#: 2-worker inline cluster: every counter and every response outcome
CLUSTER_GOLDEN_SNAPSHOT = {
    "obs.cluster.admitted": 13.0,
    "obs.cluster.batch_size.count": 9.0,
    "obs.cluster.batch_size.le_pow2_0": 7.0,
    "obs.cluster.batch_size.le_pow2_1": 1.0,
    "obs.cluster.batch_size.le_pow2_2": 1.0,
    "obs.cluster.batch_size.max": 4.0,
    "obs.cluster.batch_size.mean": 1.4444444444444444,
    "obs.cluster.batch_size.min": 1.0,
    "obs.cluster.batch_size.sum": 13.0,
    "obs.cluster.by_lineage.bfs(source=1).dispatched": 1.0,
    "obs.cluster.by_lineage.bfs(source=1).routed": 1.0,
    "obs.cluster.by_lineage.pagerank().dispatched": 3.0,
    "obs.cluster.by_lineage.pagerank().routed": 1.0,
    "obs.cluster.by_lineage.sssp(source=0).dispatched": 3.0,
    "obs.cluster.by_lineage.sssp(source=0).routed": 1.0,
    "obs.cluster.by_lineage.wcc().dispatched": 2.0,
    "obs.cluster.by_lineage.wcc().routed": 1.0,
    "obs.cluster.compactions": 0.0,
    "obs.cluster.dispatched": 9.0,
    "obs.cluster.latency_cycles.count": 12.0,
    "obs.cluster.latency_cycles.le_pow2_15": 4.0,
    "obs.cluster.latency_cycles.le_pow2_16": 1.0,
    "obs.cluster.latency_cycles.le_pow2_19": 1.0,
    "obs.cluster.latency_cycles.le_pow2_20": 6.0,
    "obs.cluster.latency_cycles.max": 616856.5,
    "obs.cluster.latency_cycles.mean": 351761.5208333333,
    "obs.cluster.latency_cycles.min": 19995.0,
    "obs.cluster.latency_cycles.sum": 4221138.25,
    "obs.cluster.latency_p50_cycles": 466265.25,
    "obs.cluster.latency_p95_cycles": 616856.5,
    "obs.cluster.makespan_cycles": 624856.5,
    "obs.cluster.queue_depth.count": 13.0,
    "obs.cluster.queue_depth.le_pow2_0": 5.0,
    "obs.cluster.queue_depth.le_pow2_1": 5.0,
    "obs.cluster.queue_depth.le_pow2_2": 3.0,
    "obs.cluster.queue_depth.max": 4.0,
    "obs.cluster.queue_depth.mean": 1.9230769230769231,
    "obs.cluster.queue_depth.min": 1.0,
    "obs.cluster.queue_depth.sum": 25.0,
    "obs.cluster.queue_pending": 0.0,
    "obs.cluster.requeued": 0.0,
    "obs.cluster.routed": 4.0,
    "obs.cluster.shed_deadline": 1.0,
    "obs.cluster.shed_queue": 2.0,
    "obs.cluster.submitted": 15.0,
    "obs.cluster.updates_applied": 1.0,
    "obs.cluster.version": 1.0,
    "obs.cluster.worker_restarts": 0.0,
    "obs.cluster.workers": 2.0,
    "obs.serve.admitted": 0.0,
    "obs.serve.baseline_inherited": 0.0,
    "obs.serve.cache_hit_rate": 0.25,
    "obs.serve.cache_hits": 2.0,
    "obs.serve.cache_misses": 6.0,
    "obs.serve.cold_runs": 5.0,
    "obs.serve.cold_updates": 11870.0,
    "obs.serve.edges_added": 0.0,
    "obs.serve.edges_removed": 0.0,
    "obs.serve.edges_reweighted": 0.0,
    "obs.serve.engine_runs": 6.0,
    "obs.serve.run_cycles.count": 6.0,
    "obs.serve.run_cycles.le_pow2_15": 3.0,
    "obs.serve.run_cycles.le_pow2_16": 1.0,
    "obs.serve.run_cycles.le_pow2_17": 1.0,
    "obs.serve.run_cycles.le_pow2_19": 1.0,
    "obs.serve.run_cycles.max": 466265.25,
    "obs.serve.run_cycles.mean": 116141.91666666667,
    "obs.serve.run_cycles.min": 18882.25,
    "obs.serve.run_cycles.sum": 696851.5,
    "obs.serve.shed_deadline": 0.0,
    "obs.serve.shed_queue": 0.0,
    "obs.serve.submitted": 0.0,
    "obs.serve.updates_applied": 0.0,
    "obs.serve.vertices_added": 0.0,
    "obs.serve.warm_fallbacks": 1.0,
    "obs.serve.warm_runs": 1.0,
    "obs.serve.warm_seeded.count": 1.0,
    "obs.serve.warm_seeded.le_pow2_6": 1.0,
    "obs.serve.warm_seeded.max": 44.0,
    "obs.serve.warm_seeded.mean": 44.0,
    "obs.serve.warm_seeded.min": 44.0,
    "obs.serve.warm_seeded.sum": 44.0,
    "obs.serve.warm_updates": 1895.0
}

CLUSTER_GOLDEN_RESPONSES = [
    (0, "ok", "pagerank()@v0", False, False, 466265.25, 466265.25),
    (1, "ok", "sssp(source=0)@v0", False, False, 28901.0, 28901.0),
    (2, "ok", "sssp(source=0)@v0", False, False, 28901.0, 28901.0),
    (3, "ok", "sssp(source=0)@v0", True, False, 28901.0, 30901.0),
    (4, "shed-deadline", "wcc()@v0", False, False, 464265.25, 466265.25),
    (5, "ok", "pagerank()@v1", False, True, 558779.75, 562779.75),
    (6, "ok", "sssp(source=0)@v1", False, False, 54112.75, 58112.75),
    (11, "shed-queue", None, False, False, 0.0, 6000.0),
    (12, "shed-queue", None, False, False, 0.0, 6000.0),
    (7, "ok", "wcc()@v1", False, False, 616856.5, 622856.5),
    (8, "ok", "wcc()@v1", False, False, 616856.5, 622856.5),
    (9, "ok", "wcc()@v1", False, False, 616856.5, 622856.5),
    (10, "ok", "wcc()@v1", False, False, 616856.5, 622856.5),
    (13, "ok", "bfs(source=1)@v1", False, False, 19995.0, 76995.0),
    (14, "ok", "pagerank()@v1", True, True, 567856.5, 624856.5)
]


class TestClusterGolden:
    def test_script_reproduces_pinned_snapshot_and_responses(self, tmp_path):
        with ClusterService(
            golden_graph(),
            golden_config(),
            workers=2,
            transport="inline",
            spool_dir=str(tmp_path / "spool"),
        ) as service:
            assert run_script(service) == CLUSTER_GOLDEN_SNAPSHOT
            assert response_rows(service) == CLUSTER_GOLDEN_RESPONSES


class TestServeConfigBuilder:
    def test_traffic_and_bench_share_the_builder(self):
        config = TrafficConfig(cores=2, queue_limit=7, deadline_cycles=123.0)
        warm = build_serve_config(config, warm=True)
        assert warm.cores == 2
        assert warm.queue_limit == 7
        assert warm.default_deadline_cycles == 123.0
        assert warm.warm

    def test_cold_variant_disables_cache(self):
        cold = build_serve_config(TrafficConfig(), warm=False)
        assert not cold.warm
        assert cold.cache_capacity == 0


class _ServerThread:
    """Run the front door's asyncio loop in a thread for HTTP tests."""

    def __init__(self, service):
        self.service = service
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.base = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.server = ClusterHTTPServer(self.service, port=0)
        host, port = self.loop.run_until_complete(self.server.start())
        self.base = f"http://{host}:{port}"
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "server failed to start"
        return self

    def __exit__(self, *exc_info):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        self.loop.close()

    def request(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, json.loads(resp.read().decode())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read().decode())


class TestHTTPFrontDoor:
    @pytest.fixture()
    def served(self, tmp_path):
        with make_cluster(tmp_path) as service:
            with _ServerThread(service) as server:
                yield server

    def test_health_ready_and_metrics(self, served):
        status, health = served.request("GET", "/healthz")
        assert status == 200 and health["workers"] == 2
        status, ready = served.request("GET", "/readyz")
        assert status == 200 and ready["ready"]
        assert set(ready["workers"]) == {"w0", "w1"}
        status, payload = served.request("GET", "/metrics")
        assert status == 200
        assert payload["metrics"]["obs.cluster.dispatched"] == 0.0

    def test_query_update_requery_cycle(self, served):
        status, first = served.request(
            "POST", "/query", {"algorithm": "sssp", "params": {"source": 0}}
        )
        assert status == 200 and first["status"] == "ok"
        assert not first["cache_hit"]

        status, repeat = served.request(
            "POST", "/query", {"algorithm": "sssp", "params": {"source": 0}}
        )
        assert status == 200 and repeat["cache_hit"]

        status, update = served.request(
            "POST", "/update", {"add_edges": [[3, 0]]}
        )
        assert status == 200 and update["version"] == 1

        status, warm = served.request(
            "POST", "/query", {"algorithm": "sssp", "params": {"source": 0}}
        )
        assert status == 200 and warm["warm"] and not warm["cache_hit"]

        status, metrics = served.request("GET", "/metrics")
        assert metrics["metrics"]["obs.serve.cache_hits"] == 1.0
        assert metrics["metrics"]["obs.serve.warm_runs"] == 1.0

    def test_error_paths(self, served):
        status, payload = served.request("POST", "/query", {"params": {}})
        assert status == 400 and "algorithm" in payload["error"]
        status, payload = served.request(
            "POST", "/query", {"algorithm": "nope"}
        )
        assert status == 400
        status, _ = served.request("GET", "/nope")
        assert status == 404

    def test_oversized_body_gets_413_and_close(self, served):
        host, port = served.base[len("http://"):].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(
                (
                    "POST /query HTTP/1.1\r\n"
                    f"Content-Length: {_MAX_BODY + 1}\r\n\r\n"
                ).encode()
            )
            received = b""
            while chunk := sock.recv(65536):
                received += chunk  # ends only when the server closes
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413")
        assert b"Connection: close" in head
        assert "limit" in json.loads(body)["error"]
        status, _ = served.request("GET", "/healthz")  # still serving
        assert status == 200

    def test_malformed_json_gets_400(self, served):
        for raw, reason in ((b"{not json", "not valid JSON"),
                            (b"[1, 2]", "JSON object")):
            req = urllib.request.Request(
                served.base + "/query", data=raw, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=60)
            assert err.value.code == 400
            assert reason in json.loads(err.value.read())["error"]

    def test_unservable_batch_gets_500_and_dispatch_continues(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(dispatch_module, "InlineWorkerClient", _DiesOnBfs)
        with make_cluster(tmp_path) as service, _ServerThread(service) as server:
            status, failed = server.request(
                "POST", "/query", {"algorithm": "bfs", "params": {"source": 1}}
            )
            assert status == 500 and failed["status"] == "failed"
            assert "could not be served" in failed["error"]
            status, answered = server.request(
                "POST", "/query", {"algorithm": "wcc", "params": {}}
            )
            assert status == 200 and answered["status"] == "ok"

    def test_concurrent_identical_queries_coalesce(self, served):
        results = []

        def fire():
            results.append(
                served.request(
                    "POST", "/query", {"algorithm": "wcc", "params": {}}
                )
            )

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(results) == 4
        assert all(status == 200 and r["status"] == "ok" for status, r in results)
        status, metrics = served.request("GET", "/metrics")
        runs = metrics["metrics"]["obs.serve.engine_runs"]
        hits = metrics["metrics"]["obs.serve.cache_hits"]
        # one engine run; the rest coalesced into the batch or hit cache
        assert runs == 1.0
        assert runs + hits <= 4.0
