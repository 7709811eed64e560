"""Property tests for the locality-aware reordering layer.

Covers the permutation machinery (every ordering is a validated
bijection whose inverse round-trips arrays and ids), the end-to-end
equivalence guarantee (a reordered run reproduces the identity run's
states under each accumulator kind's comparison rule), the
partition ordering's block invariants, original-id reporting of hub ids
and partition maps, and warm-start verification under a non-identity
ordering in the serving layer.
"""

import random

import numpy as np
import pytest

from repro import algorithms, runtime
from repro.graph import datasets
from repro.graph.partition import by_edge_count
from repro.graph.reorder import (
    DEFAULT_HUB_FRACTION,
    ORDERING_NAMES,
    VertexOrdering,
    hub_order,
    make_ordering,
    partition_order,
)
from repro.hardware import HardwareConfig
from repro.serve import (
    GraphDelta,
    GraphService,
    QueryEngine,
    ServeConfig,
    compare_states,
)

SCALE = 0.1
CORES = 8

#: sum-type (pagerank) agreement bound vs the identity run — the
#: documented cross-schedule tolerance (one truncation point, two
#: execution orders)
SUM_TOLERANCE = 1e-3


@pytest.fixture(scope="module")
def graph():
    return datasets.load("GL", scale=SCALE)


@pytest.fixture(scope="module")
def hardware():
    return HardwareConfig.scaled(num_cores=CORES)


def orderings_for(graph):
    return [
        make_ordering(name, graph, num_parts=CORES) for name in ORDERING_NAMES
    ]


class TestPermutationProperties:
    def test_every_ordering_is_a_bijection(self, graph):
        n = graph.num_vertices
        for ordering in orderings_for(graph):
            assert ordering.perm.shape == (n,)
            assert np.array_equal(np.sort(ordering.perm), np.arange(n))
            assert np.array_equal(np.sort(ordering.inv), np.arange(n))

    def test_inverse_round_trips(self, graph):
        n = graph.num_vertices
        ids = np.arange(n)
        for ordering in orderings_for(graph):
            assert np.array_equal(ordering.perm[ordering.inv], ids)
            assert np.array_equal(ordering.inv[ordering.perm], ids)

    def test_array_round_trips(self, graph):
        rng = np.random.default_rng(7)
        values = rng.normal(size=graph.num_vertices)
        for ordering in orderings_for(graph):
            assert np.array_equal(
                ordering.to_original(ordering.to_permuted(values)), values
            )
            assert np.array_equal(
                ordering.to_permuted(ordering.to_original(values)), values
            )

    def test_id_round_trips(self, graph):
        rng = np.random.default_rng(11)
        ids = rng.integers(0, graph.num_vertices, size=64)
        for ordering in orderings_for(graph):
            assert np.array_equal(
                ordering.ids_to_original(ordering.ids_to_permuted(ids)), ids
            )

    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError, match="bijection"):
            VertexOrdering("bad", np.array([0, 0, 2]))
        with pytest.raises(ValueError, match="outside"):
            VertexOrdering("bad", np.array([0, 1, 3]))

    def test_identity_detection(self, graph):
        identity = make_ordering("identity", graph)
        assert identity.is_identity
        assert identity.moved_vertices == 0
        degree = make_ordering("degree", graph)
        assert not degree.is_identity
        assert degree.moved_vertices > 0

    def test_permuted_graph_preserves_edges(self, graph):
        ordering = make_ordering("degree", graph)
        permuted = ordering.apply_to_graph(graph)
        assert permuted.num_vertices == graph.num_vertices
        assert permuted.num_edges == graph.num_edges

        def edge_multiset(g, relabel=None):
            src = np.repeat(
                np.arange(g.num_vertices, dtype=np.int64), g.out_degrees()
            )
            dst = np.asarray(g.targets, dtype=np.int64)
            if relabel is not None:
                src, dst = relabel[src], relabel[dst]
            triples = np.stack(
                [src, dst, np.asarray(g.weights, dtype=np.float64)]
            )
            return triples[:, np.lexsort(triples)]

        assert np.array_equal(
            edge_multiset(graph), edge_multiset(permuted, relabel=ordering.inv)
        )

    def test_unknown_ordering_name(self, graph):
        with pytest.raises(KeyError, match="unknown ordering"):
            make_ordering("sorted", graph)


class TestOrderingShapes:
    def test_degree_sorts_hot_first(self, graph):
        ordering = make_ordering("degree", graph)
        out_deg = graph.out_degrees()
        in_deg = np.zeros(graph.num_vertices, dtype=np.int64)
        np.add.at(in_deg, graph.targets, 1)
        total = out_deg + in_deg
        by_new_id = total[ordering.inv]
        assert np.all(np.diff(by_new_id) <= 0)

    def test_hub_cluster_is_top_degree_prefix(self, graph):
        ordering = hub_order(graph)
        num_hubs = max(
            1, int(round(DEFAULT_HUB_FRACTION * graph.num_vertices))
        )
        out_deg = graph.out_degrees()
        in_deg = np.zeros(graph.num_vertices, dtype=np.int64)
        np.add.at(in_deg, graph.targets, 1)
        total = out_deg + in_deg
        cluster = ordering.inv[:num_hubs]
        threshold = np.sort(total)[::-1][num_hubs - 1]
        assert np.all(total[cluster] >= threshold)

    def test_partition_order_keeps_blocks(self, graph):
        ordering = partition_order(graph, CORES)
        total_in = np.zeros(graph.num_vertices, dtype=np.int64)
        np.add.at(total_in, graph.targets, 1)
        total = graph.out_degrees() + total_in
        for part in by_edge_count(graph, CORES):
            block = np.arange(part.begin, part.end)
            new_ids = ordering.perm[block]
            # the block's vertices keep occupying the same id range...
            assert new_ids.min() == part.begin
            assert new_ids.max() == part.end - 1
            # ...and are hot-first within it
            by_new = total[ordering.inv[part.begin : part.end]]
            assert np.all(np.diff(by_new) <= 0)


class TestReorderedRunsReproduceStates:
    @pytest.mark.parametrize("system", ["ligra-o", "depgraph-h"])
    @pytest.mark.parametrize("ordering", ["degree", "hub", "partition"])
    def test_sssp_states_bit_identical(
        self, graph, hardware, system, ordering
    ):
        identity = runtime.run(
            system, graph, algorithms.make("sssp"), hardware
        )
        reordered = runtime.run(
            system, graph, algorithms.make("sssp"), hardware, reorder=ordering
        )
        assert np.array_equal(identity.states, reordered.states)

    def test_wcc_states_bit_identical_under_symmetrization(
        self, graph, hardware
    ):
        # wcc sets needs_symmetric: the wrapper must hand the inner
        # algorithm the symmetrized *original* graph
        identity = runtime.run(
            "ligra-o", graph, algorithms.make("wcc"), hardware
        )
        reordered = runtime.run(
            "ligra-o", graph, algorithms.make("wcc"), hardware, reorder="degree"
        )
        assert np.array_equal(identity.states, reordered.states)

    def test_pagerank_states_within_tolerance(self, graph, hardware):
        identity = runtime.run(
            "ligra-o", graph, algorithms.make("pagerank"), hardware
        )
        reordered = runtime.run(
            "ligra-o",
            graph,
            algorithms.make("pagerank"),
            hardware,
            reorder="degree",
        )
        assert np.max(
            np.abs(np.asarray(identity.states) - np.asarray(reordered.states))
        ) < SUM_TOLERANCE

    def test_prebuilt_ordering_accepted(self, graph, hardware):
        ordering = make_ordering("degree", graph)
        identity = runtime.run(
            "ligra-o", graph, algorithms.make("sssp"), hardware
        )
        reordered = runtime.run(
            "ligra-o", graph, algorithms.make("sssp"), hardware, reorder=ordering
        )
        assert np.array_equal(identity.states, reordered.states)


class TestOriginalIdReporting:
    def test_reorder_counters_and_label(self, graph, hardware):
        result = runtime.run(
            "ligra-o", graph, algorithms.make("sssp"), hardware, reorder="degree"
        )
        assert result.ordering == "degree"
        assert result.extra["obs.reorder.applied"] == 1.0
        assert result.extra["obs.reorder.moved_vertices"] > 0

    def test_identity_run_reports_zero_counters(self, graph, hardware):
        result = runtime.run(
            "ligra-o", graph, algorithms.make("sssp"), hardware
        )
        assert result.ordering == "identity"
        assert result.extra["obs.reorder.applied"] == 0.0
        assert result.extra["obs.reorder.moved_vertices"] == 0.0

    def test_partition_map_in_original_ids(self, graph, hardware):
        result = runtime.run(
            "ligra-o", graph, algorithms.make("sssp"), hardware, reorder="degree"
        )
        assert result.partition_map is not None
        assert result.partition_map.shape == (graph.num_vertices,)
        assert result.partition_map.min() >= 0
        assert result.partition_map.max() < CORES
        # reconstruct: the run partitioned the *permuted* graph; mapping
        # its owner array back through the ordering must reproduce what
        # the result reports
        ordering = make_ordering("degree", graph)
        owners = by_edge_count(
            ordering.apply_to_graph(graph), CORES
        ).owner_map()
        assert np.array_equal(
            result.partition_map, ordering.to_original(owners)
        )

    def test_hub_ids_in_original_ids(self, graph, hardware):
        identity = runtime.run(
            "depgraph-h", graph, algorithms.make("sssp"), hardware
        )
        reordered = runtime.run(
            "depgraph-h",
            graph,
            algorithms.make("sssp"),
            hardware,
            reorder="degree",
        )
        assert identity.hub_vertex_ids is not None
        assert reordered.hub_vertex_ids is not None
        # hub selection keys on degrees, which relabeling preserves, so
        # the hub *set* must come back identical in original ids
        assert np.array_equal(
            identity.hub_vertex_ids, reordered.hub_vertex_ids
        )


def mutation_burst(rng, graph, removals):
    """One seeded burst: 1-3 new edges, plus ``removals`` existing ones."""
    n = graph.num_vertices
    adds = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3))]
    removes = []
    for _ in range(removals):
        edge = rng.randrange(graph.num_edges)
        source = int(np.searchsorted(graph.offsets, edge, side="right") - 1)
        removes.append((source, int(graph.targets[edge])))
    return GraphDelta(
        add_edges=adds,
        add_weights=tuple(round(rng.uniform(0.5, 1.5), 3) for _ in adds),
        remove_edges=removes,
    )


class TestServeUnderReordering:
    def test_warm_start_verifies_under_degree_ordering(self):
        """Serve under the degree ordering across edge additions and
        removals; shadow every new warm run with a cold run on a control
        engine and require the same states."""
        service = GraphService(
            datasets.load("AZ", scale=SCALE),
            ServeConfig(cores=4, queue_limit=24, reorder="degree"),
        )
        control = QueryEngine(
            service.store,
            hardware=service.config.hardware(),
            warm=False,
            reorder="degree",
        )
        rng = random.Random(0)
        verified = set()
        for slot in range(8):
            if slot % 2:  # odd slots mutate; even slots re-ask (cache hits)
                graph = service.store.latest.graph
                service.apply_update(mutation_burst(rng, graph, slot % 4 == 3))
            for algorithm in ("pagerank", "sssp", "wcc"):
                service.submit(algorithm)
                service.submit(algorithm)
            for response in service.drain():
                run = response.run
                if response.cache_hit or not run.warm or run.key in verified:
                    continue
                verified.add(run.key)
                cold = control.execute(
                    run.key.algorithm, dict(run.key.params), run.key.version,
                    force_cold=True,
                )
                match, divergence = compare_states(
                    run.key.algorithm, run.result.states, cold.result.states
                )
                assert match, f"{run.key.label()}: diverged by {divergence}"
        assert verified, "no warm run to verify"
        snapshot = service.metrics_snapshot()
        assert snapshot["obs.serve.edges_removed"] > 0
        assert snapshot["obs.serve.cache_hits"] > 0
        assert snapshot["obs.serve.warm_runs"] > 0
        assert service.engine.reorder == "degree"
        # orderings are resolved once per snapshot version and reused
        assert len(service.engine._orderings) <= (
            service.store.latest_version + 1
        )
