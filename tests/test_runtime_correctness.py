"""Integration tests: every runtime converges to the reference fixpoint.

This is the contract behind Theorem 1 (the dependency transformation yields
the same results) and behind the whole simulation: whatever scheduling,
staleness, prefetching, or shortcut machinery a system uses, the final
vertex states must match the reference solver.
"""

import math

import numpy as np
import pytest

from repro import algorithms, runtime
from repro.algorithms import reference
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.hardware import HardwareConfig

CORES4 = HardwareConfig.scaled(num_cores=4)

ALL_SYSTEMS = list(runtime.SYSTEM_NAMES)


def small_graph(seed=3, n=120, m=700):
    g = generators.power_law(n, m, alpha=2.0, seed=seed, weighted=True)
    return generators.ensure_reachable(g, root=0, seed=seed)


def assert_states_close(measured, expected, tol):
    measured = np.asarray(measured)
    expected = np.asarray(expected)
    both_inf = np.isinf(measured) & np.isinf(expected)
    with np.errstate(invalid="ignore"):
        diff = np.where(both_inf, 0.0, measured - expected)
    assert not np.isinf(diff).any(), "infinite mismatch"
    assert not np.isnan(diff).any(), "inf/finite mismatch"
    assert np.max(np.abs(diff)) <= tol, f"max err {np.max(np.abs(diff)):.2e}"


@pytest.fixture(scope="module")
def graph():
    return small_graph()


@pytest.mark.parametrize("system", ALL_SYSTEMS)
class TestEverySystem:
    def test_sssp_matches_dijkstra(self, system, graph):
        res = runtime.run(system, graph, algorithms.SSSP(0), CORES4)
        assert res.converged
        assert_states_close(res.states, reference.sssp(graph, 0), 1e-9)

    def test_pagerank_matches_power_iteration(self, system, graph):
        res = runtime.run(system, graph, algorithms.IncrementalPageRank(), CORES4)
        assert res.converged
        # threshold-based async execution leaves at most ~n*epsilon residue
        assert_states_close(res.states, reference.pagerank(graph), 5e-3)

    def test_wcc_matches_components(self, system, graph):
        res = runtime.run(system, graph, algorithms.WCC(), CORES4)
        assert res.converged
        assert_states_close(res.states, reference.wcc(graph), 0.0)

    def test_adsorption_matches_reference(self, system, graph):
        res = runtime.run(system, graph, algorithms.Adsorption(), CORES4)
        assert res.converged
        assert_states_close(res.states, reference.adsorption(graph), 5e-3)


@pytest.mark.parametrize("system", ["ligra-o", "depgraph-h", "minnow"])
class TestExtensionAlgorithms:
    def test_sswp(self, system, graph):
        res = runtime.run(system, graph, algorithms.SSWP(0), CORES4)
        assert_states_close(res.states, reference.sswp(graph, 0), 1e-9)

    def test_bfs(self, system, graph):
        res = runtime.run(system, graph, algorithms.BFS(0), CORES4)
        assert_states_close(res.states, reference.bfs(graph, 0), 0.0)

    def test_katz(self, system, graph):
        # attenuation must stay below 1/lambda_max(A) for Katz to converge;
        # the power-law fixture has large-degree hubs, so keep it small
        attenuation = 0.01
        res = runtime.run(
            system, graph, algorithms.KatzCentrality(attenuation), CORES4
        )
        assert_states_close(res.states, reference.katz(graph, attenuation), 5e-3)

    def test_kcore(self, system, graph):
        k = 4
        res = runtime.run(system, graph, algorithms.KCore(k), CORES4)
        expected = reference.kcore(graph, k)
        measured = np.asarray(res.states) >= k
        assert (measured == expected).all()


class TestDepGraphVariants:
    """DepGraph-specific configurations preserve correctness."""

    def test_learned_ddmu_matches_analytic(self, graph):
        a = runtime.run(
            "depgraph-h", graph, algorithms.SSSP(0), CORES4, ddmu_mode="analytic"
        )
        b = runtime.run(
            "depgraph-h", graph, algorithms.SSSP(0), CORES4, ddmu_mode="learned"
        )
        assert_states_close(a.states, b.states, 1e-9)

    def test_stack_depth_one_still_correct(self, graph):
        res = runtime.run(
            "depgraph-h", graph, algorithms.SSSP(0), CORES4, stack_depth=1
        )
        assert_states_close(res.states, reference.sssp(graph, 0), 1e-9)

    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.2])
    def test_lambda_sweep_correct(self, graph, lam):
        res = runtime.run(
            "depgraph-h", graph, algorithms.IncrementalPageRank(), CORES4, lam=lam
        )
        assert_states_close(res.states, reference.pagerank(graph), 5e-3)

    def test_kcore_disables_hub_index(self, graph):
        """Non-transformable algorithms run with the transformation off
        (Section III-A3's escape hatch)."""
        res = runtime.run("depgraph-h", graph, algorithms.KCore(3), CORES4)
        assert res.hub_index_entries == 0
        assert res.shortcut_applications == 0

    def test_single_core_depgraph(self, graph):
        hw1 = HardwareConfig.scaled(num_cores=1)
        res = runtime.run("depgraph-h", graph, algorithms.SSSP(0), hw1)
        assert_states_close(res.states, reference.sssp(graph, 0), 1e-9)

    def test_many_cores_correct(self, graph):
        hw64 = HardwareConfig.scaled(num_cores=64)
        res = runtime.run("depgraph-h", graph, algorithms.SSSP(0), hw64)
        assert_states_close(res.states, reference.sssp(graph, 0), 1e-9)


class TestDeterminism:
    """The event-interleaved executor is fully deterministic."""

    @pytest.mark.parametrize("system", ["ligra-o", "depgraph-h", "minnow"])
    def test_repeat_runs_identical(self, system, graph):
        a = runtime.run(system, graph, algorithms.SSSP(0), CORES4)
        b = runtime.run(system, graph, algorithms.SSSP(0), CORES4)
        assert a.cycles == b.cycles
        assert a.total_updates == b.total_updates
        assert np.array_equal(a.states, b.states)


class TestTopologyEdgeCases:
    @pytest.mark.parametrize("system", ["ligra", "ligra-o", "depgraph-h", "minnow"])
    def test_single_chain(self, system):
        g = generators.chain(30, weighted=True)
        res = runtime.run(system, g, algorithms.SSSP(0), CORES4)
        assert_states_close(res.states, reference.sssp(g, 0), 1e-9)

    @pytest.mark.parametrize("system", ["ligra-o", "depgraph-h"])
    def test_star(self, system):
        g = generators.star(50).with_weights(np.ones(49))
        res = runtime.run(system, g, algorithms.SSSP(0), CORES4)
        assert_states_close(res.states, reference.sssp(g, 0), 1e-9)

    @pytest.mark.parametrize("system", ["ligra-o", "depgraph-h"])
    def test_disconnected_graph(self, system):
        g = generators.power_law(60, 100, seed=9, weighted=True)
        res = runtime.run(system, g, algorithms.SSSP(0), CORES4)
        assert_states_close(res.states, reference.sssp(g, 0), 1e-9)

    @pytest.mark.parametrize("system", ["ligra-o", "depgraph-h"])
    def test_mesh_graph(self, system):
        """The paper notes mesh-like graphs still benefit from DepGraph-H-w;
        at minimum they must stay correct."""
        g = generators.grid_mesh(8, 8, weighted=True)
        res = runtime.run(system, g, algorithms.SSSP(0), CORES4)
        assert_states_close(res.states, reference.sssp(g, 0), 1e-9)

    def test_empty_frontier_graph(self):
        # no edges, nothing active for SSSP beyond the source
        from repro.graph.csr import CSRGraph

        g = CSRGraph.from_edges(10, [], weights=None)
        gw = g.with_weights(np.zeros(0))
        res = runtime.run("depgraph-h", gw, algorithms.SSSP(0), CORES4)
        assert res.states[0] == 0.0
        assert all(math.isinf(s) for s in res.states[1:])


class TestUnknownSystem:
    def test_unknown_name_raises(self, graph):
        with pytest.raises(KeyError):
            runtime.run("spark", graph, algorithms.SSSP(0), CORES4)


class TestFloat32WeightArithmetic:
    """The per-edge loops read weights from list views built once per run;
    the arithmetic types must stay those of indexing the weight array:
    the frontier systems add float32 numpy scalars (so sums round to
    float32), HDTL hands out ``CSRGraph.edge_weight`` floats."""

    def chain(self):
        n = 12
        weights = [0.1 * (i + 1) for i in range(n - 1)]
        graph = CSRGraph.from_edges(
            n,
            [(i, i + 1) for i in range(n - 1)],
            weights=weights,
            weight_dtype=np.float32,
        )
        as32 = np.asarray(weights, dtype=np.float32)
        float32_sums = np.concatenate(
            [[0.0], np.cumsum(as32, dtype=np.float32)]
        ).astype(np.float64)
        float64_sums = np.concatenate([[0.0], np.cumsum(as32.astype(np.float64))])
        assert not np.array_equal(float32_sums, float64_sums)
        return graph, float32_sums, float64_sums

    @pytest.mark.parametrize("system", ["ligra", "ligra-o", "minnow"])
    def test_frontier_systems_round_to_float32(self, system):
        graph, float32_sums, _ = self.chain()
        result = runtime.run(
            system, graph, algorithms.make("sssp", source=0), CORES4
        )
        assert np.array_equal(result.states, float32_sums)

    @pytest.mark.parametrize("system", ["depgraph-h", "depgraph-s"])
    def test_hdtl_systems_add_in_float64(self, system):
        graph, _, float64_sums = self.chain()
        result = runtime.run(
            system, graph, algorithms.make("sssp", source=0), CORES4
        )
        assert np.array_equal(result.states, float64_sums)
