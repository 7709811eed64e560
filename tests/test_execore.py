"""The execution-core kernel: unit tests + pre-refactor equivalence.

Two layers of protection for the shared-kernel refactor:

* unit tests for the kernel primitives (deterministic dispatch, the
  single staged-flush knob, the incremental partition work index, span
  accounting);
* golden equivalence: every configuration recorded by
  ``tests/goldens/generate_execore_goldens.py`` *before* the families
  were rewritten over the kernel is re-run and compared — states
  bit-identical for min/max accumulators (within float tolerance for
  sum-type), cycles/updates/rounds, the scheduling counters and every
  simulated hardware count (cache levels, NoC, DRAM, engine) exact.
  The matrix covers all registry systems, the three accumulator kinds
  (pagerank=sum, sssp=min, wcc=min-style), the steal-policy matrix, and
  a degree reordering, plus a denser dataset where depgraph/minnow
  steals actually fire.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro import algorithms, runtime
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.hardware import HardwareConfig
from repro.runtime import execore, minnow_rt, roundbased
from repro.runtime.execore import (
    FLUSH_INTERVAL,
    ExecutionKernel,
    PartWorkIndex,
    next_core,
)
from repro.runtime.scheduling import CostEstimator
from tests.goldens.generate_execore_goldens import hardware_counts

GOLDEN_DIR = Path(__file__).parent / "goldens"
META = json.loads((GOLDEN_DIR / "execore_meta.json").read_text())


# ----------------------------------------------------------------------
# Kernel unit tests.
# ----------------------------------------------------------------------
class TestNextCore:
    def test_no_work(self):
        assert next_core([1.0, 2.0], [0, 0]) == -1
        assert next_core([], []) == -1

    def test_picks_min_clock_ties_to_lowest_id(self):
        clock = [5.0, 3.0, 3.0, 7.0]
        assert next_core(clock, [1, 1, 1, 1]) == 1
        assert next_core(clock, [1, 0, 1, 1]) == 2
        assert next_core(clock, [1, 0, 0, 1]) == 0

    def test_work_entries_may_be_any_truthy(self):
        clock = [2.0, 1.0]
        assert next_core(clock, [[7], []]) == 0
        assert next_core(clock, [[7], [9]]) == 1

    def test_matches_reference_min_on_fuzz(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 12)
            clock = [float(rng.randint(0, 9)) for _ in range(n)]
            work = [rng.randint(0, 2) for _ in range(n)]
            candidates = [c for c in range(n) if work[c]]
            expect = (
                min(candidates, key=lambda c: clock[c]) if candidates else -1
            )
            assert next_core(clock, work) == expect


class TestFlushDiscipline:
    def make_kernel(self, **kw):
        graph = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        return ExecutionKernel(
            graph,
            algorithms.make("pagerank"),
            HardwareConfig.scaled(num_cores=2),
            "ligra",
            **kw,
        )

    def test_single_knob_shared_by_all_families(self):
        # the knob lives in execore and nowhere else
        assert FLUSH_INTERVAL == 32
        assert not hasattr(minnow_rt, "FLUSH_INTERVAL")
        assert not hasattr(roundbased.LIGRA, "flush_interval")
        kernel = self.make_kernel()
        assert kernel.flush_interval == execore.FLUSH_INTERVAL

    def test_tick_flush_cadence(self):
        kernel = self.make_kernel(flush_interval=3)
        fired = [kernel.tick_flush(0, None) for _ in range(7)]
        assert fired == [False, False, True, False, False, True, False]
        # per-core countdowns are independent
        assert kernel.tick_flush(1, None) is False

    def test_flush_all_reset_semantics(self):
        # round boundary: reset restarts the cadence
        kernel = self.make_kernel(flush_interval=3)
        kernel.tick_flush(0, None)
        kernel.tick_flush(0, None)
        kernel.flush_all(None, reset=True)
        assert kernel.tick_flush(0, None) is False
        # quiescence probe: the periodic visibility point must not move
        kernel = self.make_kernel(flush_interval=3)
        kernel.tick_flush(0, None)
        kernel.tick_flush(0, None)
        kernel.flush_all(None, reset=False)
        assert kernel.tick_flush(0, None) is True

    def test_span_metrics_zero_seeded_and_accumulated(self):
        kernel = self.make_kernel()
        kernel.declare_span("vertex")
        result = kernel.finish(True)
        assert result.extra["obs.span.vertex.count"] == 0.0
        assert result.extra["obs.span.vertex.cycles"] == 0.0
        assert result.extra["obs.sim.cycles"] == 0.0

        kernel = self.make_kernel()
        kernel.declare_span("vertex")

        def inner(core, item):
            kernel.ctx.charge_overhead(core, 10)

        kernel.process_item("vertex", "frontier", 0, 5, inner)
        kernel.process_item("vertex", "frontier", 0, 6, inner)
        assert kernel.span_host_ns("vertex") > 0
        result = kernel.finish(True)
        assert result.extra["obs.span.vertex.count"] == 2.0
        assert result.extra["obs.span.vertex.cycles"] == 20.0
        assert result.extra["obs.sim.cycles"] == 20.0


class TestPartWorkIndex:
    def brute_counts(self, index, queues, part_owner, num_cores):
        count_current = [len(q) for q in queues]
        core_count = [0] * num_cores
        for part, owner in enumerate(part_owner):
            core_count[owner] += count_current[part]
        cost_current = [
            sum(index.estimator.vertex_cost(v) for v in q) for q in queues
        ]
        return count_current, cost_current, core_count

    def test_tracks_queue_mutations_exactly(self):
        rng = random.Random(11)
        degrees = [rng.randint(0, 9) for _ in range(40)]
        estimator = CostEstimator(degrees)
        num_cores, parts = 3, 6
        part_owner = [p % num_cores for p in range(parts)]
        index = PartWorkIndex(estimator, part_owner, num_cores)
        queues = [[] for _ in range(parts)]  # current-round mirror
        nexts = [[] for _ in range(parts)]
        for step in range(400):
            op = rng.random()
            part = rng.randrange(parts)
            if op < 0.35:
                v = rng.randrange(40)
                queues[part].append(v)
                index.pushed_current(part, v)
            elif op < 0.55:
                v = rng.randrange(40)
                nexts[part].append(v)
                index.pushed_next(part, v)
            elif op < 0.75 and queues[part]:
                v = queues[part].pop(0)
                index.popped(part, v)
            elif op < 0.85:
                new_owner = rng.randrange(num_cores)
                index.move_part(part, new_owner)
                part_owner[part] = new_owner
            elif op < 0.95:
                promoted = index.advance_round()
                assert promoted == sum(len(n) for n in nexts)
                for p in range(parts):
                    queues[p].extend(nexts[p])
                    nexts[p] = []
            else:
                new_map = [rng.randrange(num_cores) for _ in range(parts)]
                part_owner[:] = new_map
                index.reassign(new_map)
            count, cost, cores = self.brute_counts(
                index, queues, part_owner, num_cores
            )
            assert index.count_current == count
            assert index.cost_current == cost
            assert index.core_count == cores
        assert any(index.core_count), "fuzz never built up work"

    def test_queued_cost_matches_estimator(self):
        estimator = CostEstimator([2, 4, 8])
        index = PartWorkIndex(estimator, [0, 0], 1)
        index.pushed_current(0, 1)
        index.pushed_current(0, 2)
        assert index.queued_cost(0) == estimator.queue_cost([1, 2])
        assert index.core_load(0) == 2
        assert index.has_work(0)
        assert not index.has_work(0) or index.queued_cost(1) == 0


# ----------------------------------------------------------------------
# Golden equivalence across the registry matrix.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_states():
    return np.load(GOLDEN_DIR / "execore_states.npz")


@pytest.fixture(scope="module")
def golden_graphs():
    cache = {}

    def get(dataset):
        if dataset not in cache:
            scale = (
                META["scale"]
                if dataset == META["dataset"]
                else META["alt_scale"]
            )
            cache[dataset] = datasets.load(dataset, scale=scale, weighted=True)
        return cache[dataset]

    return get


def _make_algorithm(name):
    if name == "sssp":
        return algorithms.make("sssp", source=0)
    return algorithms.make(name)


@pytest.mark.parametrize("key", sorted(META["runs"]))
def test_matches_pre_refactor_golden(key, golden_states, golden_graphs):
    info = META["runs"][key]
    graph = golden_graphs(info["dataset"])
    hw = HardwareConfig.scaled(num_cores=META["cores"])
    result = runtime.run(
        info["system"],
        graph,
        _make_algorithm(info["algorithm"]),
        hw,
        steal_policy=info["steal_policy"],
        reorder=info["reorder"],
    )
    got = np.asarray(result.states, dtype=np.float64)
    golden = golden_states[key]
    if info["algorithm"] == "pagerank":  # sum accumulator: float tolerance
        np.testing.assert_allclose(got, golden, rtol=1e-9, atol=1e-12)
    else:  # min-style accumulators must be bit-identical
        assert np.array_equal(got, golden)
    assert float(result.cycles) == info["cycles"]
    assert int(result.total_updates) == info["total_updates"]
    assert int(result.rounds) == info["rounds"]
    assert bool(result.converged) == info["converged"]
    for name, want in info["counters"].items():
        assert float(result.extra.get(name, 0.0)) == want, name
    # every simulated hardware count, pinned before the hot-path rewrite
    got_counts = hardware_counts(result)
    for field in ("access_counts", "engine_ops", "shortcut_applications"):
        assert got_counts[field] == info[field], field
    assert got_counts["hardware_counters"] == info["hardware_counters"]
