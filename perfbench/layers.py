"""The traced run's ledger: timers installed at the program's layer boundaries.

Every boundary is a public class method or module function of ``repro``;
:func:`install` replaces it with a timing wrapper owned by this file and
:func:`Ledger.uninstall` puts the original back.  Nothing under ``src/`` is
edited, and a run without ``--trace 1`` never installs anything.

Two kinds of boundary:

* **aggregated** boundaries (one memory access, one cache probe, one HDTL
  resume, one kernel item, ...) are far too frequent for one span each; they
  keep a call count, an inclusive total and a self total;
* **span** boundaries (an engine run, a service submit or dispatch, a
  cluster call, an HTTP request) additionally record one span each:
  ``(name, start, end, parent span, request ids)``.

Self time is a boundary's duration minus the time its child boundaries
cover.  Stack-based boundaries must all run on one thread -- the benchmark
thread in-process, the cluster's single dispatch thread in the HTTP server --
so the nesting on that thread gives exact self times.  The HTTP front door's
event-loop thread runs concurrently with the dispatch thread; its busy
intervals are combined with the cluster spans by interval union instead
(see :func:`union_s`).
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def result_counts(result) -> Dict[str, float]:
    """The deterministic counts of one :class:`ExecutionResult`."""
    access = result.access_counts
    return {
        "runtime.edge_ops": float(result.edge_operations),
        "runtime.updates": float(result.total_updates),
        "runtime.sim_cycles": float(result.cycles),
        "hardware.l1_hits": float(access.get("l1_hits", 0)),
        "hardware.l2_hits": float(access.get("l2_hits", 0)),
        "hardware.l3_hits": float(access.get("l3_hits", 0)),
        "hardware.dram_accesses": float(access.get("dram_accesses", 0)),
        "hardware.noc_hops": float(access.get("noc_hop_count", 0)),
        "accel.shortcut_applications": float(result.shortcut_applications),
        "accel.hub_index_entries": float(result.hub_index_entries),
    }


class Ledger:
    """Spans and per-boundary totals, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        #: the root frame stands for "not inside any boundary"
        self._stack: List[list] = [[perf_counter(), 0.0, None]]
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.own: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (name, start, end, parent span index or -1, request ids)
        self.spans: List[Tuple[str, float, float, int, Tuple]] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------
    def _closer(self, name: str) -> Callable[[list], float]:
        """Ends a frame of boundary ``name``: its duration counts towards
        ``name`` and as child time of the enclosing frame."""
        stack, calls, inclusive, own = self._stack, self.calls, self.inclusive, self.own

        def close(frame: list) -> float:
            stack.pop()
            end = perf_counter()
            duration = end - frame[0]
            stack[-1][1] += duration
            calls[name] += 1
            inclusive[name] += duration
            own[name] += duration - frame[1]
            return end

        return close

    def aggregate(self, name: str, fn: Callable) -> Callable:
        stack, close = self._stack, self._closer(name)

        def timed(*args, **kwargs):
            frame = [perf_counter(), 0.0, None]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return timed

    def span(
        self,
        name: str,
        fn: Callable,
        ids: Callable[[tuple, object], Tuple] = lambda args, out: (),
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """Like :meth:`aggregate`, plus one span per call; ``ids`` maps the
        call's arguments and result to the request ids it served."""
        stack, spans, close = self._stack, self.spans, self._closer(name)

        def timed(*args, **kwargs):
            parent = stack[-1][2]
            index = len(spans)
            spans.append(None)  # reserved so children see their parent
            frame = [perf_counter(), 0.0, index]
            stack.append(frame)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = close(frame)
                spans[index] = (
                    name, frame[0], end, -1 if parent is None else parent,
                    tuple(ids(args, out)),
                )
                if on_result is not None and out is not None:
                    on_result(out)

        return timed

    def hdtl_resumes(self, traverse: Callable) -> Callable:
        """Wrap the ``HDTL.traverse`` generator so each resume is timed."""
        stack, close = self._stack, self._closer("accel.hdtl")

        def timed(walker, root, visited):
            send = traverse(walker, root, visited).send
            response = None
            while True:
                frame = [perf_counter(), 0.0, None]
                stack.append(frame)
                try:
                    event = send(response)
                except StopIteration:
                    return
                finally:
                    close(frame)
                response = yield event

        return timed

    def count_result(self, result) -> None:
        self.counts["runtime.runs"] += 1
        for key, value in result_counts(result).items():
            self.counts[key] += value

    def patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting -----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "self_s": dict(self.own),
            "counts": dict(self.counts),
            "spans": [list(span) for span in self.spans if span is not None],
        }

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.to_json(), handle)
        os.replace(tmp, path)


#: every per-layer metric a traced run reports, with its unit; a layer the
#: workload does not exercise reads 0
PER_LAYER = (
    ("graph.load_s", "s"),
    ("graph.mutation_s", "s"),
    ("graph.compact_s", "s"),
    ("hardware.mem_access_calls", "count"),
    ("hardware.mem_access_self_s", "s"),
    ("hardware.cache_access_calls", "count"),
    ("hardware.cache_access_self_s", "s"),
    ("hardware.l1_hits", "count"),
    ("hardware.l2_hits", "count"),
    ("hardware.l3_hits", "count"),
    ("hardware.dram_accesses", "count"),
    ("hardware.noc_hops", "count"),
    ("accel.hdtl_resumes", "count"),
    ("accel.hdtl_self_s", "s"),
    ("accel.shortcut_applications", "count"),
    ("accel.hub_index_entries", "count"),
    ("runtime.runs", "count"),
    ("runtime.run_s", "s"),
    ("runtime.kernel_self_s", "s"),
    ("runtime.edge_ops", "count"),
    ("runtime.updates", "count"),
    ("runtime.sim_cycles", "cycles"),
    ("runtime.vector_build_s", "s"),
    ("runtime.vector_run_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.dispatch_self_s", "s"),
    ("serve.engine_execute_s", "s"),
    ("serve.warmstart_plan_s", "s"),
    ("serve.engine_runs", "count"),
    ("serve.cold_runs", "count"),
    ("serve.warm_runs", "count"),
    ("serve.warm_fallbacks", "count"),
    ("serve.cache_hit_rate", "share"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.queue_wait_kcyc_p95", "kcycles"),
    ("serve.service_kcyc_p95", "kcycles"),
    ("cluster.submit_s", "s"),
    ("cluster.dispatch_s", "s"),
    ("cluster.apply_update_s", "s"),
    ("cluster.compact_s", "s"),
    ("cluster.busy_share", "share"),
    ("http.front_door_share", "share"),
    ("http.wait_ms_p95", "ms"),
    ("http.update_ms_p95", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_self_share", "share"),
)

#: per-layer metric -> (ledger table, boundary); the rest come from counts
_FROM_LEDGER = {
    "graph.load_s": ("inclusive_s", "graph.load"),
    "graph.mutation_s": ("inclusive_s", "graph.mutation"),
    "graph.compact_s": ("inclusive_s", "graph.compact"),
    "hardware.mem_access_calls": ("calls", "hardware.mem_access"),
    "hardware.mem_access_self_s": ("self_s", "hardware.mem_access"),
    "hardware.cache_access_calls": ("calls", "hardware.cache_access"),
    "hardware.cache_access_self_s": ("self_s", "hardware.cache_access"),
    "accel.hdtl_resumes": ("calls", "accel.hdtl"),
    "accel.hdtl_self_s": ("self_s", "accel.hdtl"),
    "runtime.run_s": ("inclusive_s", "runtime.run"),
    "runtime.kernel_self_s": ("self_s", "runtime.kernel"),
    "runtime.vector_build_s": ("inclusive_s", "runtime.vector_build"),
    "runtime.vector_run_s": ("inclusive_s", "runtime.vector_run"),
    "serve.submit_s": ("inclusive_s", "serve.submit"),
    "serve.dispatch_self_s": ("self_s", "serve.dispatch"),
    "serve.engine_execute_s": ("inclusive_s", "serve.engine_execute"),
    "serve.warmstart_plan_s": ("inclusive_s", "serve.warmstart_plan"),
    "cluster.submit_s": ("inclusive_s", "cluster.submit"),
    "cluster.dispatch_s": ("inclusive_s", "cluster.dispatch"),
    "cluster.apply_update_s": ("inclusive_s", "cluster.apply_update"),
    "cluster.compact_s": ("inclusive_s", "cluster.compact"),
}


def layer_metrics(trace: dict) -> Dict[str, float]:
    """The ledger-derived per-layer metrics of one dumped ledger
    (:meth:`Ledger.to_json`); every name of :data:`PER_LAYER` is present."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    for name, (table, boundary) in _FROM_LEDGER.items():
        out[name] = float(trace[table].get(boundary, 0.0))
    for name, value in trace["counts"].items():
        out[name] = float(value)
    return out


def in_process_metrics(
    ledger: Ledger, start: float, end: float, untraced_s: float, path: str
) -> Dict[str, float]:
    """Write the ledger to ``path`` and return the per-layer metrics of a
    window traced in this process (every boundary the ledger saw ran inside
    ``[start, end]``)."""
    ledger.dump(path)
    out = layer_metrics(ledger.to_json())
    out["trace.layer_self_share"] = sum(ledger.own.values()) / (end - start)
    out["trace.overhead_ratio"] = (end - start) / untraced_s
    return out


def union_s(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def _served_ids(args, out) -> Tuple:
    return tuple(r.request_id for r in out or ())


def _submitted_id(args, out) -> Tuple:
    return (out,) if isinstance(out, int) else (out.request_id,)


def install(ledger: Ledger) -> Ledger:
    """Install every boundary wrapper into ``repro``; undo with
    :meth:`Ledger.uninstall`."""
    import repro.runtime as runtime_pkg
    from repro.accel.depgraph.hdtl import HDTL
    from repro.graph import datasets, mutation
    from repro.hardware.cache import Cache
    from repro.hardware.hierarchy import MemorySystem
    from repro.runtime.execore import ExecutionKernel
    from repro.runtime.vector import VectorEngine
    from repro.serve import engine as engine_mod
    from repro.serve.cluster.dispatch import ClusterService
    from repro.serve.engine import QueryEngine
    from repro.serve.service import GraphService
    from repro.serve.store import GraphStore

    agg, span, patch = ledger.aggregate, ledger.span, ledger.patch
    patch(datasets, "load", agg("graph.load", datasets.load))
    for fn in ("add_edges", "remove_edges", "add_vertices", "reweight_edge"):
        patch(mutation, fn, agg("graph.mutation", getattr(mutation, fn)))
    patch(GraphStore, "compact", agg("graph.compact", GraphStore.compact))

    run = span("runtime.run", runtime_pkg.run, on_result=ledger.count_result)
    patch(runtime_pkg, "run", run)
    patch(engine_mod, "run_system", run)
    patch(ExecutionKernel, "process_item",
          agg("runtime.kernel", ExecutionKernel.process_item))
    patch(VectorEngine, "__init__",
          agg("runtime.vector_build", VectorEngine.__init__))
    patch(VectorEngine, "run", agg("runtime.vector_run", VectorEngine.run))
    patch(HDTL, "traverse", ledger.hdtl_resumes(HDTL.traverse))
    patch(MemorySystem, "access",
          agg("hardware.mem_access", MemorySystem.access))
    patch(Cache, "access", agg("hardware.cache_access", Cache.access))

    patch(GraphService, "submit",
          span("serve.submit", GraphService.submit, ids=_submitted_id))
    patch(GraphService, "dispatch_next",
          span("serve.dispatch", GraphService.dispatch_next, ids=_served_ids))
    patch(QueryEngine, "execute",
          span("serve.engine_execute", QueryEngine.execute))
    patch(engine_mod, "plan_warm_start",
          agg("serve.warmstart_plan", engine_mod.plan_warm_start))

    patch(ClusterService, "submit",
          span("cluster.submit", ClusterService.submit, ids=_submitted_id))
    patch(ClusterService, "dispatch_next",
          span("cluster.dispatch", ClusterService.dispatch_next, ids=_served_ids))
    patch(ClusterService, "apply_update",
          span("cluster.apply_update", ClusterService.apply_update))
    patch(ClusterService, "compact",
          span("cluster.compact", ClusterService.compact))
    return ledger
