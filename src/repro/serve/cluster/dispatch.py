"""The cluster dispatcher: admission, routing, and fault handling.

:class:`ClusterService` scales the single-process :class:`GraphService`
model across a pool of workers while keeping its defining property —
**determinism on the simulated clock**.  Both services share one
admission front (:class:`~repro.serve.service.AdmissionFront`) and one
execution core (:class:`~repro.serve.service.WorkerCore`), and expose the
same driver interface (``submit`` / ``dispatch_next`` / ``drain`` /
``advance_clock`` / ``apply_update`` / ``compact`` / ``makespan_cycles``
/ ``metrics_snapshot`` / ``close``), so the traffic and stream harnesses
drive either one unchanged.  What differs is the clock model.

How the pieces fit:

* **Admission** is the dispatcher's alone: one bounded FIFO
  :class:`Batcher` coalesces identical queries cluster-wide and sheds
  the *newest* arrival when full (reject-new backpressure).  Deadlines
  are checked against the request's projected *start* on its worker, so
  a request that would only begin after its deadline is shed before any
  engine work is spent.
* **Routing** is rendezvous hashing by query lineage
  (:mod:`repro.serve.cluster.routing`).  Lineage affinity is what makes
  the workers' warmth additive: each worker re-serves the baselines,
  orderings, and cached results of *its* lineages.  The first routing
  decision per lineage is pinned, so assignments never flap; a restart
  reuses the slot name and inherits the pin.
* **Time** is a discrete-event multi-server model: each worker has a
  ``busy_until`` clock; a batch dispatched at ``now`` starts at
  ``max(now, busy_until[w])``, finishes ``cycles`` later, and the
  request's latency is completion minus admission.  The dispatcher's
  own clock only pays a small per-batch overhead
  (:data:`DISPATCH_CYCLES`), which is why N workers drain a backlog ~N
  times faster — the scaling the ``cluster`` experiment measures.
  Counters depend only on arrival order and the routing table, never on
  wall-clock completion order, so same-seed replays are bit-identical
  even with real worker processes.
* **Faults**: a call on a dead worker raises ``WorkerDied``; the
  dispatcher restarts the slot (``obs.cluster.worker_restarts``),
  requeues the batch (``obs.cluster.requeued``), and re-executes on the
  replacement — no request is silently dropped.  Replacement process
  workers rebuild their replica from a fresh store snapshot and find
  their lineages' baselines in the shared spool, so they come back
  *warm*.  A batch the slot still cannot serve after
  :data:`_MAX_ATTEMPTS` gets one ``failed`` response per request of that
  batch; the other batches are unaffected.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...graph.csr import CSRGraph
from ...observe import MetricRegistry, aggregate_metrics
from ..engine import ParamsKey, QueryKey, lineage_label
from ..service import (
    STATUS_FAILED,
    AdmissionFront,
    ServeConfig,
    ServeResponse,
)
from ..store import GraphDelta, GraphStore, GraphVersion
from .routing import RoutingTable
from .worker import InlineWorkerClient, ProcessWorkerClient, WorkerDied

#: modeled dispatcher overhead per dispatched batch, in simulated cycles
#: (routing + handoff; deliberately tiny against any engine run)
DISPATCH_CYCLES = 1_000.0

#: give up on a worker slot after this many consecutive deaths
_MAX_ATTEMPTS = 3

#: counters zero-seeded into every dispatcher so the ``obs.cluster.*``
#: family reports the same key set from every run (per-lineage
#: ``cluster.by_lineage.<lineage>.*`` variants are created on first
#: touch — the lineage set is workload-defined)
CLUSTER_COUNTER_FAMILY = (
    "cluster.submitted",
    "cluster.admitted",
    "cluster.shed_queue",
    "cluster.shed_deadline",
    "cluster.dispatched",
    "cluster.routed",
    "cluster.requeued",
    "cluster.worker_restarts",
    "cluster.updates_applied",
    "cluster.compactions",
)


class _ClusterCacheView:
    """Aggregated result-cache statistics (the ``service.cache`` shape
    the traffic harness reads), summed across worker registries."""

    def __init__(self, service: "ClusterService") -> None:
        self._service = service

    @property
    def hits(self) -> float:
        return self._service._worker_counter_sum("serve.cache_hits")

    @property
    def misses(self) -> float:
        return self._service._worker_counter_sum("serve.cache_misses")

    @property
    def hit_rate(self) -> float:
        hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0


@dataclass
class _Slot:
    """Dispatcher-side state of one worker slot."""

    client: object
    busy_until: float = 0.0
    #: restart generation (names persisted store snapshots uniquely)
    generation: int = 0


class ClusterService(AdmissionFront):
    """A sharded, fault-tolerant, deterministic serving cluster."""

    COUNTER_PREFIX = "cluster"
    submit = AdmissionFront.submit

    def __init__(
        self,
        graph: Optional[CSRGraph] = None,
        config: Optional[ServeConfig] = None,
        workers: int = 2,
        transport: str = "inline",
        spool_dir: Optional[str] = None,
        store: Optional[GraphStore] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("cluster needs at least one worker")
        if transport not in ("inline", "process"):
            raise ValueError(
                f"unknown transport {transport!r}; known: inline, process"
            )
        if store is None:
            if graph is None:
                raise ValueError("need a base graph or an existing store")
            store = GraphStore(graph)
        config = config or ServeConfig()
        self.store = store
        self.transport = transport
        if spool_dir is None:
            spool_dir = tempfile.mkdtemp(prefix="repro-cluster-")
        self.spool_dir = spool_dir
        #: every worker shares one cross-worker baseline spool
        #: (restart/fork warmth)
        self.config = dataclasses.replace(
            config,
            baseline_dir=config.baseline_dir
            or os.path.join(spool_dir, "baselines"),
        )

        names = [f"w{i}" for i in range(workers)]
        self.routing = RoutingTable(names)
        self._slots: Dict[str, _Slot] = {}
        for name in names:
            self._slots[name] = _Slot(client=self._spawn(name, generation=0))

        self.metrics = MetricRegistry()
        for counter in CLUSTER_COUNTER_FAMILY:
            self.metrics.inc(counter, 0.0)
        self.metrics.set("cluster.workers", float(workers))
        self.metrics.set("cluster.version", float(store.latest_version))
        super().__init__()
        #: lineage -> pinned worker slot (first routing decision wins)
        self._routed: Dict[Tuple[str, ParamsKey], str] = {}

    # ------------------------------------------------------------------
    # Worker lifecycle.
    # ------------------------------------------------------------------
    def _spawn(self, name: str, generation: int):
        """Build one worker client for slot ``name``."""
        if self.transport == "inline":
            return InlineWorkerClient(self.config, name, self.store)
        store_dir = os.path.join(self.spool_dir, f"store-{name}-g{generation}")
        self.store.save(store_dir)
        return ProcessWorkerClient(self.config, name, store_dir)

    def _restart(self, name: str) -> None:
        """Replace a dead worker under the same slot name.

        The slot name is the routing identity, so assignments are
        untouched; the replacement rebuilds from the current store state
        and inherits its lineages' warmth from the baseline spool."""
        slot = self._slots[name]
        try:
            slot.client.close()
        except Exception:  # noqa: BLE001 - already dead, best effort
            pass
        slot.generation += 1
        slot.client = self._spawn(name, generation=slot.generation)
        self.metrics.inc("cluster.worker_restarts")

    def _call(self, name: str, command: Tuple):
        """One command on slot ``name`` with restart-on-death."""
        for _ in range(_MAX_ATTEMPTS):
            try:
                return self._slots[name].client.call(command)
            except WorkerDied:
                self._restart(name)
        raise RuntimeError(
            f"worker slot {name} died {_MAX_ATTEMPTS} times in a row"
        )

    def kill_worker(self, name: str) -> None:
        """Fault injection: hard-kill one worker (tests, chaos drills).
        The next batch routed to it triggers restart + requeue."""
        self._slots[name].client.kill()

    def workers_alive(self) -> Dict[str, bool]:
        """Liveness by slot (the ``/readyz`` payload)."""
        return {
            name: bool(slot.client.alive)
            for name, slot in sorted(self._slots.items())
        }

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        for slot in self._slots.values():
            try:
                slot.client.close()
            except Exception:  # noqa: BLE001 - teardown is best effort
                pass

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Updates / compaction (authoritative store + broadcast).
    # ------------------------------------------------------------------
    def apply_update(self, delta: GraphDelta) -> GraphVersion:
        """Apply one mutation batch and fan it out to replica stores."""
        version = self.store.apply(delta)
        for name, slot in sorted(self._slots.items()):
            if slot.client.shares_store:
                continue
            replica_version = self._call(name, ("update", delta.to_dict()))
            if replica_version != version.version:
                raise RuntimeError(
                    f"worker {name} replica diverged: v{replica_version} "
                    f"!= v{version.version}"
                )
        self.metrics.inc("cluster.updates_applied")
        self.metrics.set("cluster.version", float(version.version))
        return version

    def compact(self, keep_last: int = 8) -> int:
        """Compact the authoritative store and every replica."""
        pruned = self.store.compact(keep_last)
        if pruned:
            for name, slot in sorted(self._slots.items()):
                if slot.client.shares_store:
                    continue
                self._call(name, ("compact", keep_last))
            self.metrics.inc("cluster.compactions")
        return pruned

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def dispatch_next(self) -> Optional[List[ServeResponse]]:
        """Route + execute the oldest pending batch; ``None`` when idle."""
        batch = self._next_batch()
        if batch is None:
            return None
        key, group = batch
        first = len(self._responses)
        metrics = self.metrics

        lineage = key.lineage()
        label = lineage_label(*lineage)
        worker = self._routed.get(lineage)
        if worker is None:
            worker = self.routing.route(label)
            self._routed[lineage] = worker
            metrics.inc("cluster.routed")
            metrics.inc(f"cluster.by_lineage.{label}.routed")
        metrics.inc("cluster.dispatched")
        metrics.inc(f"cluster.by_lineage.{label}.dispatched")

        start = max(self.now_cycles, self._slots[worker].busy_until)
        live = self._shed_expired(key, group, start, worker)
        self.now_cycles += DISPATCH_CYCLES
        if not live:
            return self._responses[first:]
        try:
            reply = self._execute(worker, key, label)
        except RuntimeError as exc:  # WorkerDied included
            for request in live:
                self._responses.append(
                    ServeResponse(
                        request.request_id,
                        STATUS_FAILED,
                        key=key,
                        latency_cycles=start - request.enqueued_at,
                        completed_cycles=start,
                        worker=worker,
                        error=str(exc),
                    )
                )
            return self._responses[first:]
        completion = start + reply["cycles"]
        self._slots[worker].busy_until = completion
        self._answer(
            key,
            live,
            completion,
            cache_hit=reply["cache_hit"],
            warm=reply["warm"],
            inherited=reply["inherited"],
            fallback_reason=reply["fallback_reason"],
            worker=worker,
            summary=reply["summary"],
        )
        return self._responses[first:]

    def _execute(self, worker: str, key: QueryKey, label: str) -> dict:
        """Execute one batch with restart + requeue on worker death."""
        command = ("execute", key.algorithm, dict(key.params), key.version)
        for _ in range(_MAX_ATTEMPTS):
            try:
                return self._slots[worker].client.call(command)
            except WorkerDied:
                self._restart(worker)
                self.metrics.inc("cluster.requeued")
                self.metrics.inc(f"cluster.by_lineage.{label}.requeued")
        raise RuntimeError(
            f"batch {key.label()} could not be served: worker {worker} "
            f"died {_MAX_ATTEMPTS} times"
        )

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    @property
    def makespan_cycles(self) -> float:
        """When the cluster finishes all work charged so far — the
        dispatcher clock or the busiest worker, whichever is later."""
        return max(
            [self.now_cycles]
            + [slot.busy_until for slot in self._slots.values()]
        )

    @property
    def cache(self) -> _ClusterCacheView:
        return _ClusterCacheView(self)

    def worker_metrics(self) -> Dict[str, Dict[str, float]]:
        """Per-worker ``serve.*`` registry snapshots, by slot name."""
        return {
            name: self._call(name, ("metrics",))
            for name in sorted(self._slots)
        }

    def _worker_counter_sum(self, name: str) -> float:
        return sum(
            snapshot.get(name, 0.0)
            for snapshot in self.worker_metrics().values()
        )

    def metrics_snapshot(self) -> Dict[str, float]:
        """One flattened ``obs.*`` view of the whole cluster.

        Worker ``serve.*`` registries are combined with
        :func:`repro.observe.aggregate_metrics` (sums for counters,
        min/max/mean rules for histogram keys); the cache hit rate is
        recomputed exactly from the summed hit/miss counters; the
        dispatcher's own ``cluster.*`` family rides along with its
        latency gauges flushed.
        """
        snapshots = self.worker_metrics()
        aggregated = aggregate_metrics(snapshots.values())
        hits = aggregated.get("serve.cache_hits", 0.0)
        misses = aggregated.get("serve.cache_misses", 0.0)
        total = hits + misses
        aggregated["serve.cache_hit_rate"] = hits / total if total else 0.0

        self._flush_gauges()
        self.metrics.set("cluster.makespan_cycles", self.makespan_cycles)

        out = {f"obs.{key}": value for key, value in aggregated.items()}
        out.update(self.metrics.as_dict(prefix="obs."))
        return dict(sorted(out.items()))
