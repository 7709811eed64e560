"""The serving core: one admission front, one execution core.

A request travels::

    submit()   -> admission (bounded queue, shed when full)
               -> Batcher (coalesce identical queries)
    dispatch   -> deadline check (shed expired requests)
               -> WorkerCore: ResultCache (hit: answered with zero engine
                  runs), else QueryEngine (warm-start when sound, cold
                  otherwise), then the ``serve.*`` run counters

:class:`AdmissionFront` is the one copy of admission: ``submit``,
``drain``, ``advance_clock``, deadline shedding and latency accounting.
:class:`WorkerCore` is the one copy of execution.  Two services combine
them under two clock models:

* :class:`GraphService` — a single server.  It owns one inline
  :class:`WorkerCore` on its own store, and its clock advances by each
  batch's cost (``now += cycles``).
* :class:`~repro.serve.cluster.ClusterService` — a dispatcher in front of
  N worker slots, each a :class:`WorkerCore` behind a transport.  Each
  worker has its own ``busy_until`` clock while the dispatcher runs ahead
  (see :mod:`repro.serve.cluster.dispatch`).

*Simulated cycles* are the only clock: engine runs and cache hits cost
cycles, queue latencies and deadlines are accounted in cycles, and repeat
runs of the same workload produce bit-identical ``obs.*`` counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..graph.csr import CSRGraph
from ..observe import MetricRegistry
from .batching import Batcher, ResultCache
from .config import ServeConfig, summarize_states
from .engine import (
    EngineRun,
    QueryEngine,
    QueryKey,
    canonical_params,
    validate_query,
)
from .store import GraphDelta, GraphStore, GraphVersion
from .warmstart import FALLBACK_NO_BASELINE

#: modeled cycles to answer a request from the result cache (key lookup +
#: response copy; tiny against any engine run on purpose)
CACHE_HIT_CYCLES = 2_000.0

#: request terminal states
STATUS_OK = "ok"
STATUS_SHED_QUEUE = "shed-queue"
STATUS_SHED_DEADLINE = "shed-deadline"
#: cluster only: the batch's worker slot could not serve it
STATUS_FAILED = "failed"

#: the ``serve.*`` counters every execution core pre-creates, so every
#: service (and every cluster worker) reports the same key set and
#: counter diffs line up key-for-key (the ``SchedCounters.flush_policy``
#: discipline)
SERVE_COUNTER_FAMILY = (
    "serve.submitted",
    "serve.admitted",
    "serve.shed_queue",
    "serve.shed_deadline",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.engine_runs",
    "serve.warm_runs",
    "serve.cold_runs",
    "serve.warm_fallbacks",
    "serve.baseline_inherited",
    "serve.warm_updates",
    "serve.cold_updates",
    "serve.updates_applied",
    "serve.edges_added",
    "serve.edges_removed",
    "serve.edges_reweighted",
    "serve.vertices_added",
)


@dataclass
class ServeRequest:
    """One admitted query waiting for (or holding) its answer."""

    request_id: int
    algorithm: str
    params: dict
    #: version resolved at admission — the snapshot this request reads
    version: int
    deadline_cycles: float
    enqueued_at: float  # simulated cycles


@dataclass
class ServeResponse:
    """Terminal outcome of one request."""

    request_id: int
    status: str
    key: Optional[QueryKey] = None
    cache_hit: bool = False
    warm: bool = False
    #: warm-started from an inherited baseline (see ``serve.engine``)
    inherited: bool = False
    fallback_reason: str = ""
    latency_cycles: float = 0.0
    #: simulated-clock instant the request reached this terminal state
    completed_cycles: float = 0.0
    run: Optional[EngineRun] = None
    #: cluster only: the worker slot that executed the run ("" locally)
    worker: str = ""
    #: cluster only: compact digest of the converged states (the HTTP
    #: response payload; local responses carry the full ``run`` instead)
    summary: Optional[dict] = None
    #: why a ``failed`` request could not be served
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------
class WorkerCore:
    """Cache lookup -> :meth:`QueryEngine.execute` -> ``serve.*`` counters.

    :class:`GraphService` runs one core inline on its own store.  Each
    cluster worker slot runs one behind a transport
    (:mod:`repro.serve.cluster.worker`): inline on the dispatcher's shared
    store, or in a spawned process on a replica loaded from
    ``store_dir``.  :meth:`handle` is the command boundary of that
    transport; only there is a reply turned into picklable primitives.
    """

    def __init__(
        self,
        config: ServeConfig,
        store: Optional[GraphStore] = None,
        store_dir: Optional[str] = None,
    ) -> None:
        if store is None:
            if store_dir is None:
                raise ValueError("WorkerCore needs a shared store or a store_dir")
            store = GraphStore.load(store_dir, mmap=config.mmap_store)
        self.store = store
        self.engine = QueryEngine(
            store,
            system=config.system,
            hardware=config.hardware(),
            warm=config.warm,
            max_rounds=config.max_rounds,
            reorder=config.reorder,
            baseline_dir=config.baseline_dir,
            sum_reanchor_every=config.sum_reanchor_every,
            steal_policy=config.steal_policy,
            backend=config.backend,
        )
        self.cache: ResultCache[EngineRun] = ResultCache(config.cache_capacity)
        self.metrics = MetricRegistry()
        for name in SERVE_COUNTER_FAMILY:
            self.metrics.inc(name, 0.0)

    @staticmethod
    def cycles(run: EngineRun, cache_hit: bool) -> float:
        """Simulated cost of one answered batch."""
        return CACHE_HIT_CYCLES if cache_hit else run.cycles

    def execute(self, key: QueryKey) -> Tuple[EngineRun, bool]:
        """Answer one coalesced batch; returns the run and whether it
        came from the result cache."""
        metrics = self.metrics
        run = self.cache.get(key)
        if run is not None:
            metrics.inc("serve.cache_hits")
            return run, True
        metrics.inc("serve.cache_misses")
        run = self.engine.execute(key.algorithm, dict(key.params), key.version)
        self.cache.put(key, run)
        metrics.inc("serve.engine_runs")
        metrics.observe("serve.run_cycles", run.cycles)
        if run.warm:
            metrics.inc("serve.warm_runs")
            metrics.inc("serve.warm_updates", run.updates)
            metrics.observe("serve.warm_seeded", run.seeded)
            if run.inherited:
                # warm-started from a baseline another engine converged
                # (installed or spool-loaded): a fork answering warm
                metrics.inc("serve.baseline_inherited")
        else:
            metrics.inc("serve.cold_runs")
            metrics.inc("serve.cold_updates", run.updates)
            # first-ever runs of a lineage have nothing to warm from; a
            # *fallback* means a baseline existed but warm-starting from
            # it would have been unsound (removal under min/max,
            # untransformable algorithm, ...)
            if run.fallback_reason and run.fallback_reason != FALLBACK_NO_BASELINE:
                metrics.inc("serve.warm_fallbacks")
        return run, False

    def apply_delta(self, delta: GraphDelta) -> int:
        """Apply one broadcast delta to the replica store; returns the
        new version id (the dispatcher asserts it matches its own)."""
        version = self.store.apply(delta)
        self.metrics.set("serve.version", version.version)
        return version.version

    def compact(self, keep_last: int) -> int:
        return self.store.compact(keep_last)

    def handle(self, command: Tuple) -> Any:
        """Execute one transport command tuple; replies are picklable."""
        op = command[0]
        if op == "execute":
            key = QueryKey(command[1], canonical_params(command[2]), command[3])
            run, cache_hit = self.execute(key)
            return {
                "cycles": float(self.cycles(run, cache_hit)),
                "cache_hit": cache_hit,
                "warm": run.warm,
                "inherited": run.inherited,
                "fallback_reason": run.fallback_reason,
                "updates": int(run.updates),
                "seeded": int(run.seeded),
                "summary": summarize_states(run.result.states),
            }
        if op == "update":
            return self.apply_delta(GraphDelta.from_dict(command[1]))
        if op == "compact":
            return self.compact(command[1])
        if op == "metrics":
            return self.metrics.as_dict()
        raise ValueError(f"unknown worker command {op!r}")


# ----------------------------------------------------------------------
# Admission.
# ----------------------------------------------------------------------
class AdmissionFront:
    """Admission, deadline shedding and latency accounting.

    A subclass sets :attr:`COUNTER_PREFIX` and, before calling
    ``__init__``, ``config``, ``store`` and ``metrics``; it defines its
    own ``dispatch_next`` (its clock model), which pops a batch with
    :meth:`_next_batch`, sheds with :meth:`_shed_expired` and answers with
    :meth:`_answer`.  Each subclass also binds ``submit`` into its own
    namespace (``submit = AdmissionFront.submit``), so that a per-class
    wrapper (``perfbench/layers.py`` times the two services apart) never
    reaches the other class.
    """

    #: counter family of the admission counters: ``serve`` or ``cluster``
    COUNTER_PREFIX: str

    config: ServeConfig
    store: GraphStore
    metrics: MetricRegistry

    def __init__(self) -> None:
        self.batcher: Batcher[ServeRequest] = Batcher()
        #: the simulated admission clock
        self.now_cycles = 0.0
        self._next_request_id = 0
        self._latencies: List[float] = []
        self._responses: List[ServeResponse] = []

    def submit(
        self,
        algorithm: str,
        params: Optional[dict] = None,
        version: Optional[int] = None,
        deadline_cycles: Optional[float] = None,
    ) -> ServeResponse | int:
        """Admit one query (returns its request id) or shed it.

        ``version=None`` resolves to the latest version *at admission* —
        the snapshot-isolation point; updates applied later never bleed
        into an already-admitted request.  A full queue sheds the newest
        arrival (deterministic reject-new backpressure) and returns the
        terminal :class:`ServeResponse` immediately.  An unknown version
        (KeyError) or a query naming an unknown algorithm or parameter
        (ValueError) raises before anything is queued (HTTP 404/400).
        """
        metrics = self.metrics
        prefix = self.COUNTER_PREFIX
        metrics.inc(f"{prefix}.submitted")
        request_id = self._next_request_id
        self._next_request_id += 1
        if len(self.batcher) >= self.config.queue_limit:
            metrics.inc(f"{prefix}.shed_queue")
            response = ServeResponse(
                request_id, STATUS_SHED_QUEUE, completed_cycles=self.now_cycles
            )
            self._responses.append(response)
            return response
        resolved = self.store.latest_version if version is None else version
        self.store.get(resolved)  # validate
        validate_query(algorithm, params)
        deadline = (
            self.config.default_deadline_cycles
            if deadline_cycles is None
            else deadline_cycles
        )
        request = ServeRequest(
            request_id=request_id,
            algorithm=algorithm,
            params=dict(params or {}),
            version=resolved,
            deadline_cycles=deadline,
            enqueued_at=self.now_cycles,
        )
        key = QueryKey(algorithm, canonical_params(request.params), resolved)
        metrics.inc(f"{prefix}.admitted")
        metrics.observe(f"{prefix}.queue_depth", len(self.batcher) + 1)
        self.batcher.add(key, request)
        return request_id

    def dispatch_next(self) -> Optional[List[ServeResponse]]:
        """Dispatch the single oldest pending batch; returns its
        responses, ``None`` when the queue is empty.

        Event-driven drivers (the traffic harness) use this instead of
        :meth:`drain` so they can interleave new arrivals and mutations
        between batches as the simulated clock advances.
        """
        raise NotImplementedError

    def drain(self) -> List[ServeResponse]:
        """Dispatch every pending batch; returns the new responses."""
        first = len(self._responses)
        while self.dispatch_next() is not None:
            pass
        return self._responses[first:]

    def advance_clock(self, to_cycles: float) -> None:
        """Advance the simulated clock to ``to_cycles`` (never backwards).

        Models idle time: an arrival process whose next event lies in the
        future fast-forwards the service to it instead of busy-waiting.
        """
        if to_cycles > self.now_cycles:
            self.now_cycles = to_cycles

    def _next_batch(self) -> Optional[Tuple[QueryKey, List[ServeRequest]]]:
        """Pop the oldest pending batch and record its size."""
        batch = self.batcher.next_batch()
        if batch is not None:
            self.metrics.observe(f"{self.COUNTER_PREFIX}.batch_size", len(batch[1]))
        return batch

    def _shed_expired(
        self,
        key: QueryKey,
        group: List[ServeRequest],
        start: float,
        worker: str = "",
    ) -> List[ServeRequest]:
        """Shed every request that would only start (at ``start``) after
        its deadline, before any engine work is spent on it; returns the
        rest."""
        live: List[ServeRequest] = []
        for request in group:
            waited = start - request.enqueued_at
            if waited > request.deadline_cycles:
                self.metrics.inc(f"{self.COUNTER_PREFIX}.shed_deadline")
                self._responses.append(
                    ServeResponse(
                        request.request_id,
                        STATUS_SHED_DEADLINE,
                        key=key,
                        latency_cycles=waited,
                        completed_cycles=start,
                        worker=worker,
                    )
                )
            else:
                live.append(request)
        return live

    def _answer(
        self,
        key: QueryKey,
        live: List[ServeRequest],
        completed: float,
        **outcome: Any,
    ) -> None:
        """Answer every live request of one batch at ``completed``."""
        name = f"{self.COUNTER_PREFIX}.latency_cycles"
        for request in live:
            latency = completed - request.enqueued_at
            self._latencies.append(latency)
            self.metrics.observe(name, latency)
            self._responses.append(
                ServeResponse(
                    request.request_id,
                    STATUS_OK,
                    key=key,
                    latency_cycles=latency,
                    completed_cycles=completed,
                    **outcome,
                )
            )

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    def responses(self) -> List[ServeResponse]:
        return list(self._responses)

    def latency_quantile(self, q: float) -> float:
        """Exact quantile (nearest-rank) of completed-request latency, in
        simulated cycles."""
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def _flush_gauges(self) -> None:
        """Set the queue and latency gauges of the admission family."""
        prefix = self.COUNTER_PREFIX
        self.metrics.set(f"{prefix}.queue_pending", float(len(self.batcher)))
        self.metrics.set(f"{prefix}.latency_p50_cycles", self.latency_quantile(0.50))
        self.metrics.set(f"{prefix}.latency_p95_cycles", self.latency_quantile(0.95))


class GraphService(AdmissionFront):
    """Versioned graph serving on one server: batching, caching,
    backpressure, and a single simulated clock."""

    COUNTER_PREFIX = "serve"
    submit = AdmissionFront.submit

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[ServeConfig] = None,
        store: Optional[GraphStore] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.store = store or GraphStore(graph)
        self.core = WorkerCore(self.config, store=self.store)
        self.engine = self.core.engine
        self.cache = self.core.cache
        self.metrics = self.core.metrics
        self.metrics.set("serve.version", 0.0)
        super().__init__()

    def apply_update(self, delta: GraphDelta) -> GraphVersion:
        """Apply one mutation batch; the new version becomes ``latest``.

        Already-admitted requests keep their admission-time snapshot;
        the version advance invalidates the cache for subsequent
        latest-version queries simply because the key changes.
        """
        version = self.store.apply(delta)
        metrics = self.metrics
        metrics.inc("serve.updates_applied")
        metrics.inc("serve.edges_added", len(delta.add_edges))
        metrics.inc("serve.edges_removed", len(delta.remove_edges))
        metrics.inc("serve.edges_reweighted", len(delta.reweight))
        metrics.inc("serve.vertices_added", delta.add_vertices)
        metrics.set("serve.version", version.version)
        return version

    def compact(self, keep_last: int = 8) -> int:
        """Drop all but the newest ``keep_last`` versions of the store."""
        return self.core.compact(keep_last)

    def close(self) -> None:
        """Nothing to stop: the one core runs inline."""

    def dispatch_next(self) -> Optional[List[ServeResponse]]:
        batch = self._next_batch()
        if batch is None:
            return None
        key, group = batch
        first = len(self._responses)
        live = self._shed_expired(key, group, self.now_cycles)
        if live:
            run, cache_hit = self.core.execute(key)
            self.now_cycles += WorkerCore.cycles(run, cache_hit)
            self._answer(
                key,
                live,
                self.now_cycles,
                cache_hit=cache_hit,
                warm=run.warm,
                inherited=run.inherited,
                fallback_reason=run.fallback_reason,
                run=run,
            )
        return self._responses[first:]

    @property
    def makespan_cycles(self) -> float:
        """When the server finishes all work charged so far: its clock."""
        return self.now_cycles

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flattened ``obs.serve.*`` counters (deterministic)."""
        self.metrics.set("serve.cache_hit_rate", self.cache.hit_rate)
        self._flush_gauges()
        return self.metrics.as_dict(prefix="obs.")
