"""The graph service: admission control, batching, caching, warm engine.

:class:`GraphService` is the front door that ties the serving subsystem
together.  A request travels::

    submit() -> admission (bounded queue, shed when full)
             -> Batcher (coalesce identical queries)
    drain()  -> deadline check (shed expired requests)
             -> ResultCache (hit: answered with zero engine runs)
             -> QueryEngine (warm-start when sound, cold otherwise)

Time comes in two currencies.  *Simulated cycles* are authoritative: the
service clock advances by each engine run's simulated makespan (cache
hits cost a small constant), queue latencies and deadlines are accounted
in cycles, and everything cycle-denominated is deterministic — repeat
runs of the same workload produce bit-identical ``obs.serve.*``
counters.  *Wall time* is measured alongside for operator reporting only
and is deliberately kept out of the metric registry so determinism
survives.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..graph.csr import CSRGraph
from ..hardware.config import HardwareConfig
from ..observe import MetricRegistry
from .batching import Batcher, ResultCache
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

#: the ``serve.*`` counters every dispatch surface pre-creates, so every
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


@dataclass(frozen=True)
class ServeConfig:
    """Operating knobs for one :class:`GraphService`."""

    system: str = "depgraph-h"
    cores: int = 8
    #: admission bound: pending requests beyond this are shed
    queue_limit: int = 64
    #: LRU result-cache capacity, in completed runs
    cache_capacity: int = 128
    #: default per-request deadline, in simulated cycles from admission
    default_deadline_cycles: float = math.inf
    #: enable warm-start incremental recomputation
    warm: bool = True
    max_rounds: int = 4000
    steal_policy: str = "auto"
    #: vertex ordering for every engine run (see :mod:`repro.graph.reorder`);
    #: the engine resolves it once per snapshot version and reuses it
    reorder: str = "identity"
    #: execution backend for every engine run (``scalar`` or ``vector``,
    #: see :mod:`repro.runtime.vector`); answers must agree across
    #: backends under the usual accumulator-kind tolerance rules
    backend: str = "scalar"
    #: cross-engine baseline spool: converged baselines are checkpointed
    #: here and inherited by engines that never ran the lineage (forked
    #: services, restarted cluster workers) — see ``serve.engine``
    baseline_dir: Optional[str] = None
    #: re-anchor a sum-type lineage cold after this many consecutive warm
    #: runs: warm sum-type runs are epsilon-fixpoints seeded from the
    #: previous warm result, so residual error compounds along an
    #: unbroken warm chain; the periodic cold run bounds the drift well
    #: inside ``SUM_STATE_TOLERANCE`` (0 disables)
    sum_reanchor_every: int = 6
    #: process workers open their replica's base snapshot with
    #: ``mmap_mode="r"`` instead of materialising it in RAM — pages
    #: fault in on first touch, so many workers on one host share the
    #: page cache for a large base graph (see ``GraphStore.load``)
    mmap_store: bool = False

    def hardware(self) -> HardwareConfig:
        return HardwareConfig.scaled(num_cores=self.cores)


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
    wall_seconds: float = 0.0
    run: Optional[EngineRun] = None
    #: cluster only: the worker slot that executed the run ("" locally)
    worker: str = ""
    #: cluster only: compact digest of the converged states (the HTTP
    #: response payload; local responses carry the full ``run`` instead)
    summary: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class _Pending:
    request: ServeRequest
    wall_enqueued: float = field(default_factory=time.perf_counter)


class GraphService:
    """Versioned graph serving with batching, caching, and backpressure."""

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[ServeConfig] = None,
        store: Optional[GraphStore] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.store = store or GraphStore(graph)
        self.engine = QueryEngine(
            self.store,
            system=self.config.system,
            hardware=self.config.hardware(),
            warm=self.config.warm,
            max_rounds=self.config.max_rounds,
            reorder=self.config.reorder,
            baseline_dir=self.config.baseline_dir,
            sum_reanchor_every=self.config.sum_reanchor_every,
            steal_policy=self.config.steal_policy,
            backend=self.config.backend,
        )
        self.batcher: Batcher[_Pending] = Batcher()
        self.cache: ResultCache[EngineRun] = ResultCache(
            self.config.cache_capacity
        )
        self.metrics = MetricRegistry()
        #: the service's simulated clock, advanced by engine runs/cache hits
        self.now_cycles = 0.0
        #: wall seconds spent inside engine runs (reporting only)
        self.wall_engine_seconds = 0.0
        self._next_request_id = 0
        self._latencies: List[float] = []
        self._responses: List[ServeResponse] = []
        self._zero_seed_counters()

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------
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
        (ValueError) raises before anything is queued.
        """
        metrics = self.metrics
        metrics.inc("serve.submitted")
        request_id = self._next_request_id
        self._next_request_id += 1
        if len(self.batcher) >= self.config.queue_limit:
            metrics.inc("serve.shed_queue")
            response = ServeResponse(
                request_id, STATUS_SHED_QUEUE,
                completed_cycles=self.now_cycles,
            )
            self._responses.append(response)
            return response
        resolved = (
            self.store.latest_version if version is None else version
        )
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
        metrics.inc("serve.admitted")
        metrics.observe("serve.queue_depth", len(self.batcher) + 1)
        self.batcher.add(key, _Pending(request))
        return request_id

    # ------------------------------------------------------------------
    # Updates.
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def drain(self) -> List[ServeResponse]:
        """Dispatch every pending batch; returns the new responses."""
        first = len(self._responses)
        while self.dispatch_next() is not None:
            pass
        return self._responses[first:]

    def dispatch_next(self) -> Optional[List[ServeResponse]]:
        """Dispatch the single oldest pending batch; ``None`` when empty.

        Event-driven drivers (the traffic harness) use this instead of
        :meth:`drain` so they can interleave new arrivals and mutations
        between batches as the simulated clock advances.
        """
        batch = self.batcher.next_batch()
        if batch is None:
            return None
        first = len(self._responses)
        self._dispatch(*batch)
        return self._responses[first:]

    def advance_clock(self, to_cycles: float) -> None:
        """Advance the simulated clock to ``to_cycles`` (never backwards).

        Models idle time: an arrival process whose next event lies in the
        future fast-forwards the service to it instead of busy-waiting.
        """
        if to_cycles > self.now_cycles:
            self.now_cycles = to_cycles

    def _dispatch(self, key: QueryKey, group: List[_Pending]) -> None:
        metrics = self.metrics
        metrics.observe("serve.batch_size", len(group))

        # Deadline accounting happens at dispatch: a request that waited
        # past its deadline is shed before any engine work is spent on it.
        live: List[_Pending] = []
        for pending in group:
            waited = self.now_cycles - pending.request.enqueued_at
            if waited > pending.request.deadline_cycles:
                metrics.inc("serve.shed_deadline")
                self._responses.append(
                    ServeResponse(
                        pending.request.request_id,
                        STATUS_SHED_DEADLINE,
                        key=key,
                        latency_cycles=waited,
                        completed_cycles=self.now_cycles,
                        wall_seconds=time.perf_counter()
                        - pending.wall_enqueued,
                    )
                )
            else:
                live.append(pending)
        if not live:
            return

        run = self.cache.get(key)
        cache_hit = run is not None
        if cache_hit:
            metrics.inc("serve.cache_hits")
            self.now_cycles += CACHE_HIT_CYCLES
        else:
            metrics.inc("serve.cache_misses")
            wall_start = time.perf_counter()
            run = self.engine.execute(
                key.algorithm, dict(key.params), key.version
            )
            self.wall_engine_seconds += time.perf_counter() - wall_start
            self.now_cycles += run.cycles
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
                # first-ever runs of a lineage have nothing to warm from;
                # a *fallback* means a baseline existed but warm-starting
                # from it would have been unsound (removal under min/max,
                # untransformable algorithm, ...)
                if run.fallback_reason and run.fallback_reason != FALLBACK_NO_BASELINE:
                    metrics.inc("serve.warm_fallbacks")

        for pending in live:
            latency = self.now_cycles - pending.request.enqueued_at
            self._latencies.append(latency)
            metrics.observe("serve.latency_cycles", latency)
            self._responses.append(
                ServeResponse(
                    pending.request.request_id,
                    STATUS_OK,
                    key=key,
                    cache_hit=cache_hit,
                    warm=run.warm,
                    inherited=run.inherited,
                    fallback_reason=run.fallback_reason,
                    latency_cycles=latency,
                    completed_cycles=self.now_cycles,
                    wall_seconds=time.perf_counter() - pending.wall_enqueued,
                    run=run,
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

    def metrics_snapshot(self) -> dict:
        """Flattened ``obs.serve.*`` counters (deterministic)."""
        self.metrics.set("serve.cache_hit_rate", self.cache.hit_rate)
        self.metrics.set("serve.queue_pending", len(self.batcher))
        self.metrics.set(
            "serve.latency_p50_cycles", self.latency_quantile(0.50)
        )
        self.metrics.set(
            "serve.latency_p95_cycles", self.latency_quantile(0.95)
        )
        return self.metrics.as_dict(prefix="obs.")

    def _zero_seed_counters(self) -> None:
        """Pre-create :data:`SERVE_COUNTER_FAMILY` (zero-seeding)."""
        for name in SERVE_COUNTER_FAMILY:
            self.metrics.inc(name, 0.0)
        self.metrics.set("serve.version", 0.0)
