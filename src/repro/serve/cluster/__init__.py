"""Multi-worker serving cluster with an HTTP/JSON front door.

The single-process serving tier (:mod:`repro.serve.service`) tops out
at one engine; this package shards it across a pool of workers while
keeping the tier's two contracts intact — *simulated-cycle determinism*
(same seed, same ``obs.*`` counters, bit for bit) and *warm-start
soundness* (the :mod:`repro.serve.warmstart` rules apply per worker,
unchanged).

Layers, bottom-up:

* :mod:`~repro.serve.cluster.routing` — rendezvous-hash lineage ->
  worker assignment (deterministic, minimal-disruption, restart-stable);
* :mod:`~repro.serve.cluster.worker` — one :class:`WorkerCore` per slot
  (the execution core :class:`~repro.serve.GraphService` also runs)
  behind an inline transport (deterministic experiments) or a spawned
  OS process (``multiprocessing``, crash-isolated);
* :mod:`~repro.serve.cluster.dispatch` — :class:`ClusterService`: the
  shared admission front (:class:`~repro.serve.service.AdmissionFront`)
  with per-worker ``busy_until`` discrete-event clocks, worker restart +
  batch requeue on death, and the aggregated ``obs.cluster.*`` family;
* :mod:`~repro.serve.cluster.http_api` — the stdlib asyncio HTTP/JSON
  front door behind ``python -m repro serve --port N``.

See ``docs/SERVING.md`` ("Cluster & front door") for the operator view.
"""

from .dispatch import (
    CLUSTER_COUNTER_FAMILY,
    DISPATCH_CYCLES,
    ClusterService,
)
from .http_api import ClusterHTTPServer, run_server
from ..service import WorkerCore
from .routing import RoutingTable
from .worker import InlineWorkerClient, ProcessWorkerClient, WorkerDied

__all__ = [
    "CLUSTER_COUNTER_FAMILY",
    "DISPATCH_CYCLES",
    "ClusterHTTPServer",
    "ClusterService",
    "InlineWorkerClient",
    "ProcessWorkerClient",
    "RoutingTable",
    "WorkerCore",
    "WorkerDied",
    "run_server",
]
