"""The fixed serving script the serving goldens replay.

``tests/test_serve.py`` runs it on a :class:`GraphService` and
``tests/test_cluster.py`` on a 2-worker inline :class:`ClusterService`;
each pins the full ``metrics_snapshot()`` and every response's outcome
to literal values, so a change to admission, deadline shedding, cache
lookup or warm/cold execution that moves any answer or counter fails
both.  The script covers duplicate submissions (coalescing, then a
cache hit), a tight deadline, a mutation that removes an edge (the
sum-type signed-residual warm path and the min/max cold fallback), a
queue-full flood, and an idle-clock advance.
"""

from repro.graph import datasets
from repro.serve import GraphDelta, ServeConfig

GRAPH = ("AZ", 0.1)
CONFIG = dict(cores=4, queue_limit=4, cache_capacity=16)


def golden_graph():
    return datasets.load(GRAPH[0], scale=GRAPH[1])


def golden_config() -> ServeConfig:
    return ServeConfig(**CONFIG)


def first_edge(graph):
    """The first stored edge ``(source, target)`` of ``graph``."""
    source = next(
        v for v in range(graph.num_vertices)
        if graph.offsets[v + 1] > graph.offsets[v]
    )
    return source, int(graph.targets[graph.offsets[source]])


def run_script(service):
    """Drive ``service`` through the fixed script; returns its snapshot."""
    graph = service.store.latest.graph
    service.submit("pagerank")
    service.submit("sssp", {"source": 0})
    service.submit("sssp", {"source": 0})  # coalesces with the previous
    service.drain()
    service.submit("sssp", {"source": 0})  # answered from the cache
    service.submit("wcc", deadline_cycles=1.0)  # expires behind the hit
    service.drain()
    service.apply_update(
        GraphDelta(
            add_edges=[(5, 9)],
            add_weights=(1.0,),
            remove_edges=[first_edge(graph)],
        )
    )
    service.submit("pagerank")  # warm across the removal
    service.submit("sssp", {"source": 0})  # removal: cold fallback
    service.drain()
    for _ in range(CONFIG["queue_limit"] + 2):  # the last two are shed
        service.submit("wcc")
    service.drain()
    service.advance_clock(service.now_cycles + 50_000.0)
    service.submit("bfs", {"source": 1})
    service.submit("pagerank")
    service.drain()
    return service.metrics_snapshot()


def response_rows(service):
    """Every response's ``(request_id, status, key label, cache_hit,
    warm, latency_cycles, completed_cycles)``."""
    return [
        (
            r.request_id,
            r.status,
            r.key.label() if r.key else None,
            r.cache_hit,
            r.warm,
            r.latency_cycles,
            r.completed_cycles,
        )
        for r in service.responses()
    ]
