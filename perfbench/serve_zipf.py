"""Workload ``serve-zipf``: an in-process ``GraphService`` under a closed loop.

The service runs depgraph-h on 4 simulated cores with the scalar engine,
queue limit 12, cache capacity 32 and a 2M-cycle deadline, over AZ@0.1.
The benchmark's own closed loop drives it with 8 simulated users: Zipf
s=1.1 over the 8-spec sssp/wcc/bfs/pagerank catalog, exponential think
time of 150k cycles, a 1-3-edge mutation burst every 600k cycles, after a
warm-up pass over the catalog (part of set-up).

It is read-heavy: most requests hit the result cache, and batching, warm
start and the sum-type re-anchor shape simulated latency, while the scalar
engine still takes nearly all host time.  Everything runs on the service's
simulated clock, so for one seed and run size every simulated figure
repeats exactly.

A run is a pool of short sessions of :data:`SESSION_RESPONSES` terminal
responses each.  Every session starts from the warmed service state: a
fresh ``GraphService`` over the base graph whose engine holds the warm-up
baselines and whose result cache holds the warm-up answers.  One long
session locks into a trajectory early (how many pagerank lineages see each
new version), and its query rate and tail latency moved by +-20% from seed
to seed; pooling independent sessions averages that out.

The pool is run :data:`REPLAYS` times with the same inputs; every replay
must reproduce the first exactly.  Host times are each session's and each
engine dispatch's fastest replay: the shared host alternates between fast
and slow periods of 5-15 s, and the same work takes up to 45% longer in a
slow one, so a single run's host times move with how much of it fell in
slow periods.

The seed drives every input.  Zipf draws, think times and burst sizes
come from stratified streams: each block of
:data:`common.STRATUM` draws takes one value from each of that many
equal-probability strata, in a seeded order.  Different seeds then differ in
order and fine detail but not in how many heavy queries or mutations a
session holds, which keeps the spread across seeds small.  Mutation bursts
come on a fixed 600k-cycle period for the same reason: with random gaps,
the tail latency moved twice as much from seed to seed.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import time
from typing import Dict, List

from common import OUT, Outcome, Stratified, peak_rss_mb, probe_setup
from layers import Ledger, in_process_metrics, install
from oracle import VersionGraphs, reference_states, states_error
from stats import median, quantile, tail

DATASET, SCALE = "AZ", 0.1
USERS = 8
ZIPF_S = 1.1
THINK_CYCLES = 150_000.0
MUTATION_EVERY_CYCLES = 600_000.0
MAX_BURST_EDGES = 3
#: terminal responses per second of ``--seconds``: sizes the run so its
#: replays take about ``--seconds`` on a 2-core x86 host, while keeping the
#: simulated trajectory a function of (seed, seconds) alone
RESPONSES_PER_SECOND = 20
SESSION_RESPONSES = 80
#: the session pool is run this many times; host times are each session's
#: and each dispatch's fastest replay
REPLAYS = 2
CONFIG = dict(
    system="depgraph-h", cores=4, backend="scalar", queue_limit=12,
    cache_capacity=32, default_deadline_cycles=2_000_000.0,
)


def setup():
    """Build the service over the base graph and run the warm-up pass."""
    from repro.graph import datasets
    from repro.serve import GraphService, ServeConfig, default_catalog

    graph = datasets.load(DATASET, scale=SCALE)
    service = GraphService(graph, ServeConfig(**CONFIG))
    for spec in default_catalog():
        service.submit(spec.algorithm, dict(spec.params))
    return service, service.drain()


def fork(warm, warmup) -> object:
    """A fresh service in the warmed state: the warm engine's baselines and
    the warm-up answers in its cache, its clock where warm-up left it."""
    from repro.serve import GraphService, ServeConfig

    service = GraphService(warm.store.get(0).graph, ServeConfig(**CONFIG))
    for algorithm, params, version, states in warm.engine.export_baselines():
        service.engine.install_baseline(algorithm, dict(params), version, states, inherited=False)
    for response in warmup:
        service.cache.put(response.key, response.run)
    service.advance_clock(warm.now_cycles)
    return service


class Inputs:
    """The run's seeded input streams, shared by all of its sessions so the
    strata balance over the whole run, not within each short session."""

    def __init__(self, seed: int) -> None:
        label = f"serve-zipf/{seed}"
        self.specs = Stratified(random.Random(f"{label}/specs"))
        self.think = Stratified(random.Random(f"{label}/think"))
        self.bursts = Stratified(random.Random(f"{label}/bursts"))
        self.edges = random.Random(f"{label}/edges")


class Session:
    """One closed-loop session of ``target`` terminal responses."""

    def __init__(self, inputs: Inputs, target: int) -> None:
        from repro.serve import ZipfChooser, default_catalog

        self.target = target
        self.inputs = inputs
        self.catalog = default_catalog()
        self.zipf = ZipfChooser(len(self.catalog), ZIPF_S)
        #: (response, scheduled arrival cycles)
        self.terminals: List[tuple] = []
        #: host seconds of each dispatch that ran the engine
        self.engine_dispatch_s: List[float] = []
        self.mutations = 0
        #: host seconds the session took
        self.wall = 0.0

    def answered(self) -> int:
        """Terminal responses answered ok (cache hits included)."""
        return sum(1 for r, _ in self.terminals if r.ok)

    def edge_ops(self) -> int:
        """Simulated edge operations of the engine runs this session caused."""
        runs = {id(r.run): r.run for r, _ in self.terminals if r.ok and not r.cache_hit}
        return sum(run.result.edge_operations for run in runs.values())

    def _mutate(self, service, versions: VersionGraphs) -> None:
        from repro.serve import GraphDelta

        n = versions.base.num_vertices
        edges, weights = [], []
        for _ in range(1 + int(MAX_BURST_EDGES * self.inputs.bursts.random())):
            while True:
                edge = (self.inputs.edges.randrange(n), self.inputs.edges.randrange(n))
                if edge[0] != edge[1] and versions.is_new(edge) and edge not in edges:
                    break
            edges.append(edge)
            weights.append(round(self.inputs.edges.uniform(0.5, 1.5), 3))
        versions.claim(edges)
        version = service.apply_update(
            GraphDelta(add_edges=tuple(edges), add_weights=tuple(weights))
        )
        self.mutations += 1
        versions.record(version.version, edges, weights)

    def run(self, service, versions: VersionGraphs) -> None:
        from repro.serve import ServeResponse

        catalog = self.catalog
        started = time.perf_counter()
        heap: List[tuple] = []
        seq = 0
        base = service.now_cycles
        for user in range(USERS):
            seq += 1
            heapq.heappush(heap, (base + THINK_CYCLES * self.inputs.think.random(), seq, user))
        next_mutation = base + MUTATION_EVERY_CYCLES
        inflight: Dict[int, tuple] = {}
        while len(self.terminals) < self.target:
            if len(service.batcher) == 0:
                service.advance_clock(min(heap[0][0], next_mutation))
            now = service.now_cycles
            while next_mutation <= now:
                self._mutate(service, versions)
                next_mutation += MUTATION_EVERY_CYCLES
            while heap and heap[0][0] <= now:
                scheduled, _, user = heapq.heappop(heap)
                spec = catalog[self.zipf.pick(self.inputs.specs)]
                outcome = service.submit(spec.algorithm, dict(spec.params))
                if isinstance(outcome, ServeResponse):
                    self.terminals.append((outcome, scheduled))
                    seq += 1
                    heapq.heappush(heap, (now + self.inputs.think.expovariate(THINK_CYCLES), seq, user))
                else:
                    inflight[outcome] = (user, scheduled)
            start = time.perf_counter()
            responses = service.dispatch_next() or ()
            if any(r.ok and not r.cache_hit for r in responses):
                self.engine_dispatch_s.append(time.perf_counter() - start)
            for response in responses:
                user, scheduled = inflight.pop(response.request_id)
                self.terminals.append((response, scheduled))
                done = max(response.completed_cycles, service.now_cycles)
                seq += 1
                heapq.heappush(heap, (done + self.inputs.think.expovariate(THINK_CYCLES), seq, user))
        self.wall = time.perf_counter() - started


def _check(sessions, out: Outcome) -> None:
    """Every ok response's states against the reference for its version."""
    from repro.serve.config import SUM_STATE_TOLERANCE

    for session, versions in sessions:
        verdicts: Dict[int, object] = {}
        for response, _ in session.terminals:
            out.attempted += 1
            if not response.ok:
                out.fail(f"request {response.request_id}: {response.status}", wrong=False)
                continue
            run = response.run
            if id(run) not in verdicts:
                key = response.key
                expected = reference_states(
                    key.algorithm, dict(key.params), versions.graph(key.version)
                )
                verdicts[id(run)] = (
                    "did not converge" if not run.result.converged
                    else states_error(key.algorithm, run.result.states, expected, SUM_STATE_TOLERANCE)
                )
            if verdicts[id(run)] is not None:
                out.fail(f"request {response.request_id} {response.key.label()}: {verdicts[id(run)]}")


def _fastest(pools) -> tuple:
    """Host seconds over replays of one pool: each session's fastest wall,
    and each engine dispatch's fastest time (a replay repeats every
    dispatch of the first run, in order)."""
    walls, dispatch_s = [], []
    for replays in zip(*pools):
        sessions = [session for session, _ in replays]
        walls.append(min(session.wall for session in sessions))
        dispatch_s += [min(times) for times in zip(*(s.engine_dispatch_s for s in sessions))]
    return walls, dispatch_s


def _trajectory(sessions) -> str:
    """Digest of every response of a pool, in order."""
    return hashlib.sha256(
        repr([(r.request_id, r.status, r.key and r.key.label(), r.cache_hit, r.latency_cycles)
              for session, _ in sessions for r, _ in session.terminals]).encode()
    ).hexdigest()[:16]


def _summarise(pools, services, out: Outcome) -> None:
    """Simulated figures from the first run of the pool, host times from
    the fastest of its replays."""
    from repro.serve import CACHE_HIT_CYCLES

    sessions = pools[0]
    terminals = [t for session, _ in sessions for t in session.terminals]
    ok = [(r, s) for r, s in terminals if r.ok]
    latency = [(r.completed_cycles - s) / 1e3 for r, s in ok]
    misses = [r for r, _ in ok if not r.cache_hit]
    hit_share = 1.0 - len(misses) / len(ok)
    # the engine runs behind those answers that did work: a cache hit always
    # costs CACHE_HIT_CYCLES and about 40% of warm runs take 0 cycles (the
    # delta did not reach the query), so a median over all answers would
    # read one of those two constants
    runs = {id(r.run): r.run.cycles / 1e3 for r in misses}
    working_kcyc = [kcyc for kcyc in runs.values() if kcyc > 0]
    service_kcyc = [(CACHE_HIT_CYCLES if r.cache_hit else r.run.cycles) / 1e3 for r, _ in ok]
    wait = [lat - svc for lat, svc in zip(latency, service_kcyc)]
    # host time of the dispatches that ran the simulator; a cache hit takes
    # microseconds, and mixing the two makes every percentile bimodal
    walls, dispatch_s = _fastest(pools)
    host_ms = [1e3 * h for h in dispatch_s]
    wall = sum(walls)
    edge_ops = sum(session.edge_ops() for session, _ in sessions)
    # the gate is engine speed through the service: answered queries per
    # second moved by a third from seed to seed (how much pagerank work a
    # seed's mutations cause), more than any bound may allow
    rate = len(ok) / wall
    edge_rate = edge_ops / wall
    sim_p95, q_sim = tail(latency)
    engine_p50 = quantile(working_kcyc, 0.5)
    host_p95, q_host = tail(host_ms)
    out.e2e.update(
        ops_per_s=edge_rate,
        host_p50_ms=median(host_ms),
        sim_p50_kcyc=engine_p50,
    )
    snaps = [service.metrics_snapshot() for service in services]

    def total(name: str) -> float:
        return sum(snap[f"obs.serve.{name}"] for snap in snaps)

    engine_runs, hits = total("engine_runs"), total("cache_hits")
    counts = {
        "serve.engine_runs": engine_runs,
        "serve.cold_runs": total("cold_runs"),
        "serve.warm_runs": total("warm_runs"),
        "serve.warm_fallbacks": total("warm_fallbacks"),
        "serve.cache_hit_rate": hits / (hits + total("cache_misses")),
        "serve.coalesce_ratio": len(ok) / engine_runs,
        "serve.queue_wait_kcyc_p95": tail(wait)[0],
        "serve.service_kcyc_p95": tail(service_kcyc)[0],
    }
    out.layers.update(counts)
    n = len(ok)
    out.report += [
        ("serve_queries_per_s", rate, "1/s",
         f"{n} answered in {wall:.1f}s, {len(sessions)} sessions at their fastest of {len(pools)} runs"),
        ("serve sim edge ops per s", edge_rate, "1/s", f"{edge_ops} edge ops"),
        ("cache-hit share of answers", hit_share, "share", f"{len(ok) - len(misses)} of {n}"),
        ("engine run p50", engine_p50, "kcycles", f"simulated, {len(working_kcyc)} runs that took cycles"),
        ("zero-cycle share of engine runs", 1 - len(working_kcyc) / len(runs), "share", f"of {len(runs)} runs"),
        ("serve_sim_p50_kcyc", quantile(latency, 0.5), "kcycles", f"p50 of {n}"),
        (f"serve_sim_p{100 * q_sim:g}_kcyc", sim_p95, "kcycles", f"p{100 * q_sim:g} of {n}"),
        ("engine dispatch host p50/p95 ms", f"{median(host_ms):.2f}/{host_p95:.2f}", "ms",
         f"p{100 * q_host:g} of {len(host_ms)} dispatches"),
        ("mutation bursts", sum(s.mutations for s, _ in sessions), "count", "all sessions"),
        ("engine runs (cold)", f"{engine_runs:g} ({counts['serve.cold_runs']:g})", "count", "deterministic"),
    ]
    out.determinism.update(counts)
    out.determinism.update(
        sim_p50_kcyc=engine_p50, sim_all_p50_kcyc=quantile(latency, 0.5),
        sim_p95_kcyc=sim_p95, trajectory=_trajectory(sessions),
    )


def _window(seed: int, responses: int, warmed):
    """Run the session pool from ``warmed`` (what :func:`setup` returns,
    which no session changes); returns what the oracle needs."""
    warm, warmup = warmed
    inputs = Inputs(seed)
    sessions, services = [], []
    for _ in range(max(1, round(responses / SESSION_RESPONSES))):
        service = fork(warm, warmup)
        versions = VersionGraphs(service.store.get(0).graph)
        session = Session(inputs, SESSION_RESPONSES)
        session.run(service, versions)
        sessions.append((session, versions))
        services.append(service)
    return sessions, services


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    setup_samples = probe_setup("serve-zipf")
    responses = RESPONSES_PER_SECOND * seconds
    start = time.perf_counter()
    warmed = setup()
    set_up = time.perf_counter() - start
    pools, walls = [], []
    for _ in range(REPLAYS):
        start = time.perf_counter()
        sessions, services = _window(seed, responses, warmed)
        walls.append(time.perf_counter() - start)
        pools.append(sessions)
    if any(_trajectory(pool) != _trajectory(pools[0]) for pool in pools[1:]):
        out.wrong.append("a replay differs from the first run of the same inputs (determinism)")
    if trace:
        plain = Outcome()
        _summarise(pools, services, plain)
        ledger = install(Ledger())
        try:
            start = time.perf_counter()
            sessions, services = _window(seed, responses, setup())
            end = time.perf_counter()
        finally:
            ledger.uninstall()
        path = str(OUT / f"serve-zipf-{seed}.trace.json")
        # the traced window sets up too, so the untraced one counts set-up
        out.layers.update(in_process_metrics(ledger, start, end, set_up + min(walls), path))
        pools = [sessions]
    _check(pools[0], out)
    _summarise(pools, services, out)
    if trace and out.determinism != plain.determinism:
        out.wrong.append("traced sessions differ from the untraced sessions (determinism)")
    out.e2e["setup_s"] = median(setup_samples)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    return out
