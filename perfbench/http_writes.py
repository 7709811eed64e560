"""Workload ``http-writes``: the HTTP front door under a write-heavy mix.

The program runs as ``python -m repro serve --transport inline --workers 2
--backend vector --dataset AZ --scale 0.3`` in its own process.  This
process is the one client: two threads, each holding one keep-alive
connection, drive a closed loop of requests:

* 30% ``POST /update``, each adding one valid new edge (no self-loop,
  endpoints in range, not already in the graph);
* 70% ``POST /query`` over the 8-spec catalog with Zipf s=1.1 popularity;
* ``POST /compact`` (keep the last 8 versions) after every 50th update.

Most queries land on a new version, so the result cache mostly misses
(about 22% of answered queries are hits; each run prints the share);
warm-start planning, CSR mutation and compaction do the work and
the vector engine does not hide them.  It is the only workload with real
request latency through the HTTP front door and the cluster dispatcher.

The request mix is generated from the seed before the window opens
(stratified, see ``common.Stratified``), so the seed fixes which requests
are sent; the two connections then interleave them as the server answers.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from common import (
    HERE,
    OUT,
    ROOT,
    SETUP_REPEATS,
    Outcome,
    Stratified,
    child_env,
    process_peak_rss_mb,
    stop,
    wait_for_line,
)
from oracle import VersionGraphs, reference_states, summary_error
from stats import median, quantile, tail

DATASET, SCALE = "AZ", 0.3
SERVE_ARGS = [
    "serve", "--transport", "inline", "--workers", "2", "--backend", "vector",
    "--dataset", DATASET, "--scale", str(SCALE), "--port", "0",
]
CONNECTIONS = 2
UPDATE_SHARE = 0.3
COMPACT_EVERY_UPDATES = 50
KEEP_LAST = 8
ZIPF_S = 1.1
#: requests per second of ``--seconds`` (sizes the run to about
#: ``--seconds`` on a 2-core x86 host)
REQUESTS_PER_SECOND = 100


class Server:
    """One server process: started, timed to ready, stopped."""

    def __init__(self, tag: str, trace_path: Optional[str] = None) -> None:
        self.spool = OUT / f"spool-{tag}"
        shutil.rmtree(self.spool, ignore_errors=True)
        args = SERVE_ARGS + ["--spool-dir", str(self.spool)]
        if trace_path is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"), trace_path] + args
        #: the server's standard error (shutdown noise, or why it failed)
        self.log = open(OUT / f"server-{tag}.log", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        try:
            line = wait_for_line(self.proc, "listening on http://")
            self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, _ = self.request(None, "GET", "/readyz")
            if status == 200:
                return
            time.sleep(0.02)
        raise RuntimeError("server never became ready")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def request(self, conn, method: str, path: str, body=None):
        own = conn is None
        conn = conn or self.connect()
        try:
            data = None if body is None else json.dumps(body)
            conn.request(method, path, body=data, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            if own:
                conn.close()

    def stop(self) -> None:
        """Terminate the server, wait for it, remove its spool.  SIGTERM, not
        SIGINT: a process started in the background inherits SIGINT ignored."""
        stop(self.proc)
        self.log.close()
        shutil.rmtree(self.spool, ignore_errors=True)


def plan(seed: int, count: int, versions: VersionGraphs) -> List[tuple]:
    """The seeded request list: ("query", spec) / ("update", edge, weight) /
    ("compact",)."""
    from repro.serve import ZipfChooser, default_catalog

    catalog = default_catalog()
    zipf = ZipfChooser(len(catalog), ZIPF_S)
    kinds = Stratified(random.Random(f"http-writes/{seed}/kinds"))
    specs = Stratified(random.Random(f"http-writes/{seed}/specs"))
    edge_rng = random.Random(f"http-writes/{seed}/edges")
    n = versions.base.num_vertices
    ops: List[tuple] = []
    updates = 0
    while len(ops) < count:
        if kinds.random() < UPDATE_SHARE:
            while True:
                edge = (edge_rng.randrange(n), edge_rng.randrange(n))
                if edge[0] != edge[1] and versions.is_new(edge):
                    break
            versions.claim([edge])
            ops.append(("update", edge, round(edge_rng.uniform(0.5, 1.5), 3)))
            updates += 1
            if updates % COMPACT_EVERY_UPDATES == 0:
                ops.append(("compact",))
        else:
            spec = catalog[zipf.pick(specs)]
            ops.append(("query", spec.algorithm, dict(spec.params)))
    return ops[:count]


class Client:
    """Two keep-alive connections working through one request list."""

    def __init__(self, server: Server, ops: List[tuple]) -> None:
        self.server = server
        self.ops = ops
        self._next = 0
        self._lock = threading.Lock()
        #: (op, http status, payload, client seconds, error, finish time)
        self.done: List[tuple] = []

    def _take(self) -> Optional[tuple]:
        with self._lock:
            if self._next >= len(self.ops):
                return None
            self._next += 1
            return self.ops[self._next - 1]

    def _loop(self) -> None:
        conn = self.server.connect()
        try:
            while (op := self._take()) is not None:
                if op[0] == "query":
                    path, body = "/query", {"algorithm": op[1], "params": op[2]}
                elif op[0] == "update":
                    path, body = "/update", {"add_edges": [list(op[1])], "add_weights": [op[2]]}
                else:
                    path, body = "/compact", {"keep_last": KEEP_LAST}
                start = time.perf_counter()
                try:
                    status, payload = self.server.request(conn, "POST", path, body)
                    error = None
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    status, payload, error = 0, {}, repr(exc)
                    conn.close()
                    conn = self.server.connect()
                end = time.perf_counter()
                self.done.append((op, status, payload, end - start, error, end))
        finally:
            conn.close()

    def run(self) -> float:
        threads = [threading.Thread(target=self._loop) for _ in range(CONNECTIONS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start


def _check(client: Client, versions: VersionGraphs, out: Outcome) -> None:
    """Log every update's version, then check every query summary."""
    from repro.serve.config import SUM_STATE_TOLERANCE

    for op, status, payload, *_ in client.done:
        if op[0] == "update" and status == 200:
            versions.record(payload["version"], [op[1]], [op[2]])
    expected: Dict[tuple, object] = {}
    for op, status, payload, _, error, _ in client.done:
        out.attempted += 1
        if status != 200:
            out.fail(f"{op[0]}: HTTP {status} {error or payload.get('error')}")
            continue
        if op[0] != "query":
            continue
        if not payload.get("ok"):
            out.fail(f"query {payload.get('request_id')}: {payload.get('status')}", wrong=False)
            continue
        label = payload["query"]
        version = int(label.rsplit("@v", 1)[1])
        key = (op[1], tuple(sorted(op[2].items())), version)
        try:
            if key not in expected:
                expected[key] = reference_states(op[1], op[2], versions.graph(version))
        except KeyError as exc:  # an update whose response never arrived
            out.fail(f"query {payload['request_id']} {label}: {exc}")
            continue
        problem = summary_error(op[1], payload.get("summary"), expected[key], SUM_STATE_TOLERANCE)
        if problem is not None:
            out.fail(f"query {payload['request_id']} {label}: {problem}")


def _service_kcyc(payloads: List[dict]) -> List[tuple]:
    """``(simulated kcycles, cache hit)`` of each answered query batch.

    A batch is one query label answered by one worker at one completion
    stamp (coalesced requests share both).  The front door never advances
    the dispatcher's clock with real time, so every worker's busy clock runs
    ahead of it and each batch starts when the worker's previous batch
    completed: the gap between a worker's consecutive stamps is the cycles
    of the one batch that ended at the later stamp.  Any other batch on that
    stamp took 0 cycles (a warm run the delta did not reach); a cache hit
    always costs ``CACHE_HIT_CYCLES``, so when a hit shares a stamp, the gap
    is the hit's.  A worker's first stamp has no gap and is left out.
    """
    groups: Dict[str, Dict[float, Dict[str, bool]]] = {}
    for payload in payloads:
        at = groups.setdefault(payload["worker"], {}).setdefault(payload["completed_cycles"], {})
        at[payload["query"]] = payload["cache_hit"]
    batches = []
    for by_stamp in groups.values():
        ordered = sorted(by_stamp)
        for before, stamp in zip(ordered, ordered[1:]):
            gap = (stamp - before) / 1e3
            labels = by_stamp[stamp]
            hit = any(labels.values())
            batches += [(0.0, False)] * (len(labels) - 1) + [(gap, hit)]
    return batches


def _summarise(client: Client, wall: float, out: Outcome) -> None:
    ok = [(op, p, s) for op, status, p, s, _, _ in client.done if status == 200]
    answered = [p for op, p, s in ok if op[0] == "query" and p.get("ok")]
    query_ms = [1e3 * s for op, p, s in ok if op[0] == "query" and p.get("ok")]
    update_ms = [1e3 * s for op, p, s in ok if op[0] == "update"]
    batches = _service_kcyc(answered)
    # batches that ran the engine and did work: a cache hit always costs
    # CACHE_HIT_CYCLES, and about 40% of warm runs take 0 cycles (the delta
    # did not reach the query), so a median over all batches would read one
    # of those two constants
    engine_kcyc = [kcyc for kcyc, hit in batches if not hit]
    working_kcyc = [kcyc for kcyc in engine_kcyc if kcyc > 0]
    hits = sum(1 for p in answered if p["cache_hit"])
    updates = sum(1 for op, *_ in client.done if op[0] == "update")
    query_p95, q_query = tail(query_ms)
    update_p95, q_update = tail(update_ms)
    sim_p95, q_sim = tail(working_kcyc)
    n = len(client.done)
    out.e2e.update(
        ops_per_s=n / wall,
        host_p50_ms=median(query_ms),
        sim_p50_kcyc=quantile(working_kcyc, 0.5),
    )
    out.layers["http.update_ms_p95"] = update_p95
    out.report += [
        ("http_req_per_s", n / wall, "1/s", f"{n} requests in {wall:.1f}s"),
        ("update share of requests", updates / n, "share", f"{updates} of {n}"),
        ("cache-hit share of answers", hits / len(answered), "share", f"{hits} of {len(answered)} queries"),
        ("http_query_p50_ms", median(query_ms), "ms", f"p50 of {len(query_ms)}"),
        (f"http_query_p{100 * q_query:g}_ms", query_p95, "ms", f"p{100 * q_query:g} of {len(query_ms)}"),
        (f"http_update_p{100 * q_update:g}_ms", update_p95, "ms", f"p{100 * q_update:g} of {len(update_ms)}"),
        (f"engine batch p50/p{100 * q_sim:g}", f"{quantile(working_kcyc, 0.5):.3f}/{sim_p95:.1f}",
         "kcycles", f"simulated, {len(working_kcyc)} batches that ran the engine and took cycles"),
        ("zero-cycle share of engine batches", 1 - len(working_kcyc) / len(engine_kcyc), "share",
         f"of {len(engine_kcyc)} engine batches ({len(batches)} answered batches)"),
    ]


def _serve_counts(server: Server) -> Dict[str, float]:
    status, payload = server.request(None, "GET", "/metrics")
    snap = payload["metrics"]
    runs = snap["obs.serve.engine_runs"]
    return {
        "serve.engine_runs": runs,
        "serve.cold_runs": snap["obs.serve.cold_runs"],
        "serve.warm_runs": snap["obs.serve.warm_runs"],
        "serve.warm_fallbacks": snap["obs.serve.warm_fallbacks"],
        "serve.cache_hit_rate": snap["obs.serve.cache_hit_rate"],
        "serve.coalesce_ratio": snap["obs.cluster.admitted"] / runs if runs else 0.0,
    }


def _window(server: Server, ops: List[tuple]):
    client = Client(server, ops)
    start = time.perf_counter()
    wall = client.run()
    return client, start, start + wall


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.graph import datasets

    out = Outcome()
    base = datasets.load(DATASET, scale=SCALE)
    count = max(1, round(REQUESTS_PER_SECOND * seconds))
    setup_samples = []
    server = None
    try:
        for i in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(f"{seed}-{i}")
            setup_samples.append(server.setup_s)
        versions = VersionGraphs(base)
        ops = plan(seed, count, versions)
        client, start, end = _window(server, ops)
        out.e2e["peak_rss_mb"] = process_peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
    out.e2e["setup_s"] = median(setup_samples)
    if trace:
        untraced = end - start
        trace_path = str(OUT / f"http-writes-{seed}.trace.json")
        traced_server = Server(f"{seed}-traced", trace_path=trace_path)
        try:
            versions = VersionGraphs(base)
            ops = plan(seed, count, versions)
            client, start, end = _window(traced_server, ops)
            counts = _serve_counts(traced_server)
        finally:
            traced_server.stop()
        with open(trace_path) as handle:
            out.layers.update(_traced_layers(json.load(handle), client, start, end, untraced))
        out.layers.update(counts)
    _check(client, versions, out)
    _summarise(client, end - start, out)
    return out


def _traced_layers(trace: dict, client: Client, start: float, end: float, untraced: float):
    from layers import layer_metrics, union_s

    out = layer_metrics(trace)
    wall = end - start

    def clipped(prefix: str):
        return [
            (max(s, start), min(e, end))
            for name, s, e, _, _ in trace["spans"]
            if name.startswith(prefix) and e > start and s < end
        ]

    # the dispatch thread's boundaries nest, so their self times add up to
    # the time it spent inside a cluster call; the front door's own time is
    # the event loop's busy time outside those calls.  The rest of the
    # window the server is idle: the requests are in the client or on the
    # loopback network.
    cluster = clipped("cluster.")
    busy = union_s(cluster)
    attributed = union_s(cluster + clipped("http.loop"))
    out["cluster.busy_share"] = busy / wall
    out["http.front_door_share"] = (attributed - busy) / wall
    out["trace.layer_self_share"] = attributed / wall
    out["trace.overhead_ratio"] = wall / untraced

    service: Dict[int, float] = {}
    for name, s, e, _, ids in trace["spans"]:
        if name in ("cluster.submit", "cluster.dispatch"):
            for rid in ids:
                service[rid] = service.get(rid, 0.0) + (e - s)
    waits = [
        1e3 * (seconds - service[p["request_id"]])
        for op, status, p, seconds, _, _ in client.done
        if op[0] == "query" and status == 200 and p.get("request_id") in service
    ]
    out["http.wait_ms_p95"] = tail(waits)[0] if waits else 0.0
    return out
