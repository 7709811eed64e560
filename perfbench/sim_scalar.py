"""Workload ``sim-scalar``: cold scalar simulations, the path every figure takes.

Ten specs on 8 simulated cores with ``HardwareConfig.scaled`` (1 KB L1,
4 KB L2, 128 KB LLC):

* GL@0.3 (210 V / 3,032 E, ~52 KB working set: fits the modelled LLC)
  x {depgraph-h, ligra-o} x {pagerank, sssp, wcc};
* AZ@1.0 (3,000 V / 11,984 E, ~258 KB: spills to DRAM)
  x {depgraph-h, ligra-o} x {sssp, wcc}.

The two graphs put the cache model on its hit path and its miss path;
pagerank exercises the DDMU shortcuts that sssp and wcc skip.  Every run
starts with empty modelled caches, as every figure run does.  The seed only
orders the specs within each pass; the graphs are the fixed stand-ins.

A run repeats whole passes for about ``--seconds`` and reports each
spec's fastest repetition.  The shared host alternates between fast and
slow periods of 5-15 s (the same simulation takes up to 45% longer in a
slow one), and a pass takes 7-10 s, so a run holds only 2-4 repetitions of
a spec and their median moves with how many fell in slow periods.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Dict, List

from common import OUT, Outcome, peak_rss_mb, probe_setup
from layers import Ledger, in_process_metrics, install, result_counts
from oracle import SIM_SUM_TOLERANCE, reference_states, states_error
from stats import median

GRAPHS = (("GL", 0.3), ("AZ", 1.0))
SPECS = tuple(
    (dataset, system, algorithm)
    for dataset, algorithms in (("GL", ("pagerank", "sssp", "wcc")), ("AZ", ("sssp", "wcc")))
    for system in ("depgraph-h", "ligra-o")
    for algorithm in algorithms
)
CORES = 8


def setup() -> Dict[str, object]:
    """Load the graphs and the machine model: what a figure run loads."""
    from repro.graph import datasets
    from repro.hardware import HardwareConfig

    graphs = {name: datasets.load(name, scale=scale) for name, scale in GRAPHS}
    return {"graphs": graphs, "hardware": HardwareConfig.scaled(num_cores=CORES)}


def _simulate(state, spec):
    """One cold simulation: ``(result, host seconds)``."""
    from repro import algorithms, runtime

    dataset, system, algorithm = spec
    start = time.perf_counter()
    result = runtime.run(
        system, state["graphs"][dataset], algorithms.make(algorithm), state["hardware"]
    )
    return result, time.perf_counter() - start


class Runs:
    """Each spec's first result, plus a fingerprint and wall time per run
    (repeats are not kept, so memory does not grow with the run)."""

    def __init__(self) -> None:
        self.first: Dict[tuple, object] = {}
        self.runs: Dict[tuple, List[tuple]] = {spec: [] for spec in SPECS}

    def add(self, spec, result, wall: float) -> None:
        self.first.setdefault(spec, result)
        self.runs[spec].append((_fingerprint(result), wall))


def _label(spec) -> str:
    return "/".join(spec)


def _fingerprint(result) -> str:
    digest = hashlib.sha256(repr(sorted(result_counts(result).items())).encode())
    digest.update(result.states.tobytes())
    return digest.hexdigest()


def _pass_order(rng: random.Random) -> List[tuple]:
    order = list(SPECS)
    rng.shuffle(order)
    return order


def _check(state, runs: Runs, out: Outcome) -> None:
    """The oracle: convergence, reference states, identical repeats."""
    for spec, first in runs.first.items():
        dataset, _, algorithm = spec
        expected = reference_states(algorithm, {}, state["graphs"][dataset])
        error = None if first.converged else "did not converge"
        error = error or states_error(algorithm, first.states, expected, SIM_SUM_TOLERANCE)
        for fingerprint, _ in runs.runs[spec]:
            out.attempted += 1
            if error is not None:
                out.fail(f"{_label(spec)}: {error}")
            elif fingerprint != runs.runs[spec][0][0]:
                out.fail(f"{_label(spec)}: repeat differs from the first run (determinism)")


def _summarise(runs: Runs, out: Outcome) -> None:
    walls = [min(w for _, w in runs.runs[spec]) for spec in SPECS]
    firsts = [runs.first[spec] for spec in SPECS]
    rate = sum(r.edge_operations for r in firsts) / sum(walls)
    host_ms = [1e3 * w for w in walls]
    sim_kcyc = [r.cycles / 1e3 for r in firsts]
    out.e2e.update(
        ops_per_s=rate,
        host_p50_ms=median(host_ms),
        sim_p50_kcyc=median(sim_kcyc),
    )
    count = sum(len(r) for r in runs.runs.values())
    out.report += [
        ("sim_edge_ops_per_s", rate, "1/s", f"{len(SPECS)} specs, fastest of {count} runs"),
        ("slowest spec wall", max(host_ms), "ms", "host"),
        ("longest simulated makespan", max(sim_kcyc), "kcycles", "deterministic"),
    ]
    for spec, result in zip(SPECS, firsts):
        for key, value in result_counts(result).items():
            out.determinism[f"{_label(spec)}:{key}"] = value
    out.report.append((
        "runtime.sim_cycles (one pass)", sum(r.cycles for r in firsts), "cycles", "deterministic"
    ))


def _pass(state, order, runs: Runs) -> None:
    for spec in order:
        runs.add(spec, *_simulate(state, spec))


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    setup_samples = probe_setup("sim-scalar")
    rng = random.Random(f"sim-scalar/{seed}")
    if trace:
        _traced(out, _pass_order(rng), str(OUT / f"sim-scalar-{seed}.trace.json"))
    else:
        state = setup()
        runs = Runs()
        start = time.perf_counter()
        passes = 0
        # start another pass only when it should end within --seconds
        while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
            _pass(state, _pass_order(rng), runs)
            passes += 1
        _check(state, runs, out)
        _summarise(runs, out)
    out.e2e["setup_s"] = median(setup_samples)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    return out


def _traced(out: Outcome, order, path: str) -> None:
    """One pass untraced, then the same pass under the ledger."""
    start = time.perf_counter()
    plain = Runs()
    _pass(setup(), order, plain)
    untraced = time.perf_counter() - start

    ledger = install(Ledger())
    try:
        start = time.perf_counter()
        state = setup()
        traced = Runs()
        _pass(state, order, traced)
        end = time.perf_counter()
    finally:
        ledger.uninstall()
    for spec in order:
        if traced.runs[spec][0][0] != plain.runs[spec][0][0]:
            out.wrong.append(f"{_label(spec)}: traced run differs from untraced run (determinism)")
    _check(state, traced, out)
    _summarise(traced, out)
    out.layers.update(in_process_metrics(ledger, start, end, untraced, path))
