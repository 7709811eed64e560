"""Correctness oracle: every answer the benchmark receives is checked against
``repro.algorithms.reference`` on a graph the benchmark built itself.

Serving workloads only ever add new edges, so a version's graph is the base
graph plus the edges of every update up to that version.  The oracle builds
it from the base graph's arrays and the benchmark's own delta log -- never
from ``GraphStore`` or ``graph.mutation`` -- so a defect in the store or the
mutation path shows up as a wrong answer instead of being copied into the
reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import reference
from repro.graph.csr import CSRGraph

#: sum-type tolerance of a cold simulation against the reference solver
SIM_SUM_TOLERANCE = 1e-3

#: min/max accumulators are exact; everything else is sum-type
MIN_MAX_ALGORITHMS = ("sssp", "bfs", "wcc")

Edge = Tuple[int, int]


def reference_states(algorithm: str, params: dict, graph: CSRGraph) -> np.ndarray:
    if algorithm == "pagerank":
        return reference.pagerank(graph, damping=params.get("damping", 0.85))
    if algorithm == "sssp":
        return reference.sssp(graph, params.get("source", 0))
    if algorithm == "bfs":
        return reference.bfs(graph, params.get("source", 0))
    if algorithm == "wcc":
        return reference.wcc(graph)
    raise KeyError(f"no reference solver wired for {algorithm!r}")


def states_error(algorithm: str, states, expected: np.ndarray, tol: float) -> Optional[str]:
    """``None`` when ``states`` meet the contract, else why not."""
    got = np.asarray(states, dtype=np.float64)
    if got.shape != expected.shape:
        return f"shape {got.shape} != {expected.shape}"
    if algorithm in MIN_MAX_ALGORITHMS:
        same = (got == expected) | (np.isinf(got) & np.isinf(expected) & (np.sign(got) == np.sign(expected)))
        if not same.all():
            return f"{int((~same).sum())} states differ from the reference"
        return None
    if (np.isinf(got) != np.isinf(expected)).any():
        return "finite/infinite mismatch"
    finite = np.isfinite(expected)
    err = float(np.max(np.abs(got[finite] - expected[finite]))) if finite.any() else 0.0
    if err > tol:
        return f"max error {err:.3g} > {tol:g}"
    return None


def summarize(states: np.ndarray) -> Dict[str, float]:
    finite = states[np.isfinite(states)]
    return {
        "n": int(states.size),
        "finite": int(finite.size),
        "min": float(finite.min()) if finite.size else 0.0,
        "max": float(finite.max()) if finite.size else 0.0,
        "sum": float(finite.sum()) if finite.size else 0.0,
    }


def summary_error(algorithm: str, summary: dict, expected: np.ndarray, tol: float) -> Optional[str]:
    """Check an HTTP state digest (count / finite / min / max / sum).

    Min/max algorithms must match exactly.  For sum-type algorithms every
    state within ``tol`` of the reference implies min and max within
    ``tol`` and the sum within ``n * tol``; that is what is checked.
    """
    want = summarize(expected)
    if summary is None:
        return "no summary in the response"
    for field in ("n", "finite"):
        if summary.get(field) != want[field]:
            return f"{field} {summary.get(field)} != {want[field]}"
    exact = algorithm in MIN_MAX_ALGORITHMS
    for field, bound in (("min", tol), ("max", tol), ("sum", tol * want["n"])):
        got = float(summary.get(field, float("nan")))
        if exact and got != want[field]:
            return f"{field} {got!r} != {want[field]!r}"
        if not exact and not abs(got - want[field]) <= bound:
            return f"{field} off by {abs(got - want[field]):.3g} > {bound:.3g}"
    return None


class VersionGraphs:
    """Version id -> graph, rebuilt from a base graph and an add-only log."""

    def __init__(self, base: CSRGraph) -> None:
        self.base = base
        n = base.num_vertices
        self._src = np.repeat(np.arange(n, dtype=np.int64), base.out_degrees())
        self._dst = np.asarray(base.targets, dtype=np.int64)
        self._w = np.asarray(base.weights, dtype=np.float64)
        #: version -> (edges, weights) of the update that produced it
        self.log: Dict[int, Tuple[Sequence[Edge], Sequence[float]]] = {}
        self._edges = set(zip(self._src.tolist(), self._dst.tolist()))
        self._cache: Dict[int, CSRGraph] = {0: base}

    def is_new(self, edge: Edge) -> bool:
        return edge not in self._edges

    def claim(self, edges: Sequence[Edge]) -> None:
        """Reserve edges an update is about to add, so no later update
        proposes them again."""
        self._edges.update(edges)

    def record(self, version: int, edges: Sequence[Edge], weights: Sequence[float]) -> None:
        if version in self.log:
            raise ValueError(f"two updates reported version {version}")
        self.log[version] = (tuple(edges), tuple(weights))

    def graph(self, version: int) -> CSRGraph:
        if version not in self._cache:
            missing = [v for v in range(1, version + 1) if v not in self.log]
            if missing:
                raise KeyError(f"no logged update for version(s) {missing[:5]}")
            src: List[int] = []
            dst: List[int] = []
            w: List[float] = []
            for v in range(1, version + 1):
                edges, weights = self.log[v]
                src.extend(e[0] for e in edges)
                dst.extend(e[1] for e in edges)
                w.extend(weights)
            self._cache[version] = CSRGraph.from_arrays(
                self.base.num_vertices,
                np.concatenate([self._src, np.asarray(src, dtype=np.int64)]),
                np.concatenate([self._dst, np.asarray(dst, dtype=np.int64)]),
                np.concatenate([self._w, np.asarray(w, dtype=np.float64)]),
            )
        return self._cache[version]
