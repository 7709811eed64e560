"""Hardware Dependency-aware Traveler Logic (HDTL) — Figure 7.

HDTL walks the graph depth-first from a root vertex using a fixed-depth
stack, fetching edges along dependency chains.  Each traversal pipeline
iteration runs the paper's four stages — Get_Root, Fetch_Offsets,
Fetch_Neighbors, Fetch_States — and outputs one edge (with the endpoint
states) into the FIFO edge buffer.

A traversal path ends when (Section III-B2):

* the fetched vertex belongs to H'' (a hub/core vertex) — if the root is
  also in H'', the walked segment is a *core-path* and is reported so the
  DDMU can create its hub-index entry;
* the fetched vertex lies outside the walker's partition G^m (the owning
  core continues the chain);
* the fixed-depth stack is full (the chain is split; the frontier vertex
  becomes a new root);
* no unvisited vertex can be fetched from the current branch.

The class is execution-agnostic: :meth:`HDTL.walk` calls the core's
``on_edge(source, target, weight, depth)`` for every fetched edge, which
returns the core's *descend* decision (whether the destination was
significantly updated and should be explored), and
``on_path_end(path, reason)`` when a path ends.  Memory timing is charged
through the ``fetch`` callback so the same walker serves both DepGraph-S
(core pays software costs) and DepGraph-H (engine timeline pays them).
"""

from __future__ import annotations

from typing import Callable, Optional, Set, Tuple

from ...graph.csr import CSRGraph, CSRLists

#: fetch-callback access kinds (map to the CSR arrays of Figure 8)
FETCH_OFFSET = "offset"
FETCH_NEIGHBOR = "neighbor"
FETCH_WEIGHT = "weight"
FETCH_STATE = "state"

#: ``on_edge(source, target, weight, depth) -> descend``
OnEdge = Callable[[int, int, float, int], bool]
#: ``on_path_end(path, reason)``: ``path`` runs root..last vertex inclusive;
#: the last vertex was *not* descended into and should be re-enqueued as a
#: new root.  ``reason`` is ``"hub"``, ``"boundary"`` or ``"depth"``.
OnPathEnd = Callable[[Tuple[int, ...], str], None]


def _no_fetch(kind: str, index: int) -> None:
    return None


class HDTL:
    """The traversal walker for one engine."""

    def __init__(
        self,
        graph: CSRGraph,
        hub_membership: Callable[[int], bool],
        stack_depth: int = 10,
        fetch: Optional[Callable[[str, int], None]] = None,
        csr: Optional[CSRLists] = None,
        line_elements: int = 1,
    ) -> None:
        if stack_depth < 1:
            raise ValueError("stack_depth must be >= 1")
        if line_elements < 1 or line_elements & (line_elements - 1):
            raise ValueError("line_elements must be a power of two")
        self.graph = graph
        #: the run's shared list view of ``graph`` (one per run, not per
        #: walker: see :class:`~repro.graph.csr.CSRLists`)
        self.csr = csr if csr is not None else graph.list_view()
        self.hub_membership = hub_membership
        self.stack_depth = stack_depth
        self.fetch = fetch or _no_fetch
        #: offset, neighbour and weight fetches are line-granular: CSR
        #: regions are line-aligned (MemoryLayout), so element ``i`` sits
        #: on line ``i >> _line_shift`` of its array, and a fetch of the
        #: line fetched last for the same array is not issued again until
        #: :meth:`reset_lines` (the walker is re-pointed at a partition)
        self._line_shift = line_elements.bit_length() - 1
        self.reset_lines()
        #: partition confinement: HDTL only prefetches the edges of its
        #: core's partition G^m = ``[part_begin, part_end)`` (Section
        #: III-B2); a path reaching a vertex outside it ends there and the
        #: endpoint continues as a root on its owning core.
        self.part_begin = 0
        self.part_end = graph.num_vertices
        #: statistics
        self.edges_fetched = 0
        self.paths_ended = 0
        self.max_depth_seen = 0

    def reset_lines(self) -> None:
        """Forget the last fetched line of every array."""
        self._last_lines = (-1, -1, -1)

    # ------------------------------------------------------------------
    def walk(
        self,
        root: int,
        visited: Set[int],
        on_edge: OnEdge,
        on_path_end: OnPathEnd,
    ) -> None:
        """Walk depth-first from ``root``.

        ``visited`` is the per-round applied-vertex set shared with the
        runtime; HDTL adds the root and every vertex it descends into.
        ``on_edge`` sees every fetched edge with the stack depth it was
        fetched at and returns True to descend into the target (the core
        applied a significant update there) or False to prune the branch.
        """
        offsets, targets, weights = self.csr
        fetch = self.fetch
        is_hub = self.hub_membership
        begin, end = self.part_begin, self.part_end
        limit = self.stack_depth
        shift = self._line_shift
        last_offset, last_neighbor, last_weight = self._last_lines
        visited.add(root)
        if root >> shift != last_offset:
            last_offset = root >> shift
            fetch(FETCH_OFFSET, root)
        # Figure 7's stack: the path's vertices and, per entry, the
        # iterator over its unvisited edges (the cached neighbour
        # cache-line is ``last_neighbor``)
        path = [root]
        stack = [iter(range(offsets[root], offsets[root + 1]))]
        fetched = 0
        while stack:
            source = path[-1]
            depth = len(stack)
            for edge in stack[-1]:
                line = edge >> shift
                if line != last_neighbor:
                    last_neighbor = line
                    fetch(FETCH_NEIGHBOR, edge)
                target = targets[edge]
                if weights is None:
                    weight = 1.0
                else:
                    weight = weights[edge]
                    if line != last_weight:
                        last_weight = line
                        fetch(FETCH_WEIGHT, edge)
                # the target's state is fetched for every edge
                fetch(FETCH_STATE, target)
                fetched += 1
                descend = on_edge(source, target, weight, depth)
                if is_hub(target):
                    # Reached an H'' vertex: the path ends here; the runtime
                    # re-enqueues the endpoint and, when the root is in H'',
                    # reports the segment to the DDMU as a core-path.  HDTL
                    # never descends past hub/core vertices, which keeps
                    # core-paths edge-disjoint (Definition 2).
                    self.paths_ended += 1
                    on_path_end((*path, target), "hub")
                    continue
                if not begin <= target < end:
                    # Left G^m: the owning core continues this chain.
                    if descend and target not in visited:
                        self.paths_ended += 1
                        on_path_end((*path, target), "boundary")
                    continue
                if not descend or target in visited:
                    continue
                if depth >= limit:
                    # Fixed-depth stack is full: split the chain here and
                    # let the endpoint continue as a fresh root.
                    self.paths_ended += 1
                    on_path_end((*path, target), "depth")
                    continue
                visited.add(target)
                if target >> shift != last_offset:
                    last_offset = target >> shift
                    fetch(FETCH_OFFSET, target)
                path.append(target)
                stack.append(iter(range(offsets[target], offsets[target + 1])))
                if depth >= self.max_depth_seen:
                    self.max_depth_seen = depth + 1
                break
            else:
                # This branch is exhausted: pop, resume the parent.
                stack.pop()
                path.pop()
        self.edges_fetched += fetched
        self._last_lines = (last_offset, last_neighbor, last_weight)

    #: the walk under its earlier name: ``perfbench/layers.py`` looks the
    #: walker's boundary up as ``HDTL.traverse`` (the runtimes call walk)
    traverse = walk
