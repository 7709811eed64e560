"""The shared per-core execution kernel (``execore``).

The three runtime families — the round-based frontier systems
(:mod:`repro.runtime.roundbased`), the Minnow priority worklist
(:mod:`repro.runtime.minnow_rt`), and the dependency-driven DepGraph
engine (:mod:`repro.runtime.depgraph_rt`) — are policy variations over
one execution loop.  This module owns the machinery they share, so a
modelling fix or a hot-path optimisation lands once instead of three
times:

* **deterministic min-clock dispatch** — :func:`next_core` picks the
  core with the smallest simulated clock among those holding work (ties
  break to the lowest core id).  This is exactly the ordering the seed
  runtimes produced with a heap (round-based) or a candidates-list
  ``min()`` (Minnow/DepGraph): every live core contributes one entry
  keyed by its *current* clock, so a single fused scan replaces the
  per-iteration list construction that dominated host time;
* **staged-delta visibility discipline** — :meth:`ExecutionKernel.tick_flush`
  counts vertex-processings per core and publishes the core's staged
  scatters at every :data:`FLUSH_INTERVAL` (the single cross-core
  visibility knob; the families can no longer drift apart);
* **scheduling-policy wiring** — the cost estimator, NoC victim ranker,
  and ``obs.sched.*`` counters are constructed once here, and steal
  charging (:data:`STEAL_CYCLES` + per-hop penalty) goes through
  :meth:`ExecutionKernel.charge_steal` / :meth:`note_steal`;
* **convergence / round accounting** — :meth:`begin_round` /
  :meth:`end_round` frame a round with the histogram samples, the round
  span, the barrier, and the :class:`RoundLog` entry in the exact seed
  order;
* **result construction** — :meth:`finish` flushes the per-span cycle
  accounting into ``obs.span.*`` metrics (always on, deterministic —
  the perf gate ``benchmarks/gate.py fig11`` reads them) and
  builds the :class:`ExecutionResult`.

Item processing goes through :meth:`ExecutionKernel.process_item`,
which measures each item's simulated-cycle span *and* its host
wall-time: the ``obs.span.<name>.cycles`` counters stay bit-identical
run to run, while the host nanoseconds ride the tracer's span ``args``
(``host_ns``) so ``repro.observe.flame_summary`` can show where the
*simulator's* time goes next to where the *simulated machine's* cycles
went.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Callable, List, Optional, Sequence

from ..hardware.noc import MeshNoC
from .context import SimContext
from .scheduling import (
    RANDOM_POLICY,
    CostEstimator,
    SchedCounters,
    SchedulingPolicy,
    VictimRanker,
)
from .stats import ExecutionResult, RoundLog

#: cycles a thief spends stealing work (the local handshake; the
#: partition policy adds a per-hop penalty on top)
STEAL_CYCLES = 120

#: vertex-processings between an asynchronous core's cross-core delta
#: visibility points.  This is *the* staleness knob shared by every
#: family: the round-based systems and Minnow both publish staged
#: scatters on this cadence (BSP systems only publish at the barrier).
FLUSH_INTERVAL = 32

_INF = float("inf")


def next_core(clock: Sequence[float], work: Sequence) -> int:
    """The deterministic smallest-clock dispatch decision.

    Among cores whose ``work`` entry is truthy (a count, a non-empty
    queue/heap, a flag), return the one with the smallest simulated
    clock; ties break to the lowest core id.  Returns ``-1`` when no
    core holds work.  One fused scan, no allocation — this runs once
    per dispatched item.
    """
    best = -1
    best_clock = _INF
    core = 0
    for entry in work:
        if entry:
            candidate = clock[core]
            if candidate < best_clock:
                best_clock = candidate
                best = core
        core += 1
    return best


class PartWorkIndex:
    """Incremental work accounting for partition-owned circular queues.

    The DepGraph runtime assigns several partitions per core, each with a
    :class:`~repro.accel.depgraph.queue.LocalCircularQueue` of active
    roots.  The seed dispatch loop rescanned every queue of every core on
    every iteration (``any(not q.current_empty ...)``) and re-priced
    whole queues through the cost estimator on every steal attempt — the
    top host-time cost of a full-scale run.  This index maintains the
    same quantities incrementally, in lockstep with the queue mutations:

    * ``core_count[core]`` — current-round entries across the core's
      partitions (so "has work" is one array read);
    * ``cost_current[part]`` — the estimator's queued cost of the
      partition's current-round entries (so victim pricing is one read).

    Counts mirror *deque lengths*, not membership sets: ``push_*`` is
    only recorded when the queue accepted the vertex, and
    :meth:`advance_round` promotes exactly the next-round tallies, which
    matches ``LocalCircularQueue.advance_round`` extending the current
    deque by ``len(next)``.  All quantities are integers, so the index
    is bit-exact against a full rescan.
    """

    __slots__ = (
        "estimator",
        "part_owner",
        "core_count",
        "count_current",
        "cost_current",
        "count_next",
        "cost_next",
    )

    def __init__(
        self,
        estimator: CostEstimator,
        part_owner: List[int],
        num_cores: int,
    ) -> None:
        self.estimator = estimator
        #: shared, live reference to the runtime's partition->core table
        self.part_owner = part_owner
        parts = len(part_owner)
        self.core_count = [0] * num_cores
        self.count_current = [0] * parts
        self.cost_current = [0] * parts
        self.count_next = [0] * parts
        self.cost_next = [0] * parts

    # ------------------------------------------------------------------
    def pushed_current(self, part: int, vertex: int) -> None:
        cost = self.estimator.vertex_cost(vertex)
        self.count_current[part] += 1
        self.cost_current[part] += cost
        self.core_count[self.part_owner[part]] += 1

    def pushed_next(self, part: int, vertex: int) -> None:
        self.count_next[part] += 1
        self.cost_next[part] += self.estimator.vertex_cost(vertex)

    def popped(self, part: int, vertex: int) -> None:
        self.count_current[part] -= 1
        self.cost_current[part] -= self.estimator.vertex_cost(vertex)
        self.core_count[self.part_owner[part]] -= 1

    def advance_round(self) -> int:
        """Promote every partition's next-round tallies; returns the
        total promoted (mirrors summing ``queue.advance_round()``)."""
        promoted = 0
        count_current, cost_current = self.count_current, self.cost_current
        count_next, cost_next = self.count_next, self.cost_next
        core_count, part_owner = self.core_count, self.part_owner
        for part, moved in enumerate(count_next):
            if moved:
                promoted += moved
                count_current[part] += moved
                cost_current[part] += cost_next[part]
                core_count[part_owner[part]] += moved
                count_next[part] = 0
                cost_next[part] = 0
        return promoted

    # ------------------------------------------------------------------
    def move_part(self, part: int, new_owner: int) -> None:
        """Re-home one partition (work stealing); the caller updates
        ``part_owner`` itself — this keeps the core tallies in step."""
        old = self.part_owner[part]
        if old == new_owner:
            return
        count = self.count_current[part]
        self.core_count[old] -= count
        self.core_count[new_owner] += count

    def reassign(self, new_owner: Sequence[int]) -> None:
        """Rebuild the per-core tallies after an ownership rebalance."""
        core_count = self.core_count
        for core in range(len(core_count)):
            core_count[core] = 0
        for part, owner in enumerate(new_owner):
            core_count[owner] += self.count_current[part]

    # ------------------------------------------------------------------
    def queued_cost(self, part: int) -> int:
        return self.cost_current[part]

    def core_load(self, core: int) -> int:
        return self.core_count[core]

    def has_work(self, core: int) -> bool:
        return self.core_count[core] > 0


class ExecutionKernel:
    """The per-core execution kernel one runtime family drives.

    Owns the :class:`SimContext`, the scheduling wiring (estimator,
    victim ranker, ``obs.sched.*`` counters), the staged-flush cadence,
    per-span cycle/host accounting, round framing, and result assembly.
    A family constructs one kernel, registers its span names, and runs
    its dispatch loop against the kernel's primitives.
    """

    def __init__(
        self,
        graph,
        algorithm,
        hardware,
        system: str,
        simd: bool = True,
        tracer=None,
        sched: Optional[SchedulingPolicy] = None,
        flush_interval: int = FLUSH_INTERVAL,
    ) -> None:
        self.sched = sched or RANDOM_POLICY
        self.ctx = SimContext(
            graph, algorithm, hardware, system, simd, tracer=tracer
        )
        ctx = self.ctx
        self.estimator = CostEstimator(
            [int(d) for d in ctx.graph.out_degrees()]
        )
        self.ranker = VictimRanker(
            ctx.num_cores,
            MeshNoC(
                hardware.mesh_width, hardware.mesh_height, hardware.noc_hop_cycles
            ),
        )
        self.sched_counters = SchedCounters(ctx.metrics, self.ranker)
        self.sched_counters.flush_policy(self.sched)
        self.flush_interval = flush_interval
        self._since_flush = [0] * ctx.num_cores
        # per-span accounting: simulated cycles are deterministic and feed
        # obs.span.*; host nanoseconds only surface through the tracer
        self._span_names: List[str] = []
        self._span_count = {}
        self._span_cycles = {}
        self._span_host_ns = {}

    # ------------------------------------------------------------------
    # Span-accounted item processing.
    # ------------------------------------------------------------------
    def declare_span(self, name: str) -> None:
        """Register a span name so its ``obs.span.*`` counters exist (at
        zero) even when the run never processes an item."""
        if name not in self._span_count:
            self._span_names.append(name)
            self._span_count[name] = 0
            self._span_cycles[name] = 0.0
            self._span_host_ns[name] = 0

    def process_item(
        self,
        name: str,
        cat: str,
        core: int,
        item: int,
        inner: Callable[[int, int], None],
        span_args: Optional[Callable[[int], dict]] = None,
    ) -> None:
        """Run ``inner(core, item)`` under span accounting.

        Simulated cycles (the clock delta ``inner`` charged) accumulate
        into the ``obs.span.<name>.*`` counters on every run; when
        tracing is enabled a span event is emitted on the core's track
        with the host-side nanoseconds in ``args["host_ns"]``.
        """
        ctx = self.ctx
        clock = ctx.clock
        t0 = clock[core]
        w0 = perf_counter_ns()
        inner(core, item)
        host = perf_counter_ns() - w0
        dur = clock[core] - t0
        self._span_count[name] += 1
        self._span_cycles[name] += dur
        self._span_host_ns[name] += host
        tracer = ctx.tracer
        if tracer.enabled:
            args = (
                span_args(item) if span_args is not None else {"vertex": item}
            )
            args["host_ns"] = host
            tracer.span(name, t0, dur, track=core + 1, cat=cat, args=args)

    def note_batch(
        self,
        name: str,
        cat: str,
        core: int,
        count: int,
        t0: float,
        host_ns: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        """Record ``count`` items processed as one bulk batch on ``core``.

        The vector backend charges a whole round's frontier per core in
        one shot; this folds the batch into the same ``obs.span.*``
        accounting :meth:`process_item` feeds — ``count`` items, cycles
        equal to the core's clock advance since ``t0`` — so span names
        and counter families stay backend-invariant.  When tracing, one
        span covers the batch with ``args["batched"]`` recording its
        size.
        """
        ctx = self.ctx
        dur = ctx.clock[core] - t0
        self._span_count[name] += count
        self._span_cycles[name] += dur
        self._span_host_ns[name] += host_ns
        tracer = ctx.tracer
        if tracer.enabled:
            span_args = dict(args) if args else {}
            span_args["batched"] = count
            span_args["host_ns"] = host_ns
            tracer.span(name, t0, dur, track=core + 1, cat=cat, args=span_args)

    def span_host_ns(self, name: str) -> int:
        return self._span_host_ns.get(name, 0)

    # ------------------------------------------------------------------
    # Staged-delta visibility.
    # ------------------------------------------------------------------
    def tick_flush(
        self, core: int, on_significant: Optional[Callable[[int], None]]
    ) -> bool:
        """Count one processed vertex; at every ``flush_interval`` the
        core's staged scatters are published.  Returns True when a flush
        happened (callers hang backlog sampling off it)."""
        since = self._since_flush
        since[core] += 1
        if since[core] >= self.flush_interval:
            self.ctx.flush_staged(core, on_significant)
            since[core] = 0
            return True
        return False

    def flush_all(
        self,
        on_significant: Optional[Callable[[int], None]] = None,
        reset: bool = True,
    ) -> None:
        """Publish every core's staged scatters (quiescence / barrier
        visibility point).  ``reset`` restarts the per-core flush
        countdown — right for a round boundary, wrong for a continuous
        runtime's quiescence probe (the cadence there counts pops since
        the last *periodic* flush, and a quiescence drain must not move
        the next periodic visibility point)."""
        ctx = self.ctx
        since = self._since_flush
        for core in range(ctx.num_cores):
            ctx.flush_staged(core, on_significant)
            if reset:
                since[core] = 0

    # ------------------------------------------------------------------
    # Steal charging and accounting.
    # ------------------------------------------------------------------
    def steal_cost(self, thief: int, victim: Optional[int] = None) -> float:
        """Flat handshake cost, plus the per-hop penalty when the
        partition-aware policy names a victim."""
        cost = float(STEAL_CYCLES)
        if victim is not None:
            cost += self.sched.hop_penalty_cycles * self.ranker.hops(
                thief, victim
            )
        return cost

    def charge_steal(self, thief: int, victim: Optional[int] = None) -> None:
        self.ctx.charge_overhead(thief, self.steal_cost(thief, victim))

    def note_steal(
        self,
        thief: int,
        victim: int,
        items: int,
        cost: float,
        args: Optional[dict] = None,
    ) -> None:
        """Record a successful steal in ``obs.sched.*`` and the trace."""
        self.sched_counters.steal(thief, victim, items, cost)
        ctx = self.ctx
        if ctx.tracer.enabled:
            ctx.tracer.instant(
                "steal",
                ctx.clock[thief],
                track=thief + 1,
                cat="sched",
                args=args if args is not None else {"victim": victim, "taken": items},
            )

    def note_rebalance(self, moves: int) -> None:
        """Record an inter-round ownership rebalance in ``obs.sched.*``
        and the trace (scheduler track)."""
        self.sched_counters.rebalance(moves)
        ctx = self.ctx
        if ctx.tracer.enabled:
            ctx.tracer.instant(
                "rebalance",
                max(ctx.clock),
                cat="sched",
                args={"moves": moves},
            )

    # ------------------------------------------------------------------
    # Round framing.
    # ------------------------------------------------------------------
    def begin_round(self, round_index: int):
        """Start round ``round_index``; returns ``(start_peak,
        updates_before)`` for :meth:`end_round`."""
        ctx = self.ctx
        ctx.rounds = round_index + 1
        return max(ctx.clock), ctx.updates

    def end_round(
        self,
        round_index: int,
        active: int,
        start_peak: float,
        updates_before: int,
    ) -> None:
        """Close a round: histogram samples + round span, the barrier,
        and the :class:`RoundLog` entry (whose duration includes the
        barrier, as the seed runtimes recorded it)."""
        ctx = self.ctx
        updates = ctx.updates - updates_before
        ctx.note_round(round_index, active, updates, start_peak)
        ctx.barrier()
        ctx.round_log.append(
            RoundLog(
                round_index, active, updates, max(ctx.clock) - start_peak
            )
        )

    # ------------------------------------------------------------------
    def finish(self, converged: bool) -> ExecutionResult:
        """Flush span accounting into ``obs.span.*`` and build the
        result.  Host wall-time deliberately stays out of the metric
        registry: counters must be bit-deterministic run to run."""
        metrics = self.ctx.metrics
        for name in self._span_names:
            metrics.set(f"span.{name}.count", float(self._span_count[name]))
            metrics.set(f"span.{name}.cycles", float(self._span_cycles[name]))
        return self.ctx.result(converged)
