"""Hardware configuration — Table II of the paper.

Two presets are provided:

* :meth:`HardwareConfig.paper` — the literal Table II machine (64 Skylake-like
  cores, 32 KB L1D, 256 KB L2, 128 MB shared L3, 8x8 mesh, DDR4-2400).
* :meth:`HardwareConfig.scaled` — the same machine with caches shrunk
  proportionally to this reproduction's graph stand-ins (which are ~10^3-10^4
  times smaller than the SNAP originals).  Without scaling, every stand-in
  would fit in the L3 and all systems would look identical; with it, the
  locality behaviour the paper measures re-emerges.  This is the default used
  by the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheConfig:
    """One cache level: capacity in bytes, associativity, access latency."""

    size_bytes: int
    ways: int
    latency: int
    policy: str = "lru"  # "lru" | "drrip" | "grasp"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.latency < 0:
            raise ValueError("invalid cache parameters")

    def num_sets(self, line_bytes: int) -> int:
        sets = self.size_bytes // (self.ways * line_bytes)
        return max(1, sets)


@dataclass(frozen=True)
class CoreTiming:
    """Fixed issue costs (cycles) for the cycle-approximate core model."""

    #: applying an accumulated delta to a vertex state (gather+apply ALU work)
    update_op: int = 6
    #: per-edge scatter arithmetic (EdgeCompute + Accum fold)
    edge_op: int = 4
    #: scheduling/bookkeeping per work item popped from a queue
    dispatch_op: int = 2
    #: software DFS traversal bookkeeping per edge (DepGraph-S pays this;
    #: DepGraph-H offloads it to the HDTL)
    sw_traverse_op: int = 18
    #: software hub-index probe/maintenance per operation (DepGraph-S)
    sw_hub_op: int = 24
    #: throughput factor from AVX512 vectorisation of state processing;
    #: the paper reports <= 2.2x for SIMD-enabled Ligra-o/DepGraph-S.
    simd_factor: float = 2.0


@dataclass(frozen=True)
class HardwareConfig:
    num_cores: int = 64
    frequency_ghz: float = 2.5
    line_bytes: int = 64
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, 4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * 1024, 8, 7)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(128 * 1024 * 1024, 16, 27, "drrip")
    )
    l3_banks: int = 32
    mesh_width: int = 8
    mesh_height: int = 8
    noc_hop_cycles: int = 3
    dram_latency: int = 180  # ~70 ns DDR4-2400 CL17 at 2.5 GHz
    #: DRAM channels for the bandwidth/queueing model (Table II: 12);
    #: 0 keeps the fixed-latency model, which is the calibrated default
    dram_channels: int = 0
    #: "detailed" walks tag-accurate caches per access; "fast" charges flat
    #: per-access costs (several times faster in wall time, functional
    #: results identical, but locality differences between systems are
    #: washed out — use it for algorithm exploration, not for regenerating
    #: the paper's figures)
    fidelity: str = "detailed"
    timing: CoreTiming = field(default_factory=CoreTiming)

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if self.fidelity not in ("detailed", "fast"):
            raise ValueError("fidelity must be 'detailed' or 'fast'")
        if self.l1d.policy != "lru" or self.l2.policy != "lru":
            # MemorySystem walks the private levels inline as LRU caches
            raise ValueError(
                "private L1D/L2 caches are LRU (Table II); replacement "
                "policies apply to the shared L3"
            )
        if self.mesh_width * self.mesh_height < max(
            self.num_cores, self.l3_banks
        ):
            raise ValueError("mesh too small for cores/banks")

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> "HardwareConfig":
        """The literal Table II configuration."""
        return cls()

    @classmethod
    def scaled(cls, num_cores: int = 64, cache_scale: float = 1 / 1024) -> "HardwareConfig":
        """Table II with caches scaled by ``cache_scale``.

        The default 1/1024 matches stand-in graphs that are three orders of
        magnitude smaller than the paper's datasets, preserving the ratio of
        working-set size to cache capacity.
        """
        base = cls()
        def shrink(c: CacheConfig, floor: int) -> CacheConfig:
            return replace(c, size_bytes=max(floor, int(c.size_bytes * cache_scale)))

        return replace(
            base,
            num_cores=num_cores,
            l1d=shrink(base.l1d, 1024),
            l2=shrink(base.l2, 4 * 1024),
            l3=shrink(base.l3, 64 * 1024),
        )

    @classmethod
    def fast(cls, num_cores: int = 64) -> "HardwareConfig":
        """The scaled machine with flat-cost memory timing — for quickly
        exploring algorithms on larger graphs."""
        return replace(cls.scaled(num_cores=num_cores), fidelity="fast")

    def with_cores(self, num_cores: int) -> "HardwareConfig":
        """Same machine with a different core count (Figure 13 sweeps)."""
        return replace(self, num_cores=num_cores)

    def with_l3(self, **kwargs) -> "HardwareConfig":
        return replace(self, l3=replace(self.l3, **kwargs))

    def with_l2(self, **kwargs) -> "HardwareConfig":
        return replace(self, l2=replace(self.l2, **kwargs))
