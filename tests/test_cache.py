"""Tests for the cache models (LRU / DRRIP / GRASP) and the hierarchy,
including differential tests of the policy-specialised caches and the
fused hierarchy walk against a brute-force reference model."""

import signal
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import Cache, GRASPCache, LRUCache, RRIPCache
from repro.hardware.config import CacheConfig, HardwareConfig
from repro.hardware.hierarchy import MemorySystem
from repro.hardware.noc import MeshNoC


def make_cache(size=1024, ways=2, policy="lru"):
    return Cache(CacheConfig(size, ways, 4, policy), line_bytes=64)


class TestLRU:
    def test_miss_then_hit(self):
        c = make_cache()
        assert not c.access(5)
        assert c.access(5)
        assert c.hits == 1 and c.misses == 1

    def test_eviction_order(self):
        c = make_cache(size=128, ways=2)  # 1 set, 2 ways
        assert c.num_sets == 1
        c.access(1)
        c.access(2)
        c.access(1)  # 1 is now MRU
        c.access(3)  # evicts 2
        assert c.probe(1)
        assert not c.probe(2)
        assert c.probe(3)

    def test_capacity_respected(self):
        c = make_cache(size=256, ways=2)  # 2 sets x 2 ways = 4 lines
        for line in range(16):
            c.access(line)
        resident = sum(c.probe(line) for line in range(16))
        assert resident <= 4

    def test_hit_rate(self):
        c = make_cache()
        c.access(1)
        c.access(1)
        c.access(1)
        c.access(2)
        assert c.hit_rate() == pytest.approx(0.5)

    def test_reset_stats(self):
        c = make_cache()
        c.access(1)
        c.reset_stats()
        assert c.accesses == 0


class TestRRIP:
    def test_basic_hit(self):
        c = make_cache(policy="drrip")
        c.access(7)
        assert c.access(7)

    def test_thrash_resistance(self):
        """DRRIP's point: a huge scan should not flush a reused line the way
        LRU does (BRRIP inserts scans at distant RRPV)."""
        lru = make_cache(size=512, ways=8, policy="lru")
        rrip = make_cache(size=512, ways=8, policy="drrip")
        for cache in (lru, rrip):
            for _ in range(200):
                cache.access(0)  # hot line
                cache.access(0)
            # scanning stream mapping to the same set
            hot_hits_before = cache.hits
        def scan_and_count(cache):
            hits = 0
            for i in range(1, 4000):
                cache.access(i * cache.num_sets)  # all land in set 0
                if cache.access(0):
                    hits += 1
            return hits
        assert scan_and_count(rrip) >= scan_and_count(lru)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_cache(policy="belady")


class TestGRASP:
    def test_hot_range_protected(self):
        """GRASP keeps lines in the registered hot region resident under a
        conflicting scan; plain DRRIP loses them more often."""

        def run(policy):
            c = make_cache(size=512, ways=8, policy=policy)
            if policy == "grasp":
                c.add_hot_range(0, 1)
            hits = 0
            for i in range(1, 3000):
                c.access(i * c.num_sets)
                if c.access(0):
                    hits += 1
            return hits

        assert run("grasp") >= run("drrip")

    def test_clear_hot_ranges(self):
        c = make_cache(policy="grasp")
        c.add_hot_range(0, 10)
        c.clear_hot_ranges()
        assert not c._is_hot(5)


class RefCache:
    """Brute-force reference: each set is a list of ``[line, rrpv]`` in
    insertion order; RRIP eviction ages one step at a time, as the
    policies are defined."""

    def __init__(self, num_sets, ways, policy, hot=()):
        self.sets = [[] for _ in range(num_sets)]
        self.ways, self.policy, self.hot = ways, policy, list(hot)
        self.psel, self.brip = 512, 0
        self.hits = self.misses = self.writebacks = 0

    def is_hot(self, line):
        return self.policy == "grasp" and any(b <= line < e for b, e in self.hot)

    def access(self, line):
        index = line % len(self.sets)
        cset = self.sets[index]
        for entry in cset:
            if entry[0] == line:
                self.hits += 1
                if self.policy == "lru":
                    cset.remove(entry)
                    cset.append(entry)
                else:
                    entry[1] = 0
                return True
        self.misses += 1
        if len(cset) >= self.ways:
            self.writebacks += 1
            if self.policy == "lru":
                cset.pop(0)
            elif all(self.is_hot(e[0]) for e in cset):
                # hot lines never age to 3: the oldest at the highest RRPV
                top = max(rrpv for _, rrpv in cset)
                cset.remove(next(e for e in cset if e[1] == top))
            else:
                while not any(rrpv >= 3 for _, rrpv in cset):
                    for entry in cset:
                        entry[1] = min(entry[1] + 1, 2) if self.is_hot(entry[0]) else entry[1] + 1
                cset.remove(next(e for e in cset if e[1] >= 3))
        rrpv = 0
        if self.policy != "lru" and not self.is_hot(line):
            mod = index % 64
            rrpv = 2
            if mod == 32 or (mod != 0 and self.psel < 512):  # BRRIP
                self.brip = (self.brip + 1) % 32
                rrpv = 2 if self.brip == 0 else 3
        cset.append([line, rrpv])
        return False

    def duel(self, index, hit):
        if not hit and index % 64 == 0:
            self.psel = max(0, self.psel - 1)
        elif not hit and index % 64 == 32:
            self.psel = min(1023, self.psel + 1)

    def resident(self, line):
        return any(e[0] == line for e in self.sets[line % len(self.sets)])


#: (set-index choices, tag range): a few sets, including both leader sets
#: once there are 64 of them, and enough tags per set to force evictions
TRACE = st.lists(
    st.tuples(st.sampled_from([0, 1, 32, 33, 63]), st.integers(0, 11)),
    max_size=300,
)


class TestPolicyDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        policy=st.sampled_from(["lru", "drrip", "grasp"]),
        num_sets=st.sampled_from([1, 2, 64]),
        ways=st.sampled_from([1, 2, 4]),
        trace=TRACE,
    )
    def test_matches_reference(self, policy, num_sets, ways, trace):
        # ways - 1 hot lines per set, so every full set holds a cold line
        # (GRASP ages hot lines no further than RRPV_MAX - 1)
        self.check_against_reference(policy, num_sets, ways, trace, ways - 1)

    @settings(max_examples=60, deadline=None)
    @given(
        num_sets=st.sampled_from([1, 2, 64]),
        ways=st.sampled_from([1, 2, 4]),
        hot_tags=st.integers(0, 12),
        trace=TRACE,
    )
    def test_all_hot_sets_match_reference(self, num_sets, ways, hot_tags, trace):
        """Hot ranges that fill whole sets: eviction must still end (the
        alarm turns a non-terminating ageing loop into a failure)."""
        def expire(signum, frame):
            raise TimeoutError("GRASP eviction did not terminate")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            self.check_against_reference("grasp", num_sets, ways, trace, hot_tags)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def check_against_reference(policy, num_sets, ways, trace, hot_tags):
        """Replay ``trace`` on a cache and the reference model, with tags
        below ``hot_tags`` in every set registered hot."""
        cache = Cache(CacheConfig(64 * ways * num_sets, ways, 4, policy))
        classes = {"lru": LRUCache, "drrip": RRIPCache, "grasp": GRASPCache}
        assert type(cache) is classes[policy]
        hot = [(0, hot_tags * cache.num_sets)]
        ref = RefCache(cache.num_sets, ways, policy, hot)
        for begin, end in hot:
            cache.add_hot_range(begin, end)
        for set_choice, tag in trace:
            index = set_choice % cache.num_sets
            line = tag * cache.num_sets + index
            hit = cache.access(line)
            assert hit == ref.access(line)
            if policy != "lru":
                cache.note_duel_outcome(index, hit)
                ref.duel(index, hit)
                assert cache._psel == ref.psel
            assert (cache.hits, cache.misses, cache.writebacks) == (
                ref.hits, ref.misses, ref.writebacks,
            )
        for tag in range(12):
            for index in range(cache.num_sets):
                line = tag * cache.num_sets + index
                assert cache.probe(line) == ref.resident(line)

    @settings(max_examples=40, deadline=None)
    @given(
        policy=st.sampled_from(["lru", "drrip", "grasp"]),
        trace=st.lists(
            st.tuples(
                st.integers(0, 1),  # core
                st.sampled_from([0, 1, 32, 33]),  # L3 set, leaders included
                st.integers(0, 40),  # tag
            ),
            max_size=400,
        ),
    )
    def test_hierarchy_walk_matches_reference(self, policy, trace):
        """The fused L1/L2 walk, the L3 bank policy and the inline duel
        against a reference walk over reference caches."""
        # two 2-way L3 banks of 64 sets: evictions and both leader sets
        hw = replace(HardwareConfig.scaled(num_cores=2), l3_banks=2).with_l3(
            policy=policy, ways=2, size_bytes=2 * 64 * 2 * 64
        )
        ms = MemorySystem(hw)
        ms.add_hot_range(0, 64 * 64)  # lines [0, 64): one per L3 set
        l1 = [RefCache(ms.l1[0].num_sets, hw.l1d.ways, "lru") for _ in range(2)]
        l2 = [RefCache(ms.l2[0].num_sets, hw.l2.ways, "lru") for _ in range(2)]
        l3 = [RefCache(64, 2, policy, [(0, 64)]) for _ in ms.l3]
        assert [bank.num_sets for bank in ms.l3] == [64, 64]
        noc = MeshNoC(hw.mesh_width, hw.mesh_height, hw.noc_hop_cycles)
        want = dict.fromkeys(ms.stats.as_dict(), 0)
        for core, index, tag in trace:
            line = index + 64 * tag
            latency = hw.l1d.latency
            if l1[core].access(line):
                want["l1_hits"] += 1
            elif l2[core].access(line):
                want["l2_hits"] += 1
                latency += hw.l2.latency
            else:
                bank = (line ^ (line >> 7)) % hw.l3_banks
                hops = noc.hops(core, bank)
                want["noc_hop_count"] += 2 * hops
                latency += hw.l2.latency + 2 * hops * hw.noc_hop_cycles + hw.l3.latency
                hit = l3[bank].access(line)
                l3[bank].duel(index, hit)
                if hit:
                    want["l3_hits"] += 1
                else:
                    want["dram_accesses"] += 1
                    latency += hw.dram_latency
            assert ms.access(core, line * 64) == latency
        assert ms.stats.as_dict() == want
        if policy != "lru":
            assert [bank._psel for bank in ms.l3] == [ref.psel for ref in l3]


class TestMeshNoC:
    def test_same_node_zero_hops(self):
        noc = MeshNoC(8, 8, 3)
        assert noc.hops(5, 5) == 0

    def test_manhattan_distance(self):
        noc = MeshNoC(8, 8, 3)
        # node 0 is (0,0); node 9 is (1,1) -> 2 hops
        assert noc.hops(0, 9) == 2

    def test_round_trip_latency(self):
        noc = MeshNoC(8, 8, 3)
        assert noc.latency(0, 9) == 2 * 2 * 3

    def test_average_latency_positive(self):
        noc = MeshNoC(4, 4, 3)
        assert 0 < noc.average_latency() < 4 * 2 * 3 * 8

    def test_corner_to_corner(self):
        noc = MeshNoC(8, 8, 3)
        assert noc.hops(0, 63) == 14


class TestMemorySystem:
    def test_first_access_misses_to_dram(self):
        ms = MemorySystem(HardwareConfig.scaled(num_cores=2))
        cold = ms.access(0, 0x1000000)
        warm = ms.access(0, 0x1000000)
        assert cold > warm
        assert warm <= ms.config.l1d.latency + 1

    def test_l2_hit_after_l1_eviction(self):
        cfg = HardwareConfig.scaled(num_cores=1)
        ms = MemorySystem(cfg)
        ms.access(0, 0)
        # stream enough lines to evict line 0 from L1 but not L2
        l1_lines = cfg.l1d.size_bytes // 64
        for i in range(1, l1_lines * 2):
            ms.access(0, i * 64)
        latency = ms.access(0, 0)
        assert latency <= cfg.l1d.latency + cfg.l2.latency + 1 or latency > 0

    def test_per_core_private_l1(self):
        ms = MemorySystem(HardwareConfig.scaled(num_cores=2))
        ms.access(0, 0x5000)
        # core 1 misses privately but hits shared L3
        lat = ms.access(1, 0x5000)
        assert lat > ms.config.l1d.latency

    def test_access_range_touches_all_lines(self):
        ms = MemorySystem(HardwareConfig.scaled(num_cores=1))
        ms.access_range(0, 0, 256)
        assert ms.l1[0].accesses == 4

    def test_stats_accumulate(self):
        ms = MemorySystem(HardwareConfig.scaled(num_cores=1))
        lines = 8  # well under the scaled 1 KB L1 (16 lines)
        for i in range(lines):
            ms.access(0, i * 64)
        stats = ms.stats.as_dict()
        assert stats["dram_accesses"] == lines
        for i in range(lines):
            ms.access(0, i * 64)
        assert ms.stats.l1_hits == lines

    def test_hot_range_registration(self):
        ms = MemorySystem(
            HardwareConfig.scaled(num_cores=1).with_l3(policy="grasp")
        )
        ms.add_hot_range(0, 4096)
        assert all(bank._hot_ranges for bank in ms.l3)

    def test_cache_stats_keys(self):
        ms = MemorySystem(HardwareConfig.scaled(num_cores=1))
        ms.access(0, 0)
        stats = ms.cache_stats()
        assert set(stats) >= {"l1_hit_rate", "l2_hit_rate", "l3_hit_rate"}


class TestHardwareConfig:
    def test_paper_matches_table_ii(self):
        cfg = HardwareConfig.paper()
        assert cfg.num_cores == 64
        assert cfg.l1d.size_bytes == 32 * 1024
        assert cfg.l2.size_bytes == 256 * 1024
        assert cfg.l3.size_bytes == 128 * 1024 * 1024
        assert cfg.l3_banks == 32
        assert cfg.mesh_width == cfg.mesh_height == 8
        assert cfg.noc_hop_cycles == 3

    def test_scaled_shrinks_caches(self):
        cfg = HardwareConfig.scaled()
        assert cfg.l3.size_bytes < HardwareConfig.paper().l3.size_bytes

    def test_with_cores(self):
        cfg = HardwareConfig.scaled().with_cores(8)
        assert cfg.num_cores == 8

    def test_with_l3_override(self):
        cfg = HardwareConfig.scaled().with_l3(policy="grasp")
        assert cfg.l3.policy == "grasp"

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            HardwareConfig(num_cores=0)
