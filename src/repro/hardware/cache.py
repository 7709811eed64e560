"""Set-associative cache models with LRU, DRRIP, and GRASP replacement.

The three policies are the ones swept in Figure 16(b) of the paper:

* **LRU** — classic least-recently-used.
* **DRRIP** [18] — dynamic re-reference interval prediction with set-dueling
  between SRRIP (insert at RRPV = max-1) and BRRIP (insert mostly at max);
  this is the paper's default L3 policy (Table II).
* **GRASP** [13] — DRRIP extended with software-provided *hot region* hints:
  lines inside a registered hot address range (hub index, high-degree vertex
  states) are inserted at the highest priority and preferentially retained.

``Cache(config)`` returns the class specialised for ``config.policy``
(:class:`LRUCache`, :class:`RRIPCache` or :class:`GRASPCache`), so no access
branches on the policy.  Caches operate on line addresses; byte-to-line
mapping lives in :class:`repro.hardware.hierarchy.MemorySystem`, which also
walks the private LRU levels inline.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from .config import CacheConfig

#: the largest re-reference prediction value (2-bit RRPV)
RRPV_MAX = 3
#: set-dueling selector range and midpoint
PSEL_MAX = 1023
PSEL_MID = 512


class Cache:
    """A single set-associative cache level.

    ``access(line, write)`` returns True on hit; on a miss the line is
    installed.  Contents are per-line tags only — this is a timing/locality
    model, data lives in the simulated software arrays.  Each set is an
    ordered map from line (the full line id is the tag; sets are disjoint
    by index) to its RRPV, which LRU ignores in favour of the order.
    """

    __slots__ = (
        "config",
        "num_sets",
        "ways",
        "_sets",
        "_set_mask",
        "hits",
        "misses",
        "writebacks",
        "_hot_ranges",
    )

    policy = ""

    def __new__(cls, config: CacheConfig, line_bytes: int = 64):
        if cls is Cache:
            try:
                cls = _POLICY_CLASSES[config.policy]
            except KeyError:
                raise ValueError(f"unknown policy {config.policy!r}") from None
        return super().__new__(cls)

    def __init__(self, config: CacheConfig, line_bytes: int = 64) -> None:
        self.config = config
        self.ways = config.ways
        self.num_sets = config.num_sets(line_bytes)
        # Round down to a power of two so the index is a mask.
        while self.num_sets & (self.num_sets - 1):
            self.num_sets -= 1
        self._set_mask = self.num_sets - 1
        self._sets: List[Dict[int, int]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self._hot_ranges: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    def add_hot_range(self, begin_line: int, end_line: int) -> None:
        """Register a GRASP hot region, in line addresses ``[begin, end)``
        (only :class:`GRASPCache` acts on it)."""
        self._hot_ranges.append((begin_line, end_line))

    def clear_hot_ranges(self) -> None:
        self._hot_ranges.clear()

    def _is_hot(self, line: int) -> bool:
        for begin, end in self._hot_ranges:
            if begin <= line < end:
                return True
        return False

    # ------------------------------------------------------------------
    def access(self, line: int, write: bool = False) -> bool:
        """Touch one cache line; returns True on hit, False on miss (the
        line is then installed)."""
        raise NotImplementedError

    def probe(self, line: int) -> bool:
        """Check residency without updating replacement state or counters."""
        return line in self._sets[line & self._set_mask]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def stats_dict(self) -> dict:
        """Counter snapshot for the observability layer (metrics.json)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "hit_rate": self.hit_rate(),
        }

    def reset_stats(self) -> None:
        self.hits = self.misses = self.writebacks = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(sets={self.num_sets}, "
            f"ways={self.ways}, hits={self.hits}, misses={self.misses})"
        )


class LRUCache(Cache):
    """Least-recently-used: each set is ordered oldest first."""

    __slots__ = ()

    policy = "lru"

    def access(self, line: int, write: bool = False) -> bool:
        cset = self._sets[line & self._set_mask]
        if line in cset:
            self.hits += 1
            cset.move_to_end(line)
            return True
        self.misses += 1
        if len(cset) >= self.ways:
            cset.popitem(False)
            self.writebacks += 1
        cset[line] = 0
        return False


class RRIPCache(Cache):
    """DRRIP: SRRIP/BRRIP set dueling.  Sets 0 mod 64 follow SRRIP, 32 mod
    64 follow BRRIP, the rest follow the winner via a saturating selector
    that the hierarchy moves on leader-set L3 misses."""

    __slots__ = ("_brip_counter", "_psel")

    policy = "drrip"

    def __init__(self, config: CacheConfig, line_bytes: int = 64) -> None:
        super().__init__(config, line_bytes)
        self._brip_counter = 0
        self._psel = PSEL_MID

    def access(self, line: int, write: bool = False) -> bool:
        index = line & self._set_mask
        cset = self._sets[index]
        if line in cset:
            self.hits += 1
            cset[line] = 0  # promote to near-immediate re-reference
            return True
        self.misses += 1
        if len(cset) >= self.ways:
            self.writebacks += 1
            self._evict(cset)
        cset[line] = self._insertion_rrpv(index, line)
        return False

    def _insertion_rrpv(self, index: int, line: int) -> int:
        mod = index & 63
        if mod == 0:  # SRRIP leader set
            return RRPV_MAX - 1
        if mod != 32 and self._psel >= PSEL_MID:  # follower, SRRIP winning
            return RRPV_MAX - 1
        # BRRIP: distant insertion except 1-in-32 accesses.
        self._brip_counter = (self._brip_counter + 1) & 31
        return RRPV_MAX - 1 if self._brip_counter == 0 else RRPV_MAX

    def _evict(self, cset: dict) -> None:
        """Evict the first line (in insertion order) predicted distant.

        The reference search ages every line by one until some line is at
        ``RRPV_MAX``; all lines age alike, so that is the first line at
        the set's largest RRPV after ageing everything by the gap."""
        distant = max(cset.values())
        for victim, rrpv in cset.items():
            if rrpv == distant:
                break
        if distant < RRPV_MAX:
            gap = RRPV_MAX - distant
            for line in cset:
                cset[line] += gap
        del cset[victim]

    def note_duel_outcome(self, index: int, hit: bool) -> None:
        """Update the set-dueling selector for an access to set ``index``
        (the hierarchy applies the same rule inline on L3 accesses)."""
        if hit:
            return
        mod = index & 63
        if mod == 0:  # SRRIP leader missed: push toward BRRIP
            if self._psel > 0:
                self._psel -= 1
        elif mod == 32:  # BRRIP leader missed: push back
            if self._psel < PSEL_MAX:
                self._psel += 1


class GRASPCache(RRIPCache):
    """DRRIP plus hot-region hints: hot lines insert at RRPV 0 and never age
    past ``RRPV_MAX - 1``, so cold lines are evicted first."""

    __slots__ = ()

    policy = "grasp"

    def _insertion_rrpv(self, index: int, line: int) -> int:
        if self._is_hot(line):
            return 0
        return RRIPCache._insertion_rrpv(self, index, line)

    def _evict(self, cset: dict) -> None:
        # Ageing caps hot lines, so the shortcut of RRIPCache does not hold.
        is_hot = self._is_hot
        while True:
            for victim, rrpv in cset.items():
                if rrpv >= RRPV_MAX:
                    del cset[victim]
                    return
            for line in cset:
                if is_hot(line):
                    cset[line] = min(cset[line] + 1, RRPV_MAX - 1)
                else:
                    cset[line] += 1


_POLICY_CLASSES = {cls.policy: cls for cls in (LRUCache, RRIPCache, GRASPCache)}
