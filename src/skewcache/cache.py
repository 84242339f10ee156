"""Functional cache models: skewed, conventional, and stacked.

Three kinds share one access contract:

* ``galois``: a square cache of m sets by m ways (m the field order)
  where each security domain looks up set s across the skewed candidate
  cells (permute(t, s, w), w).  Replacement is seeded-random.
* ``conventional``: a commodity set-associative cache, LRU or random
  replacement, set index taken straight from the address.
* ``stacked-galois``: 2^k independent galois instances selected by the
  address bits directly above the set index.

Lines are tagged (domain, tag) and never shared across domains, so a
hit requires both to match.  A miss fills the lowest-index invalid
candidate if one exists, otherwise evicts a uniformly random candidate
using the cache's own seeded generator (getrandbits(64) mod ways).

State is mutable and single-owner; run concurrent experiments on
separate instances with separate seeds.  ``flush`` invalidates every
line but leaves the random stream position untouched, so replays that
span flushes stay reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .field import MAX_CELLS
from .skew import SkewParams, permute_all_ways

KINDS = ("galois", "conventional", "stacked-galois")

# stats slots, per domain
_HITS, _MISSES, _EVICTIONS_CAUSED, _SELF_EVICTIONS = range(4)


class AddressParts(NamedTuple):
    tag: int
    set_index: int
    instance: int


class AccessOutcome(NamedTuple):
    hit: bool
    physical_set: int
    way: int
    #: (domain, tag) of the line this access evicted; simulator-internal,
    #: never exposed through observe_probe.
    victim_line: Optional[tuple]


class ProbeObservation(NamedTuple):
    addr: int
    hit: bool


@dataclass(frozen=True)
class CacheConfig:
    kind: str
    num_sets: int
    num_ways: int
    skew: Optional[SkewParams] = None
    replacement: str = "random"
    line_offset_bits: int = 6
    stack_bits: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown cache kind {self.kind!r}")
        if self.num_sets < 1 or self.num_ways < 1:
            raise ValueError("geometry must be positive")
        if self.line_offset_bits < 0 or self.stack_bits < 0:
            raise ValueError("bit widths must be nonnegative")
        if self.kind in ("galois", "stacked-galois"):
            if self.skew is None:
                raise ValueError(f"{self.kind} cache needs skew parameters")
            m = self.skew.field.order
            if self.num_sets != m or self.num_ways != m:
                raise ValueError(
                    f"{self.kind} cache must be {m}x{m} for field order {m}"
                )
            if self.replacement != "random":
                raise ValueError("skewed caches use random replacement")
        else:
            if self.num_sets & (self.num_sets - 1):
                raise ValueError("conventional num_sets must be a power of two")
            if self.replacement not in ("random", "lru"):
                raise ValueError(f"unknown replacement {self.replacement!r}")
        if self.kind != "stacked-galois" and self.stack_bits:
            raise ValueError("stack_bits only applies to stacked-galois")
        # bounding stack_bits first keeps 1 << stack_bits small
        if (self.stack_bits > MAX_CELLS.bit_length()
                or self.num_sets * self.num_ways * self.num_instances > MAX_CELLS):
            raise ValueError(f"{self.num_sets}x{self.num_ways} cells x 2^{self.stack_bits} "
                             f"instances exceeds {MAX_CELLS} cells")

    @property
    def num_instances(self) -> int:
        return 1 << self.stack_bits if self.kind == "stacked-galois" else 1


def galois_config(skew: SkewParams, line_offset_bits: int = 6) -> CacheConfig:
    m = skew.field.order
    return CacheConfig("galois", m, m, skew, "random", line_offset_bits)


def conventional_config(
    num_sets: int,
    num_ways: int,
    replacement: str = "lru",
    line_offset_bits: int = 6,
) -> CacheConfig:
    return CacheConfig(
        "conventional", num_sets, num_ways, None, replacement, line_offset_bits
    )


def stacked_config(
    skew: SkewParams, stack_bits: int, line_offset_bits: int = 6
) -> CacheConfig:
    m = skew.field.order
    return CacheConfig(
        "stacked-galois", m, m, skew, "random", line_offset_bits, stack_bits
    )


def decompose_address(cfg: CacheConfig, addr: int) -> AddressParts:
    """Split an address into tag, set index and (stacked only) instance.

    Drops the line-offset bits, then takes the set index, then the
    stack-instance selector, leaving the tag.  For power-of-two set
    counts this is plain bit slicing; division keeps the same contract
    for prime-order caches.
    """
    if addr < 0:
        raise ValueError("addresses are unsigned")
    block = addr >> cfg.line_offset_bits
    set_index = block % cfg.num_sets
    rest = block // cfg.num_sets
    instance = rest % cfg.num_instances
    tag = rest // cfg.num_instances
    return AddressParts(tag=tag, set_index=set_index, instance=instance)


def compose_address(
    cfg: CacheConfig, set_index: int, tag: int, instance: int = 0
) -> int:
    """Inverse of decompose_address; handy for building targeted traces."""
    if not 0 <= set_index < cfg.num_sets:
        raise ValueError(f"set index {set_index} out of range")
    if not 0 <= instance < cfg.num_instances:
        raise ValueError(f"instance {instance} out of range")
    block = (tag * cfg.num_instances + instance) * cfg.num_sets + set_index
    return block << cfg.line_offset_bits


class _BaseCache:
    """Shared stats plumbing and the observation interface."""

    def __init__(self, cfg: CacheConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self._stats: dict[int, list[int]] = {}

    def _stat_row(self, domain: int) -> list[int]:
        row = self._stats.get(domain)
        if row is None:
            row = [0, 0, 0, 0]
            self._stats[domain] = row
        return row

    def stats(self) -> dict[int, dict[str, int]]:
        return {
            d: {
                "hits": row[_HITS],
                "misses": row[_MISSES],
                "evictions_caused": row[_EVICTIONS_CAUSED],
                "self_evictions": row[_SELF_EVICTIONS],
            }
            for d, row in sorted(self._stats.items())
        }

    def reset_stats(self) -> None:
        self._stats.clear()

    def reseed(self, seed: int) -> None:
        self.rng.seed(seed)

    def access(self, domain: int, addr: int) -> AccessOutcome:
        raise NotImplementedError

    def probe_one(self, domain: int, addr: int) -> bool:
        """Single-address probe; exposes only the hit/miss bit."""
        return self.access(domain, addr).hit

    def observe_probe(self, domain: int, addrs) -> list[ProbeObservation]:
        """Probe addresses in order.  Probes are real accesses and mutate
        state; only the per-address hit flag is reported."""
        if not addrs:
            raise ValueError("probe needs at least one address")
        probe = self.probe_one
        return [ProbeObservation(addr, probe(domain, addr)) for addr in addrs]

    def flush(self, reset_stats: bool = False) -> None:
        raise NotImplementedError


class GaloisCache(_BaseCache):
    """Square skewed cache with per-domain candidate rows.

    Candidate cell indices are materialized lazily per domain: row s of
    domain t lists the flat cell index (physical_set * m + w) for each
    way w.
    """

    def __init__(self, cfg: CacheConfig, seed: int = 0, rng: random.Random | None = None):
        super().__init__(cfg, rng if rng is not None else random.Random(seed))
        self._m = cfg.num_ways
        self._off = cfg.line_offset_bits
        self._cells: list[Optional[tuple]] = [None] * (self._m * self._m)
        self._rows: dict[int, list[tuple[int, ...]]] = {}

    def _candidate_rows(self, domain: int) -> list[tuple[int, ...]]:
        rows = self._rows.get(domain)
        if rows is None:
            m = self._m
            if not 0 <= domain < m:
                raise ValueError(f"domain id {domain} out of range for {m} domains")
            sp = self.cfg.skew
            rows = [
                tuple(p * m + w for w, p in enumerate(permute_all_ways(sp, domain, s)))
                for s in range(m)
            ]
            self._rows[domain] = rows
        return rows

    def access(self, domain: int, addr: int) -> AccessOutcome:
        if addr < 0:
            raise ValueError("addresses are unsigned")
        m = self._m
        block = addr >> self._off
        hit, idx, way, victim = self._access_line(domain, block % m, block // m)
        return AccessOutcome(hit, idx // m, way, victim)

    def probe_one(self, domain: int, addr: int) -> bool:
        if addr < 0:
            raise ValueError("addresses are unsigned")
        m = self._m
        block = addr >> self._off
        return self._access_line(domain, block % m, block // m)[0]

    def _access_line(self, domain: int, set_index: int, tag: int):
        """Core lookup: returns (hit, flat cell index, way, evicted line)."""
        rows = self._rows.get(domain)
        if rows is None:
            rows = self._candidate_rows(domain)
        cand = rows[set_index]
        cells = self._cells
        key = (domain, tag)
        stats = self._stats.get(domain)
        if stats is None:
            stats = self._stat_row(domain)
        first_invalid = -1
        for w, idx in enumerate(cand):
            cell = cells[idx]
            if cell is None:
                if first_invalid < 0:
                    first_invalid = w
            elif cell == key:
                stats[0] += 1
                return True, idx, w, None
        stats[1] += 1
        if first_invalid >= 0:
            idx = cand[first_invalid]
            cells[idx] = key
            return False, idx, first_invalid, None
        w = self.rng.getrandbits(64) % self._m
        idx = cand[w]
        victim = cells[idx]
        cells[idx] = key
        if victim[0] == domain:
            stats[3] += 1
        else:
            stats[2] += 1
        return False, idx, w, victim

    def flush(self, reset_stats: bool = False) -> None:
        self._cells = [None] * (self._m * self._m)
        if reset_stats:
            self.reset_stats()

    # test/harness backdoor, not part of the observation interface
    def line_at(self, physical_set: int, way: int) -> Optional[tuple]:
        return self._cells[physical_set * self._m + way]

    def domain_lines_in_set(self, domain: int, set_index: int) -> int:
        """How many candidate cells of (domain, set) hold that domain's lines."""
        cells = self._cells
        count = 0
        for idx in self._candidate_rows(domain)[set_index]:
            cell = cells[idx]
            if cell is not None and cell[0] == domain:
                count += 1
        return count


class ConventionalCache(_BaseCache):
    """Commodity set-associative cache with exact-LRU or random replacement."""

    def __init__(self, cfg: CacheConfig, seed: int = 0, rng: random.Random | None = None):
        super().__init__(cfg, rng if rng is not None else random.Random(seed))
        self._ways = cfg.num_ways
        size = cfg.num_sets * cfg.num_ways
        self._cells: list[Optional[tuple]] = [None] * size
        self._stamps = [0] * size
        self._clock = 0
        self._lru = cfg.replacement == "lru"

    def access(self, domain: int, addr: int) -> AccessOutcome:
        parts = decompose_address(self.cfg, addr)
        s = parts.set_index
        ways = self._ways
        base = s * ways
        cells = self._cells
        key = (domain, parts.tag)
        stats = self._stat_row(domain)
        self._clock += 1
        first_invalid = -1
        for w in range(ways):
            cell = cells[base + w]
            if cell is None:
                if first_invalid < 0:
                    first_invalid = w
            elif cell == key:
                stats[0] += 1
                self._stamps[base + w] = self._clock
                return AccessOutcome(True, s, w, None)
        stats[1] += 1
        if first_invalid >= 0:
            cells[base + first_invalid] = key
            self._stamps[base + first_invalid] = self._clock
            return AccessOutcome(False, s, first_invalid, None)
        if self._lru:
            stamps = self._stamps
            w = 0
            low = stamps[base]
            for i in range(1, ways):
                if stamps[base + i] < low:
                    low = stamps[base + i]
                    w = i
        else:
            w = self.rng.getrandbits(64) % ways
        victim = cells[base + w]
        cells[base + w] = key
        self._stamps[base + w] = self._clock
        if victim[0] == domain:
            stats[3] += 1
        else:
            stats[2] += 1
        return AccessOutcome(False, s, w, victim)

    def flush(self, reset_stats: bool = False) -> None:
        size = self.cfg.num_sets * self._ways
        self._cells = [None] * size
        self._stamps = [0] * size
        if reset_stats:
            self.reset_stats()


class StackedGaloisCache(_BaseCache):
    """2^k independent skewed instances behind one address space.

    All instances draw from the one shared generator, so a (seed, trace)
    pair still replays bit-identically.  Reported physical sets are
    globalized as instance * num_sets + local set.
    """

    def __init__(self, cfg: CacheConfig, seed: int = 0, rng: random.Random | None = None):
        super().__init__(cfg, rng if rng is not None else random.Random(seed))
        sub = galois_config(cfg.skew, cfg.line_offset_bits)
        self.instances = [
            GaloisCache(sub, rng=self.rng) for _ in range(cfg.num_instances)
        ]

    def access(self, domain: int, addr: int) -> AccessOutcome:
        parts = decompose_address(self.cfg, addr)
        child = self.instances[parts.instance]
        hit, idx, way, victim = child._access_line(domain, parts.set_index, parts.tag)
        return AccessOutcome(
            hit,
            parts.instance * self.cfg.num_sets + idx // child._m,
            way,
            victim,
        )

    def stats(self) -> dict[int, dict[str, int]]:
        merged: dict[int, dict[str, int]] = {}
        for child in self.instances:
            for d, row in child.stats().items():
                agg = merged.setdefault(
                    d,
                    {
                        "hits": 0,
                        "misses": 0,
                        "evictions_caused": 0,
                        "self_evictions": 0,
                    },
                )
                for k, v in row.items():
                    agg[k] += v
        return dict(sorted(merged.items()))

    def reset_stats(self) -> None:
        for child in self.instances:
            child.reset_stats()

    def flush(self, reset_stats: bool = False) -> None:
        for child in self.instances:
            child.flush(reset_stats)


def build_cache(cfg: CacheConfig, seed: int = 0) -> _BaseCache:
    if cfg.kind == "galois":
        return GaloisCache(cfg, seed)
    if cfg.kind == "conventional":
        return ConventionalCache(cfg, seed)
    return StackedGaloisCache(cfg, seed)
