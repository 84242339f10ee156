"""Functional cache models: skewed, conventional and stacked.

One lookup core serves three cache kinds.  A cache is a flat array of
cells.  An address drops its line-offset bits and splits into
row = block % (num_sets * num_instances) and
tag = block // (num_sets * num_instances), the split decompose_address
makes.  The row names one candidate cell per way, and the kinds differ
only in how those cells are laid out:

* ``conventional``: a commodity set-associative cache, LRU or random
  replacement.  Row s is the cells s*ways + w, one row table shared by
  every domain.
* ``galois``: a square cache of m sets by m ways (m the field order).
  Domain t finds set s at the cells permute(t, s, w)*m + w.  Replacement
  is seeded-random.
* ``stacked-galois``: 2^k galois arrays side by side, selected by the
  address bits directly above the set index.  Row r is the galois row
  of set r % m, offset by (r // m)*m*m cells.

Each row is laid out on first use, per domain for the skewed kinds.
The physical set reported for flat cell index i is i // ways for every
kind.

Lines are tagged (domain, tag) and never shared across domains, so a
hit requires both to match.  A miss fills the lowest-index invalid
candidate if one exists, otherwise evicts the least recently used
candidate (LRU) or a uniformly random one drawn from the cache's own
seeded generator (getrandbits(64) mod ways).

State is mutable and single-owner; run concurrent experiments on
separate instances with separate seeds.  ``flush`` invalidates every
line but leaves the random stream position untouched, so replays that
span flushes stay reproducible.

Two exact shortcuts serve the attack trials.  ``fill_group`` plays the
probe passes of a group fill with its hits counted in bulk.
``snapshot`` and ``restore`` put back the state that steps drawing no
random number leave on a flushed cache, without replaying them.  LRU
stamps are kept relative to the clock at the last flush and rebased
onto the restoring cache's clock.
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


class CacheSnapshot(NamedTuple):
    cells: tuple
    #: per-domain stats rows, slots _HITS.._SELF_EVICTIONS
    stats: dict
    replacement: str
    #: LRU only: (cell index, stamp) of each stamped cell, and the clock,
    #: both counted from the clock at the last flush
    stamps: tuple
    clock: int


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

    @property
    def num_domains(self) -> Optional[int]:
        """Domain ids run over the field for the skewed kinds; a
        conventional cache takes any nonnegative id (None)."""
        return None if self.skew is None else self.skew.field.order


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
    """The lookup core every cache kind runs on.

    One flat cell array, one random stream, one per-domain stats table
    and one scan/fill/evict loop (``_access_line``).  A kind supplies
    only the layout of a candidate row: ``_layout(domain, row)`` gives
    the flat cell index of each way, and ``_row_table(domain)`` the
    table that caches laid-out rows for a domain.  The defaults here are
    the skewed layout shared by ``galois`` and ``stacked-galois``: one
    table per domain, each row laid out on first use.
    """

    def __init__(self, cfg: CacheConfig, seed: int = 0):
        self.cfg = cfg
        self.rng = random.Random(seed)
        self._ways = cfg.num_ways
        self._off = cfg.line_offset_bits
        self._span = cfg.num_sets * cfg.num_instances  # rows per domain
        self._lru = cfg.replacement == "lru"
        self._stats: dict[int, list[int]] = {}
        self._rows: dict[int, list[Optional[tuple[int, ...]]]] = {}
        self._cells: list[Optional[tuple]] = [None] * (self._span * self._ways)
        # LRU stamps exist only under LRU replacement
        self._stamps = [0] * len(self._cells) if self._lru else None
        self._clock = 0
        self._flush_clock = 0  # the clock at the last flush

    def _row_table(self, domain: int) -> list[Optional[tuple[int, ...]]]:
        """An empty row table for a domain's first access."""
        m = self.cfg.num_domains
        if not 0 <= domain < m:
            raise ValueError(f"domain id {domain} out of range for {m} domains")
        return [None] * self._span

    def _layout(self, domain: int, row: int) -> tuple[int, ...]:
        m = self._ways
        base = (row // m) * m * m
        return tuple(base + p * m + w
                     for w, p in enumerate(permute_all_ways(self.cfg.skew, domain, row % m)))

    def _row(self, domain: int, row: int) -> tuple[int, ...]:
        """Candidate cells of a domain's row, laid out on first use."""
        rows = self._rows.get(domain)
        if rows is None:
            rows = self._rows[domain] = self._row_table(domain)
        cand = rows[row]
        if cand is None:
            cand = rows[row] = self._layout(domain, row)
        return cand

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
        if addr < 0:
            raise ValueError("addresses are unsigned")
        block = addr >> self._off
        span = self._span
        hit, idx, way, victim = self._access_line(domain, block % span, block // span)
        return AccessOutcome(hit, idx // self._ways, way, victim)

    def probe_one(self, domain: int, addr: int) -> bool:
        """Single-address probe; exposes only the hit/miss bit."""
        if addr < 0:
            raise ValueError("addresses are unsigned")
        block = addr >> self._off
        span = self._span
        return self._access_line(domain, block % span, block // span)[0]

    def observe_probe(self, domain: int, addrs) -> list[ProbeObservation]:
        """Probe addresses in order.  Probes are real accesses and mutate
        state; only the per-address hit flag is reported."""
        if not addrs:
            raise ValueError("probe needs at least one address")
        probe = self.probe_one
        return [ProbeObservation(addr, probe(domain, addr)) for addr in addrs]

    def _access_line(self, domain: int, row: int, tag: int):
        """Core lookup: returns (hit, flat cell index, way, evicted line)."""
        rows = self._rows.get(domain)
        cand = rows[row] if rows is not None else None
        if cand is None:
            cand = self._row(domain, row)
        stats = self._stats.get(domain)
        if stats is None:
            stats = self._stats[domain] = [0, 0, 0, 0]
        cells = self._cells
        key = (domain, tag)
        # stats slots _HITS.._SELF_EVICTIONS as literals 0..3: this is the hot loop
        first_invalid = -1
        for w, idx in enumerate(cand):
            cell = cells[idx]
            if cell is None:
                if first_invalid < 0:
                    first_invalid = w
            elif cell == key:
                stats[0] += 1
                if self._lru:
                    self._clock += 1
                    self._stamps[idx] = self._clock
                return True, idx, w, None
        stats[1] += 1
        if first_invalid >= 0:
            w = first_invalid
            victim = None
        else:
            if self._lru:
                stamps = self._stamps
                ages = [stamps[idx] for idx in cand]
                w = ages.index(min(ages))
            else:
                w = self.rng.getrandbits(64) % self._ways
            victim = cells[cand[w]]
            stats[3 if victim[0] == domain else 2] += 1
        idx = cand[w]
        cells[idx] = key
        if self._lru:
            self._clock += 1
            self._stamps[idx] = self._clock
        return False, idx, w, victim

    def fill_group(self, domain: int, addrs, max_rounds: int = 4096) -> int:
        """Access each address once, then probe the group in passes until
        one pass hits everywhere; returns the number of probe passes.

        A pass probes in order and restarts at its first miss, since
        that miss's refill may evict a line of the group.  Hits draw no
        random number, so a pass is played in bulk: every line before
        the first one whose last-placed cell no longer holds it counts
        as a hit in one step, and only that line goes through the
        lookup.  Passes, cells, stats, LRU stamps and the random stream
        all end as the probe-by-probe loop leaves them.  The cap only
        guards against a broken cache model.
        """
        off, span = self._off, self._span
        access = self._access_line
        lines, keys, placed = [], [], []
        for a in addrs:
            if a < 0:
                raise ValueError("addresses are unsigned")
            block = a >> off
            line = (block % span, block // span)
            lines.append(line)
            keys.append((domain, line[1]))
            placed.append(access(domain, *line)[1])
        cells = self._cells
        n = len(lines)
        for passes in range(1, max_rounds + 1):
            i = 0
            while True:
                j = i
                while j < n and cells[placed[j]] == keys[j]:
                    j += 1
                if j > i:
                    self._stats[domain][_HITS] += j - i
                    if self._lru:
                        for idx in placed[i:j]:
                            self._clock += 1
                            self._stamps[idx] = self._clock
                if j == n:
                    return passes
                # gone from its cell: the full lookup refills it (or hits
                # a copy elsewhere in the row, which only a layout that is
                # not a per-way bijection can hold)
                hit, placed[j], _, _ = access(domain, *lines[j])
                if not hit:
                    break
                i = j + 1
        raise RuntimeError(f"set not resident after {max_rounds} probe passes")

    def flush(self, reset_stats: bool = False) -> None:
        size = len(self._cells)
        self._cells = [None] * size
        if self._lru:
            self._stamps = [0] * size
            self._flush_clock = self._clock
        if reset_stats:
            self.reset_stats()

    def snapshot(self) -> CacheSnapshot:
        """The cells, the stats so far and the LRU stamps set since the
        last flush, for ``restore``."""
        base = self._flush_clock
        stamps = () if not self._lru else tuple(
            (idx, stamp - base) for idx, stamp in enumerate(self._stamps) if stamp)
        return CacheSnapshot(tuple(self._cells),
                             {d: tuple(row) for d, row in self._stats.items()},
                             self.cfg.replacement, stamps, self._clock - base)

    def restore(self, snap: CacheSnapshot) -> None:
        """Set the cells to the snapshot's, add its stats to this cache's,
        and under LRU set its stamps and clock advance onto this cache's
        clock.  A snapshot taken after some steps on a flushed,
        zero-stats cache thus stands in for replaying those steps after
        a flush, provided they drew no random number."""
        if len(snap.cells) != len(self._cells):
            raise ValueError("snapshot is of a cache with another geometry")
        if snap.replacement != self.cfg.replacement:
            raise ValueError("snapshot is of a cache with another replacement policy")
        self._cells = list(snap.cells)
        if self._lru:
            base = self._clock
            stamps = self._stamps = [0] * len(self._cells)
            for idx, stamp in snap.stamps:
                stamps[idx] = base + stamp
            self._clock = base + snap.clock
        for d, delta in snap.stats.items():
            row = self._stats.get(d)
            if row is None:
                row = self._stats[d] = [0, 0, 0, 0]
            for slot, v in enumerate(delta):
                row[slot] += v


class GaloisCache(_BaseCache):
    """Square skewed cache: domain t finds set s at the cells
    permute(t, s, w) * m + w, one per way w."""


class ConventionalCache(_BaseCache):
    """Commodity set-associative cache with exact-LRU or random replacement.

    Set s is the cells s * ways + w; the layout ignores the domain, so
    every domain shares one row table.
    """

    def __init__(self, cfg: CacheConfig, seed: int = 0):
        super().__init__(cfg, seed)
        self._shared_rows: list[Optional[tuple[int, ...]]] = [None] * self._span

    def _row_table(self, domain: int) -> list[Optional[tuple[int, ...]]]:
        if domain < 0:
            raise ValueError(f"domain id {domain} is negative")
        return self._shared_rows

    def _layout(self, domain: int, row: int) -> tuple[int, ...]:
        return tuple(range(row * self._ways, (row + 1) * self._ways))


class StackedGaloisCache(_BaseCache):
    """2^k galois arrays side by side in one cell array.

    Row r is the galois row of set r % m, offset by (r // m) * m * m
    cells, so the reported physical set is instance * m + local set.
    All instances draw from the one random stream, so a (seed, trace)
    pair still replays bit-identically.
    """


def build_cache(cfg: CacheConfig, seed: int = 0) -> _BaseCache:
    if cfg.kind == "galois":
        return GaloisCache(cfg, seed)
    if cfg.kind == "conventional":
        return ConventionalCache(cfg, seed)
    return StackedGaloisCache(cfg, seed)
