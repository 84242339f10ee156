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

A domain's row table is kept once per configuration and shared by every
cache (``_domain_rows``); it lays out a row when the row is first read,
a skewed one from the domain's ``skew.domain_layout`` slice.  No two
rows of a domain share a cell: a cache refuses, with a ValueError on
first use, a skewed domain whose slice is not a per-way bijection, which
no field layout gives.  The physical set reported for flat cell index i
is i // ways for every kind.

A cell holds its line as (domain, block), block the address without its
offset bits, so a resident line's row is block % (num_sets *
num_instances), with no inverse of the layout.  Lines are never shared
across domains, so a hit requires both to match.  A miss fills the
lowest-index invalid candidate if one exists, otherwise evicts the least
recently used candidate (LRU) or a uniformly random one drawn from the
cache's own seeded generator (getrandbits(64) mod ways).

State is mutable and single-owner; run concurrent experiments on
separate instances with separate seeds.  ``flush`` invalidates every
line and restarts the LRU clock at 0, but leaves the stats and the
random stream position untouched, so replays that span flushes stay
reproducible.  LRU compares stamps only among valid cells, all stamped
since the last flush, so the restart changes no choice.

Two exact shortcuts serve the attack trials.  ``fill_group`` (the
squeeze) and ``probe_group`` (a probe in order, or, with
``stop_at_miss``, up to and including its first miss) play a group of
one domain's lines through a row-local kernel: each row of the group is
scanned once on entry, the lines before the first missing one count as
hits at once, and after that a hit is a lookup and a miss is one cell
write and at most one draw.  The kernel needs random replacement and
distinct lines; any other group takes the probe-by-probe loop.
``restore`` flushes the cache and puts back the ``snapshot`` of the
state that steps drawing no random number leave on an empty cache,
without replaying them; under LRU the snapshot holds the stamps and the
clock as they are, since both count from the flush.

One batch loop serves trace replay.  ``play`` accesses a stream of
``(domain, op, addr)`` records in order through a line index built on
entry from the occupied cells as they are: a dict from each cell's
``(domain, block)`` to the cell.  A hit is one dict lookup; a miss
reads its row only for the first free way (while the cache has one) or
the LRU ages, and a random-replacement miss on a full row draws its
victim without reading the row.  The
loop's hit, first-free-way and victim choices are those of
``_access_line`` in the same way order, so cells, stats, LRU stamps,
clock and random stream end as an ``access`` per record leaves them;
``_access_line`` is its oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple, Optional

import numpy as np

from .field import MAX_CELLS
from .skew import SkewParams, _way_bijective, domain_layout

KINDS = ("galois", "conventional", "stacked-galois")

# stats slots, per domain
_HITS, _MISSES, _EVICTIONS_CAUSED, _SELF_EVICTIONS = range(4)
# decoded groups kept per cache before the memo starts over
_GROUP_MEMO = 1024


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
    #: (cell index, line) of each occupied cell, and the cell count
    lines: tuple
    size: int
    #: per-domain stats rows, slots _HITS.._SELF_EVICTIONS
    stats: dict
    replacement: str
    #: LRU only: (cell index, stamp) of each stamped cell, and the clock
    stamps: tuple
    clock: int


class _Group(NamedTuple):
    """A group of one domain's lines, decoded once per cache (``_group``)."""

    #: (row, block) of each line, for the probe-by-probe loop
    lines: tuple
    #: whether the row-local kernel plays this group; the fields below
    #: are filled only then
    kernel: bool
    #: (domain, block) of each line, and the candidate cells of its row
    keys: tuple = ()
    cands: tuple = ()
    #: each line's position in ``rows``
    slots: tuple = ()
    #: the candidate cells of each distinct row of the group
    rows: tuple = ()
    #: (domain, block) -> line index, over every line of the group
    line_of: Optional[dict] = None


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


class _Rows(dict):
    """A domain's row table, row index -> its candidate cells, each row
    laid out when first read: a conventional row from arithmetic, a
    skewed one from the domain's (set, way) -> physical set slice."""

    def __init__(self, ways: int, physical: Optional[np.ndarray] = None):
        super().__init__()
        self.ways, self.physical = ways, physical

    def __missing__(self, row: int) -> tuple:
        global _layout_cells
        ways, physical = self.ways, self.physical
        if physical is None:  # a conventional set s is s in every way
            cand = tuple(range(row * ways, (row + 1) * ways))
        else:  # stacked instances repeat the slice, m*m cells apart
            instance, s = divmod(row, len(physical))
            base = instance * len(physical) * ways
            cand = tuple(base + p * ways + w for w, p in enumerate(physical[s].tolist()))
        _layout_cells += ways
        self[row] = cand
        return cand


# layout key -> row table; starts over once the slices kept and the rows
# laid out pass MAX_CELLS cells
_LAYOUTS: dict[tuple, _Rows] = {}
_layout_cells = 0


def _domain_rows(cfg: CacheConfig, domain: int) -> _Rows:
    """After the domain's range check, its row table, memoized on what
    the layout reads.  A conventional domain's rows never share a cell.
    A skewed domain's slice must be a per-way bijection, checked
    exhaustively here, so that its rows share none (stacked instances
    repeat the slice); a domain whose slice is not raises ValueError."""
    global _layout_cells
    m = cfg.num_domains
    if m is None and domain < 0:
        raise ValueError(f"domain id {domain} is negative")
    if m is not None and not 0 <= domain < m:
        raise ValueError(f"domain id {domain} out of range for {m} domains")
    key = (cfg.num_sets, cfg.num_ways) if m is None else (cfg.skew, cfg.num_instances, domain)
    rows = _LAYOUTS.get(key)
    if rows is None:
        physical = None if m is None else domain_layout(cfg.skew, domain)
        if physical is not None and not _way_bijective(physical).all():
            raise ValueError(f"domain {domain}'s rows share a cell: its layout "
                             "slice is not a per-way bijection")
        if _layout_cells > MAX_CELLS:
            _LAYOUTS.clear()
            _layout_cells = 0
        if physical is not None:
            _layout_cells += physical.size
        rows = _LAYOUTS[key] = _Rows(cfg.num_ways, physical)
    return rows


class _BaseCache:
    """The lookup core every cache kind runs on.

    One flat cell array, one random stream, one per-domain stats table
    and one scan/fill/evict loop (``_access_line``).  The kinds differ
    only in their rows (``_domain_rows``).
    """

    def __init__(self, cfg: CacheConfig, seed: int = 0):
        self.cfg = cfg
        self.rng = random.Random(seed)
        self._ways = cfg.num_ways
        self._off = cfg.line_offset_bits
        self._span = cfg.num_sets * cfg.num_instances  # rows per domain
        self._lru = cfg.replacement == "lru"
        self._stats: dict[int, list[int]] = {}
        self._rows: dict[int, dict] = {}  # domain -> its row table
        self._cells: list[Optional[tuple]] = [None] * (self._span * self._ways)
        # LRU stamps exist only under LRU replacement
        self._stamps = [0] * len(self._cells) if self._lru else None
        self._clock = 0
        self._groups: dict[tuple, _Group] = {}

    def _rows_of(self, domain: int) -> dict:
        """The domain's row table: candidate cells per row index."""
        rows = self._rows.get(domain)
        if rows is None:
            rows = self._rows[domain] = _domain_rows(self.cfg, domain)
        return rows

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

    def reseed(self, seed: int) -> None:
        self.rng.seed(seed)

    def access(self, domain: int, addr: int) -> AccessOutcome:
        if addr < 0:
            raise ValueError("addresses are unsigned")
        block = addr >> self._off
        span = self._span
        hit, idx, way, victim = self._access_line(domain, block % span, block)
        if victim is not None:
            victim = (victim[0], victim[1] // span)
        return AccessOutcome(hit, idx // self._ways, way, victim)

    def probe_one(self, domain: int, addr: int) -> bool:
        """Single-address probe; exposes only the hit/miss bit."""
        if addr < 0:
            raise ValueError("addresses are unsigned")
        block = addr >> self._off
        return self._access_line(domain, block % self._span, block)[0]

    def observe_probe(self, domain: int, addrs) -> list[ProbeObservation]:
        """Probe addresses in order.  Probes are real accesses and mutate
        state; only the per-address hit flag is reported."""
        addrs = tuple(addrs)  # read twice
        return [ProbeObservation(a, hit)
                for a, hit in zip(addrs, self.probe_group(domain, addrs))]

    def probe_group(self, domain: int, addrs, stop_at_miss: bool = False) -> list[bool]:
        """Access the addresses in order; returns whether each one hit.
        Equal to a ``probe_one`` of each address in turn.

        With ``stop_at_miss``, the probe ends at the first miss, which is
        played (its refill and any eviction included): the flags are
        those of the lines accessed, and the last is False unless every
        line hit.  Equal to a ``probe_one`` loop that breaks at its
        first miss."""
        group = self._group(domain, addrs)
        if not group.lines:
            raise ValueError("probe needs at least one address")
        if group.kernel:
            return self._play_group(domain, group, stop_at_miss=stop_at_miss)
        access = self._access_line
        hits = []
        for row, block in group.lines:
            hits.append(access(domain, row, block)[0])
            if stop_at_miss and not hits[-1]:
                break
        return hits

    def _access_line(self, domain: int, row: int, block: int):
        """Core lookup of the line ``block`` in its ``row``: returns (hit,
        flat cell index, way, evicted line)."""
        cand = (self._rows.get(domain) or self._rows_of(domain))[row]
        stats = self._stats.get(domain)
        if stats is None:
            stats = self._stats[domain] = [0, 0, 0, 0]
        cells = self._cells
        key = (domain, block)
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

    def play(self, records) -> dict[int, dict[str, int]]:
        """Access each ``(domain, op, addr)`` record in order; returns the
        per-domain R/W counts (any op but ``"R"`` counts as a write).

        The batch loop ``trace.replay`` runs, through an index of the
        occupied cells by the ``(domain, block)`` each holds: equal to an
        ``access`` of each record, which stays its oracle.  Records are
        consumed lazily; a bad record raises the ``ValueError`` of
        ``access`` with the records before it played.
        """
        cells = self._cells
        stamps, lru = self._stamps, self._lru
        age = stamps.__getitem__ if lru else None
        draw, ways, off, span = self.rng.getrandbits, self._ways, self._off, self._span
        where = {cells[i]: i for i in compress(range(len(cells)), cells)}
        free = cells.count(None)
        ops: dict[int, list[int]] = {}  # domain -> its R/W counts
        seen: dict[int, tuple] = {}  # domain -> its row table, stats and R/W counts
        clock = self._clock
        try:
            # stats slots _HITS.._SELF_EVICTIONS as literals 0..3, as in _access_line
            for domain, op, addr in records:
                if addr < 0:
                    raise ValueError("addresses are unsigned")
                mine = seen.get(domain)
                if mine is None:
                    mine = seen[domain] = (self._rows_of(domain),
                                           self._stats.setdefault(domain, [0, 0, 0, 0]),
                                           ops.setdefault(domain, [0, 0]))
                rows, stats, counts = mine
                counts[op != "R"] += 1
                block = addr >> off
                key = (domain, block)
                idx = where.get(key)
                if idx is not None:
                    stats[0] += 1
                    if lru:
                        clock += 1
                        stamps[idx] = clock
                    continue
                stats[1] += 1
                cand = rows[block % span]
                if free:
                    for i in cand:
                        if cells[i] is None:
                            idx = i
                            free -= 1
                            break
                if idx is None:
                    idx = min(cand, key=age) if lru else cand[draw(64) % ways]
                    victim = cells[idx]
                    stats[3 if victim[0] == domain else 2] += 1
                    del where[victim]
                cells[idx] = key
                where[key] = idx
                if lru:
                    clock += 1
                    stamps[idx] = clock
        finally:
            self._clock = clock
        return {d: {"reads": counts[0], "writes": counts[1]} for d, counts in ops.items()}

    def fill_group(self, domain: int, addrs, max_rounds: int = 4096) -> int:
        """Access each address once, then probe the group in passes until
        one pass hits everywhere; returns the number of probe passes.

        A pass probes in order and restarts at its first miss, since
        that miss's refill may evict a line of the group.  The cap only
        guards against a broken cache model.  The row-local kernel plays
        the group when it can; otherwise this loop does, probe by probe.
        """
        group = self._group(domain, addrs)
        if group.kernel:
            return self._play_group(domain, group, max_rounds)
        access = self._access_line
        for row, block in group.lines:
            access(domain, row, block)
        for passes in range(1, max_rounds + 1):
            if all(access(domain, row, block)[0] for row, block in group.lines):
                return passes
        raise RuntimeError(f"set not resident after {max_rounds} probe passes")

    def _group(self, domain: int, addrs) -> _Group:
        """The decoded group, memoized per cache: the attack trials play
        the same few groups in every trial."""
        key = (domain, tuple(addrs))
        group = self._groups.get(key)
        if group is None:
            if len(self._groups) >= _GROUP_MEMO:
                self._groups.clear()
            group = self._groups[key] = self._decode_group(domain, key[1])
        return group

    def _decode_group(self, domain: int, addrs: tuple) -> _Group:
        rows_of = self._rows_of(domain)  # the domain's range and refusal, whatever addrs is
        off, span = self._off, self._span
        lines = []
        for a in addrs:
            if a < 0:
                raise ValueError("addresses are unsigned")
            block = a >> off
            lines.append((block % span, block))
        lines = tuple(lines)
        if not lines or self._lru or len(set(lines)) < len(lines):
            return _Group(lines, False)
        slot_of = {row: k for k, row in enumerate(dict.fromkeys(row for row, _ in lines))}
        keys = tuple((domain, block) for _, block in lines)
        return _Group(lines, True, keys, tuple(rows_of[row] for row, _ in lines),
                      tuple(slot_of[row] for row, _ in lines),
                      tuple(rows_of[row] for row in slot_of),
                      {key: j for j, key in enumerate(keys)})

    def _play_group(self, domain: int, group: _Group, max_rounds: Optional[int] = None,
                    stop_at_miss: bool = False):
        """The row-local kernel: with ``max_rounds`` None, probe the
        group once in order and return the hit flags, up to and
        including the first miss if ``stop_at_miss``; otherwise play
        ``fill_group`` and return its pass count.

        Each row is scanned once on entry for its free cells, in way
        order, and the cells holding group lines.  Rows of the domain
        share no cell, so only this group's misses change them: a hit
        is a bit test, a miss takes the row's first free cell or evicts
        a drawn one, and a group line evicted is marked gone.  The first
        pass and every fill pass hit up to their lowest gone line at
        once, and then refill it.  Cells, stats and the random stream
        end as the probe-by-probe loop leaves them.
        """
        cells = self._cells
        stats = self._stats.get(domain)
        if stats is None:
            stats = self._stats[domain] = [0, 0, 0, 0]
        keys, cands, slots, line_of = group.keys, group.cands, group.slots, group.line_of
        n = len(keys)
        gone = (1 << n) - 1  # bit j: line j is not resident
        owner = {}  # cell index -> the group line it holds
        frees = []  # per row, its free cells, lowest way last
        for cand in group.rows:
            free = []
            for idx in reversed(cand):
                cell = cells[idx]
                if cell is None:
                    free.append(idx)
                elif cell in line_of:
                    j = owner[idx] = line_of[cell]
                    gone ^= 1 << j
            frees.append(free)
        draw, ways = self.rng.getrandbits, self._ways
        # nothing changes before the first miss: the lines below the
        # lowest gone one hit
        i = (gone & -gone).bit_length() - 1 if gone else n
        stats[0] += i
        hits = [True] * i
        if stop_at_miss and gone:
            n = i + 1  # the probe ends with its first miss
        passes = 0
        # stats slots _HITS.._SELF_EVICTIONS as literals 0..3, as in _access_line
        while True:
            if i < n:  # the pass that accesses every line once
                j = i
                i += 1
                if not gone >> j & 1:
                    stats[0] += 1
                    hits.append(True)
                    continue
                hits.append(False)
            elif max_rounds is None:
                return hits
            else:
                passes += 1
                if passes > max_rounds:
                    raise RuntimeError(f"set not resident after {max_rounds} probe passes")
                if not gone:
                    stats[0] += n
                    return passes
                j = (gone & -gone).bit_length() - 1
                stats[0] += j
            stats[1] += 1
            free = frees[slots[j]]
            if free:
                idx = free.pop()
            else:
                idx = cands[j][draw(64) % ways]
                victim = cells[idx]
                stats[3 if victim[0] == domain else 2] += 1
                evicted = owner.get(idx)
                if evicted is not None:
                    gone |= 1 << evicted
            cells[idx] = keys[j]
            owner[idx] = j
            gone ^= 1 << j

    def flush(self) -> None:
        """Invalidate every line and, under LRU, restart the clock."""
        size = len(self._cells)
        self._cells = [None] * size
        if self._lru:
            self._stamps = [0] * size
            self._clock = 0

    def snapshot(self) -> CacheSnapshot:
        """The occupied cells, the stats so far and the LRU stamps and
        clock, for ``restore``."""
        stamps = () if not self._lru else tuple(
            (idx, stamp) for idx, stamp in enumerate(self._stamps) if stamp)
        lines = tuple((idx, cell) for idx, cell in enumerate(self._cells)
                      if cell is not None)
        return CacheSnapshot(lines, len(self._cells),
                             {d: tuple(row) for d, row in self._stats.items()},
                             self.cfg.replacement, stamps, self._clock)

    def restore(self, snap: CacheSnapshot) -> None:
        """Flush the cache, write the snapshot's occupied cells, add its
        stats to this cache's, and under LRU set its stamps and clock.
        A snapshot taken after some steps on a new or flushed,
        zero-stats cache thus stands in for a flush and a replay of
        those steps, provided they drew no random number."""
        if snap.size != len(self._cells):
            raise ValueError("snapshot is of a cache with another geometry")
        if snap.replacement != self.cfg.replacement:
            raise ValueError("snapshot is of a cache with another replacement policy")
        self.flush()
        cells = self._cells
        for idx, line in snap.lines:
            cells[idx] = line
        if self._lru:
            for idx, stamp in snap.stamps:
                self._stamps[idx] = stamp
            self._clock = snap.clock
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
