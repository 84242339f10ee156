"""The domain-keyed set-index skewing map and its structural verifiers.

Over a field of order m, domain t sees set s placed at physical set

    a*s + (b*t)*w + c        (all arithmetic in the field)

in way w, for nonzero constants a and b and any constant c.  Two
structural facts make the layout useful and are checked exhaustively
here rather than assumed:

* diagonalization: any set of any domain shares exactly one (physical
  set, way) cell with any set of any other domain, and
* per-way bijection: within one domain, s -> physical set is a
  permutation in every way, so a domain never collides with itself.

The b*t products are precomputed per domain at construction, mirroring
how a hardware register file would hold them off the lookup path.
The verifiers check layout_table, the stack of every domain's
domain_layout slice, which the cache models lay their rows out from.

Verifiers return a report object instead of raising so callers (and the
deliberately-broken negative-control tests) can inspect violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .field import MAX_CELLS, FieldSpec
from .shards import _run_shards


@dataclass(frozen=True)
class SkewParams:
    """Constants (a, b, c) over a field, with the per-domain b*t table."""

    field: FieldSpec
    a: int = 1
    b: int = 1
    c: int = 0
    bt_cache: tuple[int, ...] = dc_field(init=False, compare=False)

    def __post_init__(self):
        f = self.field
        f.check(self.a, self.b, self.c)
        if self.a == 0:
            raise ValueError("skew constant a must be nonzero")
        if self.b == 0:
            raise ValueError("skew constant b must be nonzero")
        object.__setattr__(
            self, "bt_cache", tuple(f.mul(self.b, t) for t in range(f.order))
        )

    def __repr__(self):
        return f"SkewParams({self.field!r}, a={self.a}, b={self.b}, c={self.c})"


def permute(sp: SkewParams, t: int, s: int, w: int) -> int:
    """Physical set index for domain t, set s, way w."""
    f = sp.field
    f.check(t, s, w)
    return f.add(f.add(f.mul(sp.a, s), f.mul(sp.bt_cache[t], w)), sp.c)


def permute_all_ways(sp: SkewParams, t: int, s: int) -> tuple[int, ...]:
    """Vector of physical sets across all ways; entry w equals permute(t, s, w)."""
    f = sp.field
    f.check(t, s)
    base = f.add(f.mul(sp.a, s), sp.c)
    bt = sp.bt_cache[t]
    return tuple(f.add(base, f.mul(bt, w)) for w in range(f.order))


def solve_intersection_way(sp: SkewParams, t: int, t2: int, s: int, s2: int) -> int:
    """The unique way where domain t's set s meets domain t2's set s2.

    Closed form: w = a * (s2 - s) * b^-1 * (t - t2)^-1.  Requires
    t != t2; equal domains either never meet (different sets) or meet
    everywhere (same set), so no unique way exists.
    """
    f = sp.field
    f.check(t, t2, s, s2)
    if t == t2:
        raise ValueError("intersection way is only defined for distinct domains")
    num = f.mul(sp.a, f.sub(s2, s))
    return f.mul(f.mul(num, f.inv(sp.b)), f.inv(f.sub(t, t2)))


def set_through_cell(sp: SkewParams, t: int, physical_set: int, w: int) -> int:
    """The set index of domain t whose way-w slot is the given physical set."""
    f = sp.field
    f.check(t, physical_set, w)
    rhs = f.sub(f.sub(physical_set, sp.c), f.mul(sp.bt_cache[t], w))
    return f.mul(f.inv(sp.a), rhs)


@dataclass
class VerificationReport:
    """Outcome of an exhaustive structural check."""

    checked: int
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "violation_count": len(self.violations),
            "violations": self.violations,
            "ok": self.ok,
        }


@lru_cache(maxsize=16)
def _layout_terms(sp: SkewParams) -> tuple[np.ndarray, np.ndarray]:
    """The base vector s -> a*s + c and the field's addition table."""
    f, m = sp.field, sp.field.order
    base = np.array([f.add(f.mul(sp.a, s), sp.c) for s in range(m)], dtype=np.intp)
    return base, np.array([[f.add(x, y) for y in range(m)] for x in range(m)], dtype=np.int16)


def domain_layout(sp: SkewParams, t: int) -> np.ndarray:
    """Domain t's (set, way) -> physical set slice of the layout, int16.

    Entry (s, w) is permute_all_ways(sp, t, s)[w]: the memoized addition
    table gathered at the base vector and this domain's (b*t)*w products,
    so a domain costs m field calls, all the FieldSpec's own (a subclass
    that overrides them is honoured).  Its m^2 cells have no m^3 cap.
    """
    f, m = sp.field, sp.field.order
    f.check(t)
    if m * m > MAX_CELLS:
        raise ValueError(f"layout slice of {m}^2 cells exceeds {MAX_CELLS}")
    base, add = _layout_terms(sp)
    return add[base[:, None], np.array([f.mul(sp.bt_cache[t], w) for w in range(m)])]


@lru_cache(maxsize=16)
def layout_table(sp: SkewParams) -> np.ndarray:
    """Dense (domain, set, way) -> physical set table: entry t is
    domain_layout(sp, t).  Entries are int16: MAX_CELLS caps m at 256."""
    m = sp.field.order
    if m ** 3 > MAX_CELLS:
        raise ValueError(f"layout table of {m}^3 cells exceeds {MAX_CELLS}")
    table = np.empty((m, m, m), dtype=np.int16)
    for t in range(m):
        table[t] = domain_layout(sp, t)
    return table


def _difference_table(f: FieldSpec) -> np.ndarray:
    m = f.order
    return np.array(
        [[f.sub(s2, s) for s2 in range(m)] for s in range(m)], dtype=np.int16
    )


def _way_bijective(rows: np.ndarray) -> np.ndarray:
    """Per way of one domain's (set, way) slice: whether s -> physical
    set is a permutation.  It sorts: np.unique's first call in a process
    costs milliseconds."""
    sets = np.arange(rows.shape[0])[:, None]
    return (np.sort(rows, axis=0) == sets).all(axis=0)


def _predictor(sp: SkewParams, diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(deltas, pred): deltas[t, t2] = diff[t2, t] is the difference t - t2
    of two distinct domains, and pred[delta, d] the closed-form way where
    domain t's set s meets domain t2's set s + d, for any pair of that
    difference, or -1 where the solver fails.

    The closed form factors through the domain and set-index
    differences, so one row per domain difference suffices (the full
    per-tuple agreement for small orders is pinned separately by the
    solver tests).  Each row is solved for the first pair, in (t, t2)
    order, with its difference.  Unsolvable entries occur when the
    arithmetic is not a field.  Both tables are built up front, so the
    verifier's shards read them and make no field call.
    """
    m = sp.field.order
    deltas = diff.T.astype(np.intp)
    np.fill_diagonal(deltas, 0)
    pred = np.full((m, m), -1, dtype=np.int16)
    solved = set()
    for t, row in enumerate(deltas.tolist()):
        for t2, delta in enumerate(row):
            if t2 == t or delta in solved:
                continue
            solved.add(delta)
            for d in range(m):
                try:
                    pred[delta, d] = solve_intersection_way(sp, t, t2, 0, d)
                except (ValueError, ZeroDivisionError):
                    pass
    return deltas, pred


def _pair_violations(table, t, t2, pred_by_diff, diff) -> list[dict]:
    """Direct comparison of domains t and t2: every (s, s2, w) at once."""
    eq = table[t][:, None, :] == table[t2][None, :, :]
    counts = eq.sum(axis=2, dtype=np.int16)
    violations = [
        {"kind": "intersection-count", "t": t, "t2": t2, "s": int(s),
         "s2": int(s2), "count": int(counts[s, s2])}
        for s, s2 in np.argwhere(counts != 1)
    ]
    witness = eq.argmax(axis=2)
    mismatch = (counts == 1) & (witness != pred_by_diff[diff])
    violations += [
        {"kind": "witness-mismatch", "t": t, "t2": t2, "s": int(s),
         "s2": int(s2), "enumerated": int(witness[s, s2]),
         "solved": int(pred_by_diff[diff[s, s2]])}
        for s, s2 in np.argwhere(mismatch)
    ]
    return violations


def _verify_diagonalization_direct(sp: SkewParams) -> VerificationReport:
    """The m^5 reference: compare every (t, t2, s, s2, w) tuple.

    The fallback of verify_diagonalization when some way is not
    bijective, and its test oracle; it runs serially.
    """
    m = sp.field.order
    table = layout_table(sp)
    diff = _difference_table(sp.field)
    deltas, pred = _predictor(sp, diff)
    violations: list[dict] = []
    for t in range(m):
        for t2 in range(m):
            if t2 != t:
                violations += _pair_violations(table, t, t2, pred[deltas[t, t2]], diff)
    return VerificationReport(checked=m ** 3 * (m - 1), violations=violations)


#: Cells per block of (domain t, cell) in the m^4 verifier: a block
#: holds max(1, _BLOCK // m^2) domains, so its buffers stay a few
#: hundred KiB whatever the field order.  In 40 runs each on one CPU of
#: a 2-core x86-64 VM, interleaved, 2^15 and 2^16 were fastest at
#: GF(37), GF(61) and GF(64) (GF(61): 2^14 40.6 ms, 2^15 36.9 ms, 2^16
#: 35.3 ms, 2^17 38.1 ms), and 2^15 keeps the buffers half the size.
_BLOCK = 1 << 15

#: The fewest domains worth a verifier shard of their own.  Forking a
#: shard, pickling its violations back and reaping it took 3 ms on a
#: 2-core x86-64 VM, and a forked shard runs its block loop slower than
#: the parent (copy-on-write faults, cold caches).  In 40 interleaved
#: runs each, two shards against one lost up to GF(47) (15.0 ms serial,
#: faster in 11), broke even at GF(53) (21.8 ms, faster in 25) and won
#: from GF(59) on (36.4 -> 35.2 ms, faster in 29; GF(64) 62 -> 51 ms,
#: faster in 35), so 28 domains a shard puts the first split at order 56.
MIN_SHARD_DOMAINS = 28


def verify_diagonalization(sp: SkewParams) -> VerificationReport:
    """Exhaustively count cell intersections between domain sets.

    For every ordered pair of distinct domains (t, t2) and every pair of
    set indices (s, s2), counts the ways w where both map to the same
    physical set.  Any count other than one is a violation, as is any
    enumerated witness that disagrees with the closed-form solver.

    When every (domain, way) is bijective, each cell (p, w) holds
    exactly one set of every domain: s = inv[t, p, w] of domain t and
    s2 = inv[t2, p, w] of domain t2, with inv the per-way inverse map,
    and a way's m cells hold each set of domain t once.  So s2 is the
    one set of t2 that meets (t, s) in way w, and a pair is checked in
    m^2 steps, one per cell: the solver must give w for (s, s2).  If it
    does for every cell, then for each s the ways w -> s2 are injective
    (two ways reaching the same s2 would need two answers from one
    solver call), so every (s, s2) meets in exactly one way and that way
    is the solver's: the direct comparison would find nothing.  A pair
    that fails is re-run through the direct comparison, and a table with
    a non-bijective way (or a subtraction t2 -> t - t2 that is not one)
    is checked directly throughout, so the violations and their order
    are those of _verify_diagonalization_direct.

    A step is one gather, at s*m + s2, from a byte table precomposed
    before the loop: solves[delta, s, s2] = pred[delta, diff[s, s2]]
    (inv and solves hold set indices and ways, which fit a byte:
    MAX_CELLS caps m at 256).  A difference whose solver row has an
    entry outside the field (-1 where unsolved) sends all its pairs to
    the direct comparison, so -1 never passes for way 255; they would
    fail anyway, since a pair that passes reaches every (s, s2).  Each
    block of domains t builds its s*m index once and reuses it for every
    difference delta, so for every t2.

    The domains t are checked in contiguous shards on the process's CPUs
    (``shards._run_shards``, at least ``MIN_SHARD_DOMAINS`` a shard).
    Every table a shard reads is built before the fork, and the shards'
    violations are joined in t order, so the report is the same at any
    shard count.
    """
    m = sp.field.order
    table = layout_table(sp)
    if not all(_way_bijective(rows).all() for rows in table):
        return _verify_diagonalization_direct(sp)
    diff = _difference_table(sp.field)
    deltas, pred = _predictor(sp, diff)
    if not (np.sort(deltas, axis=1) == np.arange(m)).all():
        return _verify_diagonalization_direct(sp)
    # other[t, delta]: the domain t2 with t - t2 = delta
    other = np.empty((m, m), dtype=np.intp)
    other[np.arange(m)[:, None], deltas] = np.arange(m)
    ways = np.arange(m)
    inv = np.empty((m, m, m), dtype=np.uint8)
    for t in range(m):
        inv[t, table[t], ways] = np.arange(m)[:, None]
    unsolved = ((pred < 0) | (pred >= m)).any(axis=1)
    solves = pred.astype(np.uint8).take(diff, axis=1).reshape(m, -1)
    clean = np.tile(ways.astype(np.uint8), m)  # a domain's cells, each solved as its way
    step = max(1, _BLOCK // (m * m))

    def check(first: int, stop: int) -> list[dict]:
        violations: list[dict] = []
        size = min(step, stop - first) * m * m
        # rows: s*m, where row s of solves[delta] starts; s*m + s2 < m^2 fits 16 bits
        rows, at = np.empty(size, np.uint16), np.empty(size, np.uint16)
        s2, solved = np.empty(size, np.uint8), np.empty(size, np.uint8)
        want = np.tile(clean, size // clean.size).tobytes()
        for t0 in range(first, stop, step):
            t1 = min(t0 + step, stop)
            block, n = np.arange(t0, t1), (t1 - t0) * m * m
            np.multiply(inv[t0:t1].reshape(-1), m, out=rows[:n], dtype=np.uint16)
            failed = []
            for delta in range(1, m):
                t2s = other[block, delta]
                if unsolved[delta]:
                    failed += zip(block.tolist(), t2s.tolist())
                    continue
                np.take(inv, t2s, axis=0, out=s2[:n].reshape(-1, m, m))
                np.add(rows[:n], s2[:n], out=at[:n])
                np.take(solves[delta], at[:n], out=solved[:n])
                if solved[:n].tobytes() != want[:n]:
                    ok = (solved[:n].reshape(-1, clean.size) == clean).all(axis=1)
                    failed += zip(block[~ok].tolist(), t2s[~ok].tolist())
            for t, t2 in sorted(failed):
                violations += _pair_violations(table, t, t2, pred[deltas[t, t2]], diff)
        return violations

    parts = _run_shards(m, check, MIN_SHARD_DOMAINS)
    return VerificationReport(checked=m ** 3 * (m - 1),
                              violations=[v for part in parts for v in part])


def verify_way_bijection(sp: SkewParams) -> VerificationReport:
    """Check that s -> physical set is a permutation for every (domain, way)."""
    ok = np.array([_way_bijective(rows) for rows in layout_table(sp)])
    violations = [
        {"kind": "not-bijective", "t": int(t), "w": int(w)}
        for t, w in np.argwhere(~ok)
    ]
    return VerificationReport(checked=ok.size, violations=violations)
