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


def _predictor(sp: SkewParams) -> tuple[np.ndarray, np.ndarray]:
    """(deltas, pred): deltas[t, t2] is the domain difference t - t2 of
    each pair of distinct domains, and pred[delta, d] the closed-form way
    where domain t's set s meets domain t2's set s + d, for any pair of
    that difference, or -1 where the solver fails.

    The closed form factors through the domain and set-index
    differences, so one row per domain difference suffices (the full
    per-tuple agreement for small orders is pinned separately by the
    solver tests).  Each row is solved for the first pair, in (t, t2)
    order, with its difference.  Unsolvable entries occur when the
    arithmetic is not a field.  Both tables are built up front, so the
    verifier's shards read them and make no field call.
    """
    f = sp.field
    m = f.order
    deltas = np.zeros((m, m), dtype=np.intp)
    pred = np.full((m, m), -1, dtype=np.int16)
    solved = set()
    for t in range(m):
        for t2 in range(m):
            if t2 == t:
                continue
            delta = deltas[t, t2] = f.sub(t, t2)
            if delta in solved:
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
    deltas, pred = _predictor(sp)
    violations: list[dict] = []
    for t in range(m):
        for t2 in range(m):
            if t2 != t:
                violations += _pair_violations(table, t, t2, pred[deltas[t, t2]], diff)
    return VerificationReport(checked=m ** 3 * (m - 1), violations=violations)


#: Elements per block of (domain pair, set, way) in the m^4 verifier;
#: bounds its temporaries to a few hundred KiB whatever the field order.
_BLOCK = 1 << 15

#: The fewest domains worth a verifier shard of their own.  Forking a
#: shard, pickling its violations back and reaping it took 3 ms on a
#: 2-core x86-64 VM, and a forked shard runs its block loop slower than
#: the parent (copy-on-write faults, cold caches).  In 40 interleaved
#: runs each, two shards against one broke even at GF(32) (19 ms serial,
#: faster in 19) and won from GF(37) on (34 -> 28 ms, faster in 33), so
#: 18 domains a shard puts the first split at order 36.
MIN_SHARD_DOMAINS = 18


def verify_diagonalization(sp: SkewParams) -> VerificationReport:
    """Exhaustively count cell intersections between domain sets.

    For every ordered pair of distinct domains (t, t2) and every pair of
    set indices (s, s2), counts the ways w where both map to the same
    physical set.  Any count other than one is a violation, as is any
    enumerated witness that disagrees with the closed-form solver.

    When every (domain, way) is bijective, exactly one set of domain t2
    shares way w's cell with domain t's set s: s2(s, w) =
    inv[t2, table[t, s, w], w], with inv the per-way inverse map.  A
    pair is then checked in m^2 steps, one per (s, w): the solver must
    give w for (s, s2(s, w)).  If it does for every w, then w -> s2(s, w)
    is injective (two ways reaching the same s2 would need two answers
    from one solver call), so every (s, s2) meets in exactly one way and
    that way is the solver's: the direct comparison would find nothing.
    A pair that fails is re-run through the direct comparison, and a
    table with a non-bijective way is checked directly throughout, so
    the violations and their order are those of
    _verify_diagonalization_direct.

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
    deltas, pred = _predictor(sp)
    ways = np.arange(m)
    inv = np.empty((m, m, m), dtype=np.int16)
    for t in range(m):
        inv[t, table[t], ways] = np.arange(m)[:, None]
    # flat indices: inv[t2, p, w] at (t2*m + p)*m + w, diff[s, s2] at
    # s*m + s2, pred[delta, d] at delta*m + d
    flat_inv, flat_diff, flat_pred = inv.reshape(-1), diff.reshape(-1), pred.reshape(-1)
    set_rows = np.arange(m)[:, None] * m
    step = max(1, _BLOCK // (m * m))

    def check(first: int, stop: int) -> list[dict]:
        violations: list[dict] = []
        for t in range(first, stop):
            cells = table[t].astype(np.intp) * m + ways
            others = np.delete(ways, t)
            for i in range(0, m - 1, step):
                chunk = others[i:i + step]
                # s2[k, s, w]: the set of domain chunk[k] meeting (t, s) in way w
                s2 = flat_inv[chunk[:, None, None] * (m * m) + cells]
                d = flat_diff[set_rows + s2]
                solved = flat_pred[(deltas[t, chunk] * m)[:, None, None] + d]
                clean = (solved == ways).all(axis=(1, 2))
                for j in np.flatnonzero(~clean):
                    t2 = int(chunk[j])
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
