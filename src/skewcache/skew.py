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

Verifiers return a report object instead of raising so callers (and the
deliberately-broken negative-control tests) can inspect violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .field import MAX_CELLS, FieldSpec


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
def layout_table(sp: SkewParams) -> np.ndarray:
    """Dense (domain, set, way) -> physical set table, built from permute."""
    m = sp.field.order
    if m ** 3 > MAX_CELLS:
        raise ValueError(f"layout table of {m}^3 cells exceeds {MAX_CELLS}")
    table = np.empty((m, m, m), dtype=np.int32)
    for t in range(m):
        for s in range(m):
            table[t, s] = permute_all_ways(sp, t, s)
    return table


def _difference_table(f: FieldSpec) -> np.ndarray:
    m = f.order
    return np.array(
        [[f.sub(s2, s) for s2 in range(m)] for s in range(m)], dtype=np.int64
    )


def verify_diagonalization(sp: SkewParams) -> VerificationReport:
    """Exhaustively count cell intersections between domain sets.

    For every ordered pair of distinct domains (t, t2) and every pair of
    set indices (s, s2), counts the ways w where both map to the same
    physical set.  Any count other than one is a violation, as is any
    enumerated witness that disagrees with the closed-form solver.
    """
    m = sp.field.order
    table = layout_table(sp)
    diff = _difference_table(sp.field)
    violations: list[dict] = []
    checked = 0
    # The closed form factors through the domain and set-index
    # differences, so one prediction vector per domain difference
    # suffices (the full per-tuple agreement for small orders is pinned
    # separately by the solver tests).  -1 marks an unsolvable entry,
    # which can occur when the arithmetic is not a field.
    pred_cache: dict[int, np.ndarray] = {}
    for t in range(m):
        rows_t = table[t]
        for t2 in range(m):
            if t2 == t:
                continue
            eq = rows_t[:, None, :] == table[t2][None, :, :]
            counts = eq.sum(axis=2, dtype=np.int16)
            checked += m * m
            delta = sp.field.sub(t, t2)
            pred_by_diff = pred_cache.get(delta)
            if pred_by_diff is None:
                pred_by_diff = np.empty(m, dtype=np.int64)
                for d in range(m):
                    try:
                        pred_by_diff[d] = solve_intersection_way(sp, t, t2, 0, d)
                    except (ValueError, ZeroDivisionError):
                        pred_by_diff[d] = -1
                pred_cache[delta] = pred_by_diff
            for s, s2 in np.argwhere(counts != 1):
                violations.append(
                    {
                        "kind": "intersection-count",
                        "t": t,
                        "t2": t2,
                        "s": int(s),
                        "s2": int(s2),
                        "count": int(counts[s, s2]),
                    }
                )
            witness = eq.argmax(axis=2)
            mismatch = (counts == 1) & (witness != pred_by_diff[diff])
            for s, s2 in np.argwhere(mismatch):
                violations.append(
                    {
                        "kind": "witness-mismatch",
                        "t": t,
                        "t2": t2,
                        "s": int(s),
                        "s2": int(s2),
                        "enumerated": int(witness[s, s2]),
                        "solved": int(pred_by_diff[diff[s, s2]]),
                    }
                )
    return VerificationReport(checked=checked, violations=violations)


def verify_way_bijection(sp: SkewParams) -> VerificationReport:
    """Check that s -> physical set is a permutation for every (domain, way)."""
    m = sp.field.order
    table = layout_table(sp)
    ordered = np.sort(table, axis=1)
    ok = (ordered == np.arange(m, dtype=table.dtype)[None, :, None]).all(axis=1)
    violations = [
        {"kind": "not-bijective", "t": int(t), "w": int(w)}
        for t, w in np.argwhere(~ok)
    ]
    return VerificationReport(checked=m * m, violations=violations)
