"""Skewing map behaviour, closed-form solver, and the exhaustive verifiers."""

import os
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewcache import (
    FieldSpec,
    SkewParams,
    domain_layout,
    permute,
    permute_all_ways,
    set_through_cell,
    solve_intersection_way,
    verify_diagonalization,
    verify_way_bijection,
)
from skewcache import shards, skew
from skewcache.field import MAX_CELLS
from skewcache.skew import _verify_diagonalization_direct, layout_table

from support import BrokenModularRing, brute_force_witnesses, no_child_left, small_fields

GF4 = FieldSpec.binary(2)
SP4 = SkewParams(GF4)  # a=1, b=1, c=0


class TestConstruction:
    def test_rejects_zero_constants(self):
        with pytest.raises(ValueError):
            SkewParams(GF4, a=0)
        with pytest.raises(ValueError):
            SkewParams(GF4, b=0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SkewParams(GF4, a=4)
        with pytest.raises(ValueError):
            SkewParams(GF4, c=5)

    def test_bt_cache(self):
        sp = SkewParams(GF4, b=3)
        assert sp.bt_cache == tuple(GF4.mul(3, t) for t in range(4))


class TestPermute:
    def test_domain_zero_is_unskewed(self):
        for s in range(4):
            for w in range(4):
                assert permute(SP4, 0, s, w) == s

    def test_domain_one_set_zero_is_diagonal(self):
        for w in range(4):
            assert permute(SP4, 1, 0, w) == w

    def test_frozen_example(self):
        assert permute(SP4, 2, 1, 3) == 0

    def test_all_ways_vector(self):
        assert permute_all_ways(SP4, 0, 2) == (2, 2, 2, 2)
        assert permute_all_ways(SP4, 1, 0) == (0, 1, 2, 3)
        assert permute_all_ways(SP4, 3, 0) == (0, 3, 1, 2)

    def test_all_ways_agrees_with_permute(self):
        sp = SkewParams(FieldSpec.prime(7), a=2, b=3, c=1)
        for t in range(7):
            for s in range(7):
                vec = permute_all_ways(sp, t, s)
                assert vec == tuple(permute(sp, t, s, w) for w in range(7))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            permute(SP4, 4, 0, 0)
        with pytest.raises(ValueError):
            permute_all_ways(SP4, 0, 4)

    def test_domain_zero_degenerates_to_scaled_row(self):
        sp = SkewParams(FieldSpec.binary(3), a=5, b=3, c=0)
        for s in range(8):
            expected = sp.field.mul(5, s)
            for w in range(8):
                assert permute(sp, 0, s, w) == expected


class TestIntersectionSolver:
    def test_same_set_gives_way_zero(self):
        for t, t2 in [(0, 1), (2, 3), (1, 2)]:
            for s in range(4):
                assert solve_intersection_way(SP4, t, t2, s, s) == 0

    def test_frozen_examples(self):
        assert solve_intersection_way(SP4, 1, 3, 2, 1) == 2
        # brute force over all ways gives 2 here (recorded from the oracle)
        sp7 = SkewParams(FieldSpec.prime(7), a=2, b=3, c=1)
        assert solve_intersection_way(sp7, 1, 4, 0, 5) == 2

    def test_equal_domains_rejected(self):
        with pytest.raises(ValueError):
            solve_intersection_way(SP4, 1, 1, 0, 2)

    @pytest.mark.parametrize("f", small_fields(8))
    def test_matches_brute_force_smoke(self, f):
        sp = SkewParams(f)
        m = f.order
        for t in range(m):
            for t2 in range(m):
                if t == t2:
                    continue
                for s in range(m):
                    for s2 in range(m):
                        ws = brute_force_witnesses(sp, t, t2, s, s2)
                        assert ws == [solve_intersection_way(sp, t, t2, s, s2)]

    def test_set_through_cell_inverts_permute(self):
        sp = SkewParams(FieldSpec.binary(3), a=3, b=5, c=6)
        for t in range(8):
            for s in range(8):
                for w in range(8):
                    q = permute(sp, t, s, w)
                    assert set_through_cell(sp, t, q, w) == s


class TestVerifiers:
    def test_diagonalization_gf4(self):
        report = verify_diagonalization(SP4)
        assert report.checked == 4 * 3 * 4 * 4
        assert report.violations == []
        assert report.ok

    def test_diagonalization_gf8(self):
        report = verify_diagonalization(SkewParams(FieldSpec.binary(3)))
        assert report.checked == 8 * 7 * 8 * 8
        assert report.ok

    def test_diagonalization_prime_field(self):
        report = verify_diagonalization(SkewParams(FieldSpec.prime(7), a=3, b=5, c=2))
        assert report.ok

    def test_way_bijection_gf4(self):
        report = verify_way_bijection(SP4)
        assert report.checked == 16
        assert report.ok

    def test_way_bijection_gf16_random_constants(self):
        sp = SkewParams(FieldSpec.binary(4), a=7, b=5, c=9)
        report = verify_way_bijection(sp)
        assert report.checked == 256
        assert report.ok

    def test_random_constants_small_binary_fields(self):
        rng = random.Random(1234)
        for n in (2, 3, 4):
            f = FieldSpec.binary(n)
            m = f.order
            for _ in range(10):
                sp = SkewParams(f, a=rng.randrange(1, m), b=rng.randrange(1, m),
                                c=rng.randrange(m))
                assert verify_diagonalization(sp).ok
                assert verify_way_bijection(sp).ok

    def test_random_constants_every_prime_field_to_64(self):
        # binary fields at this order run under the acceptance sweep;
        # this covers the prime-field side of the same property
        rng = random.Random(4321)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61):
            f = FieldSpec.prime(p)
            for _ in range(10):
                sp = SkewParams(
                    f,
                    a=rng.randrange(1, p) if p > 2 else 1,
                    b=rng.randrange(1, p) if p > 2 else 1,
                    c=rng.randrange(p),
                )
                assert verify_diagonalization(sp).ok
                assert verify_way_bijection(sp).ok

    def test_layout_table_over_cell_limit_rejected(self):
        # GF(257) is the smallest field whose m^3 table exceeds the limit
        sp = SkewParams(FieldSpec.prime(257))
        assert 257 ** 3 > MAX_CELLS >= 256 ** 3
        for check in (layout_table, verify_diagonalization, verify_way_bijection):
            with pytest.raises(ValueError, match="exceeds"):
                check(sp)
        # one domain's m^2 slice is capped only past a galois cache's largest order
        assert domain_layout(sp, 256).shape == (257, 257)
        assert 4099 ** 2 > MAX_CELLS >= 4096 ** 2
        with pytest.raises(ValueError, match="layout slice of 4099"):
            domain_layout(SkewParams(FieldSpec.prime(4099)), 0)

    def test_negative_control_mod_ring(self):
        broken = BrokenModularRing(p=2, n=2, modulus=0b111)
        report = verify_diagonalization(SkewParams(broken))
        assert len(report.violations) >= 1
        assert not report.ok
        kinds = {v["kind"] for v in report.violations}
        assert "intersection-count" in kinds

    def test_report_dict_round_trip(self):
        d = verify_diagonalization(SP4).to_dict()
        assert d["ok"] is True
        assert d["checked"] == 192
        assert d["violation_count"] == 0


def _random_params(f, rng):
    m = f.order
    return SkewParams(f, a=rng.randrange(1, m), b=rng.randrange(1, m),
                      c=rng.randrange(m))


def _off_by_one_solver(monkeypatch, sp):
    """Break the solver at domain difference 1 and set difference 3."""
    f = sp.field
    solve = skew.solve_intersection_way

    def off_by_one(sp_, t, t2, s, s2):
        w = solve(sp_, t, t2, s, s2)
        # the verifiers ask for (s, s2) = (0, d); break d = 3 at delta 1
        if f.sub(t, t2) == 1 and f.sub(s2, s) == 3:
            return (w + 1) % f.order
        return w

    monkeypatch.setattr(skew, "solve_intersection_way", off_by_one)


class _FlatDifference(BrokenModularRing):
    """The mod-2^n ring, but 3 - t2 is 1 for every t2 != 3."""

    def sub(self, x, y):
        return 1 if x == 3 != y else super().sub(x, y)


def _sharded(monkeypatch, sp, counts=(1, 2, 3)):
    """verify_diagonalization(sp) with the shard count forced to each of
    ``counts``."""
    reports = []
    for count in counts:
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work, c=count: c)
        reports.append(verify_diagonalization(sp))
    return reports


class TestFastVerifierMatchesDirect:
    """The m^4 verifier, its domains in 1, 2 and 3 shards, against the
    m^5 direct comparison it replaces."""

    @pytest.mark.parametrize("f", small_fields(16))
    def test_clean_fields(self, monkeypatch, f):
        rng = random.Random(f.order)
        for sp in [SkewParams(f)] + [_random_params(f, rng) for _ in range(4)]:
            direct = _verify_diagonalization_direct(sp).to_dict()
            for fast in _sharded(monkeypatch, sp):
                assert fast.to_dict() == direct
                assert fast.checked == f.order ** 3 * (f.order - 1)
        no_child_left()

    @pytest.mark.parametrize("n,a,bijective,expected", [
        (2, 1, True, 64), (2, 2, False, 64),
        (4, 1, True, 28_672), (4, 2, False, 28_672),
    ])
    def test_broken_ring(self, monkeypatch, n, a, bijective, expected):
        # a=1 keeps every way bijective, so failing pairs are re-run one
        # by one; a=2 breaks bijection and the whole table is compared,
        # serially
        sp = SkewParams(BrokenModularRing(p=2, n=n, modulus=FieldSpec.binary(n).modulus),
                        a=a)
        assert verify_way_bijection(sp).ok is bijective
        direct = _verify_diagonalization_direct(sp).to_dict()
        if not bijective:
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("the direct comparison forked"))
        for fast in _sharded(monkeypatch, sp):
            assert len(fast.violations) == expected
            assert fast.to_dict() == direct
        # every domain, so every shard, has violations, joined in t order
        ts = [v["t"] for v in fast.violations]
        assert ts == sorted(ts) and set(ts) == set(range(2 ** n))
        no_child_left()

    def test_wrong_solver_reported_alike(self, monkeypatch):
        sp = SkewParams(FieldSpec.binary(3), a=3, b=5, c=6)
        _off_by_one_solver(monkeypatch, sp)
        direct = _verify_diagonalization_direct(sp).to_dict()
        for fast in _sharded(monkeypatch, sp):
            assert fast.to_dict() == direct
        # 8 ordered pairs with t - t2 = 1, 8 (s, s2) pairs with s2 - s = 3 each
        assert len(fast.violations) == 64
        assert {v["kind"] for v in fast.violations} == {"witness-mismatch"}
        assert all(v["solved"] == (v["enumerated"] + 1) % 8 for v in fast.violations)
        no_child_left()

    def test_difference_not_a_bijection(self, monkeypatch):
        # the kernel pairs t with t2 through t - t2, so a subtraction that
        # is not a bijection in t2 sends the whole table to the direct
        # comparison, serially
        sp = SkewParams(_FlatDifference(p=2, n=3, modulus=FieldSpec.binary(3).modulus))
        assert verify_way_bijection(sp).ok
        direct = _verify_diagonalization_direct(sp).to_dict()
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("the direct comparison forked"))
        for fast in _sharded(monkeypatch, sp):
            assert fast.to_dict() == direct
        assert direct["violation_count"]

    @pytest.mark.parametrize("per_block", [1, 2, 3])
    def test_blocks_of_domains(self, monkeypatch, per_block):
        """Blocks of 1, 2 and 3 domains t: over 2 and 3 shards a shard's
        last block is cut short where a block of the whole range would
        straddle the shard bound (GF(8) in 3 shards: domains 0-1, 2-4
        and 5-7)."""
        rng = random.Random(per_block)
        rings = [SkewParams(BrokenModularRing(p=2, n=n, modulus=FieldSpec.binary(n).modulus))
                 for n in (2, 3, 4)]
        fields = [sp for f in small_fields(16) for sp in (SkewParams(f), _random_params(f, rng))]
        for sp in fields + rings:
            m = sp.field.order
            monkeypatch.setattr(skew, "_BLOCK", per_block * m * m)
            direct = _verify_diagonalization_direct(sp).to_dict()
            with monkeypatch.context() as patch:
                if direct["ok"]:  # a clean field re-runs no pair, in any shard
                    patch.setattr(skew, "_pair_violations",
                                  lambda *args: pytest.fail("a clean pair was re-run"))
                for fast in _sharded(patch, sp):
                    assert fast.to_dict() == direct
        # the rings' ways are bijective and some solver rows hold -1
        assert all(verify_way_bijection(sp).ok
                   and (skew._predictor(sp, skew._difference_table(sp.field))[1] < 0).any()
                   for sp in rings)
        sp = SkewParams(FieldSpec.binary(3), a=3, b=5, c=6)
        monkeypatch.setattr(skew, "_BLOCK", per_block * 64)
        _off_by_one_solver(monkeypatch, sp)
        direct = _verify_diagonalization_direct(sp).to_dict()
        for fast in _sharded(monkeypatch, sp):
            assert fast.to_dict() == direct
        assert direct["violation_count"] == 64
        no_child_left()


_TABLE_FIELDS = [FieldSpec.binary(n) for n in range(2, 6)] + [
    FieldSpec.prime(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]


@pytest.mark.parametrize("sp", [SkewParams(f, a=f.order - 1, b=f.order - 1, c=1)
                                for f in _TABLE_FIELDS] + [
    SkewParams(BrokenModularRing(p=2, n=3, modulus=0b1011), a=2, b=3, c=5)])
def test_layout_table_matches_permute(sp):
    m = sp.field.order
    table = layout_table(sp)
    assert table.shape == (m, m, m)
    for t in range(m):
        for s in range(m):
            for w in range(m):
                assert table[t, s, w] == permute(sp, t, s, w)


_RING = BrokenModularRing(p=2, n=2, modulus=0b111)


@st.composite
def skew_params(draw):
    """Random constants over a field of order up to 16, or the mod-4 ring."""
    f = draw(st.sampled_from(small_fields(16) + [_RING]))
    m = f.order
    return SkewParams(f, a=draw(st.integers(1, m - 1)), b=draw(st.integers(1, m - 1)),
                      c=draw(st.integers(0, m - 1)))


@settings(max_examples=max(100, settings().max_examples), deadline=None)
@given(sp=skew_params())
@example(sp=SkewParams(FieldSpec.binary(3), a=3, b=5, c=6))
@example(sp=SkewParams(_RING, a=2))
def test_domain_layout_matches_permute_oracle(sp):
    """Each domain's slice against permute_all_ways, row by row, and
    layout_table against the slices it stacks."""
    m = sp.field.order
    table = layout_table(sp)
    for t in range(m):
        rows = domain_layout(sp, t)
        assert rows.shape == (m, m)
        for s in range(m):
            assert tuple(rows[s].tolist()) == permute_all_ways(sp, t, s)
        assert (table[t] == rows).all()


class TestShardedVerifier:
    """Failures in the domain shards of verify_diagonalization, and the
    field calls they leave to the parent."""

    def _failing(self, monkeypatch, fail):
        """The wrong-solver GF(8) check in three shards of domains 0-1,
        2-4 and 5-7, each domain with one failing pair, whose re-run
        raises ``fail(t)`` when that is not None."""
        sp = SkewParams(FieldSpec.binary(3), a=3, b=5, c=6)
        _off_by_one_solver(monkeypatch, sp)
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work: 3)
        pair_violations = skew._pair_violations

        def spy(table, t, *args):
            exc = fail(t)
            if exc is not None:
                raise exc
            return pair_violations(table, t, *args)

        monkeypatch.setattr(skew, "_pair_violations", spy)
        return lambda: verify_diagonalization(sp)

    def test_child_error_raised_in_parent(self, monkeypatch):
        run = self._failing(monkeypatch, lambda t: ValueError(f"t {t}") if t >= 2 else None)
        with pytest.raises(ValueError, match=r"^t 2$"):
            run()
        no_child_left()

    def test_earliest_failing_shard_wins(self, monkeypatch):
        run = self._failing(monkeypatch, lambda t: (
            KeyError(t) if t >= 5 else ValueError(f"t {t}") if t >= 3 else None))
        with pytest.raises(ValueError, match=r"^t 3$"):
            run()
        no_child_left()

    def test_children_make_no_field_call(self, monkeypatch):
        """The shards read tables built before the fork, so the field
        calls counted in this process are the whole run's: a run in two
        shards counts as many as a run in one."""
        sp = SkewParams(FieldSpec.binary(4), a=7, b=5, c=9)
        _off_by_one_solver(monkeypatch, sp)  # so the shards re-run pairs too
        calls = Counter()
        for name in ("check", "mul", "inv"):
            method = getattr(FieldSpec, name)

            def counted(*args, name=name, method=method):
                calls[name] += 1
                return method(*args)

            monkeypatch.setattr(FieldSpec, name, counted)
        verify_diagonalization(sp)  # the field memoizes its inverses on first use
        seen = []
        for count in (1, 2, 3):
            layout_table.cache_clear()
            calls.clear()
            report, = _sharded(monkeypatch, sp, (count,))
            assert report.violations
            seen.append(dict(calls))
        assert seen[0]["check"] and seen[0]["mul"] and seen[0]["inv"]
        assert seen[1] == seen[0] and seen[2] == seen[0]
        no_child_left()
