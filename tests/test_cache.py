"""Cache model behaviour: address split, lookup, replacement, isolation."""

import random
from collections import Counter
from itertools import islice
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewcache import (
    CacheConfig,
    FieldSpec,
    SkewParams,
    build_cache,
    compose_address,
    conventional_config,
    decompose_address,
    galois_config,
    permute,
    replay,
    stacked_config,
)
from skewcache import cache as cache_module
from skewcache.cache import KINDS
from skewcache.field import MAX_CELLS
from skewcache.skew import layout_table, verify_way_bijection

from support import (
    BrokenModularRing,
    fill_group_oracle,
    line_at,
    probe_until_miss_oracle,
    small_fields,
)

GF4 = FieldSpec.binary(2)
SP4 = SkewParams(GF4)


def gf4_cache(seed=0):
    return build_cache(galois_config(SP4), seed)


class TestAddressSplit:
    def test_examples(self):
        cfg = conventional_config(4, 4)
        # frozen from the bit-slicing oracle (reassembly checked below)
        assert decompose_address(cfg, 0x1040) == (0x10, 1, 0)
        assert decompose_address(cfg, 0x140) == (0x1, 1, 0)
        assert decompose_address(cfg, 0x0) == (0, 0, 0)

    def test_stacked_example(self):
        cfg = stacked_config(SP4, stack_bits=1)
        parts = decompose_address(cfg, 0x1C0)
        assert parts.set_index == 3
        assert parts.instance == 1
        assert parts.tag == 0

    def test_round_trip(self):
        for cfg in (
            conventional_config(4, 4),
            galois_config(SkewParams(FieldSpec.prime(7))),
            stacked_config(SP4, stack_bits=2),
        ):
            for set_index in range(cfg.num_sets):
                for tag in (0, 1, 7, 0x123):
                    for inst in range(cfg.num_instances):
                        addr = compose_address(cfg, set_index, tag, inst)
                        assert decompose_address(cfg, addr) == (tag, set_index, inst)

    def test_reassembly_matches_bit_slicing(self):
        cfg = conventional_config(4, 4)
        for addr in (0x0, 0x40, 0x1040, 0x140, 0xDEADC0, 0x7FFF80):
            tag, s, _ = decompose_address(cfg, addr)
            assert (tag * 4 + s) << 6 == addr & ~0x3F
            assert s == (addr >> 6) & 0x3

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        kind = data.draw(st.sampled_from(KINDS), label="kind")
        offset = data.draw(st.integers(0, 12), label="offset bits")
        if kind == "conventional":
            cfg = conventional_config(2 ** data.draw(st.integers(0, 8)),
                                      data.draw(st.integers(1, 8)), "lru", offset)
        else:
            f = data.draw(st.sampled_from([FieldSpec.binary(2), FieldSpec.prime(5),
                                           FieldSpec.binary(3)]))
            sp = SkewParams(f)
            cfg = (galois_config(sp, offset) if kind == "galois"
                   else stacked_config(sp, data.draw(st.integers(0, 3)), offset))
        addr = data.draw(st.integers(0, 2 ** 80), label="addr")
        tag, set_index, inst = decompose_address(cfg, addr)
        assert compose_address(cfg, set_index, tag, inst) == addr >> offset << offset
        set_index = data.draw(st.integers(0, cfg.num_sets - 1))
        inst = data.draw(st.integers(0, cfg.num_instances - 1))
        tag = data.draw(st.integers(0, 2 ** 64))
        addr = compose_address(cfg, set_index, tag, inst)
        assert decompose_address(cfg, addr) == (tag, set_index, inst)
        assert decompose_address(cfg, addr | ((1 << offset) - 1)) == (tag, set_index, inst)

    def test_negative_address_rejected(self):
        cfg = conventional_config(4, 4)
        with pytest.raises(ValueError):
            decompose_address(cfg, -1)


class TestConfigValidation:
    def test_galois_geometry_must_match_field(self):
        with pytest.raises(ValueError):
            CacheConfig("galois", 8, 8, SP4)

    def test_galois_needs_skew(self):
        with pytest.raises(ValueError):
            CacheConfig("galois", 4, 4, None)

    def test_galois_random_only(self):
        with pytest.raises(ValueError):
            CacheConfig("galois", 4, 4, SP4, replacement="lru")

    def test_conventional_power_of_two_sets(self):
        with pytest.raises(ValueError):
            conventional_config(5, 4)

    def test_cell_count_limit(self):
        assert conventional_config(MAX_CELLS // 8, 8).num_sets == 1 << 21
        over = (
            lambda: conventional_config(1 << 40, 8),
            lambda: conventional_config(MAX_CELLS // 4, 8),
            lambda: stacked_config(SP4, stack_bits=40),
            lambda: stacked_config(SP4, stack_bits=10 ** 12),
            lambda: galois_config(SkewParams(FieldSpec.prime(65521))),
        )
        for make in over:
            with pytest.raises(ValueError, match="exceeds"):
                make()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CacheConfig("weird", 4, 4)


class TestGaloisAccess:
    def test_cold_miss_fills_lowest_way(self):
        cache = gf4_cache()
        cfg = cache.cfg
        out = cache.access(0, compose_address(cfg, 1, 5))
        assert not out.hit
        assert out.physical_set == 1 and out.way == 0
        assert out.victim_line is None
        again = cache.access(0, compose_address(cfg, 1, 5))
        assert again.hit

    def test_fills_prefer_invalid_in_way_order(self):
        cache = gf4_cache()
        cfg = cache.cfg
        ways = [cache.access(1, compose_address(cfg, 0, t)).way for t in range(4)]
        assert ways == [0, 1, 2, 3]

    def test_domain_out_of_range(self):
        cache = gf4_cache()
        with pytest.raises(ValueError):
            cache.access(4, 0)

    def test_eviction_uniform_over_ways(self):
        # fully primed by domain 1; a domain 2 fill then evicts uniformly
        cache = gf4_cache()
        cfg = cache.cfg
        prime = [compose_address(cfg, s, t) for s in range(4) for t in range(4)]
        target = compose_address(cfg, 0, 0xBEEF)
        counts = [0, 0, 0, 0]
        trials = 100_000
        for trial in range(trials):
            cache.reseed(trial)
            cache.flush()
            for a in prime:
                cache.access(1, a)
            out = cache.access(2, target)
            assert not out.hit and out.victim_line[0] == 1
            counts[out.way] += 1
        for c in counts:
            assert abs(c / trials - 0.25) < 0.01

    def test_full_domain_stream_no_self_evictions(self):
        # one domain can occupy every cell: per-way bijection at work
        sp = SkewParams(FieldSpec.binary(3), a=3, b=5, c=2)
        cache = build_cache(galois_config(sp), 0)
        cfg = cache.cfg
        for s in range(8):
            for t in range(8):
                out = cache.access(5, compose_address(cfg, s, t))
                assert not out.hit and out.victim_line is None
        stats = cache.stats()[5]
        assert stats["misses"] == 64 and stats["self_evictions"] == 0
        # every address re-hits: the whole cache belongs to domain 5
        for s in range(8):
            for t in range(8):
                assert cache.access(5, compose_address(cfg, s, t)).hit

    def test_stats_eviction_attribution(self):
        # seed 1: draws land on way 1 (self) then way 3 (the foreign cell)
        cache = gf4_cache(seed=1)
        cfg = cache.cfg
        for t in range(4):
            cache.access(1, compose_address(cfg, 0, t))
        # domain 1 self-evicts once its own set is full
        cache.access(1, compose_address(cfg, 0, 99))
        assert cache.stats()[1]["self_evictions"] == 1
        # a different domain warms 3 empty ways, then evicts a foreign line
        for i in range(3):
            cache.access(2, compose_address(cfg, 2, 100 + i))
        cache.access(2, compose_address(cfg, 2, 999))
        assert cache.stats()[2]["evictions_caused"] == 1


class TestObservation:
    def test_probe_of_primed_set_hits(self):
        cache = gf4_cache()
        cfg = cache.cfg
        addrs = [compose_address(cfg, 0, t) for t in range(4)]
        for a in addrs:
            cache.access(1, a)
        assert all(ob.hit for ob in cache.observe_probe(1, addrs))

    def test_probe_after_one_foreign_eviction(self):
        # seed 2 makes the foreign fill land on the intersection way (3),
        # so the probe sees exactly one miss; seed 0 lands elsewhere
        for seed, want_misses in ((2, 1), (0, 0)):
            cache = gf4_cache(seed)
            cfg = cache.cfg
            addrs = [compose_address(cfg, 0, t) for t in range(4)]
            for a in addrs:
                cache.access(1, a)
            for i in range(3):
                cache.access(2, compose_address(cfg, 2, 100 + i))
            cache.access(2, compose_address(cfg, 2, 999))
            obs = cache.observe_probe(1, addrs)
            assert sum(not ob.hit for ob in obs) == want_misses

    def test_probe_of_unknown_addresses_misses(self):
        cache = gf4_cache()
        cfg = cache.cfg
        addrs = [compose_address(cfg, s, 0x777) for s in range(4)]
        assert not any(ob.hit for ob in cache.observe_probe(3, addrs))

    def test_probe_needs_addresses(self):
        with pytest.raises(ValueError):
            gf4_cache().observe_probe(0, [])

    def test_observation_only_exposes_hits(self):
        cache = gf4_cache()
        ob = cache.observe_probe(0, [0x40])[0]
        assert set(ob._fields) == {"addr", "hit"}


class TestFlushAndDeterminism:
    def test_flush_empties(self):
        cache = gf4_cache()
        cfg = cache.cfg
        addrs = [compose_address(cfg, 0, t) for t in range(4)]
        for a in addrs:
            cache.access(0, a)
        cache.flush()
        assert not any(ob.hit for ob in cache.observe_probe(0, addrs))
        cache.flush()  # idempotent
        assert line_at(cache, 0, 0) is None

    def test_flush_keeps_stats(self):
        cache = gf4_cache()
        assert cache.stats() == {}
        cache.access(0, 0x40)
        before = cache.stats()
        cache.flush()
        assert cache.stats() == before and before[0]["misses"] == 1
        cache.access(0, 0x40)  # the flush dropped the line: the stats count on
        assert cache.stats()[0]["misses"] == 2

    def test_flush_preserves_rng_position(self):
        seed = 11
        ref = random.Random(seed)
        expected = [ref.getrandbits(64) % 4 for _ in range(2)]
        cache = gf4_cache(seed)
        cfg = cache.cfg

        def prime_and_evict():
            for t in range(4):
                cache.access(1, compose_address(cfg, 0, t))
            return cache.access(1, compose_address(cfg, 0, 50)).way

        first = prime_and_evict()
        cache.flush()
        second = prime_and_evict()
        assert [first, second] == expected

    def test_replay_is_deterministic(self):
        rng = random.Random(77)
        trace = [
            (rng.randrange(4), compose_address(galois_config(SP4), rng.randrange(4), rng.randrange(6)))
            for _ in range(500)
        ]
        runs = []
        for _ in range(2):
            cache = gf4_cache(seed=5)
            runs.append([cache.access(d, a) for d, a in trace])
        assert runs[0] == runs[1]
        # hits never carry eviction details
        assert all(out.victim_line is None for out in runs[0] if out.hit)
        assert any(out.victim_line is not None for out in runs[0])


class TestConventional:
    def test_lru_evicts_oldest(self):
        cache = build_cache(conventional_config(4, 4, "lru"), 0)
        cfg = cache.cfg
        addrs = [compose_address(cfg, 2, t) for t in range(4)]
        for a in addrs:
            cache.access(0, a)
        out = cache.access(1, compose_address(cfg, 2, 9))
        assert out.victim_line == (0, 0)
        # touching a line refreshes it, so evictions then skip it
        cache2 = build_cache(conventional_config(4, 4, "lru"), 0)
        for a in addrs:
            cache2.access(0, a)
        cache2.access(0, addrs[1])
        assert cache2.access(1, compose_address(cfg, 2, 9)).victim_line == (0, 0)
        assert cache2.access(1, compose_address(cfg, 2, 10)).victim_line == (0, 2)
        assert cache2.access(1, compose_address(cfg, 2, 11)).victim_line == (0, 3)

    def test_negative_domain_rejected(self):
        cache = build_cache(conventional_config(4, 4, "lru"))
        with pytest.raises(ValueError, match="negative"):
            cache.access(-1, 0x40)
        assert cache.stats() == {}

    def test_matches_domain_zero_galois_with_random_replacement(self):
        # same geometry, same seed, domain 0, a=1, c=0: identical behaviour
        seed = 21
        galois = build_cache(galois_config(SP4), seed)
        plain = build_cache(conventional_config(4, 4, "random"), seed)
        rng = random.Random(9)
        hits_g, hits_c = [], []
        for _ in range(2000):
            addr = compose_address(galois.cfg, rng.randrange(4), rng.randrange(8))
            hits_g.append(galois.access(0, addr).hit)
            hits_c.append(plain.access(0, addr).hit)
        assert hits_g == hits_c
        assert galois.stats()[0] == plain.stats()[0]


class TestStacked:
    def test_instances_do_not_interact(self):
        cache = build_cache(stacked_config(SP4, stack_bits=1), 0)
        cfg = cache.cfg
        # fill instance 0 completely with domain 1
        for s in range(4):
            for t in range(4):
                cache.access(1, compose_address(cfg, s, t, instance=0))
        # instance 1 is still cold: no evictions when domain 2 moves in
        for s in range(4):
            out = cache.access(2, compose_address(cfg, s, 7, instance=1))
            assert out.victim_line is None
        stats = cache.stats()
        assert stats[2]["evictions_caused"] == 0
        # instance-0 lines all survived
        for s in range(4):
            for t in range(4):
                assert cache.access(1, compose_address(cfg, s, t, instance=0)).hit

    def test_global_physical_set_offsets(self):
        cache = build_cache(stacked_config(SP4, stack_bits=1), 0)
        cfg = cache.cfg
        out = cache.access(0, compose_address(cfg, 2, 0, instance=1))
        assert out.physical_set == 4 + 2

    def test_stats_merge_across_instances(self):
        cache = build_cache(stacked_config(SP4, stack_bits=1), 0)
        cfg = cache.cfg
        cache.access(0, compose_address(cfg, 0, 0, instance=0))
        cache.access(0, compose_address(cfg, 0, 0, instance=1))
        assert cache.stats()[0]["misses"] == 2


# The group kernels against the probe-by-probe oracle: GF(2^2..2^4) and
# GF(5) layouts, a stacked cache, conventional caches under both
# replacements, and the mod-4 ring with a=1, not a field, whose layout is
# still a per-way bijection (a cache refuses the a=2 one, TestRefusal).
FILL_CONFIGS = [
    galois_config(SkewParams(FieldSpec.binary(2))),
    galois_config(SkewParams(FieldSpec.binary(3), a=3, b=5, c=6)),
    galois_config(SkewParams(FieldSpec.binary(4))),
    galois_config(SkewParams(FieldSpec.prime(5))),
    stacked_config(SkewParams(FieldSpec.prime(3)), stack_bits=1),
    conventional_config(4, 4, "random"),
    conventional_config(2, 3, "random"),
    conventional_config(4, 4, "lru"),
    conventional_config(2, 3, "lru"),
    galois_config(SkewParams(BrokenModularRing(p=2, n=2, modulus=0b111), a=1)),
]
GF4_CFG = FILL_CONFIGS[0]

# The oracle tests take a larger example budget from the loaded
# Hypothesis profile (HYPOTHESIS_PROFILE=ci, see tests/conftest.py).
ORACLE_SETTINGS = settings(max_examples=max(150, settings().max_examples), deadline=None)


def _cache_state(cache):
    return (cache._cells, cache.stats(), cache._stamps, cache._clock,
            cache.rng.getstate())


def _addr(cfg, row, tag):
    """The address of (row, tag); rows past num_sets are stacked instances."""
    return compose_address(cfg, row % cfg.num_sets, tag, row // cfg.num_sets)


@st.composite
def group_cases(draw):
    """A cache config, a seed, a starting state and groups to play.

    The start optionally fills every row with domain 1, then scatters
    lines of three domains over a few tags.  A group is one domain's
    lines, (row, tag) pairs in one row or over several, and its warm
    lines: some of the group's own lines, accessed right before the
    group is played, so that it starts partly resident.
    """
    cfg = draw(st.sampled_from(FILL_CONFIGS))
    rows, ways = cfg.num_sets * cfg.num_instances, cfg.num_ways
    row = st.integers(0, rows - 1)
    seed = draw(st.integers(0, 2**32 - 1))
    full = draw(st.booleans())
    scattered = draw(st.lists(st.tuples(st.integers(0, 2), row, st.integers(0, 3)),
                              max_size=2 * rows * ways))
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        domain = draw(st.integers(0, 2))
        if draw(st.booleans()):
            r = draw(row)
            lines = [(r, t) for t in draw(st.lists(st.integers(0, 2 * ways),
                                                   max_size=ways + 1))]
        else:
            lines = draw(st.lists(st.tuples(row, st.integers(0, ways)),
                                  max_size=2 * ways))
        warm = draw(st.lists(st.sampled_from(lines), max_size=len(lines))) if lines else []
        groups.append((domain, lines, warm))
    return cfg, seed, full, scattered, groups


def _start_pair(case):
    """Two caches in the case's starting state."""
    cfg, seed, full, scattered, _ = case
    pair = build_cache(cfg, seed), build_cache(cfg, seed)
    for cache in pair:
        if full:
            for r in range(cfg.num_sets * cfg.num_instances):
                for t in range(cfg.num_ways):
                    cache.access(1, _addr(cfg, r, 100 + t))
        for d, r, t in scattered:
            cache.access(d, _addr(cfg, r, t))
    return pair


# A line resident at the start, evicted by an earlier line's refill in
# the pass that accesses every line, misses and refills at its own turn
# (GF(4) full of domain 1, seed 0: line (0, 1)'s refill evicts (0, 2)).
EVICTED_BEFORE_ITS_TURN = (GF4_CFG, 0, True, [],
                           [(0, [(0, 0), (0, 1), (0, 2)], [(0, 2)])])
# Line (1, 5) shares its tag with the resident line (0, 5) of another
# row of the group, but not its cell's (domain, block); it is not resident.
SAME_TAG_OTHER_ROW = (GF4_CFG, 0, False, [], [(2, [(0, 5), (1, 5)], [(0, 5)])])

# Probes that stop at the first miss, on GF(4) (domain 0 probes row 1):
# its first line misses, and the cache is full, so the refill draws
FIRST_LINE_MISSES = (GF4_CFG, 0, True, [], [(0, [(1, 0), (1, 1), (1, 2)], [(1, 1)])])
# only its last line misses, into a free cell
ONLY_LAST_LINE_MISSES = (GF4_CFG, 0, False, [],
                         [(0, [(1, 0), (1, 1), (1, 2)], [(1, 0), (1, 1)])])
# every line hits
EVERY_LINE_HITS = (GF4_CFG, 0, False, [], [(0, [(1, 0), (1, 1), (1, 2)], [(1, 0), (1, 1), (1, 2)])])


class TestFillGroup:
    @ORACLE_SETTINGS
    @given(case=group_cases())
    @example(case=EVICTED_BEFORE_ITS_TURN)
    @example(case=SAME_TAG_OTHER_ROW)
    def test_matches_probe_by_probe_oracle(self, case):
        cfg = case[0]
        kernel, oracle = _start_pair(case)
        for d, lines, warm in case[4]:
            results = []
            for cache, fill in ((kernel, kernel.fill_group),
                                (oracle, lambda *a: fill_group_oracle(oracle, *a))):
                for r, t in warm:
                    cache.access(d, _addr(cfg, r, t))
                # more distinct lines than ways in a row never all fit:
                # both hit the cap
                try:
                    results.append(fill(d, [_addr(cfg, r, t) for r, t in lines], 64))
                except RuntimeError as exc:
                    results.append(str(exc))
            assert results[0] == results[1]
            assert _cache_state(kernel) == _cache_state(oracle)

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            gf4_cache().fill_group(0, [0x40, -1])

    @pytest.mark.parametrize("cfg,tags,kernel", [
        (GF4_CFG, (0, 1, 2), True),
        (conventional_config(4, 4, "random"), (0, 1, 2), True),
        (FILL_CONFIGS[-1], (0, 1, 2), True),  # mod-4 ring, a=1
        (conventional_config(4, 4, "lru"), (0, 1, 2), False),
        (GF4_CFG, (0, 1, 0), False),  # a repeated line
    ], ids=["galois", "random", "ring-a1", "lru", "repeated"])
    def test_kernel_preconditions(self, cfg, tags, kernel):
        cache = build_cache(cfg)
        assert cache._group(1, [compose_address(cfg, 1, t) for t in tags]).kernel == kernel

    def test_decoded_groups_memoized_per_cache(self):
        cache = gf4_cache()
        addrs = [compose_address(cache.cfg, 1, t) for t in range(4)]
        for seed in range(50):
            cache.reseed(seed)
            cache.flush()
            cache.fill_group(0, addrs)
            cache.probe_group(0, addrs)
        assert len(cache._groups) == 1


class TestProbeGroup:
    @ORACLE_SETTINGS
    @given(case=group_cases())
    @example(case=EVICTED_BEFORE_ITS_TURN)
    @example(case=SAME_TAG_OTHER_ROW)
    def test_matches_probe_one_oracle(self, case):
        cfg = case[0]
        kernel, oracle = _start_pair(case)
        for d, lines, warm in case[4]:
            for cache in (kernel, oracle):
                for r, t in warm:
                    cache.access(d, _addr(cfg, r, t))
            addrs = [_addr(cfg, r, t) for r, t in lines]
            if not addrs:
                with pytest.raises(ValueError):
                    kernel.probe_group(d, addrs)
                continue
            assert kernel.probe_group(d, addrs) == [oracle.probe_one(d, a) for a in addrs]
            assert _cache_state(kernel) == _cache_state(oracle)

    @ORACLE_SETTINGS
    @given(case=group_cases())
    @example(case=FIRST_LINE_MISSES)
    @example(case=ONLY_LAST_LINE_MISSES)
    @example(case=EVERY_LINE_HITS)
    @example(case=EVICTED_BEFORE_ITS_TURN)
    def test_stop_at_miss_matches_probe_one_oracle(self, case):
        cfg = case[0]
        kernel, oracle = _start_pair(case)
        for d, lines, warm in case[4]:
            for cache in (kernel, oracle):
                for r, t in warm:
                    cache.access(d, _addr(cfg, r, t))
            addrs = [_addr(cfg, r, t) for r, t in lines]
            if not addrs:
                with pytest.raises(ValueError):
                    kernel.probe_group(d, addrs, stop_at_miss=True)
                continue
            hits = kernel.probe_group(d, addrs, stop_at_miss=True)
            assert hits == probe_until_miss_oracle(oracle, d, addrs)
            assert _cache_state(kernel) == _cache_state(oracle)

    @pytest.mark.parametrize("case,flags", [
        (FIRST_LINE_MISSES, [False]),
        (ONLY_LAST_LINE_MISSES, [True, True, False]),
        (EVERY_LINE_HITS, [True, True, True]),
    ], ids=["first", "last", "none"])
    def test_stop_at_miss_examples_miss_where_named(self, case, flags):
        cache = _start_pair(case)[0]
        (d, lines, warm), = case[4]
        for r, t in warm:
            cache.access(d, _addr(case[0], r, t))
        draws = cache.rng.getstate()
        addrs = [_addr(case[0], r, t) for r, t in lines]
        assert cache._group(d, addrs).kernel
        assert cache.probe_group(d, addrs, stop_at_miss=True) == flags
        # only the full cache's refill draws
        assert (cache.rng.getstate() != draws) == case[2]

    def test_observe_probe_reports_the_group_probe(self):
        cache = gf4_cache()
        addrs = [compose_address(cache.cfg, 2, t) for t in (0, 1, 0)]
        obs = cache.observe_probe(1, iter(addrs))
        assert obs == [(addrs[0], False), (addrs[1], False), (addrs[2], True)]


# replay's batch loop (``play``) against an ``access`` per record:
# GF(4), GF(5) and GF(8), conventional caches under both replacements,
# one-way ones among them, and stacked k=1 and k=2.
REPLAY_CONFIGS = [
    GF4_CFG,
    galois_config(SkewParams(FieldSpec.prime(5))),
    galois_config(SkewParams(FieldSpec.binary(3))),
    conventional_config(4, 4, "lru"),
    conventional_config(4, 4, "random"),
    conventional_config(2, 1, "lru"),
    conventional_config(4, 1, "random"),
    stacked_config(SkewParams(FieldSpec.prime(3)), stack_bits=1),
    stacked_config(SP4, stack_bits=2),
]


@st.composite
def replay_cases(draw):
    """A cache config, a seed, a starting state, records over a few rows
    and tags (so lines repeat and rows fill past their ways), a split
    point, and an optional bad record (out-of-range domain or negative
    address) with its position.

    The start optionally fills every row with domain 1, then accesses
    warm records of the same rows and tags, so ``play`` indexes lines
    already resident."""
    cfg = draw(st.sampled_from(REPLAY_CONFIGS))
    rows = cfg.num_sets * cfg.num_instances
    domains = min(cfg.num_domains or 4, 4)
    hot_rows = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=3))
    record = st.tuples(st.integers(0, domains - 1), st.sampled_from("RW"),
                       st.sampled_from(hot_rows), st.integers(0, cfg.num_ways + 2),
                       st.integers(0, (1 << cfg.line_offset_bits) - 1))
    records, warm = ([(d, op, _addr(cfg, r, t) | offset)
                      for d, op, r, t, offset in draw(st.lists(record, max_size=size))]
                     for size in (60, 20))
    split = draw(st.integers(0, len(records)))
    bad = draw(st.sampled_from([None, "domain", "addr"]))
    if bad is not None:
        bad_record = (-1 if cfg.num_domains is None else cfg.num_domains, "R", 0x40) \
            if bad == "domain" else (0, "W", -0x40)
        records.insert(draw(st.integers(0, len(records))), bad_record)
    start = draw(st.booleans()), warm
    return cfg, draw(st.integers(0, 2**32 - 1)), start, records, split, bad is not None


def _replay_caches(case, count=2):
    """Caches in the case's starting state, built alike through ``access``."""
    cfg, seed, (full, warm), *_ = case
    caches = [build_cache(cfg, seed) for _ in range(count)]
    for cache in caches:
        if full:
            for r in range(cfg.num_sets * cfg.num_instances):
                for t in range(cfg.num_ways):
                    cache.access(1, _addr(cfg, r, 100 + t))
        for d, _, addr in warm:
            cache.access(d, addr)
    return caches


def _access_each(cache, records, ops):
    """The oracle: ``access`` per record, adding its R/W counts to
    ``ops``; returns the message of the ValueError that stops it."""
    for d, op, addr in records:
        try:
            cache.access(d, addr)
        except ValueError as exc:
            return str(exc)
        row = ops.setdefault(d, {"reads": 0, "writes": 0})
        row["reads" if op == "R" else "writes"] += 1
    return None


# GF(4) full of domain 1, none of whose lines the records touch: domain
# 0's misses evict lines indexed only from their cells, not from a record
EVICTS_UNINDEXED_LINE = (GF4_CFG, 0, (True, []),
                         [(0, "R", _addr(GF4_CFG, 0, 0)), (0, "W", _addr(GF4_CFG, 1, 0))],
                         0, False)


class TestReplay:
    @ORACLE_SETTINGS
    @given(case=replay_cases())
    @example(case=EVICTS_UNINDEXED_LINE)
    def test_replay_matches_access_oracle(self, case):
        _, _, _, records, split, bad = case
        player, split_player, oracle = _replay_caches(case, 3)
        expected = {}
        error = _access_each(oracle, records[:split], expected)
        stats_at_split = oracle.stats()
        error = error or _access_each(oracle, records[split:], expected)
        assert (error is not None) == bad
        if error is None:
            assert replay(player, iter(records)) == expected
            # two calls on one stream, stats read between, as the benchmark splits
            rest = iter(records)
            ops = replay(split_player, islice(rest, split))
            assert split_player.stats() == stats_at_split
            for d, row in replay(split_player, rest).items():
                merged = ops.setdefault(d, {"reads": 0, "writes": 0})
                merged["reads"] += row["reads"]
                merged["writes"] += row["writes"]
            assert ops == expected
            assert _cache_state(split_player) == _cache_state(oracle)
        else:
            with pytest.raises(ValueError) as exc:
                replay(player, iter(records))
            assert str(exc.value) == error
        assert _cache_state(player) == _cache_state(oracle)

    def test_gf257_play_matches_access_oracle(self):
        """A galois cache past layout_table's m^3 cap lays its rows out
        from the m^2 layout slice: a mixed stream over three domains,
        one of which overfills a row, plays as an access per record."""
        sp = SkewParams(FieldSpec.prime(257), a=3, b=5, c=7)
        with pytest.raises(ValueError, match="exceeds"):
            layout_table(sp)
        cfg = galois_config(sp)
        rng = random.Random(257)
        records = [(0, "RW"[t % 2], _addr(cfg, 0, t)) for t in range(300)]
        records += [(rng.choice((0, 1, 200)), rng.choice("RW"),
                     _addr(cfg, rng.choice((0, 1, 256)), rng.randrange(400)))
                    for _ in range(1500)]
        player, oracle = (build_cache(cfg, 3) for _ in range(2))
        expected = {}
        assert _access_each(oracle, records, expected) is None
        assert replay(player, iter(records)) == expected
        assert _cache_state(player) == _cache_state(oracle)
        assert player.stats()[0]["self_evictions"]

    @pytest.mark.parametrize("cfg", REPLAY_CONFIGS, ids=str)
    def test_filling_replay_matches_access_oracle(self, cfg):
        """A stream that fills every free cell mid-call, then evicts,
        from a warm start."""
        rows, ways = cfg.num_sets * cfg.num_instances, cfg.num_ways
        lines = [(d, "RW"[t % 2], _addr(cfg, r, t))
                 for t in range(2 * ways + 2) for r in range(rows) for d in (0, 1)]
        player, oracle = (build_cache(cfg, 3) for _ in range(2))
        for cache in (player, oracle):
            for d, _, addr in lines[:rows]:
                cache.access(d, addr)
        stream = lines * 2
        expected = {}
        assert _access_each(oracle, stream, expected) is None
        assert replay(player, iter(stream)) == expected
        assert _cache_state(player) == _cache_state(oracle)
        assert None not in player._cells
        assert sum(row["evictions_caused"] + row["self_evictions"]
                   for row in player.stats().values()) > 0


# galois, stacked k=1, and conventional caches under both replacements
CELL_CONFIGS = [
    GF4_CFG,
    stacked_config(SkewParams(FieldSpec.prime(3)), stack_bits=1),
    conventional_config(4, 4, "lru"),
    conventional_config(4, 4, "random"),
]
CELL_STEPS = ("access", "probe_group", "stop_at_miss", "fill_group", "play",
              "snapshot", "restore")


@st.composite
def cell_cases(draw):
    """A cache config, a seed and steps over a few rows and tags: each
    step a method and lines ``(domain, row, tag, offset)``; a group step
    plays its lines as the first line's domain's."""
    cfg = draw(st.sampled_from(CELL_CONFIGS))
    line = st.tuples(st.integers(0, min(cfg.num_domains or 4, 4) - 1),
                     st.integers(0, cfg.num_sets * cfg.num_instances - 1),
                     st.integers(0, cfg.num_ways + 2),
                     st.integers(0, (1 << cfg.line_offset_bits) - 1))
    steps = draw(st.lists(st.tuples(st.sampled_from(CELL_STEPS),
                                    st.lists(line, min_size=1, max_size=2 * cfg.num_ways)),
                          max_size=12))
    return cfg, draw(st.integers(0, 2**32 - 1)), steps


class TestCells:
    @ORACLE_SETTINGS
    @given(case=cell_cases())
    def test_cells_hold_lines_of_their_rows_oracle(self, case):
        """After any mix of ``access``, the group kernels, ``play`` and
        ``restore``, every occupied cell holds a ``(domain, block)`` whose
        row, block % span in the domain's row table, lists that cell:
        what lets ``play`` index the cells as they are.  An ``access``
        still reports its victim as ``(domain, tag)``."""
        cfg, seed, steps = case
        span = cfg.num_sets * cfg.num_instances
        cache = build_cache(cfg, seed)
        snap = cache.snapshot()
        for method, lines in steps:
            addrs = [_addr(cfg, r, t) | offset for _, r, t, offset in lines]
            domain = lines[0][0]
            if method == "access":
                for (d, *_), a in zip(lines, addrs):
                    before = list(cache._cells)
                    out = cache.access(d, a)
                    if out.victim_line is not None:
                        victim = before[out.physical_set * cfg.num_ways + out.way]
                        assert out.victim_line == (victim[0], victim[1] // span)
            elif method == "fill_group":
                try:
                    cache.fill_group(domain, addrs, 8)
                except RuntimeError:  # more distinct lines than ways in a row
                    pass
            elif method in ("probe_group", "stop_at_miss"):
                cache.probe_group(domain, addrs, stop_at_miss=method == "stop_at_miss")
            elif method == "play":
                cache.play([(d, "RW"[t % 2], a) for (d, _, t, _), a in zip(lines, addrs)])
            elif method == "snapshot":
                snap = cache.snapshot()
            else:
                cache.restore(snap)
            for idx, line in enumerate(cache._cells):
                if line is not None:
                    d, block = line
                    assert idx in cache._rows_of(d)[block % span]


class _PlusThreeCollapses(BrokenModularRing):
    """The mod-4 ring with x + 3 = 3 for every x: a domain's way w is not
    a bijection where (b*t)*w is 3, so with b=1 domains 1 and 3 are
    refused and domains 0 and 2 are not."""

    def add(self, x, y):
        return 3 if y == 3 else super().add(x, y)


_RING = BrokenModularRing(p=2, n=2, modulus=0b111)
_MIXED = SkewParams(_PlusThreeCollapses(p=2, n=2, modulus=0b111))


def _refusal(domain):
    return pytest.raises(ValueError, match=f"domain {domain}'s rows share a cell")


class TestRefusal:
    """A cache refuses, on first use, a skewed domain whose layout slice
    is not a per-way bijection, so no two rows of a domain share a cell."""

    @pytest.mark.parametrize("sp", [
        *(SkewParams(f) for f in small_fields(16)),
        SkewParams(FieldSpec.binary(3), a=3, b=5, c=6),
        SkewParams(_RING, a=1),
        SkewParams(_RING, a=2),
        _MIXED,
    ], ids=repr)
    def test_refuses_the_domains_way_bijection_flags(self, sp, monkeypatch):
        monkeypatch.setattr(cache_module, "_LAYOUTS", {})
        monkeypatch.setattr(cache_module, "_layout_cells", 0)
        m = sp.field.order
        broken = {v["t"] for v in verify_way_bijection(sp).violations}
        assert broken == ({0, 1, 2, 3} if sp == SkewParams(_RING, a=2)
                          else {1, 3} if sp is _MIXED else set())
        for cfg in (galois_config(sp), stacked_config(sp, stack_bits=1)):
            cache = build_cache(cfg, 5)
            for t in range(m):
                addrs = [_addr(cfg, 1, tag) for tag in range(m)]
                if t in broken:
                    before = _cache_state(cache)
                    for use in (lambda: cache.access(t, addrs[0]),
                                lambda: cache.probe_group(t, addrs),
                                lambda: cache.probe_group(t, addrs, stop_at_miss=True),
                                lambda: cache.fill_group(t, addrs),
                                lambda: replay(cache, iter([(t, "R", addrs[0])]))):
                        with _refusal(t):
                            use()
                    assert _cache_state(cache) == before
                    assert t not in cache._rows
                else:
                    assert cache.fill_group(t, addrs) >= 1
                    assert cache.probe_group(t, addrs) == [True] * m
                    assert replay(cache, iter([(t, "R", a) for a in addrs])) == {
                        t: {"reads": m, "writes": 0}}
                    assert cache.access(t, addrs[0]).hit
            # a refused slice is neither kept nor counted
            kept = {key[2] for key in cache_module._LAYOUTS if key[1] == cfg.num_instances}
            assert kept == set(range(m)) - broken
        # each kept slice and the rows laid out
        assert cache_module._layout_cells == sum(
            m * m + m * len(rows) for rows in cache_module._LAYOUTS.values())

    @pytest.mark.parametrize("cfg", [galois_config(_MIXED), stacked_config(_MIXED, stack_bits=1)],
                             ids=["galois", "stacked"])
    @pytest.mark.parametrize("seed", range(5))
    def test_replay_stops_at_refused_domain_like_access_oracle(self, cfg, seed):
        """A stream raises at its first record of a refused domain, with
        the records before it played, as an ``access`` per record does."""
        rng = random.Random(seed)
        rows = cfg.num_sets * cfg.num_instances

        def record(domains):
            return (rng.choice(domains), rng.choice("RW"),
                    _addr(cfg, rng.randrange(rows), rng.randrange(6)))

        played = [record((0, 2)) for _ in range(rng.randrange(1, 40))]
        records = played + [record((1, 3))] + [record((0, 1, 2, 3)) for _ in range(20)]
        player, oracle = build_cache(cfg, seed), build_cache(cfg, seed)
        error = _access_each(oracle, records, {})
        assert error is not None and "rows share a cell" in error
        with pytest.raises(ValueError) as exc:
            replay(player, iter(records))
        assert str(exc.value) == error
        assert _cache_state(player) == _cache_state(oracle)
        assert sorted(player.stats()) == sorted({d for d, _, _ in played})

    @pytest.mark.parametrize("replacement", ["random", "lru"])
    def test_conventional_takes_any_domain(self, replacement):
        cfg = conventional_config(4, 4, replacement)
        cache = build_cache(cfg)
        addrs = [_addr(cfg, 1, tag) for tag in range(4)]
        for d in (0, 7, 2 ** 40):
            assert cache.fill_group(d, addrs) >= 1
            assert cache.probe_group(d, addrs) == [True] * 4
            assert replay(cache, iter([(d, "W", a) for a in addrs])) == {
                d: {"reads": 0, "writes": 4}}
        assert cache._rows_of(0) is cache._rows_of(2 ** 40)

    @pytest.mark.parametrize("method", ["fill_group", "probe_group"])
    @pytest.mark.parametrize("sp,domain,message", [
        (SkewParams(FieldSpec.binary(2)), 99, "domain id 99 out of range for 4 domains"),
        (SkewParams(FieldSpec.binary(2)), -1, "domain id -1 out of range for 4 domains"),
        (SkewParams(_RING, a=2), 0, "domain 0's rows share a cell"),
    ], ids=["out-of-range", "negative", "refused"])
    @pytest.mark.parametrize("addrs", [[], [-1]], ids=["no-address", "bad-address"])
    def test_group_checks_the_domain_first(self, method, sp, domain, message, addrs):
        cache = build_cache(galois_config(sp))
        with pytest.raises(ValueError, match=message):
            getattr(cache, method)(domain, addrs)
        assert _cache_state(cache) == _cache_state(build_cache(galois_config(sp)))
        assert build_cache(galois_config(SkewParams(FieldSpec.binary(2)))).fill_group(3, []) == 1


class _CountingField(FieldSpec):
    """A field that counts each call of its arithmetic."""

    calls = Counter()

    def check(self, *xs):
        _CountingField.calls["check"] += 1
        return super().check(*xs)

    def add(self, x, y):
        _CountingField.calls["add"] += 1
        return super().add(x, y)

    def sub(self, x, y):
        _CountingField.calls["sub"] += 1
        return super().sub(x, y)

    def mul(self, x, y):
        _CountingField.calls["mul"] += 1
        return super().mul(x, y)

    def inv(self, x):
        _CountingField.calls["inv"] += 1
        return super().inv(x)


class TestSharedRows:
    """A domain's rows are laid out once per configuration."""

    @pytest.mark.parametrize("stack_bits", [0, 1])
    def test_second_cache_makes_no_field_call(self, stack_bits):
        sp = SkewParams(_CountingField.binary(3), a=3, b=5, c=6)
        cfg = stacked_config(sp, stack_bits) if stack_bits else galois_config(sp)
        domains = (0, 5, 7)
        records = [(d, "RW"[t % 2], _addr(cfg, r, t))
                   for t in range(10) for r in (0, 3, 8 * stack_bits + 6) for d in domains]
        calls = _CountingField.calls
        calls.clear()
        first = build_cache(cfg, 1)
        replay(first, iter(records))
        assert calls["mul"]  # the first cache laid its domains out
        calls.clear()
        second = build_cache(cfg, 2)
        replay(second, iter(records))
        assert not calls
        assert sorted(second._rows) == sorted(first._rows) == list(domains)
        for d in domains:
            assert second._rows[d] is first._rows[d]


    @ORACLE_SETTINGS
    @given(cfg=st.sampled_from([*FILL_CONFIGS, stacked_config(SP4, stack_bits=2)]),
           data=st.data())
    def test_rows_laid_out_on_read_match_permute_oracle(self, cfg, data):
        m, sets, ways = cfg.num_domains, cfg.num_sets, cfg.num_ways
        domain = data.draw(st.integers(0, (m or 3) - 1))
        span = sets * cfg.num_instances
        reads = data.draw(st.lists(st.integers(0, span - 1), max_size=2 * span))
        with mock.patch.object(cache_module, "_LAYOUTS", {}), \
                mock.patch.object(cache_module, "_layout_cells", 0):
            rows = build_cache(cfg)._rows_of(domain)
            slices = (m or 0) ** 2  # a skewed domain keeps its slice
            for r in reads:
                instance, s = divmod(r, sets)
                physical = [s if m is None else permute(cfg.skew, domain, s, w)
                            for w in range(ways)]
                assert rows[r] == tuple((instance * sets + physical[w]) * ways + w
                                        for w in range(ways))
            assert sorted(rows) == sorted(set(reads))
            assert cache_module._layout_cells == slices + ways * len(set(reads))

    def test_rows_laid_out_on_first_touch(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_LAYOUTS", {})
        monkeypatch.setattr(cache_module, "_layout_cells", 0)
        # 2^24 cells: laying out every row took seconds and a GiB
        cfg = conventional_config(1 << 21, 8, "random")
        cache = build_cache(cfg)
        touched = [3, (1 << 21) - 1]
        for s in touched:
            cache.access(0, compose_address(cfg, s, 1))
        cache.access(1, compose_address(cfg, 3, 2))  # domains share the rows
        assert cache_module._layout_cells == len(touched) * 8
        assert sorted(cache._rows_of(0)) == touched

    def test_play_indexes_only_the_occupied_cells(self, monkeypatch):
        """A play on a cache that holds one line lays out only the rows
        its records read: the line index takes the resident line's
        (domain, block) from its cell, not by walking the domain's rows."""
        monkeypatch.setattr(cache_module, "_LAYOUTS", {})
        monkeypatch.setattr(cache_module, "_layout_cells", 0)
        cfg = conventional_config(1 << 21, 8, "random")
        cache = build_cache(cfg)
        line = compose_address(cfg, (1 << 21) - 1, 1)
        assert cache.play([(0, "W", line)]) == {0: {"reads": 0, "writes": 1}}  # a new cache
        other = compose_address(cfg, 3, 2)
        assert cache.play([(0, "R", line), (1, "R", other)]) == {
            0: {"reads": 1, "writes": 0}, 1: {"reads": 1, "writes": 0}}
        assert cache.stats()[0] == {"hits": 1, "misses": 1, "evictions_caused": 0,
                                    "self_evictions": 0}
        assert cache_module._layout_cells == 2 * 8
        assert sorted(cache._rows_of(0)) == [3, (1 << 21) - 1]


class TestSnapshot:
    def test_restore_after_flush_equals_replay(self):
        cfg = galois_config(SP4)
        steps = [(1, compose_address(cfg, s, t)) for s in range(4) for t in range(4)]
        scratch = build_cache(cfg, 3)
        for d, a in steps:
            scratch.access(d, a)
        snap = scratch.snapshot()
        replayed, restored = build_cache(cfg, 9), build_cache(cfg, 9)
        for cache in (replayed, restored):
            cache.access(2, 0x40)  # stats before the flush are kept
            cache.flush()
        for d, a in steps:
            replayed.access(d, a)
        restored.restore(snap)
        assert _cache_state(restored) == _cache_state(replayed)

    # A flush restarts the LRU clock at 0: the snapshot is taken on a
    # cache flushed at one clock and restored into caches that ran to
    # another, against a flush and a replay of the steps there.
    @settings(max_examples=100, deadline=None)
    @given(cfg=st.sampled_from([conventional_config(4, 4, "lru"),
                                conventional_config(2, 3, "lru"),
                                conventional_config(64, 8, "lru")]),
           warm=st.integers(1, 20), extra=st.integers(1, 20), data=st.data())
    def test_lru_restore_rebases_stamps(self, cfg, warm, extra, data):
        line = st.tuples(st.integers(0, 2), st.integers(0, cfg.num_sets - 1),
                         st.integers(0, 2 * cfg.num_ways))
        steps = data.draw(st.lists(line, max_size=3 * cfg.num_ways))
        after = data.draw(st.lists(line, max_size=2 * cfg.num_ways))

        def play(cache, lines):
            for d, s, t in lines:
                cache.access(d, compose_address(cfg, s, t))

        def run_to(clock):
            cache = build_cache(cfg, 1)
            play(cache, [(3, i % cfg.num_sets, 100 + i) for i in range(clock)])
            assert cache._clock == clock
            return cache

        scratch = run_to(warm)
        scratch.flush()
        assert scratch._clock == 0
        # a snapshot carries every stat so far: the replayed cache takes
        # the warm-up's from the flushed scratch cache, an empty snapshot
        flushed = scratch.snapshot()
        assert not flushed.lines and not flushed.stamps and flushed.clock == 0
        play(scratch, steps)
        snap = scratch.snapshot()
        replayed, restored = run_to(warm + extra), run_to(warm + extra)
        replayed.restore(flushed)
        play(replayed, steps)
        restored.restore(snap)
        assert _cache_state(restored) == _cache_state(replayed)
        play(replayed, after)
        play(restored, after)
        assert _cache_state(restored) == _cache_state(replayed)

    @pytest.mark.parametrize("cfg", [galois_config(SP4), conventional_config(4, 4, "lru")],
                             ids=str)
    def test_restore_writes_occupied_cells(self, cfg):
        scratch = build_cache(cfg, 3)
        for t in range(3):
            scratch.access(1, compose_address(cfg, 2, t))
        snap = scratch.snapshot()
        assert [idx for idx, _ in snap.lines] == [
            idx for idx, cell in enumerate(scratch._cells) if cell is not None]
        cache, replayed = build_cache(cfg, 5), build_cache(cfg, 5)
        cache.restore(snap)
        for t in range(3):
            replayed.access(1, compose_address(cfg, 2, t))
        assert _cache_state(cache) == _cache_state(replayed)

    @pytest.mark.parametrize("cfg", [galois_config(SP4), conventional_config(4, 4, "lru")],
                             ids=str)
    def test_restore_into_used_cache_equals_flush_and_replay(self, cfg):
        steps = [(1, compose_address(cfg, 2, t)) for t in range(3)]
        scratch = build_cache(cfg, 3)
        for d, a in steps:
            scratch.access(d, a)
        snap = scratch.snapshot()
        replayed, restored = build_cache(cfg, 5), build_cache(cfg, 5)
        for cache in (replayed, restored):
            # lines in the snapshot's cells and elsewhere, and stamps and
            # a clock past the snapshot's
            for s in range(4):
                for t in range(4):
                    cache.access(0, compose_address(cfg, s, 10 + t))
        restored.restore(snap)
        replayed.flush()
        for d, a in steps:
            replayed.access(d, a)
        assert _cache_state(restored) == _cache_state(replayed)
        assert {line for line in restored._cells if line} == {line for _, line in snap.lines}

    def test_other_replacement_refused(self):
        lru = build_cache(conventional_config(4, 4, "lru"))
        rand = build_cache(conventional_config(4, 4, "random"))
        with pytest.raises(ValueError, match="replacement"):
            lru.restore(rand.snapshot())
        with pytest.raises(ValueError, match="replacement"):
            rand.restore(lru.snapshot())

    def test_other_geometry_refused(self):
        snap = build_cache(conventional_config(4, 4, "random")).snapshot()
        with pytest.raises(ValueError):
            build_cache(conventional_config(8, 4, "random")).restore(snap)
