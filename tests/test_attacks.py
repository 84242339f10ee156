"""Attack harness logic at small trial counts.

Statistical acceptance at 100k trials lives in test_acceptance; these
tests pin the structural behaviour: who evicts whom, what the adversary
can and cannot infer, and that everything replays bit-identically.
"""

import dataclasses
import functools
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from skewcache import (
    AttackScenario,
    FieldSpec,
    SkewParams,
    build_cache,
    compose_address,
    conventional_config,
    default_scenario,
    fill_domain_set,
    galois_config,
    permute,
    run_baseline_prime_probe,
    run_collusion_attack,
    run_galois_prime_probe,
    run_scenario,
    solve_intersection_way,
    sweep_detection_vs_field,
    wilson_interval,
)
from skewcache import attacks, shards, skew
from skewcache.attacks import KINDS, _run_trials
from skewcache.cache import _BaseCache

from support import (
    BrokenModularRing,
    domain_lines_in_set,
    galois_pp_forced_trial,
    line_at,
    no_child_left,
    play_every_trial,
)

GF4 = FieldSpec.binary(2)
SP4 = SkewParams(GF4)


def baseline_scenario(**kw):
    defaults = dict(
        kind="baseline_pp",
        cache=conventional_config(4, 4, "lru"),
        victim_domain=2,
        adversary_domains=(1,),
        victim_target_set=0,
        trials=300,
        seed=5,
    )
    defaults.update(kw)
    return AttackScenario(**defaults)


class TestScenarioValidation:
    def test_collusion_needs_two_adversaries(self):
        with pytest.raises(ValueError):
            AttackScenario(
                kind="collusion", cache=galois_config(SP4), victim_domain=2,
                adversary_domains=(1,), victim_target_set=0, trials=10,
            )
        with pytest.raises(ValueError):
            AttackScenario(
                kind="galois_pp", cache=galois_config(SP4), victim_domain=2,
                adversary_domains=(1, 0), victim_target_set=0, trials=10,
            )

    def test_domains_must_be_distinct(self):
        with pytest.raises(ValueError):
            AttackScenario(
                kind="collusion", cache=galois_config(SP4), victim_domain=1,
                adversary_domains=(1, 0), victim_target_set=0, trials=10,
            )

    def test_domains_must_fit_field(self):
        with pytest.raises(ValueError):
            AttackScenario(
                kind="galois_pp", cache=galois_config(SP4), victim_domain=4,
                adversary_domains=(1,), victim_target_set=0, trials=10,
            )

    def test_kind_and_cache_must_agree(self):
        with pytest.raises(ValueError):
            AttackScenario(
                kind="galois_pp", cache=conventional_config(4, 4),
                victim_domain=2, adversary_domains=(1,), victim_target_set=0,
                trials=10,
            )
        with pytest.raises(ValueError):
            baseline_scenario(cache=galois_config(SP4))

    @pytest.mark.parametrize("kind", ["baseline_pp", "galois_pp", "collusion"])
    def test_negative_seed_rejected(self, kind):
        # random.Random(s) seeds from |s|, so trials seed - k and seed + k
        # would replay one stream
        cache = conventional_config(4, 4) if kind == "baseline_pp" else galois_config(SP4)
        with pytest.raises(ValueError, match="seed -10 is negative"):
            default_scenario(kind, cache, trials=20, seed=-10)

    def test_sweep_builds_its_scenarios_first(self):
        # a zero-trial sweep runs none, but its values are checked
        with pytest.raises(ValueError, match="seed -1 is negative"):
            sweep_detection_vs_field("galois_pp", range(2, 4), 0, seed=-1)
        with pytest.raises(ValueError, match="victim_access_probability"):
            sweep_detection_vs_field("collusion", range(2, 4), 0,
                                     victim_access_probability=1.5)

    def test_runner_kind_mismatch(self):
        with pytest.raises(ValueError):
            run_collusion_attack(baseline_scenario())


class TestBaselinePrimeProbe:
    def test_always_active_detects_every_trial(self):
        report = run_baseline_prime_probe(baseline_scenario(trials=1000))
        assert report.detection_rate == 1.0
        assert report.true_positives == 1000

    def test_inactive_victim_no_false_positives(self):
        report = run_baseline_prime_probe(
            baseline_scenario(victim_access_probability=0.0)
        )
        assert report.false_positives == 0
        assert report.true_negatives == report.trials

    def test_disjoint_sets_never_detect(self):
        report = run_baseline_prime_probe(
            baseline_scenario(victim_target_set=2, adversary_prime_set=1)
        )
        assert report.detection_rate == 0.0
        assert report.false_negatives == report.trials

    def test_random_replacement_also_deterministic_detection(self):
        report = run_baseline_prime_probe(
            baseline_scenario(cache=conventional_config(4, 4, "random"))
        )
        assert report.detection_rate == 1.0


class TestGaloisPrimeProbe:
    def test_rate_near_quarter(self):
        sc = default_scenario("galois_pp", galois_config(SP4), trials=20_000, seed=2)
        report = run_galois_prime_probe(sc)
        assert abs(report.detection_rate - 0.25) < 0.015

    def test_miss_way_is_always_the_intersection(self):
        for victim_set in range(4):
            sc = dataclasses.replace(
                default_scenario("galois_pp", galois_config(SP4), trials=400, seed=9),
                victim_target_set=victim_set,
            )
            report = run_galois_prime_probe(sc)
            expected = solve_intersection_way(SP4, 2, 1, victim_set, 0)
            detections = report.true_positives
            assert detections > 0
            assert report.way_miss_counts[expected] == detections
            assert sum(report.way_miss_counts) == detections

    def test_inactive_victim_no_false_positives(self):
        sc = dataclasses.replace(
            default_scenario("galois_pp", galois_config(SP4), trials=2000, seed=3),
            victim_access_probability=0.0,
        )
        report = run_galois_prime_probe(sc)
        assert report.false_positives == 0
        assert report.detection_rate == 0.0

    def test_half_active_rate_halves(self):
        sc = dataclasses.replace(
            default_scenario("galois_pp", galois_config(SP4), trials=20_000, seed=4),
            victim_access_probability=0.5,
        )
        report = run_galois_prime_probe(sc)
        assert abs(report.detection_rate - 0.125) < 0.012

    def test_observation_independent_of_victim_tag_values(self):
        # the adversary's view is a function of its own hit/miss stream:
        # renaming the victim's addresses cannot change what it observes
        views = []
        for tag_base in (0x100, 0x900):
            cache = build_cache(galois_config(SP4), 8)
            cfg = cache.cfg
            prime = [compose_address(cfg, 0, t) for t in range(4)]
            for a in prime:
                cache.access(1, a)
            for i in range(3):
                cache.access(2, compose_address(cfg, 1, tag_base + i))
            cache.access(2, compose_address(cfg, 1, tag_base + 0x50))
            views.append(tuple(ob.hit for ob in cache.observe_probe(1, prime)))
        assert views[0] == views[1]

    def test_report_deterministic_for_seed(self):
        sc = default_scenario("galois_pp", galois_config(SP4), trials=3000, seed=6)
        a = run_galois_prime_probe(sc).to_dict()
        b = run_galois_prime_probe(sc).to_dict()
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestGaloisPrimeProbeExact:
    """Every trial reaches the victim's access in the state the draw-free
    prime and warm-up leave, whatever its seed, and that access is the
    trial's one eviction draw that can touch the primed set.  Forcing
    the draw to each way in turn therefore enumerates the outcomes."""

    @pytest.mark.parametrize("field", [FieldSpec.binary(2), FieldSpec.binary(3),
                                       FieldSpec.binary(4), FieldSpec.prime(5)],
                             ids=["gf4", "gf8", "gf16", "gf5"])
    def test_only_the_intersection_way_detects(self, field):
        sp = SkewParams(field)
        m = field.order
        base = default_scenario("galois_pp", galois_config(sp), trials=1)
        adv, vic = base.adversary_domains[0], base.victim_domain
        for target in range(m):
            sc = dataclasses.replace(base, victim_target_set=target)
            idle = dataclasses.replace(sc, victim_access_probability=0.0)
            detecting = []
            for w in range(m):
                row, drew = galois_pp_forced_trial(sc, w)
                assert drew
                if row["detected"]:
                    detecting.append(w)
                    assert row["missed_way"] == w
                else:
                    assert row["missed_way"] == -1
                row, drew = galois_pp_forced_trial(idle, w)
                assert not drew
                assert (row["detected"], row["missed_way"]) == (False, -1)
            assert detecting == [solve_intersection_way(sp, adv, vic, 0, target)]


class TestFillDomainSet:
    def test_fills_whole_set_against_full_cache(self):
        cache = build_cache(galois_config(SP4), 17)
        cfg = cache.cfg
        for s in range(4):
            for t in range(4):
                cache.access(1, compose_address(cfg, s, t))
        addrs = [compose_address(cfg, 2, 0x500 + t) for t in range(4)]
        fill_domain_set(cache, 0, addrs)
        assert domain_lines_in_set(cache, 0, 2) == 4
        assert all(ob.hit for ob in cache.observe_probe(0, addrs))


class TestCollusion:
    def test_rate_near_quarter_and_inference_exact(self):
        sc = default_scenario("collusion", galois_config(SP4), trials=6000, seed=1)
        report = run_collusion_attack(sc)
        assert abs(report.detection_rate - 0.25) < 0.02
        fired = sum(map(sum, report.per_set_confusion))
        assert fired == report.true_positives
        assert report.per_set_confusion[0][0] == fired  # victim set 0 only

    def test_every_victim_set_inferred_correctly(self):
        for victim_set in range(4):
            sc = dataclasses.replace(
                default_scenario("collusion", galois_config(SP4), trials=800, seed=3),
                victim_target_set=victim_set,
            )
            report = run_collusion_attack(sc)
            assert report.true_positives > 0
            for true_s in range(4):
                for inferred in range(4):
                    count = report.per_set_confusion[true_s][inferred]
                    if true_s == victim_set and inferred == victim_set:
                        assert count == report.true_positives
                    else:
                        assert count == 0

    def test_inactive_victim_silent(self):
        sc = dataclasses.replace(
            default_scenario("collusion", galois_config(SP4), trials=1500, seed=2),
            victim_access_probability=0.0,
        )
        report = run_collusion_attack(sc)
        assert report.false_positives == 0
        assert report.true_negatives == report.trials

    def test_squeeze_leaves_one_prober_line_per_set(self):
        # reproduce the first two phases and inspect simulator state
        sp = SP4
        cfg = galois_config(sp)
        cache = build_cache(cfg, 13)
        for s in range(4):
            for t in range(4):
                cache.access(1, compose_address(cfg, s, t))
        skip = 3
        for s in range(4):
            if s == skip:
                continue
            fill_domain_set(
                cache, 0, [compose_address(cfg, s, 0x600 + t) for t in range(4)]
            )
        for s in range(4):
            assert domain_lines_in_set(cache, 1, s) == 1
            # the survivor sits exactly on the crossing with the skipped set
            live_way = solve_intersection_way(sp, 1, 0, s, skip)
            surviving_ways = []
            for w in range(4):
                line = line_at(cache, permute(sp, 1, s, w), w)
                if line is not None and line[0] == 1:
                    surviving_ways.append(w)
            assert surviving_ways == [live_way]

    def test_works_on_gf8(self):
        sp = SkewParams(FieldSpec.binary(3))
        sc = default_scenario("collusion", galois_config(sp), trials=2500, seed=4)
        report = run_collusion_attack(sc)
        assert abs(report.detection_rate - 0.125) < 0.025
        assert report.false_positives == 0

    def test_custom_skip_set_and_domains(self):
        sc = AttackScenario(
            kind="collusion", cache=galois_config(SP4), victim_domain=0,
            adversary_domains=(3, 2), victim_target_set=1, trials=3000, seed=5,
            squeezer_skip_set=0,
        )
        report = run_collusion_attack(sc)
        assert abs(report.detection_rate - 0.25) < 0.03
        assert report.false_positives == 0
        fired = sum(map(sum, report.per_set_confusion))
        assert report.per_set_confusion[1][1] == fired

    def test_tally_counts_wrong_set_once(self):
        # an active trial that fires on the wrong set is one false
        # positive, not also a false negative
        outcomes = iter([(True, False), (True, True), (False, False)])

        def protocol(cache, active):
            assert active
            cache.rng.getrandbits(1)  # a draw, so the driver plays every trial
            detected, correct = next(outcomes)
            return detected, correct, -1

        sc = default_scenario("collusion", galois_config(SP4), trials=3)
        r, _ = _run_trials(sc, protocol, "scripted outcomes", _no_prefix)
        counts = (r.true_positives, r.false_positives, r.false_negatives,
                  r.true_negatives)
        assert counts == (1, 1, 1, 0)
        assert sum(counts) == r.trials
        assert r.detection_rate == 2 / 3


def _no_prefix(cache):
    pass


def _folded(sc, protocol, definition, prefix, value_key=None, batch=None):
    """The trial driver with the prefix played inside the protocol, after
    a no-op prefix, as every trial did before the snapshot path; any
    batch player (collusion's lockstep engine) is left out."""
    def whole(cache, active):
        prefix(cache)
        return protocol(cache, active)

    return _run_trials(sc, whole, definition, _no_prefix, value_key)


def _outcome(report):
    return report.to_dict(), report.trial_rows


def _restore_only_empty(patch):
    """Let ``restore`` take only the snapshot of a new cache, which stands
    in for a bare flush."""
    restore = _BaseCache.restore

    def checked(cache, snap):
        assert snap.lines == snap.stamps == () and snap.stats == {} and snap.clock == 0
        restore(cache, snap)

    patch.setattr(_BaseCache, "restore", checked)


def _counting(patch, tmp_path, name):
    """Patch ``_BaseCache.<name>`` to append one byte to a file per call,
    so that the calls of forked shards count too; returns a function
    that reads the count."""
    path = tmp_path / f"{name}-calls"
    path.write_bytes(b"")
    method = getattr(_BaseCache, name)

    def counted(cache, *args):
        with open(path, "ab") as fh:
            fh.write(b".")
        return method(cache, *args)

    patch.setattr(_BaseCache, name, counted)
    return lambda: path.stat().st_size


def _scalar(patch):
    """Send collusion's trials to the scalar trial loop, past the
    lockstep engine."""
    patch.setattr(attacks, "_collusion_lockstep", lambda *args: None)


def _draw_paths(sc):
    """Each trial's activity and draw path (``play_every_trial``), from
    the oracle driver in one shard."""
    paths = []
    with pytest.MonkeyPatch.context() as patch:
        _scalar(patch)
        patch.setattr(shards, "_shard_count", lambda work, min_work: 1)
        patch.setattr(attacks, "_play_trials", functools.partial(play_every_trial, paths=paths))
        run_scenario(sc)
    return paths


def _played(sc, count):
    """How many trials the driver plays over ``count`` shards: per shard,
    the first trial of each new (activity, draw path), and every trial
    of a value once one of its trials drew other than 64 bits, drew more
    than ``_MEMO_DEPTH`` times or found the shard's ways² leaves taken."""
    paths = _draw_paths(sc)
    ways = sc.cache.num_ways
    bounds = [sc.trials * i // count for i in range(count + 1)]
    played = 0
    for first, stop in zip(bounds, bounds[1:]):
        leaves, capped = set(), set()
        for active, path in paths[first:stop]:
            if active in capped:
                played += 1
            elif (active, path) not in leaves:
                played += 1
                if (None in path or len(path) > attacks._MEMO_DEPTH
                        or len(leaves) >= ways * ways):
                    capped.add(active)
                else:
                    leaves.add((active, path))
    return played


def _assert_equals_folded(monkeypatch, tmp_path, sc):
    """The scalar runner restores the prefix once per played trial, and
    its report and trial rows equal those of replaying the prefix in
    every trial, and those of the runner as it is (collusion's lockstep
    engine)."""
    with monkeypatch.context() as patch:
        _scalar(patch)
        restores = _counting(patch, tmp_path, "restore")
        fast = run_scenario(sc)
    count = shards._shard_count(sc.trials, attacks.MIN_SHARD_TRIALS)
    assert restores() == _played(sc, count)
    assert _outcome(run_scenario(sc)) == _outcome(fast)
    with monkeypatch.context() as patch:
        patch.setattr(attacks, "_run_trials", _folded)
        _restore_only_empty(patch)
        plain = run_scenario(sc)
    assert _outcome(fast) == _outcome(plain)
    return fast


class TestTrialPrefix:
    @pytest.mark.parametrize("kind,sp", [
        ("galois_pp", SP4),
        ("galois_pp", SkewParams(FieldSpec.binary(3), a=3, b=5, c=6)),
        ("galois_pp", SkewParams(FieldSpec.prime(5))),
        ("galois_pp", SkewParams(FieldSpec.binary(4))),
        ("collusion", SP4),
        ("collusion", SkewParams(FieldSpec.binary(3), a=3, b=5, c=6)),
        ("collusion", SkewParams(FieldSpec.prime(5))),
    ])
    @pytest.mark.parametrize("prob", [0.0, 0.5, 1.0])
    def test_runner_equals_folded_prefix(self, monkeypatch, tmp_path, kind, sp, prob):
        m = sp.field.order
        trials = 300 if kind == "galois_pp" else 120
        for seed in (3, 11):
            sc = dataclasses.replace(
                default_scenario(kind, galois_config(sp), trials, seed, prob),
                victim_target_set=seed % m, record_trials=True)
            _assert_equals_folded(monkeypatch, tmp_path, sc)

    @pytest.mark.parametrize("cfg", [
        conventional_config(4, 4, "lru"),
        conventional_config(4, 4, "random"),
        conventional_config(8, 2, "lru"),
        conventional_config(8, 2, "random"),
    ], ids=str)
    @pytest.mark.parametrize("prime_set", [1, 2])
    @pytest.mark.parametrize("prob", [0.0, 0.5, 1.0])
    def test_baseline_equals_folded_prefix(self, monkeypatch, tmp_path, cfg, prime_set,
                                           prob):
        for seed in (3, 11):
            sc = baseline_scenario(cache=cfg, victim_target_set=1, adversary_prime_set=prime_set,
                                   victim_access_probability=prob, trials=300, seed=seed,
                                   record_trials=True)
            report = _assert_equals_folded(monkeypatch, tmp_path, sc)
            expected = report.true_positives + report.false_negatives if prime_set == 1 else 0
            assert report.true_positives + report.false_positives == expected

    def test_drawing_prefix_refused(self):
        cfg = galois_config(SP4)
        # five lines in a four-way set: the fifth evicts, drawing a number
        lines = [compose_address(cfg, 1, t) for t in range(5)]
        plays = []

        def prefix(cache):
            plays.append(1)
            for a in lines:
                cache.access(1, a)

        def protocol(cache, active):
            raise AssertionError("a trial ran")

        sc = default_scenario("galois_pp", cfg, trials=200, seed=5)
        with pytest.raises(RuntimeError, match="prefix drew a random number"):
            _run_trials(sc, protocol, "scripted", prefix)
        assert len(plays) == 1  # the scratch run only

    def test_lru_prefix_restored(self, monkeypatch, tmp_path):
        sc = baseline_scenario(victim_access_probability=0.5, record_trials=True)
        cfg = sc.cache
        prime = [compose_address(cfg, 0, t) for t in range(4)]
        victim = compose_address(cfg, 0, 0x2FFFF)

        def prefix(cache):
            for a in prime:
                cache.access(1, a)

        def protocol(cache, active):
            if active:
                cache.access(2, victim)
            # the victim evicts the least recently used line, tag 0
            detected = not all(cache.probe_one(1, a) for a in prime)
            return detected, detected, -1

        with monkeypatch.context() as patch:
            restores = _counting(patch, tmp_path, "restore")
            got, _ = _run_trials(sc, protocol, "scripted", prefix)
        # the protocol draws nothing: one played trial per activity value
        assert restores() == 2
        _restore_only_empty(monkeypatch)
        assert _outcome(got) == _outcome(_folded(sc, protocol, "scripted", prefix)[0])
        assert 0 < got.true_positives < sc.trials


MEMO_CACHES = {
    "baseline_pp": [conventional_config(4, 4, "lru"), conventional_config(4, 4, "random"),
                    conventional_config(8, 2, "lru"), conventional_config(8, 2, "random")],
    "galois_pp": [galois_config(SP4), galois_config(SkewParams(FieldSpec.prime(5)))],
}
MEMO_CACHES["collusion"] = MEMO_CACHES["galois_pp"]


@st.composite
def memo_scenarios(draw):
    """A recorded scenario of any kind with a small cache, any victim
    and primed set, and a coin probability of 0, 1/2, 1 or any other."""
    kind = draw(st.sampled_from(KINDS))
    cfg = draw(st.sampled_from(MEMO_CACHES[kind]))
    sets = cfg.num_sets if kind == "baseline_pp" else cfg.skew.field.order
    prob = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    # any seed to 2^96, or one that crosses 2^64 into a three-word key
    seed = draw(st.integers(0, 2**96) | st.integers(2**64 - 40, 2**64))
    sc = default_scenario(kind, cfg, draw(st.integers(0, 40)), seed, prob,
                          draw(st.integers(0, sets - 1)))
    if kind != "collusion":
        sc = dataclasses.replace(sc, adversary_prime_set=draw(st.integers(0, sets - 1)))
    return dataclasses.replace(sc, record_trials=True)


GF5 = SkewParams(FieldSpec.prime(5))

# (scenario, shard count, block) pinned in front of the memo's Hypothesis
# tests: both activities at the root, the idle one only, and neither;
# galois-pp's draw paths at p = 1 and on a prime field; baseline's
# random victim in the primed set, past the leaf cap (ways² = 16) and,
# on 64x8, past the depth cap with leaves grown; collusion at p = 1,
# past the depth cap from its first trial; galois-pp and the 64x8 random
# victim again in blocks of a few trials (block None: _TRIAL_BLOCK as is)
MEMO_EXAMPLES = [
    (baseline_scenario(trials=40, victim_access_probability=0.5), 2, None),
    (default_scenario("galois_pp", galois_config(SP4), 40, 7, 0.5), 2, None),
    (default_scenario("collusion", galois_config(SP4), 40, 7, 0.5), 2, None),
    (default_scenario("galois_pp", galois_config(SP4), 40, 7, 1.0), 2, None),
    (default_scenario("galois_pp", galois_config(GF5), 40, 7, 0.5), 2, None),
    (baseline_scenario(cache=conventional_config(4, 4, "random"), trials=40, seed=7,
                       victim_access_probability=0.5), 1, None),
    (baseline_scenario(cache=conventional_config(64, 8, "random"), trials=300,
                       victim_access_probability=0.5), 1, None),
    (default_scenario("collusion", galois_config(GF5), 20, 7, 1.0), 2, None),
    (default_scenario("galois_pp", galois_config(GF5), 40, 7, 0.5), 2, 3),
    (baseline_scenario(cache=conventional_config(64, 8, "random"), trials=300,
                       victim_access_probability=0.5), 1, 7),
]


def _memo_examples(test):
    for sc, count, block in reversed(MEMO_EXAMPLES):
        test = example(sc=dataclasses.replace(sc, record_trials=True), count=count,
                       block=block)(test)
    return test


# _TRIAL_BLOCK as it is (None), or a few trials, so that blocks split
# shards and the trial memo outlives them
BLOCKS = st.sampled_from([None, 4, 16])


def _blocks(patch, block):
    if block is not None:
        patch.setattr(attacks, "_TRIAL_BLOCK", block)


class TestSeededDraws:
    @settings(max_examples=max(100, settings().max_examples), deadline=None)
    @given(seed=st.integers(0, 2**96 - 1), count=st.integers(1, 64), coin=st.booleans(),
           ways=st.integers(1, 64))
    @example(seed=0, count=1, coin=True, ways=4)
    @example(seed=1, count=5, coin=False, ways=5)
    @example(seed=2**32 - 1, count=1, coin=True, ways=8)
    @example(seed=2**32 - 3, count=4, coin=False, ways=8)
    @example(seed=2**32, count=3, coin=True, ways=8)
    @example(seed=2**32 + 1, count=2, coin=False, ways=7)
    @example(seed=2**64 - 2, count=5, coin=True, ways=8)
    @example(seed=2**64, count=2, coin=False, ways=8)
    def test_seeded_draws_match_random_oracle(self, seed, count, coin, ways):
        """Each trial's coin and first 64-bit draws, and their residues,
        are ``Random(seed + k)``'s, across each multiple of 2^32."""
        coins, draws = attacks._seeded_draws(seed, count, coin)
        assert draws.shape == (count, attacks._MEMO_DEPTH)
        assert (coins is None) != coin
        for k in range(count):
            rng = random.Random(seed + k)
            if coin:
                assert coins[k] == rng.random()
            words = [rng.getrandbits(64) for _ in range(attacks._MEMO_DEPTH)]
            assert draws[k].tolist() == words
            assert (draws[k] % ways).tolist() == [w % ways for w in words]


class TestTrialMemo:
    @settings(max_examples=max(100, settings().max_examples), deadline=None)
    @given(sc=memo_scenarios(), count=st.integers(1, 3), block=BLOCKS)
    @_memo_examples
    def test_trial_memo_matches_every_trial_oracle(self, sc, count, block):
        with pytest.MonkeyPatch.context() as patch:
            _scalar(patch)
            _blocks(patch, block)
            patch.setattr(shards, "_shard_count", lambda work, min_work: count)
            memo = _outcome(run_scenario(sc))
            patch.setattr(attacks, "_play_trials", play_every_trial)
            assert memo == _outcome(run_scenario(sc))
        r = memo[0]
        assert (r["true_positives"] + r["false_positives"] + r["false_negatives"]
                + r["true_negatives"]) == sc.trials
        no_child_left()

    @settings(max_examples=max(100, settings().max_examples), deadline=None)
    @given(sc=memo_scenarios(), count=st.integers(1, 3), block=BLOCKS)
    @_memo_examples
    def test_trial_memo_plays_each_oracle_draw_path_once_a_shard(self, sc, count, block):
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
            _scalar(patch)
            _blocks(patch, block)
            patch.setattr(shards, "_shard_count", lambda work, min_work: count)
            restores = _counting(patch, pathlib.Path(tmp), "restore")
            reseeds = _counting(patch, pathlib.Path(tmp), "reseed")
            run_scenario(sc)
            assert restores() == reseeds() == _played(sc, count)
        no_child_left()

    @pytest.mark.parametrize("seed", [1 << 19968, (1 << 19968) - 2], ids=["first", "last"])
    def test_trial_seed_past_the_mt19937_key_refused(self, monkeypatch, seed):
        """A trial seed of more than 624 key words, the first trial's or
        only the last's, is refused, since numpy seeds every trial that
        walks; the trials up to 2^19968 - 1 play as their oracle does."""
        with pytest.raises(ValueError, match=r"^trial seeds must be below 2\^19968"):
            default_scenario("galois_pp", galois_config(SP4), 3, seed, 0.5)
        sc = dataclasses.replace(
            default_scenario("galois_pp", galois_config(SP4), 2, (1 << 19968) - 2, 0.5),
            record_trials=True)
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work: 1)
        memo = _outcome(run_scenario(sc))
        monkeypatch.setattr(attacks, "_play_trials", play_every_trial)
        assert memo == _outcome(run_scenario(sc))

    # draws the tree cannot be keyed by: one past the recorder, one
    # narrower than 64 bits, one as long in the stream as a 64-bit draw
    @pytest.mark.parametrize("coin", [lambda rng: rng.random() < 0.5,
                                      lambda rng: rng.getrandbits(1) == 1,
                                      lambda rng: rng.getrandbits(40) & 1 == 1],
                             ids=["random", "getrandbits-1", "getrandbits-40"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_other_draws_are_played_every_trial(self, monkeypatch, tmp_path, coin, count):
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work: count)

        def protocol(cache, active):
            detected = coin(cache.rng)
            return detected, detected, -1

        sc = baseline_scenario(trials=300, victim_access_probability=1.0, record_trials=True)
        restores = _counting(monkeypatch, tmp_path, "restore")
        reseeds = _counting(monkeypatch, tmp_path, "reseed")
        got, _ = _run_trials(sc, protocol, "scripted", _no_prefix)
        # played from the first trial on, one reseed a trial (no coin at p = 1)
        assert restores() == reseeds() == sc.trials
        monkeypatch.setattr(attacks, "_play_trials", play_every_trial)
        assert _outcome(got) == _outcome(_run_trials(sc, protocol, "scripted", _no_prefix)[0])
        assert 0 < got.true_positives < sc.trials

    @pytest.mark.parametrize("count", [1, 3])
    def test_baseline_lru_plays_each_activity_once_a_shard(self, monkeypatch, tmp_path,
                                                           count):
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work: count)
        sc = default_scenario("baseline_pp", conventional_config(64, 8, "lru"), 10_000,
                              seed=3, victim_access_probability=0.5)
        restores = _counting(monkeypatch, tmp_path, "restore")
        reseeds = _counting(monkeypatch, tmp_path, "reseed")
        report = run_scenario(sc)
        # numpy draws every coin, and only a played trial reseeds the cache
        assert restores() == reseeds() == 2 * count
        assert 0 < report.true_positives < sc.trials
        with monkeypatch.context() as patch:
            patch.setattr(attacks, "_play_trials", play_every_trial)
            assert _outcome(run_scenario(sc)) == _outcome(report)
        assert restores() == reseeds() == 2 * count + sc.trials
        sc = dataclasses.replace(sc, victim_access_probability=1.0)
        report = run_scenario(sc)
        # no coin: one played trial a shard, and no trial walks
        assert restores() == reseeds() == 3 * count + sc.trials
        assert report.true_positives == sc.trials

    @pytest.mark.parametrize("count", [1, 3])
    def test_galois_pp_plays_each_draw_path_once_a_shard(self, monkeypatch, tmp_path, count):
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work: count)
        sc = dataclasses.replace(
            default_scenario("galois_pp", galois_config(SkewParams(FieldSpec.binary(4))),
                             3000, seed=3, victim_access_probability=0.5),
            record_trials=True)
        restores = _counting(monkeypatch, tmp_path, "restore")
        report = run_scenario(sc)
        played = restores()
        active = sum(row["active"] for row in report.trial_rows)
        assert 0 < active < sc.trials
        assert 0 < report.true_positives < active
        assert played == _played(sc, count)
        # the idle path and 2m - 1 active ones: a fill that spares the
        # primed line, or one that evicts it and then each refill way
        paths = set(_draw_paths(sc))
        assert len(paths) == 1 + 2 * 16 - 1
        assert len(paths) <= played <= count * len(paths)

    def test_collusion_plays_every_trial(self, monkeypatch, tmp_path):
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work: 2)
        sc = default_scenario("collusion", galois_config(SP4), 300, seed=3,
                              victim_access_probability=0.5)
        restores = _counting(monkeypatch, tmp_path, "restore")
        reseeds = _counting(monkeypatch, tmp_path, "reseed")
        engine = run_scenario(sc)
        # the lockstep engine draws from its own streams, off the cache
        assert restores() == reseeds() == 0
        with monkeypatch.context() as patch:
            _scalar(patch)
            scalar = run_scenario(sc)
            assert restores() == reseeds() == sc.trials  # a played value, every trial
            sc = dataclasses.replace(sc, victim_access_probability=1.0)
            run_scenario(sc)
            assert reseeds() == 2 * sc.trials  # no coin: the play's reseed alone
        assert engine.to_dict() == scalar.to_dict()


GF7 = SkewParams(FieldSpec.prime(7))
RING = SkewParams(BrokenModularRing(p=2, n=2, modulus=0b111))


@st.composite
def lockstep_scenarios(draw):
    """A collusion scenario on a small layout: any three distinct
    domains, victim set and skip set (or the default), any seed to 2^64,
    a coin probability of 0, 1/2, 1 or any other, rows recorded or not."""
    sp = draw(st.sampled_from([SP4, SkewParams(FieldSpec.binary(3), a=3, b=5, c=6), GF5, GF7]))
    m = sp.field.order
    victim, prober, squeezer = draw(st.permutations(range(m)))[:3]
    prob = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    return AttackScenario(
        kind="collusion", cache=galois_config(sp), victim_domain=victim,
        adversary_domains=(prober, squeezer), victim_target_set=draw(st.integers(0, m - 1)),
        trials=draw(st.integers(0, 40)), seed=draw(st.integers(0, 2**64)),
        victim_access_probability=prob, squeezer_skip_set=draw(st.none() | st.integers(0, m - 1)),
        record_trials=draw(st.booleans()))


def _collusion(sp, trials=30, seed=7, prob=0.5, **kw):
    return dataclasses.replace(default_scenario("collusion", galois_config(sp), trials, seed, prob),
                               **{"record_trials": True, **kw})


class TestLockstep:
    # A budget of 1 (m² draws) is short for every trial, whose squeeze
    # and probe miss at least 2m(m - 1) times, so each is played again
    # with 2m², then 4m² draws.  The mod-4 ring's rows share no cell, so
    # the engine plays it, though the squeeze there leaves some prober
    # sets two survivors or none; GF(64)'s squeeze groups (64 lines)
    # overflow the gone mask and take the scalar loop.  In blocks of a
    # few trials, a shard's tail of one trial takes the scalar loop beside
    # the engine's blocks.
    @settings(max_examples=max(100, settings().max_examples), deadline=None)
    @given(sc=lockstep_scenarios(), count=st.integers(1, 3), budget=st.sampled_from([1, 5]),
           block=BLOCKS)
    @example(sc=_collusion(GF5), count=2, budget=5, block=None)
    @example(sc=_collusion(GF7, victim_target_set=6), count=1, budget=5, block=None)
    @example(sc=_collusion(SP4, prob=0.0), count=2, budget=5, block=None)
    @example(sc=_collusion(SP4, prob=1.0), count=2, budget=5, block=None)
    @example(sc=_collusion(SP4, record_trials=False), count=3, budget=5, block=None)
    @example(sc=AttackScenario(kind="collusion", cache=galois_config(SP4), victim_domain=0,
                               adversary_domains=(3, 2), victim_target_set=1, trials=30,
                               seed=5, victim_access_probability=0.5, squeezer_skip_set=0,
                               record_trials=True), count=2, budget=5, block=None)
    @example(sc=_collusion(SP4, seed=2**40 + 7), count=2, budget=5, block=None)
    @example(sc=_collusion(GF5), count=2, budget=1, block=None)
    @example(sc=_collusion(RING, trials=40, victim_domain=3), count=2, budget=5, block=None)
    @example(sc=_collusion(SkewParams(FieldSpec.binary(6)), trials=2), count=1, budget=5,
             block=None)
    # shards of 15 and 16 trials: five blocks of 3 each, then one trial
    @example(sc=_collusion(GF5, trials=31), count=2, budget=5, block=3)
    def test_lockstep_engine_matches_scalar_oracle(self, sc, count, budget, block):
        players, engine = [], attacks._collusion_lockstep

        def spy(*args):
            players.append(engine(*args))
            return players[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shards, "_shard_count", lambda work, min_work: count)
            patch.setattr(attacks, "_LOCKSTEP_BUDGET", budget)
            # every block on the engine, or every block but one-trial tails
            patch.setattr(attacks, "MIN_LOCKSTEP_TRIALS", 0 if block is None else 2)
            _blocks(patch, block)
            patch.setattr(attacks, "_collusion_lockstep", spy)
            got = run_scenario(sc)
            _scalar(patch)
            want = run_scenario(sc)
        assert got.to_dict() == want.to_dict()
        assert got.trial_rows == want.trial_rows
        assert list(got.domain_stats.items()) == list(want.domain_stats.items())
        assert [player is None for player in players] == [sc.cache.num_ways > 62]
        if sc.victim_access_probability == 0.0:  # no victim access, no victim row
            assert sc.victim_domain not in got.domain_stats
        no_child_left()

    @pytest.mark.parametrize("trials,count,scalar", [
        (attacks.MIN_LOCKSTEP_TRIALS - 1, 1, 1),
        (2 * attacks.MIN_LOCKSTEP_TRIALS - 1, 2, 1),  # the first shard is one trial short
        (2 * attacks.MIN_LOCKSTEP_TRIALS, 2, 0),
    ])
    def test_small_shard_takes_scalar_loop(self, monkeypatch, tmp_path, trials, count,
                                           scalar):
        """A shard of fewer than MIN_LOCKSTEP_TRIALS trials plays through
        the scalar loop, with the report and rows the engine gives it."""
        sc = _collusion(SkewParams(FieldSpec.binary(3)), trials=trials, seed=11)
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work: count)
        with monkeypatch.context() as patch:
            patch.setattr(attacks, "MIN_LOCKSTEP_TRIALS", 0)
            engine = run_scenario(sc)
        log, play_trials = tmp_path / "scalar-shards", attacks._play_trials

        def spy(*args):  # a file, so that forked shards are seen too
            with open(log, "a") as fh:
                fh.write(f"{args[-1] - args[-2]}\n")
            return play_trials(*args)

        log.write_text("")
        monkeypatch.setattr(attacks, "_play_trials", spy)
        got = run_scenario(sc)
        sizes = [int(line) for line in log.read_text().split()]
        assert len(sizes) == scalar and all(n < attacks.MIN_LOCKSTEP_TRIALS for n in sizes)
        assert got.to_dict() == engine.to_dict()
        assert got.trial_rows == engine.trial_rows
        assert list(got.domain_stats.items()) == list(engine.domain_stats.items())
        no_child_left()


# a CLI run on one CPU with blocks of argv[1] trials; and a small process
# that starts a command and prints its peak RSS in KiB (Linux's unit).
# The run's own peak would count the process it was forked from.
_BLOCKED_RUN = ("import os, sys; from skewcache import attacks, cli; "
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                "attacks._TRIAL_BLOCK = int(sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))")
_PEAK_OF = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


class TestTrialBlocks:
    @pytest.mark.parametrize("sc", [
        baseline_scenario(cache=conventional_config(8, 2, "random"),
                          victim_access_probability=0.5),
        default_scenario("galois_pp", galois_config(SP4), 300, 3, 0.5),
        default_scenario("collusion", galois_config(SP4), 300, 3, 0.5),
    ], ids=KINDS)
    @pytest.mark.parametrize("count", [1, 3])
    def test_no_player_sees_more_than_a_block(self, monkeypatch, tmp_path, sc, count):
        """Each call of the scalar loop and of collusion's lockstep player
        gets at most _TRIAL_BLOCK trials, the calls that play tile the
        trials in order, and the report and rows are those of one block."""
        sc = dataclasses.replace(sc, record_trials=True)
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work: count)
        whole = run_scenario(sc)
        log = tmp_path / "calls"
        play_trials, engine = attacks._play_trials, attacks._collusion_lockstep

        def note(first, stop, played):  # a file, so that forked shards are seen too
            with open(log, "a") as fh:
                fh.write(f"{first} {stop} {int(played is not None)}\n")
            return played

        def scalar(*args):
            return note(*args[-2:], play_trials(*args))

        def lockstep(*args):
            play = engine(*args)
            return lambda first, stop: note(first, stop, play(first, stop))

        log.write_text("")
        monkeypatch.setattr(attacks, "_TRIAL_BLOCK", 64)
        monkeypatch.setattr(attacks, "_play_trials", scalar)
        monkeypatch.setattr(attacks, "_collusion_lockstep", lockstep)
        got = run_scenario(sc)
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert all(stop - first <= 64 for first, stop, _ in calls)
        played = sorted((first, stop) for first, stop, ok in calls if ok)
        assert [first for first, _ in played] == [0] + [stop for _, stop in played[:-1]]
        assert played[-1][1] == sc.trials
        # collusion's blocks of 64 play on the engine, its shorter tails
        # (under MIN_LOCKSTEP_TRIALS) on the scalar loop
        declined = sum(not ok for *_, ok in calls)
        assert declined == (sc.kind == "collusion") * (len(calls) - len(played))
        assert _outcome(got) == _outcome(whole)
        assert list(got.domain_stats.items()) == list(whole.domain_stats.items())
        no_child_left()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    @pytest.mark.parametrize("argv", [
        "baseline-pp --sets 64 --ways 8 --victim-prob 0.5",
        "galois-pp --n 4 --victim-prob 0.5",
        "collusion --n 2 --victim-prob 0.5",
    ])
    def test_peak_memory_bounded_by_the_block(self, argv):
        """On one CPU, with blocks of 2,048 trials, a run of 32,768 trials
        peaks at most 1 KiB a trial of one block (2 MiB) above a run of
        4,096.  Playing its whole shard at once, the first would hold a
        numpy stream or lockstep arrays for every trial: 4.5 to 10 MiB more."""
        block, peaks = 2048, []
        src = str(pathlib.Path(attacks.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for trials in (2 * block, 16 * block):
            out = subprocess.run(
                [sys.executable, "-c", _PEAK_OF, sys.executable, "-c", _BLOCKED_RUN, str(block),
                 "attack", *argv.split(), "--trials", str(trials), "--output", os.devnull],
                capture_output=True, text=True, check=True, env=env).stdout
            peaks.append(int(out.split()[-1]))
        assert peaks[0] > 20_000  # KiB: a run with numpy loaded, so the count is the run's
        assert peaks[1] - peaks[0] < block  # 1 KiB a trial of a block


class TestSweepAndReportPlumbing:
    def test_sweep_zero_trials_empty(self):
        assert sweep_detection_vs_field("galois_pp", range(2, 5), 0) == []

    def test_sweep_rates_decrease(self):
        rows = sweep_detection_vs_field("galois_pp", range(2, 4), 4000, seed=11)
        assert [r["n"] for r in rows] == [2, 3]
        assert rows[0]["detection_rate"] > rows[1]["detection_rate"]
        for r in rows:
            assert abs(r["detection_rate"] - r["theoretical_rate"]) < 0.03

    def test_sweep_rejects_baseline(self):
        with pytest.raises(ValueError):
            sweep_detection_vs_field("baseline_pp", range(2, 3), 10)

    def test_wilson_interval(self):
        lo, hi = wilson_interval(250, 1000)
        assert lo < 0.25 < hi
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo0, hi0 = wilson_interval(0, 100)
        assert lo0 == 0.0 and hi0 < 0.05

    def test_counts_partition_trials(self):
        sc = dataclasses.replace(
            default_scenario("galois_pp", galois_config(SP4), trials=1000, seed=7),
            victim_access_probability=0.6,
        )
        r = run_galois_prime_probe(sc)
        total = (r.true_positives + r.false_positives + r.false_negatives
                 + r.true_negatives)
        assert total == r.trials == 1000

    def test_run_scenario_dispatch(self):
        report = run_scenario(baseline_scenario(trials=50))
        assert report.kind == "baseline_pp"

    def test_trial_log_rows(self):
        sc = dataclasses.replace(
            default_scenario("galois_pp", galois_config(SP4), trials=40, seed=1),
            record_trials=True,
        )
        report = run_galois_prime_probe(sc)
        assert len(report.trial_rows) == 40
        assert {"trial", "active", "detected", "missed_way"} <= set(report.trial_rows[0])

    def test_report_json_round_trip(self):
        report = run_scenario(baseline_scenario(trials=20))
        parsed = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert parsed["trials"] == 20
        assert parsed["kind"] == "baseline_pp"
        assert "detection_definition" in parsed


def _serial_and_sharded(monkeypatch, sc):
    """The reports of ``sc`` with the shard count forced to 1, 2 and 3."""
    reports = []
    for count in (1, 2, 3):
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work, count=count: count)
        reports.append(run_scenario(sc))
    return reports


class TestSharding:
    @pytest.mark.parametrize("sc", [
        baseline_scenario(cache=conventional_config(4, 4, "lru")),
        baseline_scenario(cache=conventional_config(4, 4, "random")),
        default_scenario("galois_pp", galois_config(SkewParams(FieldSpec.binary(3))), 1),
        default_scenario("collusion", galois_config(SkewParams(FieldSpec.prime(5))), 1),
        default_scenario("collusion", galois_config(SkewParams(FieldSpec.binary(3))), 1),
    ], ids=["baseline-lru", "baseline-random", "galois-pp-n3", "collusion-gf5",
            "collusion-n3"])
    # not divisible by 2 or 3, fewer trials than shards, none
    @pytest.mark.parametrize("trials", [301, 2, 0])
    def test_sharded_equals_serial(self, monkeypatch, sc, trials):
        sc = dataclasses.replace(sc, trials=trials, seed=17, victim_access_probability=0.5,
                                 record_trials=True)
        serial, *sharded = _serial_and_sharded(monkeypatch, sc)
        assert len(serial.trial_rows) == trials
        for report in sharded:
            assert report.to_dict() == serial.to_dict()
            assert report.trial_rows == serial.trial_rows
            assert report.way_miss_counts == serial.way_miss_counts
            assert report.per_set_confusion == serial.per_set_confusion
            assert list(report.domain_stats.items()) == list(serial.domain_stats.items())
        if trials > 100:  # the victim was seen, so the shards had work to merge
            assert serial.true_positives + serial.false_positives > 0
        no_child_left()

    def test_shard_count_follows_the_affinity_mask(self, monkeypatch):
        # the attacks' minimum in trials and the verifier's in domains
        for per in (attacks.MIN_SHARD_TRIALS, skew.MIN_SHARD_DOMAINS):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                                raising=False)
            assert [shards._shard_count(w, per)
                    for w in (0, per - 1, per, 3 * per - 1, 100 * per)] == [1, 1, 1, 2, 8]
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert shards._shard_count(100 * per, per) == 1
            monkeypatch.delattr(os, "sched_getaffinity")
            assert shards._shard_count(100 * per, per) == 1

    @pytest.mark.parametrize("fails", [False, True])
    def test_each_shard_pinned_to_its_own_cpu(self, monkeypatch, fails):
        placed = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 3})
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, cpus: placed.append((pid, set(cpus))))
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work: 3)

        def play(first, stop):
            if fails:
                raise ValueError("parent shard")
            return first

        if fails:
            with pytest.raises(ValueError, match="parent shard"):
                shards._run_shards(30, play, 1)
        else:
            assert shards._run_shards(30, play, 1) == [0, 10, 20]
        # two children on the CPUs after the parent's, in turn; the
        # parent on the first CPU, then on its whole set again
        assert [cpus for _, cpus in placed] == [{5}, {3}, {3}, {3, 5}]
        assert [pid != 0 for pid, _ in placed] == [True, True, False, False]
        no_child_left()

    def _failing(self, monkeypatch, fail):
        """``_run_trials`` over 300 trials in three shards of 100, whose
        protocol raises ``fail(trial)`` when that is not None."""
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work: 3)
        sc = baseline_scenario(trials=300)
        trial_of = {}
        reseed = _BaseCache.reseed

        def spy(cache, seed):
            trial_of[cache] = seed - sc.seed
            reseed(cache, seed)

        monkeypatch.setattr(_BaseCache, "reseed", spy)

        def protocol(cache, active):
            cache.rng.getrandbits(1)  # a draw, so the driver plays every trial
            exc = fail(trial_of[cache])
            if exc is not None:
                raise exc
            return False, False, -1

        return lambda: _run_trials(sc, protocol, "scripted", _no_prefix)

    def test_child_error_raised_in_parent(self, monkeypatch):
        run = self._failing(
            monkeypatch, lambda t: ValueError(f"trial {t}") if t >= 100 else None)
        with pytest.raises(ValueError, match=r"^trial 100$"):
            run()
        no_child_left()

    def test_earliest_failing_shard_wins(self, monkeypatch):
        run = self._failing(monkeypatch, lambda t: (
            KeyError(t) if t >= 200 else ValueError(f"trial {t}") if t >= 150 else None))
        with pytest.raises(ValueError, match=r"^trial 150$"):
            run()
        no_child_left()

    def test_child_without_result(self, monkeypatch):
        class Local(Exception):  # a local class does not pickle
            pass

        run = self._failing(monkeypatch, lambda t: Local() if t >= 100 else None)
        with pytest.raises(RuntimeError, match="a shard ended .* no result"):
            run()
        no_child_left()

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_parent_error_kills_children(self, monkeypatch, exc):
        # each child sleeps for a minute in its first trial: only a kill
        # lets the run end at once
        def fail(trial):
            if trial in (100, 200):
                time.sleep(60)
            elif trial == 50:
                return exc("parent shard")
            return None

        run = self._failing(monkeypatch, fail)
        start = time.monotonic()
        with pytest.raises(exc, match="parent shard"):
            run()
        assert time.monotonic() - start < 30
        no_child_left()

    def test_children_leave_without_flushing(self, monkeypatch, tmp_path):
        monkeypatch.setattr(shards, "_shard_count", lambda work, min_work: 3)
        path = tmp_path / "buffered"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("written once")  # still in the buffer when the children fork
            run_scenario(baseline_scenario(trials=30))
        assert path.read_text() == "written once"
        no_child_left()
