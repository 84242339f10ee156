"""Seeded Monte Carlo contention experiments against the cache models.

One trial driver, ``_run_trials``, runs every experiment.  It holds the
skeleton the three kinds share: build the cache; then per trial reseed
it with base seed + trial index, draw the victim's activity coin
(``victim_access_probability``, so false positives are measurable),
restore the state the kind's prefix leaves on an empty cache and play
the kind's protocol; ``_tally`` counts each outcome into exactly one of
tp/fp/fn/tn and its value (galois-pp's missed way, collusion's inferred
set), and keeps the optional trial row; finally build the report.

The driver plays the trials in contiguous shards, in forked children
on the process's CPUs, at least ``MIN_SHARD_TRIALS`` trials a shard
(the ``shards`` module says why the merge is exact), and a shard in
blocks of at most ``_TRIAL_BLOCK``, each counted before the next.  Both
players, the scalar loop and collusion's lockstep engine, return a
block as an outcome id per trial into a small table of ``(active,
detected, correct, value)`` rows.

A kind splits off its first steps as a ``prefix``: baseline prime-probe
and galois-pp the prime (galois-pp with the victim's warm-up),
collusion the prober's fill.  On an empty cache these steps find free
cells for every line (by per-way bijection and diagonalization on the
skewed cache), so they draw no random number and end in the same state
in every trial.  The driver plays the prefix once on a scratch cache,
refusing it if the random stream moved, and every trial ``restore``s
that snapshot, which flushes the cache, instead of replaying the steps.

A trial is played once per shard for each path of draws it takes.
Every trial starts from that one snapshot, and a protocol may be
steered only by the cache and the victim's activity, so a trial's
outcome and stats delta follow from its activity and the residues of
its draws, each ``getrandbits(64) % ways``.  Each shard keeps, for all
its blocks, a tree per activity value keyed by those residues, whose
leaves hold an outcome id, a stats delta and a reuse count.  A block
takes its coins and first draws, bit for bit, from numpy
(``_seeded_draws``), and reseeds the cache only for a trial it plays.
Baseline prime-probe under LRU draws in no trial (a leaf at the root),
galois-pp once or twice when the victim is active (its fill, and the
refill of its probe's miss, evict at random: at most 2m - 1 paths),
collusion 150 or more times (its squeeze), past the depth cap.

So collusion's runner hands the trial driver a batch player,
``_collusion_lockstep``, which plays a block's trials together: one
numpy step per draw for all of them, each trial's draws taken from its
own ``Random(seed + trial)`` in one ``getrandbits`` call.  Its reports
and trial rows are byte for byte those of the scalar loop, its oracle,
which plays any run the engine does not fit and any block of fewer than
``MIN_LOCKSTEP_TRIALS`` trials, which it plays faster.

The probes and collusion's squeeze are groups of one domain's lines,
which the cache runs through its row-local kernel: each row is scanned
once, and then every miss is one cell write and at most one draw.
On the scalar path collusion squeezes with ``fill_domain_set`` and
probes with ``probe_group``; galois-pp probes its primed set with
``probe_group`` in its stop-at-first-miss mode.

Each kind supplies only its protocol steps:

* baseline prime-probe (conventional cache): the adversary primes one
  set; the victim, when active, touches that set; the adversary
  re-touches its lines, and any miss reveals the victim's set.
* skewed-cache prime-probe: the adversary primes one of its sets; the
  victim warms the other ways of its target set and, when active, fills
  a fresh line there; the adversary probes its lines in way order.  The
  primed set crosses each victim set in exactly one cell, so a victim
  fill only lands on a primed line when its random replacement picks
  that one way.  The probe stops at the first miss: a missing line's
  refill evicts a random candidate, and probing past it would let that
  refill knock out lines not yet probed, smearing both the miss count
  and the way attribution with replacement noise that carries no victim
  information.
* two-domain collusion: the prober fills the whole cache; the squeezer
  reclaims all but one of its own sets, leaving the prober exactly one
  resident line per set (the cells of the squeezer's untouched set);
  the victim, when active, fills a fresh line in its target set; the
  prober probes each of its sets survivor-way first, for the same
  refill-disturbance reason as above.  A victim access evicts one
  survivor with probability 1/ways, and the survivor's cell pins down
  the victim's set index exactly.  Scheduling is fully synchronous and
  adversary-favorable, and the colluders know the public layout and
  each other's address choices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from itertools import accumulate
from typing import Optional

import numpy as np

from .cache import CacheConfig, build_cache, compose_address
from .shards import _run_shards
from .skew import permute, set_through_cell, solve_intersection_way

KINDS = ("baseline_pp", "galois_pp", "collusion")

_WARM_TAG_BASE = 0x10000
_TARGET_TAG = 0x2FFFF

#: The fewest trials worth a shard of their own.  Forking a shard from a
#: CLI-sized process (29 MiB), pickling its result back and reaping it
#: took 2-3 ms on a 2-core x86-64 VM, and the cheapest trial kind there
#: (galois-pp, n=2) ran at 20 us a trial, so 256 trials (5 ms) outweigh
#: the cost of the shard that runs them.
MIN_SHARD_TRIALS = 256

_MEMO_DEPTH = 4  # the longest draw path the trial memo keeps

#: The most trials a shard plays at once (a block, which pays the 9.4k
#: ufunc calls of ``_seeded_draws`` once).  Serial, 262,144 trials on one
#: CPU of a 2-core x86-64 VM, best of 5: baseline-pp 64x8 and galois-pp
#: n=4 took 4.2-4.3, 3.3, 2.8-2.9 and 2.8-2.9 us a trial at 2^13 to 2^16;
#: from 10k to 1M trials, baseline-pp's peak RSS rose 1.4 MiB at 2^14 and
#: 4.7 MiB at 2^15 (a block's numpy rows).
_TRIAL_BLOCK = 1 << 14


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class AttackScenario:
    kind: str
    cache: CacheConfig
    victim_domain: int
    adversary_domains: tuple[int, ...]
    victim_target_set: int
    trials: int
    seed: int = 0
    victim_access_probability: float = 1.0
    #: set primed (baseline/galois_pp); baseline defaults to the victim's set
    adversary_prime_set: Optional[int] = None
    #: collusion: squeezer set left unfilled; defaults to the highest index
    squeezer_skip_set: Optional[int] = None
    record_trials: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        # trial t reseeds with seed + t and Random(s) seeds from |s|
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is negative")
        # _seeded_draws seeds a trial from its key of at most 624 words
        if self.seed + self.trials > 1 << 19968:
            raise ValueError("trial seeds must be below 2^19968, MT19937's 624 key words")
        if not 0.0 <= self.victim_access_probability <= 1.0:
            raise ValueError("victim_access_probability must be in [0, 1]")
        domains = (self.victim_domain, *self.adversary_domains)
        if len(set(domains)) != len(domains):
            raise ValueError("participant domains must be distinct")
        for d in domains:
            if d < 0:
                raise ValueError(f"domain id {d} is negative")
        if self.kind == "baseline_pp":
            if self.cache.kind != "conventional":
                raise ValueError("baseline prime-probe needs a conventional cache")
            if len(self.adversary_domains) != 1:
                raise ValueError("baseline prime-probe uses one adversary domain")
            limit = self.cache.num_sets
        else:
            if self.cache.kind != "galois":
                raise ValueError(f"{self.kind} needs a galois cache")
            order = self.cache.skew.field.order
            for d in domains:
                if not 0 <= d < order:
                    raise ValueError(f"domain id {d} out of range for {order} domains")
            if self.kind == "galois_pp" and len(self.adversary_domains) != 1:
                raise ValueError("skewed prime-probe uses one adversary domain")
            if self.kind == "collusion" and len(self.adversary_domains) != 2:
                raise ValueError("collusion needs exactly two adversary domains")
            limit = order
        if not 0 <= self.victim_target_set < limit:
            raise ValueError(f"victim_target_set {self.victim_target_set} out of range")
        if self.adversary_prime_set is not None and not (
            0 <= self.adversary_prime_set < limit
        ):
            raise ValueError("adversary_prime_set out of range")
        if self.squeezer_skip_set is not None and not (
            0 <= self.squeezer_skip_set < limit
        ):
            raise ValueError("squeezer_skip_set out of range")


@dataclass
class DetectionReport:
    kind: str
    trials: int
    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int
    detection_rate: float
    ci_low: float
    ci_high: float
    detection_definition: str
    way_miss_counts: Optional[list[int]] = None
    per_set_confusion: Optional[list[list[int]]] = None
    domain_stats: dict = dc_field(default_factory=dict)
    trial_rows: Optional[list[dict]] = None

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "trials": self.trials,
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "true_negatives": self.true_negatives,
            "detection_rate": self.detection_rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "detection_definition": self.detection_definition,
            "domain_stats": {str(d): row for d, row in self.domain_stats.items()},
        }
        if self.way_miss_counts is not None:
            out["way_miss_counts"] = self.way_miss_counts
        if self.per_set_confusion is not None:
            out["per_set_confusion"] = self.per_set_confusion
        return out


def _trial_active(rng: random.Random, probability: float) -> bool:
    # the coin is only drawn for fractional probabilities, so p=1.0 and
    # p=0.0 runs consume the identical random stream as each other
    if probability >= 1.0:
        return True
    if probability <= 0.0:
        return False
    return rng.random() < probability


_MT_INIT = tuple(accumulate(range(1, 624), lambda x, i: (1812433253 * (x ^ x >> 30) + i)
                            & 0xFFFFFFFF, initial=19650218))  # init_genrand(19650218)


def _seeded_draws(seed: int, count: int, coin: bool):
    """Trials ``seed`` to ``seed + count - 1``: ``Random(s).random()`` of
    each (None without ``coin``) and its next ``_MEMO_DEPTH`` ``getrandbits(64)``,
    a (count, depth) uint64 array.  Seeds are below 2**19968, keys of at
    most 624 words (``AttackScenario``).

    ``Random.seed``'s MT19937 ``init_by_array`` (Matsumoto and Nishimura,
    1998) in a uint32 lane a trial, five in-place ufunc calls a step.  Step
    k of its first loop adds key word k % L, and k % L, of an L-word key.
    A block is split at each multiple of 2**32, so its seeds share every
    word but the low one, and a step adds the lane's low word or one
    constant.  Step i of its second loop reads word i as the first loop
    left it, so the first loop runs again beside it: a lane holds a few
    words, never 624."""
    cut = (seed >> 32) + 1 << 32  # the next multiple of 2**32
    if seed + count > cut:
        coins, draws = zip(_seeded_draws(seed, cut - seed, coin),
                           _seeded_draws(cut, seed + count - cut, coin))
        return np.concatenate(coins) if coin else None, np.concatenate(draws)
    size = max(1, -(-seed.bit_length() // 32))  # the key's words
    lanes = np.arange(seed & 0xFFFFFFFF, (seed & 0xFFFFFFFF) + count, dtype=np.uint32)
    key = [lanes if k % size == 0 else (seed >> 32 * (k % size)) + k % size & 0xFFFFFFFF
           for k in range(624)]  # what step k of the first loop adds
    words = 2 * _MEMO_DEPTH + 2 * coin  # random() takes two, each 64-bit draw two
    f, t, s, u, first = (np.empty(count, np.uint32) for _ in range(5))
    low, high = np.empty((words + 1, count), np.uint32), np.empty((words, count), np.uint32)

    def step(x, out, mult, mix, plus):  # out = (mix ^ (x ^ x >> 30) * mult) + plus
        np.right_shift(x, 30, out)
        np.bitwise_xor(out, x, out)
        np.multiply(out, mult, out)
        np.bitwise_xor(out, mix, out)
        np.add(out, plus, out)

    f.fill(_MT_INIT[0])
    for i in range(1, 624):  # the first loop
        step(f, t, 1664525, _MT_INIT[i], key[i - 1])
        f, t = t, f
        if i == 1:
            first[:] = f
    step(f, s, 1664525, first, key[623])  # its last step: i = 1 again, after mt[0] = mt[623]
    f, first = first, s.copy()
    for i in range(2, 624):  # the second loop, beside the first again
        step(f, t, 1664525, _MT_INIT[i], key[i - 1])
        f, t = t, f
        step(s, u, 1566083941, f, -i & 0xFFFFFFFF)
        s, u = u, s
        if i <= words or 397 <= i < 397 + words:
            (low[i] if i <= words else high[i - 397])[:] = s
    step(s, low[1], 1566083941, first, 0xFFFFFFFF)  # its last step, likewise
    low[0] = 0x80000000  # then the first twist's words 0 to words - 1, tempered in
    for upper, lower, w in zip(low, low[1:], high):  # place, with a row's temporaries
        y = upper & 0x80000000 | lower & 0x7FFFFFFF
        w ^= y >> 1 ^ (y & 1) * 0x9908B0DF
        w ^= w >> 11
        w ^= w << 7 & 0x9D2C5680
        w ^= w << 15 & 0xEFC60000
        w ^= w >> 18
    coins = ((high[0] >> 5) * 67108864.0 + (high[1] >> 6)) / 9007199254740992.0 if coin else None
    draws = np.left_shift(high[2 * coin + 1::2].T, 32, dtype=np.uint64, order="C")
    draws |= high[2 * coin::2].T  # a 64-bit draw takes its low word first
    return coins, draws


def _prefix_snapshot(sc: AttackScenario, prefix):
    """The state ``prefix`` leaves on a new cache, for every trial to
    restore; a prefix that draws a random number is refused."""
    scratch = build_cache(sc.cache, sc.seed)
    before = scratch.rng.getstate()
    prefix(scratch)
    if scratch.rng.getstate() != before:
        raise RuntimeError("the trial prefix drew a random number")
    return scratch.snapshot()


def _add_stats(total: dict, part: dict, times: int = 1) -> None:
    """Add ``times`` times each domain's stats row of ``part`` into
    ``total``, adding rows ``total`` lacks."""
    for d, row in part.items():
        into = total.setdefault(d, dict.fromkeys(row, 0))
        for key, value in row.items():
            into[key] += times * value


def _play_trials(sc: AttackScenario, cache, snapshot, protocol, memo, first: int, stop: int):
    """Trials ``first`` to ``stop``, a block, on ``cache``: each trial's
    outcome id into the table of outcomes, which comes next, and the
    block's domain stats.  ``memo`` is the shard's, kept across blocks.

    A trial draws its coin, walks its value's tree (module docstring) one
    ``getrandbits(64) % ways`` a node and takes the leaf it reaches, whose
    stats delta the block adds once per reuse.  From its first trial that
    draws a coin or walks, a block takes its coins and residues from
    ``_seeded_draws``.  Off the tree, a trial reseeds, draws its coin again
    and plays with its draws recorded, and adds their path unless the
    stream moved by more, the path is past ``_MEMO_DEPTH`` or the shard
    holds ways² leaves: then the value is played from then on.
    """
    p = sc.victim_access_probability
    coin_draws = 0.0 < p < 1.0
    ways = sc.cache.num_ways
    # trees: activity -> its tree, a leaf [outcome id, stats delta, reuses
    # in this block], a dict from draw % ways to subtrees, or None once the
    # value is played; outcomes: (active, detected, correct, value) -> id
    trees, leaves, outcomes = memo
    ids, opening = [], cache.stats()
    # from trial start on, from numpy: activities, and a list of _MEMO_DEPTH residues a trial
    start = None
    for trial in range(first, stop):
        if start is None and (coin_draws or type(trees.get(p >= 1.0)) is dict):
            start = trial  # the first trial that draws a coin or walks
            coins, draws = _seeded_draws(sc.seed + trial, stop - trial, coin_draws)
            actives = (coins < p).tolist() if coin_draws else [p >= 1.0] * len(draws)
            stream = np.remainder(draws, ways, out=draws).tolist()
        if start is None:
            node = trees.get(p >= 1.0, ())
        else:
            node, residues = trees.get(actives[trial - start], ()), iter(stream[trial - start])
            while type(node) is dict:
                node = node.get(next(residues), ())
        if type(node) is list:
            node[2] += 1
            ids.append(node[0])
            continue
        cache.reseed(sc.seed + trial)  # to be played: the stream just past the coin
        active = _trial_active(cache.rng, p)
        if node is not None:  # a new path: play it with its draws recorded
            before, drawn, real = cache.stats(), [], cache.rng.getrandbits

            def record(k):
                bits = real(k)
                drawn.append(bits % ways if k == 64 else -1)
                return bits

            cache.rng.getrandbits = record
        cache.restore(snapshot)
        outcome = (active, *protocol(cache, active))
        if node is not None:
            del cache.rng.getrandbits
            ref = random.Random(sc.seed + trial)
            _trial_active(ref, p)
            ref.getrandbits(64 * len(drawn))  # as far as len(drawn) 64-bit draws
            if (-1 in drawn or len(drawn) > _MEMO_DEPTH or len(leaves) >= ways * ways
                    or ref.getstate() != cache.rng.getstate()):
                trees[active] = None
            else:
                delta = cache.stats()
                _add_stats(delta, before, -1)
                leaves.append([outcomes.setdefault(outcome, len(outcomes)), delta, 0])
                tree, key = trees, active
                for residue in drawn:
                    tree, key = tree.setdefault(key, {}), residue
                tree[key] = leaves[-1]
        ids.append(outcomes.setdefault(outcome, len(outcomes)))
    stats = cache.stats()
    _add_stats(stats, opening, -1)
    for leaf in leaves:
        _add_stats(stats, leaf[1], leaf[2])
        leaf[2] = 0  # the next block counts its own reuses
    return ids, list(outcomes), stats


def _tally(counts: list, rows: Optional[list], first: int, ids, table, value_key):
    """Add a block's trials from ``first`` on, outcome ids into ``table``,
    to ``counts``: to exactly one of tp, fp, fn, tn each, and to its
    value's count unless -1; and to ``rows``, if recorded."""
    for (active, detected, correct, value), n in zip(
            table, np.bincount(ids, minlength=len(table)).tolist()):
        counts[0 if active and correct else 1 if detected else 2 if active else 3] += n
        if value >= 0:
            counts[4 + value] += n
    if rows is not None:
        shapes = [{"active": a, "detected": d, **({} if value_key is None else {value_key: v})}
                  for a, d, _, v in table]
        rows += [{"trial": trial, **shapes[k]} for trial, k in enumerate(ids, first)]


def _run_trials(sc: AttackScenario, protocol, definition: str, prefix,
                value_key: Optional[str] = None,
                batch=None) -> tuple[DetectionReport, list[int]]:
    """Run the scenario's trials of one protocol; returns the report and
    the count of each value the protocol returned.

    ``prefix(cache)`` plays the trial's first steps once, on a scratch
    cache; every trial restores the state it left (module docstring).
    ``protocol(cache, active)`` then plays the rest and returns
    ``(detected, correct, value)``: ``correct`` says the inference names
    the victim's set (it equals ``detected`` for the prime-probe kinds),
    and ``value`` is an index below the cache's set count, or -1 when
    nothing fired.  ``_tally`` counts the outcomes; the trial row keeps
    the value under ``value_key``, if given.

    A protocol must be steered by nothing but the cache (its cells, LRU
    stamps and clock, and random stream) and ``active``: no state of its
    own, no trial index, no outside input.  It may draw only through the
    cache, whose draws are each ``getrandbits(64) % ways`` (in
    ``_access_line``, ``_play_group`` and ``play``).  Every trial
    starts from the same restored snapshot, so trials with the same
    ``active`` and draw residues have the same outcome and stats delta,
    and ``_play_trials`` plays each such path once per shard.

    ``batch(cache, snapshot)``, if given, is asked once per run for a
    player of blocks, ``play(first, stop)`` with ``_play_trials``'
    results; where it returns None, or its player returns None for a
    block, the block takes ``_play_trials``.  A shard's memory is one
    block's, but for the trial rows when recorded.
    """
    cache = build_cache(sc.cache, sc.seed)
    snapshot = _prefix_snapshot(sc, prefix)
    lockstep = (batch and batch(cache, snapshot)) or (lambda first, stop: None)

    def play(first: int, stop: int):
        counts, rows, stats = [0] * (4 + sc.cache.num_sets), [] if sc.record_trials else None, {}
        memo = ({}, [], {})  # _play_trials' trees, leaves and outcome ids, for the shard
        for start in range(first, stop, _TRIAL_BLOCK):
            end = min(start + _TRIAL_BLOCK, stop)
            ids, table, part = lockstep(start, end) or _play_trials(
                sc, cache, snapshot, protocol, memo, start, end)
            _tally(counts, rows, start, ids, table, value_key)
            _add_stats(stats, part)
        return counts, rows, stats

    (counts, rows, stats), *others = _run_shards(sc.trials, play, MIN_SHARD_TRIALS)
    for part_counts, part_rows, part_stats in others:
        counts = [a + b for a, b in zip(counts, part_counts)]
        if rows is not None:
            rows.extend(part_rows)
        _add_stats(stats, part_stats)
    tp, fp, fn, tn, *values = counts
    lo, hi = wilson_interval(tp + fp, sc.trials)
    report = DetectionReport(
        kind=sc.kind,
        trials=sc.trials,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        true_negatives=tn,
        detection_rate=(tp + fp) / sc.trials if sc.trials else 0.0,
        ci_low=lo,
        ci_high=hi,
        detection_definition=definition,
        domain_stats=dict(sorted(stats.items())),
        trial_rows=rows,
    )
    return report, values


def fill_domain_set(cache, domain: int, addrs, max_rounds: int = 4096) -> int:
    """Access the given same-set addresses until all are resident.

    Under random replacement a fill can evict a line of its own group,
    so after the initial pass the lines are re-probed in order until one
    complete pass hits everywhere; a miss refills and may disturb the
    rest of the group, so the pass restarts there rather than probing
    on.  The cache plays the group (``fill_group``) through its
    row-local kernel when it can, with the same outcome as probing line
    by line.
    Returns the number of probe passes used; the cap only guards against
    a broken cache model, since the loop terminates with probability one.
    """
    return cache.fill_group(domain, addrs, max_rounds)


def run_baseline_prime_probe(sc: AttackScenario) -> DetectionReport:
    """Classic prime-probe against one set of a conventional cache."""
    if sc.kind != "baseline_pp":
        raise ValueError(f"scenario kind {sc.kind!r} is not baseline_pp")
    cfg = sc.cache
    adv = sc.adversary_domains[0]
    primed_set = (
        sc.adversary_prime_set if sc.adversary_prime_set is not None else sc.victim_target_set
    )
    prime_addrs = [compose_address(cfg, primed_set, tag) for tag in range(cfg.num_ways)]
    victim_addr = compose_address(cfg, sc.victim_target_set, _TARGET_TAG)

    def prime(cache):
        for a in prime_addrs:
            cache.access(adv, a)

    def trial(cache, active):
        if active:
            cache.access(sc.victim_domain, victim_addr)
        detected = any(not ob.hit for ob in cache.observe_probe(adv, prime_addrs))
        return detected, detected, -1

    report, _ = _run_trials(sc, trial, "at least one miss while re-accessing the primed set",
                            prime)
    return report


def run_galois_prime_probe(sc: AttackScenario) -> DetectionReport:
    """Prime-probe against the skewed cache (protocol in the module docstring).

    The victim first touches the other ways of its target set: that is
    the ordinary warm-cache state, and without it the victim's fill
    would land in an empty way and never contend.
    """
    if sc.kind != "galois_pp":
        raise ValueError(f"scenario kind {sc.kind!r} is not galois_pp")
    cfg = sc.cache
    m = cfg.skew.field.order
    adv = sc.adversary_domains[0]
    vic = sc.victim_domain
    primed_set = sc.adversary_prime_set if sc.adversary_prime_set is not None else 0
    # a tuple, so the cache's group memo keys on it without a copy
    prime_addrs = tuple(compose_address(cfg, primed_set, tag) for tag in range(m))
    warm_addrs = [
        compose_address(cfg, sc.victim_target_set, _WARM_TAG_BASE + i)
        for i in range(m - 1)
    ]
    target_addr = compose_address(cfg, sc.victim_target_set, _TARGET_TAG)

    def prime_and_warm(cache):
        for a in prime_addrs:
            cache.access(adv, a)
        for a in warm_addrs:
            cache.access(vic, a)

    def trial(cache, active):
        if active:
            cache.access(vic, target_addr)
        hits = cache.probe_group(adv, prime_addrs, stop_at_miss=True)
        detected = not hits[-1]
        return detected, detected, len(hits) - 1 if detected else -1

    report, missed = _run_trials(
        sc, trial,
        "at least one miss while re-accessing the primed set "
        "(probe stops at the first miss)",
        prime_and_warm, "missed_way",
    )
    report.way_miss_counts = missed
    return report


def run_collusion_attack(sc: AttackScenario) -> DetectionReport:
    """Two colluding domains, adversary_domains = (prober, squeezer),
    localize a single victim access (protocol in the module docstring).

    A prober set missing in every way lost its survivor, whose cell lies
    on exactly one victim set; that set is reported as the inference.
    """
    if sc.kind != "collusion":
        raise ValueError(f"scenario kind {sc.kind!r} is not collusion")
    cfg = sc.cache
    sp = cfg.skew
    m = sp.field.order
    prober, squeezer = sc.adversary_domains
    vic = sc.victim_domain
    skip_set = sc.squeezer_skip_set if sc.squeezer_skip_set is not None else m - 1
    prime_addrs = [
        [compose_address(cfg, s, tag) for tag in range(m)] for s in range(m)
    ]
    squeeze_addrs = [
        [compose_address(cfg, s, _WARM_TAG_BASE + tag) for tag in range(m)]
        for s in range(m) if s != skip_set
    ]
    target_addr = compose_address(cfg, sc.victim_target_set, _TARGET_TAG)
    # Where each prober set's survivor sits (its crossing with the
    # squeezer's untouched set), and which victim set runs through that
    # cell; both follow from the public layout.
    survivor_way = [
        solve_intersection_way(sp, prober, squeezer, s, skip_set) for s in range(m)
    ]
    # the probe: every prober set in turn, survivor way first
    probe_addrs = tuple(
        a for s in range(m)
        for a in (prime_addrs[s][survivor_way[s]],
                  *(prime_addrs[s][w] for w in range(m) if w != survivor_way[s])))
    inferred_for = [
        set_through_cell(sp, vic, permute(sp, prober, s, survivor_way[s]), survivor_way[s])
        for s in range(m)
    ]

    def prime(cache):
        access = cache.access
        for group in prime_addrs:
            for a in group:
                access(prober, a)

    def trial(cache, active):
        for group in squeeze_addrs:
            fill_domain_set(cache, squeezer, group)
        if active:
            cache.access(vic, target_addr)
        hits = cache.probe_group(prober, probe_addrs)
        fired_set = next(
            (s for s in range(m) if not any(hits[s * m:(s + 1) * m])), -1)
        if fired_set < 0:
            return False, False, -1
        inferred = inferred_for[fired_set]
        return True, inferred == sc.victim_target_set, inferred

    def lockstep(cache, snapshot):
        return _collusion_lockstep(sc, cache, snapshot, squeeze_addrs, target_addr,
                                   probe_addrs, inferred_for)

    report, inferred_counts = _run_trials(
        sc, trial,
        "some prober set misses in every way and its surviving cell maps to "
        "the true victim set",
        prime, "inferred_set", lockstep,
    )
    # the victim only ever targets its one set, so only that row fills
    report.per_set_confusion = [
        inferred_counts if s == sc.victim_target_set else [0] * m for s in range(m)]
    return report


#: The fewest trials a block plays on collusion's lockstep engine.  A
#: batch of it costs about 20 us a numpy step, whatever its size, and
#: both its steps and a scalar trial's draws grow as m^2, so the trial
#: count where the two engines draw even hardly moves with m.  One shard
#: in one process on a 2-core x86-64 VM broke even between 35 (GF(16))
#: and 60 (GF(32)) trials, near 50 at GF(4), GF(8) and GF(61): GF(61)
#: took 727 against 405 ms at 30 trials, 867 against 1,133 ms at 90.
MIN_LOCKSTEP_TRIALS = 50
#: a lockstep trial's first draw budget, in units of ways² draws; a
#: trial that runs out of draws is played again with twice the budget
_LOCKSTEP_BUDGET = 5
#: draws a lockstep batch of a block's trials holds, one byte each (4 MiB)
_LOCKSTEP_BLOCK = 1 << 22
_STAT_KEYS = ("hits", "misses", "evictions_caused", "self_evictions")


def _collusion_lockstep(sc: AttackScenario, cache, snapshot, squeeze_addrs, target_addr,
                        probe_addrs, inferred_for):
    """A player of blocks of collusion trials, a batch of trials in
    lockstep, with ``_play_trials``' results; None where the run does not
    fit it.  The player returns None for a block of fewer than
    ``MIN_LOCKSTEP_TRIALS`` trials.  The scalar loop stays its oracle.

    Trial t draws its coin from its own ``Random(seed + t)``, then its
    whole budget of K draws in one ``getrandbits(64 * K)``, whose 64-bit
    words, low first, are the cache's K ``getrandbits(64)`` values; what
    a trial leaves undrawn is never read.  Each numpy step of the squeeze
    plays one draw of every trial still squeezing, in ``_play_group``'s
    order, from its group, first-pass index, gone mask and the group line
    in each way of its row.  A group ends with its m lines in its row's m
    cells, so every squeeze leaves the same cell owners; the victim's
    access and the probe then play as ``_access_line`` does, on line
    codes, one per (domain, block).

    It needs the prefix to leave a full cache with no squeezer or victim
    line, squeeze groups of one row of m <= 62 distinct lines (the gone
    mask is an int64), and groups the kernel plays (``_group``'s test).
    The cache guarantees that no two rows of a domain share a cell, so
    on the full cache every miss draws, and a squeeze group starts with
    none of its lines and alone writes its row.
    """
    prober, squeezer = sc.adversary_domains
    m, p = cache.cfg.num_ways, sc.victim_access_probability
    squeeze = [cache._group(squeezer, addrs) for addrs in squeeze_addrs]
    probe = cache._group(prober, probe_addrs)
    target = cache._group(sc.victim_domain, (target_addr,))
    owners = {d for _, (d, _) in snapshot.lines}
    if (len(snapshot.lines) < snapshot.size or m > 62 or not probe.kernel
            or not target.kernel or squeezer in owners or sc.victim_domain in owners
            or any(not g.kernel or len(g.rows) > 1 or len(g.keys) != m for g in squeeze)):
        return None
    keys = list(dict.fromkeys([*(line for _, line in snapshot.lines), *probe.keys,
                               *target.keys, (squeezer, None)]))  # the last: any squeezer line
    code = {key: c for c, key in enumerate(keys)}
    dom = np.array([d for d, _ in keys])
    after = np.empty(snapshot.size, np.int16)  # the cells every squeeze leaves
    for idx, line in snapshot.lines:
        after[idx] = code[line]
    groups = len(squeeze)
    after[[g.rows[0] for g in squeeze]] = code[squeezer, None]
    bit = np.array([1 << j for j in range(m)] + [0], np.int64)  # bit[-1]: no group line
    full = (1 << m) - 1
    probe_rows, probe_codes = np.array(probe.cands), [code[k] for k in probe.keys]
    target_row, target_code = np.array(target.cands[0]), code[target.keys[0]]
    inferred = [*inferred_for, -1]  # outcome id active * (m + 1) + fired + 1, fired -1: none
    outcomes = [(a, f >= 0, inferred[f] == sc.victim_target_set, inferred[f])
                for a in (False, True) for f in range(-1, m)]

    def batch(trials: list, budget: int):
        """Per trial: outcome id; columns of squeeze hits and misses, victim
        and probe self-evictions and probe hits; whether the budget ran out."""
        count = len(trials)
        # the victim and the probe draw at most once a line past the budget
        draws = np.zeros((budget + 1 + len(probe_codes), count), np.uint8)
        active = np.empty(count, bool)
        rng = random.Random()
        for k, trial in enumerate(trials):
            rng.seed(sc.seed + trial)
            active[k] = _trial_active(rng, p)
            words = rng.getrandbits(64 * budget).to_bytes(8 * budget, "little")
            draws[:budget, k] = np.frombuffer(words, "<u8") % m
        cols = np.zeros((5, count), np.int64)
        ptr = np.zeros(count, np.intp)
        short = np.ones(count, bool)
        live, g, i = np.arange(count), np.zeros(count, np.intp), np.zeros(count, np.intp)
        gone, lines = np.full(count, full), np.zeros(count, np.int64)
        holder = np.full(count * m, -1)  # per trial, the group line in each way (-1: none)
        at = np.arange(0, count * m, m)
        for step in range(budget):
            if not live.size:
                break
            first = i < m  # the first pass plays line i, a later one its lowest gone line
            j = np.where(first, i, np.frexp(gone & -gone)[1] - 1)
            way = at + draws[step].take(live)
            lost = holder.take(way)
            holder.put(way, j)
            gone = (gone | bit.take(lost)) & ~bit.take(j)
            i += first
            lines += j
            done = gone == 0  # a pass that hits everywhere ends the group
            if done.any():
                g += done
                i[done], gone[done] = 0, full
                holder.reshape(-1, m)[done] = -1
                out = g == groups
                if out.any():
                    ended, keep = live[out], ~out
                    ptr[ended], short[ended], cols[0, ended] = step + 1, False, lines[out]
                    live, g, i, gone, lines = (a[keep] for a in (live, g, i, gone, lines))
                    holder, at = holder.reshape(-1, m)[keep].ravel(), at[:live.size]
        # a later pass hits the lines below the one it refills, and the
        # last pass of a group all m; the first passes played lines 0 to m-1
        cols[0] += groups * (m - m * (m - 1) // 2)
        cols[1] = ptr
        cells, at = np.tile(after, count), np.arange(0, count * after.size, after.size)
        draws = draws.ravel()

        def miss(who, row, line: int, col: int, owned):
            # each trial of ``who`` misses into its full row: draw, evict, count
            q = ptr[who]
            ptr[who] = q + 1
            cell = at[who] + row.take(draws.take(q * count + who))
            cols[col, who] += owned.take(cells.take(cell))
            cells.put(cell, line)

        miss(np.flatnonzero(active), target_row, target_code, 2, dom == sc.victim_domain)
        probed, grid = np.empty((count, len(probe_codes)), bool), cells.reshape(count, -1)
        for k, (row, line) in enumerate(zip(probe_rows, probe_codes)):
            probed[:, k] = (grid[:, row] == line).any(1)
            miss(np.flatnonzero(~probed[:, k]), row, line, 3, dom == prober)
        short |= ptr > budget  # a draw past the budget read the zero padding
        cols[4] = probed.sum(1)
        fired = ~probed.reshape(count, m, m).any(2)  # set s is lines s*m to s*m + m - 1
        return active * (m + 1) + np.where(fired.any(1), fired.argmax(1) + 1, 0), cols, short

    def play(first: int, stop: int):
        count = stop - first
        if count < MIN_LOCKSTEP_TRIALS:
            return None
        ids, sums = np.empty(count, np.intp), np.zeros(5, np.int64)  # sums: of finished trials
        todo, budget = np.arange(count), _LOCKSTEP_BUDGET * m * m
        while todo.size:
            per, again = max(1, _LOCKSTEP_BLOCK // budget), []
            for start in range(0, todo.size, per):
                part = todo[start:start + per]
                got, cols, short = batch((first + part).tolist(), budget)
                ids[part[~short]] = got[~short]
                sums += cols[:, ~short].sum(1)
                again.append(part[short])
            todo, budget = np.concatenate(again), 2 * budget
        sq_hits, sq_misses, vic_self, probe_self, probe_hits = sums.tolist()
        accesses, probe_misses = int((ids > m).sum()), count * len(probe_codes) - probe_hits
        sq_other = count * groups * m  # a group evicts its row's m other lines once each
        stats: dict = {}
        for d, row, times in (
                *((d, row, count) for d, row in snapshot.stats.items()),
                (squeezer, (sq_hits, sq_misses, sq_other, sq_misses - sq_other), 1),
                (sc.victim_domain, (0, accesses, accesses - vic_self, vic_self), 1),
                (prober, (probe_hits, probe_misses, probe_misses - probe_self, probe_self), 1)):
            if row[0] + row[1]:  # a domain has a stats row once it made an access
                _add_stats(stats, {d: dict(zip(_STAT_KEYS, row))}, times)
        return ids, outcomes, stats

    return play


_RUNNERS = {
    "baseline_pp": run_baseline_prime_probe,
    "galois_pp": run_galois_prime_probe,
    "collusion": run_collusion_attack,
}


def run_scenario(sc: AttackScenario) -> DetectionReport:
    return _RUNNERS[sc.kind](sc)


def default_scenario(
    kind: str,
    cache: CacheConfig,
    trials: int,
    seed: int = 0,
    victim_access_probability: float = 1.0,
    victim_target_set: int = 0,
) -> AttackScenario:
    """Scenario with the conventional domain casting: victim 2, prober 1,
    squeezer 0."""
    adversaries = (1, 0) if kind == "collusion" else (1,)
    return AttackScenario(
        kind=kind,
        cache=cache,
        victim_domain=2,
        adversary_domains=adversaries,
        victim_target_set=victim_target_set,
        trials=trials,
        seed=seed,
        victim_access_probability=victim_access_probability,
    )


def sweep_detection_vs_field(
    kind: str,
    n_range,
    trials: int,
    seed: int = 0,
    victim_access_probability: float = 1.0,
) -> list[dict]:
    """One detection-rate row per GF(2^n) field; empty when trials == 0.

    An empty ``n_range`` is rejected, so a reversed range cannot pass
    for a successful sweep, and every field and scenario of the range is
    built before any trial runs, so a degree without a default modulus
    or a bad scenario value fails at once.
    """
    from .cache import galois_config
    from .field import FieldSpec
    from .skew import SkewParams

    if kind not in ("galois_pp", "collusion"):
        raise ValueError(f"sweep supports galois_pp or collusion, got {kind!r}")
    if not n_range:
        raise ValueError(f"empty sweep range {n_range!r}: n_min exceeds n_max")
    scenarios = [
        default_scenario(kind, galois_config(SkewParams(FieldSpec.binary(n))), trials,
                         seed, victim_access_probability)
        for n in n_range
    ]
    rows: list[dict] = []
    if trials == 0:
        return rows
    for n, sc in zip(n_range, scenarios):
        order = sc.cache.skew.field.order
        report = run_scenario(sc)
        rows.append(
            {
                "n": n,
                "order": order,
                "theoretical_rate": victim_access_probability / order,
                "detection_rate": report.detection_rate,
                "ci_low": report.ci_low,
                "ci_high": report.ci_high,
                "trials": trials,
            }
        )
    return rows
