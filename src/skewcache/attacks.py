"""Seeded Monte Carlo contention experiments against the cache models.

One trial driver, ``_run_trials``, runs every experiment.  It holds the
skeleton the three kinds share: build the cache; then per trial reseed
it with base seed + trial index, draw the victim's activity coin
(``victim_access_probability``, so false positives are measurable),
restore the state the kind's prefix leaves on an empty cache, play the
kind's protocol, tally the outcome into exactly one of tp/fp/fn/tn and
count the value it returns (galois-pp's missed way, collusion's
inferred set), and keep the optional trial row; finally build the
report.

The driver plays the trials in contiguous shards, in forked children
on the process's CPUs, at least ``MIN_SHARD_TRIALS`` trials a shard;
the ``shards`` module describes the runner and why the merge is exact.

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
its draws, each ``getrandbits(64) % ways``.  Each shard keeps, per
activity value, a tree keyed by those residues, whose leaves hold an
outcome, a stats delta and a reuse count.  A shard of ``MIN_STREAM_TRIALS``
or more takes its coins and first draws, bit for bit, from numpy
(``_seeded_draws``).  Baseline prime-probe under LRU draws in no trial (a
leaf at the root), galois-pp once or twice when the victim is active (its
fill, and the refill of its probe's miss, evict at random: at most 2m - 1
paths), collusion 150 or more times (its squeeze), past the depth cap.

So collusion's trials are not played one by one through the cache.
Its runner hands the trial driver a batch player, ``_collusion_lockstep``,
which plays a shard's trials together in blocks: one numpy step per
draw for all the block's trials, each trial's draws taken from its own
``Random(seed + trial)`` in one ``getrandbits`` call.  Its reports and
trial rows are byte for byte those of the scalar loop, which stays its
oracle and plays any run the engine does not fit, and any shard of
fewer than ``MIN_LOCKSTEP_TRIALS`` trials, which it plays faster.

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

#: The fewest trials a shard seeds in numpy (``_seeded_draws``, 9.4k ufunc
#: calls at any size): on a 2-core x86-64 VM, it drew even with 8-12 us
#: reseeds near 1,000-1,100 trials, alone or two shards at once.
MIN_STREAM_TRIALS = 1500


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
    a (count, depth) uint64 array; None for a block reaching 2**32 (two words).

    ``Random.seed``'s MT19937 ``init_by_array`` (Matsumoto and Nishimura,
    1998) in a uint32 lane a trial, five in-place ufunc calls a step.  Step
    i of its second loop reads word i as the first loop left it, so the first
    loop runs again beside it: a lane holds a few words, never 624."""
    if seed + count > 1 << 32:
        return None
    words = 2 * _MEMO_DEPTH + 2 * coin  # random() takes two, each 64-bit draw two
    key = np.arange(seed, seed + count, dtype=np.uint32)
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
        step(f, t, 1664525, _MT_INIT[i], key)
        f, t = t, f
        if i == 1:
            first[:] = f
    step(f, s, 1664525, first, key)  # its last step: i = 1 again, after mt[0] = mt[623]
    f, first = first, s.copy()
    for i in range(2, 624):  # the second loop, beside the first again
        step(f, t, 1664525, _MT_INIT[i], key)
        f, t = t, f
        step(s, u, 1566083941, f, -i & 0xFFFFFFFF)
        s, u = u, s
        if i <= words or 397 <= i < 397 + words:
            (low[i] if i <= words else high[i - 397])[:] = s
    step(s, low[1], 1566083941, first, 0xFFFFFFFF)  # its last step, likewise
    low[0] = 0x80000000  # then the first twist's words 0 to words - 1, tempered
    y = low[:-1] & 0x80000000 | low[1:] & 0x7FFFFFFF
    w = high ^ y >> 1 ^ (y & 1) * 0x9908B0DF
    w ^= w >> 11
    w ^= w << 7 & 0x9D2C5680
    w ^= w << 15 & 0xEFC60000
    w ^= w >> 18
    coins = ((w[0] >> 5) * 67108864.0 + (w[1] >> 6)) / 9007199254740992.0 if coin else None
    w = w[2 * coin:].astype(np.uint64)
    return coins, (w[0::2] | w[1::2] << 32).T  # a 64-bit draw takes its low word first


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


def _play_trials(sc: AttackScenario, cache, snapshot, protocol, value_key: Optional[str],
                 first: int, stop: int):
    """Trials ``first`` to ``stop`` of one shard, on ``cache``: returns
    the counts (tp, fp, fn, tn, then the count of each value), the trial
    rows (None unless recorded) and the domain stats.

    A trial draws its coin, walks its value's tree (module docstring) one
    ``getrandbits(64) % ways`` a node and counts the leaf it reaches; a
    leaf's stats delta is added once per reuse at the end.  Off the tree,
    it reseeds and plays with its draws recorded, and adds their path
    unless the stream moved by more, the path is past ``_MEMO_DEPTH`` or
    the shard holds ways² leaves: then the value is played from then on.
    From its first trial that would reseed to walk, a shard of enough
    trials takes coins and draws from ``_seeded_draws`` and reseeds to play.
    """
    p = sc.victim_access_probability
    coin_draws = 0.0 < p < 1.0
    ways = sc.cache.num_ways
    counts = [0] * (4 + sc.cache.num_sets)
    rows = [] if sc.record_trials else None
    # activity -> its tree: a leaf [outcome, stats delta, reuses], a dict
    # from draw % ways to subtrees, or None once the value is played
    memo: dict = {}
    leaves: list[list] = []
    # from trial start on, as numpy drew them: the activities, and one
    # flat list of residues, _MEMO_DEPTH a trial
    start = actives = stream = None
    for trial in range(first, stop):
        if start is None and (coin_draws or type(memo.get(p >= 1.0)) is dict):
            start = trial  # the first trial that would reseed to walk
            streams = (_seeded_draws(sc.seed + trial, stop - trial, coin_draws)
                       if stop - trial >= MIN_STREAM_TRIALS else None)
            if streams is not None:
                coins, draws = streams
                actives = (coins < p).tolist() if coin_draws else [p >= 1.0] * len(draws)
                stream = (draws % ways).ravel().tolist()
        if actives is not None:  # seeded: the cache's stream is just past the coin
            k = trial - start
            active, seeded = actives[k], False
            residues = iter(stream[k * _MEMO_DEPTH:(k + 1) * _MEMO_DEPTH])
        else:
            if coin_draws:
                cache.reseed(sc.seed + trial)
            active, residues, seeded = _trial_active(cache.rng, p), None, coin_draws
        node = memo.get(active, ())
        if type(node) is dict:
            if residues is None:
                if not seeded:
                    cache.reseed(sc.seed + trial)
                residues = (cache.rng.getrandbits(64) % ways for _ in range(_MEMO_DEPTH))
            while type(node) is dict:
                node = node.get(next(residues), ())
            seeded = False
        if type(node) is not list and not seeded:  # to be played: rewind to past the coin
            cache.reseed(sc.seed + trial)
            _trial_active(cache.rng, p)
        if type(node) is list:
            node[2] += 1
            detected, correct, value = node[0]
        elif node is None:
            cache.restore(snapshot)
            detected, correct, value = protocol(cache, active)
        else:  # a new path: play it with its draws recorded
            before, drawn, real = cache.stats(), [], cache.rng.getrandbits

            def record(k):
                bits = real(k)
                drawn.append(bits % ways if k == 64 else -1)
                return bits

            cache.rng.getrandbits = record
            cache.restore(snapshot)
            detected, correct, value = protocol(cache, active)
            del cache.rng.getrandbits
            ref = random.Random(sc.seed + trial)
            _trial_active(ref, p)
            ref.getrandbits(64 * len(drawn))  # as far as len(drawn) 64-bit draws
            if (-1 in drawn or len(drawn) > _MEMO_DEPTH or len(leaves) >= ways * ways
                    or ref.getstate() != cache.rng.getstate()):
                memo[active] = None
            else:
                delta = cache.stats()
                _add_stats(delta, before, -1)
                leaves.append([(detected, correct, value), delta, 0])
                tree, key = memo, active
                for residue in drawn:
                    tree, key = tree.setdefault(key, {}), residue
                tree[key] = leaves[-1]
        if active and correct:
            counts[0] += 1
        elif detected:
            counts[1] += 1
        elif active:
            counts[2] += 1
        else:
            counts[3] += 1
        if value >= 0:
            counts[4 + value] += 1
        if rows is not None:
            row = {"trial": trial, "active": active, "detected": detected}
            if value_key is not None:
                row[value_key] = value
            rows.append(row)
    stats = cache.stats()
    for _, delta, reuses in leaves:
        _add_stats(stats, delta, reuses)
    return counts, rows, stats


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
    nothing fired.  Each trial adds to exactly one confusion cell and,
    unless -1, to its value's count; the trial row keeps the value under
    ``value_key``, if given.

    A protocol must be steered by nothing but the cache (its cells, LRU
    stamps and clock, and random stream) and ``active``: no state of its
    own, no trial index, no outside input.  It may draw only through the
    cache, whose draws are each ``getrandbits(64) % ways`` (in
    ``_access_line``, ``_play_group`` and ``play``).  Every trial
    starts from the same restored snapshot, so trials with the same
    ``active`` and draw residues have the same outcome and stats delta,
    and ``_play_trials`` plays each such path once per shard.

    ``batch(cache, snapshot)``, if given, is asked once per run for a
    player of whole shards, ``play(first, stop)`` with ``_play_trials``'
    results; where it returns None, or its player returns None for a
    shard, the shards take ``_play_trials``.
    """
    cache = build_cache(sc.cache, sc.seed)
    snapshot = _prefix_snapshot(sc, prefix)
    lockstep = batch(cache, snapshot) if batch is not None else None

    def play(first: int, stop: int):
        played = lockstep(first, stop) if lockstep is not None else None
        if played is None:
            played = _play_trials(sc, cache, snapshot, protocol, value_key, first, stop)
        return played

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


#: The fewest trials a shard plays on collusion's lockstep engine.  A
#: block of it costs about 20 us a numpy step, whatever its size, and
#: both its steps and a scalar trial's draws grow as m^2, so the trial
#: count where the two engines draw even hardly moves with m.  One shard
#: in one process on a 2-core x86-64 VM broke even between 35 (GF(16))
#: and 60 (GF(32)) trials, near 50 at GF(4), GF(8) and GF(61): GF(61)
#: took 727 against 405 ms at 30 trials, 867 against 1,133 ms at 90.
MIN_LOCKSTEP_TRIALS = 50
#: a lockstep trial's first draw budget, in units of ways² draws; a
#: trial that runs out of draws is played again with twice the budget
_LOCKSTEP_BUDGET = 5
#: draws a lockstep block holds, one byte each (4 MiB)
_LOCKSTEP_BLOCK = 1 << 22
_STAT_KEYS = ("hits", "misses", "evictions_caused", "self_evictions")


def _collusion_lockstep(sc: AttackScenario, cache, snapshot, squeeze_addrs, target_addr,
                        probe_addrs, inferred_for):
    """A player of whole shards of collusion trials, a block of trials in
    lockstep, with ``_play_trials``' results; None where the run does not
    fit it.  The player returns None for a shard of fewer than
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
    codes, one per (domain, tag).

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
    after[[g.rows[0][0] for g in squeeze]] = code[squeezer, None]
    bit = np.array([1 << j for j in range(m)] + [0], np.int64)  # bit[-1]: no group line
    full = (1 << m) - 1
    probe_rows, probe_codes = np.array(probe.cands), [code[k] for k in probe.keys]
    target_row, target_code = np.array(target.cands[0]), code[target.keys[0]]
    inferred = np.array([*inferred_for, -1])  # -1 where no set fired

    def block(trials: list, budget: int):
        """Per trial: activity, fired set (-1: none), stats columns (see
        ``play``) and whether the budget ran out."""
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
        return active, np.where(fired.any(1), fired.argmax(1), -1), cols, short

    def play(first: int, stop: int):
        count = stop - first
        if count < MIN_LOCKSTEP_TRIALS:
            return None
        active, fired = np.zeros(count, bool), np.zeros(count, np.intp)
        # squeeze hits and misses, victim and probe self-evictions, probe hits
        cols = np.zeros((5, count), np.int64)
        todo, budget = np.arange(count), _LOCKSTEP_BUDGET * m * m
        while todo.size:
            per, again = max(1, _LOCKSTEP_BLOCK // budget), []
            for start in range(0, todo.size, per):
                part = todo[start:start + per]
                got_active, got_fired, got_cols, short = block((first + part).tolist(), budget)
                ok = part[~short]
                active[ok], fired[ok], cols[:, ok] = (
                    got_active[~short], got_fired[~short], got_cols[:, ~short])
                again.append(part[short])
            todo, budget = np.concatenate(again), 2 * budget
        value = inferred[fired]
        detected = fired >= 0
        hit = active & (value == sc.victim_target_set)
        counts = [int(hit.sum()), int((detected & ~hit).sum()),
                  int((active & ~detected).sum()), int((~active & ~detected).sum()),
                  *np.bincount(value[detected], minlength=sc.cache.num_sets).tolist()]
        rows = [{"trial": t, "active": a, "detected": d, "inferred_set": v}
                for t, a, d, v in zip(range(first, stop), active.tolist(), detected.tolist(),
                                      value.tolist())] if sc.record_trials else None
        if not count:
            return counts, rows, {}
        sq_hits, sq_misses, vic_self, probe_self, probe_hits = cols.sum(1).tolist()
        accesses, probe_misses = int(active.sum()), count * len(probe_codes) - probe_hits
        sq_other = count * groups * m  # a group evicts its row's m other lines once each
        stats: dict = {}
        for d, row, times in (
                *((d, row, count) for d, row in snapshot.stats.items()),
                (squeezer, (sq_hits, sq_misses, sq_other, sq_misses - sq_other), 1),
                (sc.victim_domain, (0, accesses, accesses - vic_self, vic_self), 1),
                (prober, (probe_hits, probe_misses, probe_misses - probe_self, probe_self), 1)):
            if row[0] + row[1]:  # a domain has a stats row once it made an access
                _add_stats(stats, {d: dict(zip(_STAT_KEYS, row))}, times)
        return counts, rows, dict(sorted(stats.items()))

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
