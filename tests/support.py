"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's arithmetic paths:
multiplication is schoolbook carry-less multiply followed by long
division, inverses and intersection witnesses come from exhaustive
search, so the implementations under test are checked against routes
they do not share code with.  The cache helpers read simulator state
that the observation interface hides, and the probe-by-probe group
fill and probe are the references for the cache's ``fill_group`` and
``probe_group`` kernels, and the trial loop that plays every trial is
the reference for the attack driver's trial memo.
"""

import dataclasses
import os
import random
from unittest import mock

import numpy as np
import pytest

from skewcache import FieldSpec, attacks, permute
from skewcache.cache import build_cache

# x^8 + x^4 + x^3 + x + 1, used where tests need a GF(2^8) modulus
MODULUS_256 = 0x11B


def clmul(a: int, b: int) -> int:
    """Schoolbook carry-less multiply (no reduction)."""
    r = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            r ^= a << i
        i += 1
    return r


def poly_mod_oracle(a: int, b: int) -> int:
    """Long division remainder over GF(2)."""
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def schoolbook_mul(modulus: int, x: int, y: int) -> int:
    """Multiply-then-divide oracle for binary field products."""
    return poly_mod_oracle(clmul(x, y), modulus)


def search_inverse(f: FieldSpec, x: int) -> int:
    """Exhaustive search for the multiplicative inverse."""
    for y in range(f.order):
        if f.mul(x, y) == 1:
            return y
    raise AssertionError(f"{x} has no inverse in {f!r}")


def brute_force_witnesses(sp, t, t2, s, s2) -> list[int]:
    """All ways where two domain sets map to the same physical set."""
    m = sp.field.order
    return [w for w in range(m) if permute(sp, t, s, w) == permute(sp, t2, s2, w)]


class BrokenModularRing(FieldSpec):
    """Plain integers mod 2^n passed off as a field (negative control)."""

    def add(self, x, y):
        return (x + y) % self.order

    def sub(self, x, y):
        return (x - y) % self.order

    def mul(self, x, y):
        return (x * y) % self.order

    def inv(self, x):
        return pow(x, -1, self.order)


def small_fields(max_order: int) -> list[FieldSpec]:
    """Every supported field construction with order <= max_order."""
    fields = [FieldSpec.prime(p) for p in range(2, max_order + 1) if _is_prime(p)]
    n = 2
    while 2 ** n <= max_order:
        modulus = MODULUS_256 if n == 8 else 0
        fields.append(FieldSpec.binary(n, modulus=modulus))
        n += 1
    return fields


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_field_axioms(f: FieldSpec) -> None:
    """Exhaustive field-axiom check driven by full operation tables."""
    q = f.order
    ar = np.arange(q, dtype=np.int16)
    add = np.array([[f.add(x, y) for y in range(q)] for x in range(q)], dtype=np.int16)
    mul = np.array([[f.mul(x, y) for y in range(q)] for x in range(q)], dtype=np.int16)
    # commutativity and identities
    assert (add == add.T).all(), f"{f!r}: addition not commutative"
    assert (mul == mul.T).all(), f"{f!r}: multiplication not commutative"
    assert (add[0] == ar).all(), f"{f!r}: 0 is not the additive identity"
    assert (mul[1] == ar).all(), f"{f!r}: 1 is not the multiplicative identity"
    # associativity, all q^3 triples at once
    assert (add[add, :] == add[:, add]).all(), f"{f!r}: addition not associative"
    assert (mul[mul, :] == mul[:, mul]).all(), f"{f!r}: multiplication not associative"
    # distributivity: x*(y+z) == x*y + x*z
    left = mul[:, add]
    right = add[mul[:, :, None], mul[:, None, :]]
    assert (left == right).all(), f"{f!r}: distributivity fails"
    # subtraction really is the additive inverse: (x - y) + y == x
    sub = np.array([[f.sub(x, y) for y in range(q)] for x in range(q)], dtype=np.int16)
    assert (add[sub, ar[None, :]] == ar[:, None]).all(), f"{f!r}: sub is not inverse of add"
    # multiplicative inverses and no zero divisors
    for x in range(1, q):
        assert f.mul(x, f.inv(x)) == 1, f"{f!r}: inv({x}) wrong"
    assert (mul[1:, 1:] != 0).all(), f"{f!r}: zero divisors present"


def is_identity(matrix) -> bool:
    """Whether a BinaryMatrix maps every basis vector to itself."""
    return all(matrix.cols[j] == 1 << j for j in range(matrix.size))


def line_at(cache, physical_set: int, way: int):
    """The (domain, block) line in a cell of a square cache, or None."""
    return cache._cells[physical_set * cache.cfg.num_ways + way]


def domain_lines_in_set(cache, domain: int, set_index: int) -> int:
    """How many candidate cells of (domain, set) hold that domain's lines."""
    count = 0
    for idx in cache._rows_of(domain)[set_index]:
        cell = cache._cells[idx]
        if cell is not None and cell[0] == domain:
            count += 1
    return count


def fill_group_oracle(cache, domain: int, addrs, max_rounds: int = 4096) -> int:
    """Probe-by-probe group fill through the access interface only: access
    every address, then probe the group in order, restarting the pass at
    each miss, until one pass hits everywhere; returns the pass count."""
    probe = cache.probe_one
    for a in addrs:
        cache.access(domain, a)
    for round_no in range(1, max_rounds + 1):
        if all(probe(domain, a) for a in addrs):
            return round_no
    raise RuntimeError(f"set not resident after {max_rounds} probe passes")


def probe_until_miss_oracle(cache, domain: int, addrs) -> list[bool]:
    """Probe-by-probe reference for ``probe_group(..., stop_at_miss=True)``:
    ``probe_one`` each address in order, stopping after the first miss;
    returns the hit flags of the addresses probed."""
    hits = []
    for a in addrs:
        hits.append(cache.probe_one(domain, a))
        if not hits[-1]:
            break
    return hits


class ScriptedRandom(random.Random):
    """A seeded random source whose first ``getrandbits`` calls return
    the scripted values, in order; later calls read the seeded stream."""

    def __init__(self, script, seed=0):
        super().__init__(seed)
        self.script = list(script)

    def getrandbits(self, k):
        if self.script:
            return self.script.pop(0)
        return super().getrandbits(k)


def galois_pp_forced_trial(sc, way: int):
    """Trial 0 of ``sc``, a galois-pp scenario, played by the real runner
    with the trial's first eviction draw forced to ``way``.

    The prime and the warm-up find free cells and draw nothing, so the
    first draw of an active trial is the victim's target access, whose
    row is full; the probe that follows reads the seeded stream.
    Returns the trial row and whether the forced draw was read.
    """
    trial_caches = []

    def forced_cache(cfg, seed=0):
        cache = build_cache(cfg, seed)
        cache.rng = ScriptedRandom([way], seed)
        trial_caches.append(cache)
        return cache

    with mock.patch.object(attacks, "build_cache", forced_cache):
        report = attacks.run_galois_prime_probe(
            dataclasses.replace(sc, trials=1, record_trials=True))
    # the runner builds the trial cache first, then the prefix's scratch cache
    return report.trial_rows[0], not trial_caches[0].rng.script


def play_every_trial(sc, cache, snapshot, protocol, memo, first, stop, paths=None):
    """Reference for ``attacks._play_trials``, with its signature and
    results: every trial reseeds the cache, draws its coin, restores the
    snapshot and plays the protocol, with no memo (``memo`` is unread).
    Given a list ``paths``, it appends each trial's activity and draw
    path: per ``getrandbits`` call of the protocol, the value mod the way
    count when 64 bits were drawn, else None."""
    outcomes, ids, before = {}, [], cache.stats()
    for trial in range(first, stop):
        cache.reseed(sc.seed + trial)
        active = attacks._trial_active(cache.rng, sc.victim_access_probability)
        drawn = []
        if paths is not None:
            real = cache.rng.getrandbits

            def record(k):
                bits = real(k)
                drawn.append(bits % sc.cache.num_ways if k == 64 else None)
                return bits

            cache.rng.getrandbits = record
        cache.restore(snapshot)
        outcome = (active, *protocol(cache, active))
        if paths is not None:
            del cache.rng.getrandbits
            paths.append((active, tuple(drawn)))
        ids.append(outcomes.setdefault(outcome, len(outcomes)))
    stats = {d: {key: value - before.get(d, {}).get(key, 0) for key, value in row.items()}
             for d, row in cache.stats().items()}
    return ids, list(outcomes), stats


def no_child_left():
    """Assert that this process has no child left, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
