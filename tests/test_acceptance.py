"""Acceptance suite: one test per release criterion, at full scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion PASS lines.  Tolerances are fixed here, not tuned: Monte
Carlo rates must sit within three binomial standard deviations of the
predicted probability at 100,000 trials.
"""

import json
import math
import time

import pytest
import scipy.stats

from skewcache import (
    AttackScenario,
    DEFAULT_MODULI,
    FieldSpec,
    SkewParams,
    const_mul_matrix,
    default_scenario,
    emit_netlist,
    from_poly_terms,
    galois_config,
    is_irreducible,
    matrix_to_network,
    poly_terms,
    run_baseline_prime_probe,
    run_collusion_attack,
    run_galois_prime_probe,
    solve_intersection_way,
    unreduced_serial_depth,
    verify_diagonalization,
    verify_way_bijection,
    conventional_config,
)
from skewcache.cli import main as cli_main

from support import (
    MODULUS_256,
    BrokenModularRing,
    brute_force_witnesses,
    check_field_axioms,
    small_fields,
)

SWEEP_DEGREES = range(2, 7)
RANDOM_PARAM_SETS = 10
MC_TRIALS = 100_000


def three_sigma(p: float, trials: int) -> float:
    return 3 * math.sqrt(p * (1 - p) / trials)


def sweep_param_sets():
    import random

    rng = random.Random(20260810)
    for n in SWEEP_DEGREES:
        f = FieldSpec.binary(n)
        m = f.order
        params = [SkewParams(f)]
        for _ in range(RANDOM_PARAM_SETS):
            params.append(
                SkewParams(f, a=rng.randrange(1, m), b=rng.randrange(1, m),
                           c=rng.randrange(m))
            )
        yield n, params


@pytest.fixture(scope="module")
def structural_sweep():
    """Both verifiers over GF(2^n) n=2..6, defaults plus 10 random (a,b,c)."""
    results = []
    diag_elapsed = 0.0
    for n, params in sweep_param_sets():
        for sp in params:
            t0 = time.monotonic()
            diag = verify_diagonalization(sp)
            diag_elapsed += time.monotonic() - t0
            bij = verify_way_bijection(sp)
            results.append((n, sp, diag, bij))
    return results, diag_elapsed


def test_criterion_01_diagonalization(structural_sweep):
    results, diag_elapsed = structural_sweep
    for n, sp, diag, _ in results:
        m = 2 ** n
        assert diag.checked == m * (m - 1) * m * m, (n, sp)
        assert diag.violations == [], (n, sp, diag.violations[:3])
    assert diag_elapsed < 60.0, f"diagonalization sweep took {diag_elapsed:.1f}s"
    negative = verify_diagonalization(
        SkewParams(BrokenModularRing(p=2, n=2, modulus=0b111))
    )
    assert len(negative.violations) >= 1
    print(f"\n[criterion 01] PASS diagonalization exhaustive, "
          f"{len(results)} parameter sets over n=2..6 in {diag_elapsed:.1f}s; "
          f"negative control raised {len(negative.violations)} violations")


def test_criterion_02_way_bijection(structural_sweep):
    results, _ = structural_sweep
    for n, sp, _, bij in results:
        m = 2 ** n
        assert bij.checked == m * m, (n, sp)
        assert bij.violations == [], (n, sp)
    print(f"\n[criterion 02] PASS per-way bijection for all "
          f"{len(results)} parameter sets")


def test_criterion_03_intersection_solver_equivalence():
    tuples = 0
    for f in small_fields(16):
        sp = SkewParams(f)
        m = f.order
        for t in range(m):
            for t2 in range(m):
                if t == t2:
                    continue
                for s in range(m):
                    for s2 in range(m):
                        witnesses = brute_force_witnesses(sp, t, t2, s, s2)
                        solved = solve_intersection_way(sp, t, t2, s, s2)
                        assert witnesses == [solved], (f, t, t2, s, s2)
                        tuples += 1
    print(f"\n[criterion 03] PASS closed-form solver equals enumeration on "
          f"{tuples} tuples across all fields of order <= 16")


def test_criterion_04_galois_prime_probe_rates():
    lines = []
    for n in (2, 3, 4):
        sp = SkewParams(FieldSpec.binary(n))
        sc = default_scenario("galois_pp", galois_config(sp), MC_TRIALS, seed=41)
        t0 = time.monotonic()
        report = run_galois_prime_probe(sc)
        elapsed = time.monotonic() - t0
        expected = 1 / 2 ** n
        bound = three_sigma(expected, MC_TRIALS)
        assert abs(report.detection_rate - expected) <= bound, (
            n, report.detection_rate, expected, bound)
        assert elapsed < 60.0, f"n={n} took {elapsed:.1f}s"
        lines.append(f"n={n}: {report.detection_rate:.4f}~{expected:.4f} "
                     f"(+/-{bound:.4f}, {elapsed:.1f}s)")
    print(f"\n[criterion 04] PASS galois prime-probe rates: " + "; ".join(lines))


def test_criterion_05_collusion_attack():
    lines = []
    for n in (2, 3):
        sp = SkewParams(FieldSpec.binary(n))
        sc = default_scenario("collusion", galois_config(sp), MC_TRIALS, seed=43)
        t0 = time.monotonic()
        report = run_collusion_attack(sc)
        elapsed = time.monotonic() - t0
        expected = 1 / 2 ** n
        bound = three_sigma(expected, MC_TRIALS)
        assert abs(report.detection_rate - expected) <= bound, (
            n, report.detection_rate, expected, bound)
        # conditioned on firing, the inferred set is always the true one
        fired = sum(map(sum, report.per_set_confusion))
        assert fired == report.true_positives
        assert report.per_set_confusion[0][0] == fired
        assert report.false_positives == 0
        lines.append(f"n={n}: {report.detection_rate:.4f}~{expected:.4f} "
                     f"(+/-{bound:.4f}, {elapsed:.1f}s)")
    # false positives measured directly: victim never runs
    sp = SkewParams(FieldSpec.binary(2))
    quiet = AttackScenario(
        kind="collusion", cache=galois_config(sp), victim_domain=2,
        adversary_domains=(1, 0), victim_target_set=0, trials=20_000, seed=47,
        victim_access_probability=0.0,
    )
    t0 = time.monotonic()
    quiet_report = run_collusion_attack(quiet)
    elapsed = time.monotonic() - t0
    assert quiet_report.false_positives == 0
    assert quiet_report.true_negatives == quiet_report.trials
    print(f"\n[criterion 05] PASS collusion: " + "; ".join(lines)
          + "; inference exact on every firing trial; 0 false positives in "
          f"{quiet_report.trials} victim-silent trials ({elapsed:.1f}s)")


def test_criterion_06_baseline_contrast():
    sc = AttackScenario(
        kind="baseline_pp", cache=conventional_config(4, 4, "lru"),
        victim_domain=2, adversary_domains=(1,), victim_target_set=0,
        trials=1000, seed=3,
    )
    report = run_baseline_prime_probe(sc)
    assert report.detection_rate == 1.0
    assert report.true_positives == 1000
    print("\n[criterion 06] PASS conventional LRU baseline detects "
          "1000/1000 trials (rate exactly 1.0)")


def test_criterion_07_leakage_nullity():
    # miss-count distribution across victim sets, GF(2^2), 100k per set
    sp = SkewParams(FieldSpec.binary(2))
    table = []
    for victim_set in range(4):
        sc = default_scenario(
            "galois_pp", galois_config(sp), MC_TRIALS, seed=53,
            victim_target_set=victim_set,
        )
        report = run_galois_prime_probe(sc)
        detected = report.true_positives + report.false_positives
        table.append([detected, report.trials - detected])
    stat, p_value, _, _ = scipy.stats.chi2_contingency(table)
    assert p_value > 0.01, (table, p_value)
    print(f"\n[criterion 07] PASS miss-count distribution carries no set "
          f"information: chi2={stat:.2f}, p={p_value:.3f} over "
          f"{4 * MC_TRIALS} trials")


def test_criterion_08_field_arithmetic():
    fields = small_fields(256)
    for f in fields:
        check_field_axioms(f)
    for n, modulus in DEFAULT_MODULI.items():
        assert is_irreducible(n, modulus)
    assert poly_terms(42) == (5, 3, 1)
    assert from_poly_terms((5, 3, 1)) == 42
    assert 0b00101010 == 42
    print(f"\n[criterion 08] PASS exhaustive field axioms for "
          f"{len(fields)} fields of order <= 256; built-in moduli "
          f"irreducible; bit-vector encoding round-trips")


def test_criterion_09_circuit_cost():
    checked = 0
    for n in range(1, 9):
        f = FieldSpec.binary(n, modulus=MODULUS_256 if n == 8 else 0)
        for k in range(f.order):
            net = matrix_to_network(const_mul_matrix(f, k))
            for x in range(f.order):
                assert net.evaluate(x) == f.mul(k, x), (n, k, x)
            checked += f.order
            if n > 1:
                assert unreduced_serial_depth(k, n) <= n - 1, (n, k)
    # byte-deterministic emission
    f = FieldSpec.binary(3)
    for k in range(8):
        net = matrix_to_network(const_mul_matrix(f, k))
        first = emit_netlist(net, f"way{k}").encode()
        second = emit_netlist(
            matrix_to_network(const_mul_matrix(FieldSpec.binary(3), k)),
            f"way{k}",
        ).encode()
        assert first == second
    print(f"\n[criterion 09] PASS {checked} exhaustive network evaluations "
          f"match the field product; serial schedule depth <= n-1; netlist "
          f"bytes deterministic")


def test_criterion_10_reproducibility(capsys, tmp_path):
    commands = [
        ["verify", "--n", "3", "--no-timestamp"],
        ["attack", "galois-pp", "--n", "2", "--trials", "2000", "--seed",
         "11", "--no-timestamp"],
        ["attack", "collusion", "--n", "2", "--trials", "500", "--seed",
         "11", "--no-timestamp"],
        ["cost", "--n", "4", "--no-timestamp"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = cli_main(list(argv))
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], argv
        json.loads(outputs[0])  # parses under the documented schema
    print(f"\n[criterion 10] PASS byte-identical JSON reports for "
          f"{len(commands)} command lines run twice each")
