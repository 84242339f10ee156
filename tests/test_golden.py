"""Golden reports: fixed CLI runs must reproduce their checked-in bytes.

Repeated runs of one build are compared elsewhere; these files pin the
output across versions.  Each golden was written by the command listed
in README.md (Tests), run from the repository root, which is the same
argument list as below followed by ``--no-timestamp --output <golden>``
(and ``--trial-log <golden>`` where a trial log is pinned).  A deliberate
change of output is redone by hand with those commands, so it shows in
the diff of the golden files.
"""

import difflib
from pathlib import Path

import pytest

from skewcache.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# relative, because simulate echoes the trace path into its report
TRACE = "tests/golden/replay.trace"
ATTACK = "--seed 3 --victim-prob 0.5"

# golden report file: CLI arguments that produce it
CASES = {
    "verify_gf8.json": "verify --n 3",
    "verify_gf16_a3_b5_c7.json": "verify --n 4 --a 3 --b 5 --c 7",
    "verify_gf5.json": "verify --p 5 --n 1",
    # GF(61): enough domains that the verifier shards them
    "verify_gf61.json": "verify --p 61 --n 1",
    "cost_n3.json": "cost --n 3",
    "cost_n3.csv": "cost --n 3 --format csv",
    "simulate_galois.json": f"simulate {TRACE} --kind galois --n 3 --seed 7",
    "simulate_conventional.json":
        f"simulate {TRACE} --kind conventional --replacement lru --seed 7",
    "simulate_stacked.json":
        f"simulate {TRACE} --kind stacked-galois --n 3 --stack-bits 1 --seed 7",
    "simulate_stacked_k2.json":
        f"simulate {TRACE} --kind stacked-galois --n 3 --stack-bits 2 --seed 7",
    "simulate_conventional_random.json":
        f"simulate {TRACE} --kind conventional --replacement random --seed 7",
    "attack_baseline_pp.json": f"attack baseline-pp --trials 4000 {ATTACK}",
    "attack_galois_pp_n3.json": f"attack galois-pp --n 3 --trials 4000 {ATTACK}",
    "attack_collusion_n3.json": f"attack collusion --n 3 --trials 2000 {ATTACK}",
    "attack_galois_pp_n3_log.csv":
        f"attack galois-pp --n 3 --trials 400 {ATTACK} --format csv",
    "attack_collusion_n3_log.csv":
        f"attack collusion --n 3 --trials 200 {ATTACK} --format csv",
    "attack_sweep_n2_n3.json": f"attack sweep --n-min 2 --n-max 3 --trials 2000 {ATTACK}",
    # GF(5): five ways, so the eviction draw is a real % 5
    "attack_collusion_gf5.json": f"attack collusion --p 5 --n 1 --trials 1000 {ATTACK}",
    "attack_collusion_n4.json": f"attack collusion --n 4 --trials 600 {ATTACK}",
    # galois-pp on GF(5): the victim's eviction draw is a real % 5
    "attack_galois_pp_gf5.json": f"attack galois-pp --p 5 --n 1 --trials 2000 {ATTACK}",
    # GF(64): most probes hit deep into the primed set before any miss
    "attack_galois_pp_n6.json": f"attack galois-pp --n 6 --trials 1000 {ATTACK}",
    # GF(64): squeeze groups of 64 lines, past the lockstep engine's
    # 62-bit gone mask, so the squeeze takes fill_group's scalar kernel
    "attack_collusion_n6.json": f"attack collusion --n 6 --trials 100 {ATTACK}",
    # 3,500 trials a shard on two CPUs, 7,000 on one, each shard seeding
    # its trials in numpy
    "attack_galois_pp_n4.json": f"attack galois-pp --n 4 --trials 7000 {ATTACK}",
    # seeds 2^32 - 5,000 to 2^32 + 4,999: numpy seeds two-word keys (shard 1
    # on two CPUs; on one, the block split at 2^32), against bytes written
    # by reseeding each trial
    "attack_baseline_pp_2p32.json":
        "attack baseline-pp --trials 10000 --seed 4294962296 --victim-prob 0.5",
    # seeds 2^64 - 1,000 to 2^64 + 5,999: shard 0 on two CPUs, or the one
    # block on one, crosses into three-word keys; written by reseeding each trial
    "attack_galois_pp_n4_2p64.json":
        "attack galois-pp --n 4 --trials 7000 --victim-prob 0.5 --seed 18446744073709550616",
    # 35,000 trials a shard on two CPUs, 70,000 on one: past _TRIAL_BLOCK
    # (2^14), so every shard plays several blocks through one trial memo
    "attack_galois_pp_n4_70k.json":
        "attack galois-pp --n 4 --trials 70000 --victim-prob 0.5 --seed 0",
    # the default victim probability, 1: LRU draws nothing, so no trial walks
    "attack_baseline_pp_p1.json": "attack baseline-pp --trials 4000 --seed 3",
    # the default victim probability, 1: the victim's eviction draws walk
    # every trial, so numpy seeds them from trial 1 on
    "attack_galois_pp_n3_p1.json": "attack galois-pp --n 3 --trials 4000 --seed 3",
}
# golden report file: golden trial log written by the same run
TRIAL_LOGS = {
    "attack_galois_pp_n3_log.csv": "attack_galois_pp_n3_trials.csv",
    "attack_collusion_n3_log.csv": "attack_collusion_n3_trials.csv",
    "attack_collusion_gf5.json": "attack_collusion_gf5_trials.csv",
    "attack_galois_pp_gf5.json": "attack_galois_pp_gf5_trials.csv",
}


def assert_matches_golden(name: str, actual_path: Path) -> None:
    expected = (GOLDEN / name).read_bytes()
    actual = actual_path.read_bytes()
    if actual != expected:
        diff = difflib.unified_diff(
            expected.decode().splitlines(keepends=True),
            actual.decode().splitlines(keepends=True),
            fromfile=f"tests/golden/{name}",
            tofile="actual",
        )
        pytest.fail("".join(diff), pytrace=False)


@pytest.mark.parametrize("report", list(CASES))
def test_report_matches_golden(report, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = CASES[report].split() + ["--no-timestamp", "--output", str(tmp_path / report)]
    log = TRIAL_LOGS.get(report)
    if log:
        argv += ["--trial-log", str(tmp_path / log)]
    assert main(argv) == 0
    assert_matches_golden(report, tmp_path / report)
    if log:
        assert_matches_golden(log, tmp_path / log)


def _golden_command(report: str) -> str:
    line = f"skewcache {CASES[report]} --no-timestamp --output tests/golden/{report}"
    log = TRIAL_LOGS.get(report)
    return f"{line} --trial-log tests/golden/{log}" if log else line


def test_readme_lists_every_golden_command():
    """README's golden list is the commands above, one a line, in order."""
    readme = (ROOT / "README.md").read_text()
    listed = [line for line in readme.splitlines()
              if line.startswith("skewcache ") and " --output tests/golden/" in line]
    assert listed == [_golden_command(report) for report in CASES]


def test_golden_files_all_checked():
    pinned = set(CASES) | set(TRIAL_LOGS.values()) | {Path(TRACE).name}
    assert {p.name for p in GOLDEN.iterdir()} == pinned
