"""Tests of the benchmark's correctness gate and of its metric list.

    python3 -m pytest bench -q

Each check is shown a real report, which it must accept, and a copy
tampered in one place, which it must reject.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from skewcache import cache, trace  # noqa: E402
from skewcache.cli import main as cli_main  # noqa: E402


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    assert cli_main([*argv, "--no-timestamp", "--output", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def collusion(tmp_path_factory):
    doc = _report(tmp_path_factory.mktemp("collusion"),
                  ["attack", "collusion", "--n", "3", "--trials", "300",
                   "--victim-prob", "0.5", "--seed", "0"])
    expect = {"check": "attack", "kind": "collusion", "order": 8, "trials": 300,
              "victim_prob": 0.5}
    return expect, doc


@pytest.fixture(scope="module")
def verify(tmp_path_factory):
    doc = _report(tmp_path_factory.mktemp("verify"), ["verify", "--n", "3"])
    return {"check": "verify", "order": 8}, doc


@pytest.fixture(scope="module")
def simulate(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("simulate")
    trace = tmp / "t.trace"
    trace.write_text("0 R 40\n1 W 80\n0 R 40\n2 W 1c0\n1 R 80\n")
    doc = _report(tmp, ["simulate", str(trace), "--n", "2"])
    return {"check": "simulate", "accesses": 5}, doc


def test_accepts_real_reports(collusion, verify, simulate):
    for expect, doc in (collusion, verify, simulate):
        assert gate.check(expect, 0, doc) == []


def test_accepts_real_baseline_and_cost(tmp_path):
    doc = _report(tmp_path, ["attack", "baseline-pp", "--sets", "64", "--ways", "8",
                             "--trials", "500", "--victim-prob", "0.5"])
    expect = {"check": "attack", "kind": "baseline_pp", "order": None, "trials": 500,
              "victim_prob": 0.5}
    assert gate.check(expect, 0, doc) == []
    doc = _report(tmp_path, ["cost", "--n", "3"])
    assert gate.check({"check": "cost", "order": 8, "n": 3}, 0, doc, netlists=8) == []
    assert gate.check({"check": "cost", "order": 8, "n": 3}, 0, doc, netlists=7)


def test_rejects_count_split_off_by_one(collusion):
    expect, doc = collusion
    bad = copy.deepcopy(doc)
    bad["report"]["true_negatives"] += 1
    assert any("tp+fp+fn+tn" in p for p in gate.check(expect, 0, bad))


def test_rejects_one_verify_violation(verify):
    expect, doc = verify
    bad = copy.deepcopy(doc)
    bad["diagonalization"]["violations"] = [
        {"kind": "intersection-count", "t": 0, "t2": 1, "s": 0, "s2": 0, "count": 2}]
    bad["diagonalization"]["violation_count"] = 1
    assert any("1 violations" in p for p in gate.check(expect, 0, bad))


def test_rejects_off_diagonal_confusion(collusion):
    expect, doc = collusion
    bad = copy.deepcopy(doc)
    bad["report"]["per_set_confusion"][0][1] = 1
    assert any("off-diagonal" in p for p in gate.check(expect, 0, bad))


def test_rejects_hits_that_do_not_match_operations(simulate):
    expect, doc = simulate
    bad = copy.deepcopy(doc)
    bad["domains"]["0"]["hits"] += 1
    assert any("hits+misses" in p for p in gate.check(expect, 0, bad))


def test_rejects_failed_exit_and_far_detection_rate(collusion):
    expect, doc = collusion
    assert gate.check(expect, 2, doc) == ["exit code 2"]
    bad = copy.deepcopy(doc)
    bad["report"]["detection_rate"] = 0.5
    assert any("sigma" in p for p in gate.check(expect, 0, bad))


def test_pinned_stats_leave_out_config_and_definition(collusion):
    _, doc = collusion
    stats = gate.pinned_stats(doc)
    assert "config" not in stats and "detection_definition" not in stats
    assert stats["true_positives"] == doc["report"]["true_positives"]
    pins = {"attack": {"collusion": stats}}
    assert gate.check_pins(pins, "attack", "collusion", doc) == []
    bad = copy.deepcopy(doc)
    bad["report"]["true_positives"] += 1
    assert gate.check_pins(pins, "attack", "collusion", bad)


def test_replay_split_takes_any_iterable():
    records = [trace.TraceRecord(i % 2, "W" if i % 3 == 0 else "R", 64 * (i % 4))
               for i in range(7)]
    plain = cache.build_cache(cache.conventional_config(8, 2))
    expected = trace.replay(plain, records)
    tracer = layers.Tracer(hot_records=3)
    split = cache.build_cache(cache.conventional_config(8, 2))
    # a generator has no len() and cannot be sliced, as a streamed trace would be
    assert tracer._replay_split(trace.replay)(split, iter(records)) == expected
    assert split.stats() == plain.stats()
    assert tracer.counts["trace.records"] == len(records)
    hot = tracer.segments["conventional"]["hot"]
    assert hot["hits"] + hot["misses"] == 3


def test_pinned_file_covers_every_command(tmp_path):
    pins = gate.load_pins()
    for name in workloads.WORKLOADS:
        labels = {c.label for c in workloads.build(name, run.DEFAULT_SEED, tmp_path)}
        assert set(pins[name]) == labels


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
