"""Correctness gate for the reports the benchmark's commands produce.

``check`` applies at any seed and returns a list of problems (empty
when the report passes).  ``pinned_stats`` extracts the part of a report
that ``pinned.json`` pins: simulated statistics only, never the config
echo or the timestamp.  A command with any problem counts as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pinned.json")

#: Detection rates must sit within this many binomial standard
#: deviations of the predicted rate.
SIGMAS = 4.0


def _attack(expect: dict, doc: dict, netlists) -> list[str]:
    r = doc["report"]
    problems = []
    trials = expect["trials"]
    split = r["true_positives"] + r["false_positives"] + r["false_negatives"] + r["true_negatives"]
    if r["trials"] != trials or split != trials:
        problems.append(f"tp+fp+fn+tn = {split}, trials = {r['trials']}, expected {trials}")
    kind = expect["kind"]
    if kind == "baseline_pp" and (r["false_positives"] or r["false_negatives"]):
        problems.append(f"baseline-pp fp = {r['false_positives']}, fn = {r['false_negatives']}")
    if kind == "collusion":
        if r["false_positives"]:
            problems.append(f"collusion fp = {r['false_positives']}")
        off_diagonal = sum(
            v for i, row in enumerate(r["per_set_confusion"]) for j, v in enumerate(row) if i != j
        )
        if off_diagonal:
            problems.append(f"collusion off-diagonal confusion = {off_diagonal}")
    # The LRU baseline detects every active trial; the skewed kinds
    # detect an active trial with probability 1/m.
    p = expect["victim_prob"]
    if expect["order"] is not None:
        p /= expect["order"]
    sigma = math.sqrt(p * (1 - p) / trials)
    if abs(r["detection_rate"] - p) > SIGMAS * sigma:
        problems.append(
            f"{kind} detection rate {r['detection_rate']:.5f} is more than "
            f"{SIGMAS:g} sigma from {p:.5f}"
        )
    return problems


def _verify(expect: dict, doc: dict, netlists) -> list[str]:
    m = expect["order"]
    problems = []
    for name, checked in (("diagonalization", m ** 3 * (m - 1)), ("way_bijection", m * m)):
        part = doc[name]
        if part["violation_count"] or part["violations"] or not part["ok"]:
            problems.append(f"{name}: {part['violation_count']} violations")
        if part["checked"] != checked:
            problems.append(f"{name} checked {part['checked']}, expected {checked}")
    if not doc["ok"]:
        problems.append("verify reports ok = false")
    return problems


def _cost(expect: dict, doc: dict, netlists) -> list[str]:
    r = doc["report"]
    m, n = expect["order"], expect["n"]
    problems = []
    if len(r["way_paths"]) != m:
        problems.append(f"{len(r['way_paths'])} way paths, expected {m}")
    if r["combine_xor_count"] != m * n:
        problems.append(f"combine_xor_count {r['combine_xor_count']}, expected {m * n}")
    total = r["set_path"]["xor_count"] + sum(w["xor_count"] for w in r["way_paths"])
    if r["total_xor_count"] != total + r["combine_xor_count"]:
        problems.append(f"total_xor_count {r['total_xor_count']} is not the sum of its parts")
    if netlists != m:
        problems.append(f"{netlists} netlist files, expected {m}")
    return problems


def _simulate(expect: dict, doc: dict, netlists) -> list[str]:
    problems = []
    total = 0
    for d, row in doc["domains"].items():
        if row["hits"] + row["misses"] != row["reads"] + row["writes"]:
            problems.append(
                f"domain {d}: hits+misses = {row['hits'] + row['misses']}, "
                f"reads+writes = {row['reads'] + row['writes']}"
            )
        total += row["reads"] + row["writes"]
    if total != expect["accesses"] or doc["accesses"] != expect["accesses"]:
        problems.append(
            f"{total} accesses over domains, report says {doc['accesses']}, "
            f"trace has {expect['accesses']}"
        )
    return problems


_CHECKS = {"attack": _attack, "verify": _verify, "cost": _cost, "simulate": _simulate}


def check(expect: dict, rc: int, doc: dict | None, netlists: int | None = None) -> list[str]:
    """Problems with one command's outcome; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    if doc is None:
        return ["no report"]
    try:
        return _CHECKS[expect["check"]](expect, doc, netlists)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]


def pinned_stats(doc: dict) -> dict:
    """The statistics of a report that are pinned; config echoes are left out."""
    command = doc["command"]
    if command == "simulate":
        return {"accesses": doc["accesses"], "domains": doc["domains"]}
    if command == "verify":
        return {
            name: {k: doc[name][k] for k in ("checked", "violation_count")}
            for name in ("diagonalization", "way_bijection")
        }
    stats = dict(doc["report"])
    stats.pop("detection_definition", None)
    return stats


def load_pins() -> dict:
    with open(PINS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_pins(pins: dict, workload: str, label: str, doc: dict) -> list[str]:
    expected = pins.get(workload, {}).get(label)
    if expected is None:
        return [f"no pinned statistics for {workload}/{label}"]
    if pinned_stats(doc) != expected:
        return [f"{workload}/{label}: statistics differ from pinned.json"]
    return []
