"""Run one skewcache benchmark workload and print its result as the last line.

    python3 bench/run.py --workload attack --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --write-pins        # re-record pinned.json at seed 0

Every command runs in a fresh interpreter (child.py), one at a time, so
no run profits from the memo tables a CLI user never keeps between
invocations.  With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run (layers.py), next to an untraced run of the same round that gives
the tracing overhead.  Each report is checked by gate.py; the line
before the result holds the run's facts (host, versions, seed, input
properties, every sample).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import workloads  # noqa: E402

try:
    import layers  # noqa: E402  (imports skewcache)
except ImportError as exc:
    sys.exit(f"error: cannot import skewcache from {SRC}: {exc}")

WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
SETUP_PER_ROUND = 2
CHILD_TIMEOUT_S = 120
# Children may write bytecode caches, as an installed package has them,
# whatever the caller's PYTHONDONTWRITEBYTECODE says.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONPATH"] = str(SRC)

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("part1_per_s", "1/s"),
    ("part2_per_s", "1/s"),
    ("part3_per_s", "1/s"),
]

SPAN_SECONDS = [
    ("field.mul_s", "field.mul"),
    ("skew.layout_table_s", "skew.layout_table"),
    ("skew.verify_diagonalization_s", "skew.verify_diagonalization"),
    ("skew.verify_way_bijection_s", "skew.verify_way_bijection"),
    ("attacks.fill_domain_set_s", "attacks.fill_domain_set"),
    ("trace.load_trace_s", "trace.load_trace"),
    ("trace.replay_s", "trace.replay"),
    ("circuit.permutation_cost_s", "circuit.permutation_cost"),
    ("circuit.way_network_s", "circuit.way_network"),
    ("circuit.emit_netlist_s", "circuit.emit_netlist"),
]
CALL_COUNTS = [
    ("field.mul_calls", "field.mul"),
    ("field.check_calls", "field.check"),
    ("field.inv_calls", "field.inv"),
    ("skew.permute_all_ways_calls", "skew.permute_all_ways"),
    ("attacks.fill_domain_set_calls", "attacks.fill_domain_set"),
]
# counts layers.py takes from results, with the direction that is better
TRACER_COUNTS = [
    ("skew.diag_checked", "higher"),
    ("trace.records", "higher"),
    ("circuit.total_xor_count", "lower"),
]


def _per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [(name, "count", "lower") for name, _ in CALL_COUNTS]
    spec += [(name, "s", "lower") for name, _ in SPAN_SECONDS]
    spec += [(name, "count", better) for name, better in TRACER_COUNTS]
    for kind, (_, methods) in layers.CACHE_METHODS.items():
        for method in methods:
            spec += [(f"cache.{kind}.{method}_calls", "count", "lower"),
                     (f"cache.{kind}.{method}_s", "s", "lower")]
    for kind in layers.CACHE_METHODS:
        for prefix in (f"cache.{kind}", *(f"cache.{kind}.{seg}" for seg in layers.SEGMENTS)):
            spec += [(f"{prefix}.hit_ratio", "ratio", "higher"),
                     (f"{prefix}.evictions_caused", "count", "lower"),
                     (f"{prefix}.self_evictions", "count", "lower")]
    spec += [("attacks.fill_passes_mean", "passes", "lower"),
             ("attacks.fill_passes_max", "passes", "lower")]
    for kind, phases in layers.ATTACK_PHASES.items():
        spec += [(f"attacks.{kind}.{phase}_s", "s", "lower") for phase in phases]
        spec.append((f"attacks.{kind}.accesses_per_trial", "accesses/trial", "lower"))
    spec += [
        ("cli.self_s", "s", "lower"),
        ("cli.report_bytes", "bytes", "lower"),
        ("trace_overhead_ratio", "ratio", "lower"),
    ]
    return spec


PER_LAYER = _per_layer_spec()


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failed command)."""


@dataclass
class Outcome:
    label: str
    wall_s: float
    main_s: float = 0.0
    peak_rss_mib: float = 0.0
    report_bytes: int = 0
    doc: dict | None = None
    layers: dict | None = None
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs commands in fresh interpreters and gates every report."""

    def __init__(self, workload: str, seed: int, work: Path, pins: dict | None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.commands = workloads.build(workload, seed, work)
        self.first_report: dict[str, bytes] = {}
        # structure's inputs do not depend on the seed, so its pins hold at any seed
        self.pins = pins if workload == "structure" or seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _spawn(self, mode: str, hot: int, argv: list[str]):
        result_path = self.work / "child.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), mode, str(result_path), str(hot), *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=CHILD_ENV, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None, f"timed out after {CHILD_TIMEOUT_S} s"
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return wall, None, f"child exit {proc.returncode}: {tail[0]}"
        return wall, json.loads(result_path.read_text(encoding="utf-8")), None

    def setup_sample(self) -> tuple[float, dict]:
        wall, result, error = self._spawn("setup", 0, [])
        if error:
            raise BenchError(f"set-up failed: {error}")
        return wall, result

    def run(self, cmd: workloads.Command, mode: str) -> Outcome:
        out = self.work / f"{cmd.label}.json"
        out.unlink(missing_ok=True)
        argv = [*cmd.argv, "--no-timestamp", "--output", str(out)]
        netlist_dir = self.work / f"netlists-{cmd.label}"
        if cmd.netlist_dir:
            shutil.rmtree(netlist_dir, ignore_errors=True)
            argv += ["--emit-netlists", str(netlist_dir)]
        hot = workloads.HOT_ACCESSES if cmd.expect["check"] == "simulate" else 0
        wall, result, error = self._spawn(mode, hot, argv)
        outcome = Outcome(cmd.label, wall)
        self.attempted += 1
        if error:
            outcome.problems.append(error)
        else:
            outcome.main_s = result["main_s"]
            outcome.peak_rss_mib = result["peak_rss_mib"]
            outcome.layers = result.get("layers")
            raw = out.read_bytes() if out.exists() else b""
            outcome.report_bytes = len(raw)
            try:
                outcome.doc = json.loads(raw) if raw else None
            except json.JSONDecodeError as exc:
                outcome.problems.append(f"report is not JSON: {exc}")
            netlists = None
            if cmd.netlist_dir:
                netlists = len(list(netlist_dir.iterdir())) if netlist_dir.is_dir() else 0
                shutil.rmtree(netlist_dir, ignore_errors=True)
            outcome.problems += gate.check(cmd.expect, result["rc"], outcome.doc, netlists)
            if outcome.layers and cmd.expect["check"] == "verify":
                traced = outcome.layers["counts"].get("skew.diag_checked")
                if traced != cmd.units:
                    outcome.problems.append(f"traced diag_checked {traced}, expected {cmd.units}")
            if not outcome.problems:
                outcome.problems += self._check_repeat(cmd, raw, outcome.doc)
        if outcome.problems:
            self.failed += 1
            self.problems += [f"{cmd.label} ({mode}): {p}" for p in outcome.problems]
        return outcome

    def _check_repeat(self, cmd: workloads.Command, raw: bytes, doc: dict) -> list[str]:
        """Every run of a command must give the first run's bytes; the first is pinned."""
        first = self.first_report.get(cmd.label)
        if first is None:
            self.first_report[cmd.label] = raw
            if self.pins is not None:
                return gate.check_pins(self.pins, self.workload, cmd.label, doc)
        elif first != raw:
            return ["report bytes differ from the first run of this command"]
        return []

    def round(self, mode: str) -> list[Outcome]:
        return [self.run(cmd, mode) for cmd in self.commands]


def _timed_rounds(seconds: float, one_round) -> list:
    """Closed loop: start another round only while it can end within `seconds`."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        took = time.perf_counter() - t0
        if time.perf_counter() + took > deadline:
            return rounds


def upper_decile(times: list[float]) -> float:
    """The time that nine samples in ten meet: their 90th percentile.

    The host runs at a usual speed with spells of a faster one, and the
    share of fast spells differs from run to run.  The median and the
    mean move with that share; a high percentile stays on the usual
    speed, and unlike the maximum it does not follow one stray sample
    (see README.md).
    """
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def end_to_end(runner: Runner, setup: list[float], rounds: list[list[Outcome]]) -> dict:
    values = {
        "setup_s": upper_decile(setup),
        "wall_s": upper_decile([sum(o.wall_s for o in rnd) for rnd in rounds]),
        "peak_rss_mib": statistics.median(max(o.peak_rss_mib for o in rnd) for rnd in rounds),
    }
    for part in range(3):
        units = sum(c.units for c in runner.commands if part in c.parts)
        busy = [sum(o.main_s for c, o in zip(runner.commands, rnd) if part in c.parts)
                for rnd in rounds]
        values[f"part{part + 1}_per_s"] = units / upper_decile(busy)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _merged_layers(rnd: list[Outcome]) -> dict:
    merged = {k: Counter() for k in ("calls", "seconds", "child_seconds", "counts", "fill_passes")}
    segments = {}
    for o in rnd:
        if not o.layers:
            continue
        for k, counter in merged.items():
            counter.update(o.layers[k])
        segments.update(o.layers["segments"])
    merged["segments"] = segments
    return merged


def _cache_stats(runner: Runner, rnd: list[Outcome]) -> dict[str, Counter]:
    """Per cache kind, hits/misses/evictions summed from the reports of a round."""
    totals = {kind: Counter() for kind in layers.CACHE_METHODS}
    for cmd, o in zip(runner.commands, rnd):
        if cmd.cache_kind is None or o.doc is None:
            continue
        rows = o.doc["domains"] if cmd.expect["check"] == "simulate" else o.doc["report"]["domain_stats"]
        for row in rows.values():
            totals[cmd.cache_kind].update(
                {k: row[k] for k in ("hits", "misses", "evictions_caused", "self_evictions")})
    return totals


def _hit_ratio(stats) -> float:
    looked_up = stats.get("hits", 0) + stats.get("misses", 0)
    return stats.get("hits", 0) / looked_up if looked_up else 0.0


def _fill_pass_stats(fill_passes: Counter) -> tuple[float, int]:
    fills = sum(fill_passes.values())
    if not fills:
        return 0.0, 0
    mean = sum(int(p) * n for p, n in fill_passes.items()) / fills
    return mean, max(int(p) for p in fill_passes)


def layer_values(runner: Runner, traced: list[Outcome], untraced: list[Outcome]) -> dict:
    lay = _merged_layers(traced)
    calls, seconds, counts = lay["calls"], lay["seconds"], lay["counts"]
    v = {name: calls[key] for name, key in CALL_COUNTS}
    v.update({name: seconds[key] for name, key in SPAN_SECONDS})
    v.update({name: counts[name] for name, _ in TRACER_COUNTS})
    for kind, (_, methods) in layers.CACHE_METHODS.items():
        for method in methods:
            v[f"cache.{kind}.{method}_calls"] = calls[f"cache.{kind}.{method}"]
            v[f"cache.{kind}.{method}_s"] = seconds[f"cache.{kind}.{method}"]
    stats = _cache_stats(runner, traced)
    for kind in layers.CACHE_METHODS:
        parts = {f"cache.{kind}": stats[kind]}
        for seg in layers.SEGMENTS:
            parts[f"cache.{kind}.{seg}"] = lay["segments"].get(kind, {}).get(seg, {})
        for prefix, s in parts.items():
            v[f"{prefix}.hit_ratio"] = _hit_ratio(s)
            v[f"{prefix}.evictions_caused"] = s.get("evictions_caused", 0)
            v[f"{prefix}.self_evictions"] = s.get("self_evictions", 0)
    v["attacks.fill_passes_mean"], v["attacks.fill_passes_max"] = _fill_pass_stats(lay["fill_passes"])
    for kind, phases in layers.ATTACK_PHASES.items():
        for phase in phases:
            v[f"attacks.{kind}.{phase}_s"] = seconds[f"attacks.{kind}.{phase}"]
        trials = counts[f"attacks.{kind}.trials"]
        v[f"attacks.{kind}.accesses_per_trial"] = (
            counts[f"attacks.{kind}.line_accesses"] / trials if trials else 0.0)
    v["cli.self_s"] = seconds["cli.main"] - lay["child_seconds"]["cli.main"]
    v["cli.report_bytes"] = sum(o.report_bytes for o in traced)
    untraced_s = sum(o.main_s for o in untraced)
    traced_s = sum(o.main_s for o in traced)
    v["trace_overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    return v


def per_layer(runner: Runner, pairs: list[tuple[list[Outcome], list[Outcome]]]) -> dict:
    samples = [layer_values(runner, traced, untraced) for untraced, traced in pairs]
    return {
        name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
        for name, unit, _ in PER_LAYER
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_facts(runner: Runner, setup_info: dict, hooked: list[Outcome],
              measured_rounds: list[list[Outcome]]) -> dict:
    """Host, versions and the measured input properties of this run.

    `hooked` are outcomes of a traced or facts pass, which carry the
    replay segments and the fill passes.
    """
    lay = _merged_layers(hooked)
    stats = _cache_stats(runner, measured_rounds[0])
    hit_ratio = {}
    for kind in layers.CACHE_METHODS:
        if stats[kind]:
            hit_ratio[kind] = {"all": _hit_ratio(stats[kind])}
            for seg, s in lay["segments"].get(kind, {}).items():
                hit_ratio[kind][seg] = _hit_ratio(s)
    writes = ops = 0
    for cmd, o in zip(runner.commands, measured_rounds[0]):
        if cmd.expect["check"] == "simulate" and o.doc is not None:
            for row in o.doc["domains"].values():
                writes += row["writes"]
                ops += row["reads"] + row["writes"]
    mean, most = _fill_pass_stats(lay["fill_passes"])
    return {
        "workload": runner.workload,
        "seed": runner.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": setup_info.get("numpy"),
        "commit": _git_commit(),
        "rounds": len(measured_rounds),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "hit_ratio": hit_ratio,
        "write_share": writes / ops if ops else None,
        "fill_passes": dict(lay["fill_passes"]),
        "fill_passes_mean": mean,
        "fill_passes_max": most,
        "main_s": {o.label: [r[i].main_s for r in measured_rounds]
                   for i, o in enumerate(measured_rounds[0])},
        "round_wall_s": [sum(o.wall_s for o in rnd) for rnd in measured_rounds],
        "problems": runner.problems[:20],
    }


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    runner = Runner(workload, seed, work, gate.load_pins())
    if trace:
        _, setup_info = runner.setup_sample()
        pairs = _timed_rounds(seconds, lambda: (runner.round("run"), runner.round("trace")))
        metrics = per_layer(runner, pairs)
        facts = run_facts(runner, setup_info, pairs[0][1], [u for u, _ in pairs])
    else:
        # warm-up: writes the bytecode caches a user also has
        _, setup_info = runner.setup_sample()
        setup = []

        def one_round() -> list[Outcome]:
            # set-up is sampled in every round, so it sees the host as the rounds do
            setup.extend(runner.setup_sample()[0] for _ in range(SETUP_PER_ROUND))
            return runner.round("run")

        rounds = _timed_rounds(seconds, one_round)
        metrics = end_to_end(runner, setup, rounds)
        # Input properties come from a separate, untimed pass with light hooks.
        facts_round = [runner.run(cmd, "facts") for cmd in runner.commands if cmd.facts]
        facts = run_facts(runner, setup_info, facts_round, rounds)
        facts["setup_s"] = setup
    print(json.dumps({"facts": facts}, sort_keys=True))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def write_pins(work: Path) -> None:
    pins = {"seed": DEFAULT_SEED}
    for workload in workloads.WORKLOADS:
        runner = Runner(workload, DEFAULT_SEED, work, pins=None)
        pins[workload] = {}
        for cmd in runner.commands:
            outcome = runner.run(cmd, "run")
            if outcome.problems:
                raise BenchError(f"{workload}/{cmd.label}: {outcome.problems}")
            pins[workload][cmd.label] = gate.pinned_stats(outcome.doc)
    with open(gate.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="record the pinned statistics at the default seed and exit")
    args = parser.parse_args(argv)
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.write_pins:
            write_pins(work)
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
