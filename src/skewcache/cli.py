"""Command-line front end.

Subcommands: ``verify`` (structural checks), ``simulate`` (trace
replay), ``attack`` (Monte Carlo experiments), ``cost`` (XOR-gate
model).  Reports are JSON (default) or CSV, to stdout or ``--output``.

Option precedence, highest first: explicit command-line flag, value
from the ``--config`` JSON file, built-in default.  Numeric flags
accept decimal, 0x and 0b literals.  Exit codes: 0 success, 1
verification violations, 2 invalid configuration or input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

from .attacks import AttackScenario, run_scenario, sweep_detection_vs_field
from .cache import (
    CacheConfig,
    build_cache,
    conventional_config,
    galois_config,
    stacked_config,
)
from .circuit import emit_netlist, permutation_cost, way_network
from .field import FieldSpec, poly_str
from .skew import SkewParams, verify_diagonalization, verify_way_bijection
from .trace import load_trace, replay

FIELD_DEFAULTS = {"p": 2, "n": 2, "modulus": 0, "a": 1, "b": 1, "c": 0}


def _int_literal(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a numeric literal: {text!r}") from None


def _load_file_config(path) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _resolve(args, defaults: dict) -> dict:
    """Merge CLI flags over config-file values over built-in defaults."""
    file_cfg = _load_file_config(getattr(args, "config", None))
    resolved = {}
    for key, default in defaults.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    return resolved


def _field_and_skew(cfg: dict) -> SkewParams:
    f = FieldSpec(p=cfg["p"], n=cfg["n"], modulus=cfg["modulus"])
    return SkewParams(field=f, a=cfg["a"], b=cfg["b"], c=cfg["c"])


def _field_summary(sp: SkewParams) -> dict:
    f = sp.field
    return {
        "p": f.p,
        "n": f.n,
        "modulus": f.modulus,
        "modulus_poly": poly_str(f.modulus) if f.n > 1 else None,
        "order": f.order,
        "a": sp.a,
        "b": sp.b,
        "c": sp.c,
    }


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, payload: dict, csv_header: list[str], csv_rows: list[list]) -> None:
    no_ts = getattr(args, "no_timestamp", False)
    if not no_ts:
        file_cfg = _load_file_config(getattr(args, "config", None))
        no_ts = bool(file_cfg.get("no_timestamp", False))
    fmt = getattr(args, "format", None) or "json"
    if fmt == "json":
        if not no_ts:
            payload = dict(payload)
            payload["generated_at"] = datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            )
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _csv_text(csv_header, csv_rows)
    out_path = getattr(args, "output", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- verify ------------------------------------------------------------


def cmd_verify(args) -> int:
    cfg = _resolve(args, FIELD_DEFAULTS)
    sp = _field_and_skew(cfg)
    diag = verify_diagonalization(sp)
    bij = verify_way_bijection(sp)
    ok = diag.ok and bij.ok
    payload = {
        "command": "verify",
        "config": _field_summary(sp),
        "diagonalization": diag.to_dict(),
        "way_bijection": bij.to_dict(),
        "ok": ok,
    }
    rows = [
        ["diagonalization", diag.checked, len(diag.violations)],
        ["way_bijection", bij.checked, len(bij.violations)],
    ]
    _emit(args, payload, ["check", "checked", "violations"], rows)
    return 0 if ok else 1


# -- simulate ----------------------------------------------------------

SIMULATE_DEFAULTS = {
    **FIELD_DEFAULTS,
    "kind": "galois",
    "sets": 4,
    "ways": 4,
    "replacement": "random",
    "offset_bits": 6,
    "stack_bits": 0,
    "seed": 0,
}


def _cache_config(cfg: dict) -> CacheConfig:
    kind = cfg["kind"]
    if kind == "conventional":
        return conventional_config(
            cfg["sets"], cfg["ways"], cfg["replacement"], cfg["offset_bits"]
        )
    sp = _field_and_skew(cfg)
    if kind == "stacked-galois":
        return stacked_config(sp, cfg["stack_bits"], cfg["offset_bits"])
    return galois_config(sp, cfg["offset_bits"])


def cmd_simulate(args) -> int:
    cfg = _resolve(args, SIMULATE_DEFAULTS)
    cache_cfg = _cache_config(cfg)
    records = load_trace(args.trace)
    cache = build_cache(cache_cfg, cfg["seed"])
    ops = replay(cache, records)
    stats = cache.stats()
    domains = {}
    for d in sorted(set(stats) | set(ops)):
        row = dict(stats.get(d, {"hits": 0, "misses": 0, "evictions_caused": 0,
                                 "self_evictions": 0}))
        row.update(ops.get(d, {"reads": 0, "writes": 0}))
        domains[str(d)] = row
    payload = {
        "command": "simulate",
        "config": {k: cfg[k] for k in SIMULATE_DEFAULTS},
        "trace": str(args.trace),
        "accesses": len(records),
        "domains": domains,
    }
    header = ["domain", "hits", "misses", "evictions_caused", "self_evictions",
              "reads", "writes"]
    rows = [
        [d, r["hits"], r["misses"], r["evictions_caused"], r["self_evictions"],
         r["reads"], r["writes"]]
        for d, r in domains.items()
    ]
    _emit(args, payload, header, rows)
    return 0


# -- attack ------------------------------------------------------------

ATTACK_DEFAULTS = {
    **FIELD_DEFAULTS,
    "trials": 10000,
    "seed": 0,
    "victim_domain": 2,
    "adversary_domain": 1,
    "prober_domain": 1,
    "squeezer_domain": 0,
    "victim_set": 0,
    "prime_set": None,
    "skip_set": None,
    "victim_prob": 1.0,
    "sets": 4,
    "ways": 4,
    "replacement": "lru",
    "n_min": 2,
    "n_max": 4,
    "sweep_kind": "galois-pp",
}


def _attack_scenario(which: str, cfg: dict, record_trials: bool) -> AttackScenario:
    kind = which.replace("-", "_")
    if kind == "baseline_pp":
        cache = conventional_config(cfg["sets"], cfg["ways"], cfg["replacement"])
        adversaries = (cfg["adversary_domain"],)
    else:
        sp = _field_and_skew(cfg)
        cache = galois_config(sp)
        if kind == "collusion":
            adversaries = (cfg["prober_domain"], cfg["squeezer_domain"])
        else:
            adversaries = (cfg["adversary_domain"],)
    return AttackScenario(
        kind=kind,
        cache=cache,
        victim_domain=cfg["victim_domain"],
        adversary_domains=adversaries,
        victim_target_set=cfg["victim_set"],
        trials=cfg["trials"],
        seed=cfg["seed"],
        victim_access_probability=cfg["victim_prob"],
        adversary_prime_set=cfg["prime_set"],
        squeezer_skip_set=cfg["skip_set"],
        record_trials=record_trials,
    )


def _write_trial_log(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if not rows:
            fh.write("")
            return
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def cmd_attack(args) -> int:
    cfg = _resolve(args, ATTACK_DEFAULTS)
    which = args.which
    if which == "sweep":
        n_range = range(cfg["n_min"], cfg["n_max"] + 1)
        swept = cfg["sweep_kind"].replace("-", "_")
        rows = sweep_detection_vs_field(
            swept, n_range, cfg["trials"], cfg["seed"], cfg["victim_prob"]
        )
        payload = {
            "command": "attack",
            "kind": "sweep",
            "config": {k: cfg[k] for k in ("sweep_kind", "trials", "seed",
                                           "victim_prob", "n_min", "n_max")},
            "rows": rows,
        }
        header = ["n", "order", "theoretical_rate", "detection_rate", "ci_low",
                  "ci_high", "trials"]
        table = [[r[k] for k in header] for r in rows]
        _emit(args, payload, header, table)
        return 0
    scenario = _attack_scenario(which, cfg, record_trials=bool(args.trial_log))
    report = run_scenario(scenario)
    if args.trial_log:
        _write_trial_log(args.trial_log, report.trial_rows or [])
    payload = {
        "command": "attack",
        "kind": scenario.kind,
        "config": {k: cfg[k] for k in ATTACK_DEFAULTS},
        "report": report.to_dict(),
    }
    header = ["kind", "trials", "true_positives", "false_positives",
              "false_negatives", "true_negatives", "detection_rate",
              "ci_low", "ci_high"]
    rows = [[report.kind, report.trials, report.true_positives,
             report.false_positives, report.false_negatives,
             report.true_negatives, report.detection_rate, report.ci_low,
             report.ci_high]]
    _emit(args, payload, header, rows)
    return 0


# -- cost --------------------------------------------------------------

COST_DEFAULTS = {**FIELD_DEFAULTS, "n": 3}


def cmd_cost(args) -> int:
    cfg = _resolve(args, COST_DEFAULTS)
    sp = _field_and_skew(cfg)
    report = permutation_cost(sp)
    if args.emit_netlists:
        os.makedirs(args.emit_netlists, exist_ok=True)
        for w in range(sp.field.order):
            net = way_network(sp.field, w)
            path = os.path.join(args.emit_netlists, f"way{w}.netlist")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(emit_netlist(net, f"way{w}"))
    payload = {
        "command": "cost",
        "config": _field_summary(sp),
        "report": report.to_dict(),
    }
    header = ["component", "constant", "xor_count", "depth"]
    rows = [["set_path", report.set_path.constant, report.set_path.xor_count,
             report.set_path.depth]]
    rows += [["way", p.constant, p.xor_count, p.depth] for p in report.way_paths]
    rows.append(["combine", "", report.combine_xor_count, 1])
    rows.append(["total", "", report.total_xor_count, ""])
    rows.append(["critical_path", "", "", report.critical_path_depth])
    _emit(args, payload, header, rows)
    return 0


# -- parser ------------------------------------------------------------


def _add_common(parser) -> None:
    parser.add_argument("--config", help="JSON file with default option values")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--no-timestamp", dest="no_timestamp", action="store_true",
                        help="omit the generated_at field from JSON reports")
    parser.add_argument("--seed", type=_int_literal, default=None)


def _add_field_flags(parser) -> None:
    parser.add_argument("--p", type=_int_literal, default=None,
                        help="field characteristic (prime; default 2)")
    parser.add_argument("--n", type=_int_literal, default=None,
                        help="extension degree (default 2)")
    parser.add_argument("--modulus", type=_int_literal, default=None,
                        help="reducing polynomial; 0 picks the built-in default")
    parser.add_argument("--a", type=_int_literal, default=None)
    parser.add_argument("--b", type=_int_literal, default=None)
    parser.add_argument("--c", type=_int_literal, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewcache",
        description="Skewed-cache simulator, contention experiments and "
                    "gate-cost reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check diagonalization and "
                              "per-way bijection exhaustively")
    _add_field_flags(p_verify)
    _add_common(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_sim = sub.add_parser("simulate", help="replay a trace file")
    p_sim.add_argument("trace", help="trace file: '<domain> <R|W> <hex addr>'")
    p_sim.add_argument("--kind", choices=("galois", "conventional",
                                          "stacked-galois"), default=None)
    p_sim.add_argument("--sets", type=_int_literal, default=None)
    p_sim.add_argument("--ways", type=_int_literal, default=None)
    p_sim.add_argument("--replacement", choices=("random", "lru"), default=None)
    p_sim.add_argument("--offset-bits", dest="offset_bits", type=_int_literal,
                       default=None)
    p_sim.add_argument("--stack-bits", dest="stack_bits", type=_int_literal,
                       default=None)
    _add_field_flags(p_sim)
    _add_common(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    p_att = sub.add_parser("attack", help="run a Monte Carlo experiment")
    p_att.add_argument("which", choices=("baseline-pp", "galois-pp", "collusion",
                                         "sweep"))
    p_att.add_argument("--trials", type=_int_literal, default=None)
    p_att.add_argument("--victim-domain", dest="victim_domain",
                       type=_int_literal, default=None)
    p_att.add_argument("--adversary-domain", dest="adversary_domain",
                       type=_int_literal, default=None)
    p_att.add_argument("--prober-domain", dest="prober_domain",
                       type=_int_literal, default=None)
    p_att.add_argument("--squeezer-domain", dest="squeezer_domain",
                       type=_int_literal, default=None)
    p_att.add_argument("--victim-set", dest="victim_set", type=_int_literal,
                       default=None)
    p_att.add_argument("--prime-set", dest="prime_set", type=_int_literal,
                       default=None)
    p_att.add_argument("--skip-set", dest="skip_set", type=_int_literal,
                       default=None)
    p_att.add_argument("--victim-prob", dest="victim_prob", type=float,
                       default=None, help="victim activity probability")
    p_att.add_argument("--sets", type=_int_literal, default=None,
                       help="baseline-pp: conventional cache sets")
    p_att.add_argument("--ways", type=_int_literal, default=None)
    p_att.add_argument("--replacement", choices=("random", "lru"), default=None)
    p_att.add_argument("--n-min", dest="n_min", type=_int_literal, default=None)
    p_att.add_argument("--n-max", dest="n_max", type=_int_literal, default=None)
    p_att.add_argument("--sweep-kind", dest="sweep_kind",
                       choices=("galois-pp", "collusion"), default=None)
    p_att.add_argument("--trial-log", dest="trial_log", default=None,
                       help="write one CSV row per trial to this path")
    _add_field_flags(p_att)
    _add_common(p_att)
    p_att.set_defaults(handler=cmd_attack)

    p_cost = sub.add_parser("cost", help="XOR-gate cost of the skewing map")
    p_cost.add_argument("--emit-netlists", dest="emit_netlists", default=None,
                        help="directory for one netlist file per way")
    _add_field_flags(p_cost)
    _add_common(p_cost)
    p_cost.set_defaults(handler=cmd_cost)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
