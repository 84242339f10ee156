"""Command-line front end.

Subcommands: ``verify`` (structural checks), ``simulate`` (trace
replay), ``attack`` (Monte Carlo experiments), ``cost`` (XOR-gate
model).  Reports are JSON (default) or CSV, to stdout or ``--output``.

Every option is one row of ``OPTIONS``, from which the parser, the
``--config`` merge and the report's ``config`` echo are derived.  Any
option can be given as a flag or as a key of the ``--config`` JSON
object.  Precedence, highest first: explicit flag, config file, the
row's default.  Config values are type-checked, and unknown keys
rejected, before any command runs.  Numeric flags accept decimal, 0x
and 0b literals.  Exit codes: 0 success, 1 verification violations, 2
invalid configuration or input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone
from typing import NamedTuple

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

_ALL = "verify simulate attack cost"  # every subcommand


def _on(commands: str, default, **per_command) -> dict:
    """Subcommand -> default for each of the space-separated ``commands``."""
    return {c: per_command.get(c, default) for c in commands.split()}


class Option(NamedTuple):
    """One option: flag ``--name`` (dashes for underscores), config key ``name``.

    ``type`` is int, float, str or bool, or a tuple of allowed strings.
    ``defaults`` maps each subcommand that takes the option to its
    default; a None default makes the option nullable.  ``echo`` says
    which reports echo the resolved value in their ``config``: "" none,
    "run" simulate and single-kind attack reports, "sweep" attack sweep
    reports as well.  verify and cost echo the resolved field instead.
    """

    name: str
    type: object
    defaults: dict
    echo: str = "run"
    help: str | None = None


OPTIONS = (
    Option("p", int, _on(_ALL, 2), help="field characteristic (prime)"),
    Option("n", int, _on(_ALL, 2, cost=3), help="extension degree"),
    Option("modulus", int, _on(_ALL, 0),
           help="reducing polynomial; 0 picks the built-in default"),
    Option("a", int, _on(_ALL, 1)),
    Option("b", int, _on(_ALL, 1)),
    Option("c", int, _on(_ALL, 0)),
    Option("seed", int, _on("simulate attack", 0), "sweep"),
    Option("kind", ("galois", "conventional", "stacked-galois"),
           _on("simulate", "galois")),
    Option("sets", int, _on("simulate attack", 4),
           help="conventional cache sets (attack: baseline-pp)"),
    Option("ways", int, _on("simulate attack", 4)),
    Option("replacement", ("random", "lru"),
           _on("simulate attack", "random", attack="lru")),
    Option("offset_bits", int, _on("simulate", 6)),
    Option("stack_bits", int, _on("simulate", 0)),
    Option("trials", int, _on("attack", 10000), "sweep"),
    Option("victim_domain", int, _on("attack", 2)),
    Option("adversary_domain", int, _on("attack", 1)),
    Option("prober_domain", int, _on("attack", 1)),
    Option("squeezer_domain", int, _on("attack", 0)),
    Option("victim_set", int, _on("attack", 0)),
    Option("prime_set", int, _on("attack", None)),
    Option("skip_set", int, _on("attack", None)),
    Option("victim_prob", float, _on("attack", 1.0), "sweep",
           help="victim activity probability"),
    Option("n_min", int, _on("attack", 2), "sweep"),
    Option("n_max", int, _on("attack", 4), "sweep"),
    Option("sweep_kind", ("galois-pp", "collusion"), _on("attack", "galois-pp"),
           "sweep"),
    Option("trial_log", str, _on("attack", None), "",
           help="write one CSV row per trial to this path"),
    Option("emit_netlists", str, _on("cost", None), "",
           help="directory for one netlist file per way"),
    Option("format", ("json", "csv"), _on(_ALL, "json"), ""),
    Option("output", str, _on(_ALL, None), "",
           help="write the report here instead of stdout"),
    Option("no_timestamp", bool, _on(_ALL, False), "",
           help="omit the generated_at field from JSON reports"),
)

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false"}


def _int_literal(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a numeric literal: {text!r}") from None


def _flag_kwargs(kind) -> dict:
    if isinstance(kind, tuple):
        return {"choices": kind}
    if kind is bool:
        return {"action": "store_true"}
    return {"type": _int_literal if kind is int else kind}


def _checked(opt: Option, command: str, value):
    """A config-file value, after checking it against the option's type."""
    if value is None and opt.defaults[command] is None:
        return None
    if opt.type is float and type(value) is int:
        value = float(value)
    if isinstance(opt.type, tuple):
        if value in opt.type:
            return value
        wanted = "one of " + ", ".join(json.dumps(c) for c in opt.type)
    elif type(value) is opt.type:
        return value
    else:
        wanted = _TYPE_NAMES[opt.type]
    raise ValueError(f"config key {opt.name!r} must be {wanted}, got {json.dumps(value)}")


def _resolve(args) -> dict:
    """The parsed arguments, each option set by its flag, else its config key,
    else its default; the config file is read and checked once, here."""
    command = args.command
    options = {o.name: o for o in OPTIONS if command in o.defaults}
    file_cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
    for key, value in file_cfg.items():
        if key not in options:
            raise ValueError(f"config key {key!r} is not an option of {command}")
        file_cfg[key] = _checked(options[key], command, value)
    cfg = dict(vars(args))
    for name, o in options.items():
        if cfg[name] is None:
            cfg[name] = file_cfg.get(name, o.defaults[command])
    return cfg


def _echo(cfg: dict, sweep: bool = False) -> dict:
    """The subcommand's echoed options; only those marked "sweep" if ``sweep``."""
    return {o.name: cfg[o.name] for o in OPTIONS if cfg["command"] in o.defaults
            and o.echo and (o.echo == "sweep" or not sweep)}


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


def _emit(cfg: dict, payload: dict, csv_header: list[str], csv_rows: list[list]) -> None:
    if cfg["format"] == "json":
        if not cfg["no_timestamp"]:
            payload = dict(payload)
            payload["generated_at"] = datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            )
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _csv_text(csv_header, csv_rows)
    if cfg["output"]:
        with open(cfg["output"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- verify ------------------------------------------------------------


def cmd_verify(cfg: dict) -> int:
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
    _emit(cfg, payload, ["check", "checked", "violations"], rows)
    return 0 if ok else 1


# -- simulate ----------------------------------------------------------

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


def cmd_simulate(cfg: dict) -> int:
    if cfg["seed"] < 0:  # random.Random would seed from |seed|
        raise ValueError(f"seed {cfg['seed']} is negative")
    cache_cfg = _cache_config(cfg)
    cache = build_cache(cache_cfg, cfg["seed"])
    ops = replay(cache, load_trace(cfg["trace"], cache_cfg.num_domains))
    stats = cache.stats()
    domains = {}
    for d in sorted(set(stats) | set(ops)):
        row = dict(stats.get(d, {"hits": 0, "misses": 0, "evictions_caused": 0,
                                 "self_evictions": 0}))
        row.update(ops.get(d, {"reads": 0, "writes": 0}))
        domains[str(d)] = row
    payload = {
        "command": "simulate",
        "config": _echo(cfg),
        "trace": str(cfg["trace"]),
        "accesses": sum(r["reads"] + r["writes"] for r in ops.values()),
        "domains": domains,
    }
    header = ["domain", "hits", "misses", "evictions_caused", "self_evictions",
              "reads", "writes"]
    rows = [[d, *(r[k] for k in header[1:])] for d, r in domains.items()]
    _emit(cfg, payload, header, rows)
    return 0


# -- attack ------------------------------------------------------------

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
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)


def cmd_attack(cfg: dict) -> int:
    which = cfg["which"]
    if which == "sweep":
        if cfg["trial_log"]:
            raise ValueError("--trial-log is not read by attack sweep")
        n_range = range(cfg["n_min"], cfg["n_max"] + 1)
        swept = cfg["sweep_kind"].replace("-", "_")
        rows = sweep_detection_vs_field(
            swept, n_range, cfg["trials"], cfg["seed"], cfg["victim_prob"]
        )
        payload = {
            "command": "attack",
            "kind": "sweep",
            "config": _echo(cfg, sweep=True),
            "rows": rows,
        }
        header = ["n", "order", "theoretical_rate", "detection_rate", "ci_low",
                  "ci_high", "trials"]
        table = [[r[k] for k in header] for r in rows]
        _emit(cfg, payload, header, table)
        return 0
    scenario = _attack_scenario(which, cfg, record_trials=bool(cfg["trial_log"]))
    report = run_scenario(scenario)
    if cfg["trial_log"]:
        _write_trial_log(cfg["trial_log"], report.trial_rows or [])
    payload = {
        "command": "attack",
        "kind": scenario.kind,
        "config": _echo(cfg),
        "report": report.to_dict(),
    }
    header = ["kind", "trials", "true_positives", "false_positives",
              "false_negatives", "true_negatives", "detection_rate",
              "ci_low", "ci_high"]
    rows = [[getattr(report, k) for k in header]]
    _emit(cfg, payload, header, rows)
    return 0


# -- cost --------------------------------------------------------------

def cmd_cost(cfg: dict) -> int:
    sp = _field_and_skew(cfg)
    report = permutation_cost(sp)
    netlist_dir = cfg["emit_netlists"]
    if netlist_dir:
        os.makedirs(netlist_dir, exist_ok=True)
        for w in range(sp.field.order):
            net = way_network(sp.field, w)
            path = os.path.join(netlist_dir, f"way{w}.netlist")
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
    _emit(cfg, payload, header, rows)
    return 0


# -- parser ------------------------------------------------------------

# subcommand: handler, help, positional arguments
SUBCOMMANDS = {
    "verify": (cmd_verify, "check diagonalization and per-way bijection "
               "exhaustively", {}),
    "simulate": (cmd_simulate, "replay a trace file",
                 {"trace": {"help": "trace file: '<domain> <R|W> <hex addr>'"}}),
    "attack": (cmd_attack, "run a Monte Carlo experiment",
               {"which": {"choices": ("baseline-pp", "galois-pp", "collusion",
                                      "sweep")}}),
    "cost": (cmd_cost, "XOR-gate cost of the skewing map", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewcache",
        description="Skewed-cache simulator, contention experiments and "
                    "gate-cost reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, positionals) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kwargs in positionals.items():
            p.add_argument(name, **kwargs)
        p.add_argument("--config", help="JSON object of option values, keyed by "
                       "option name")
        for o in OPTIONS:
            if command in o.defaults:
                p.add_argument("--" + o.name.replace("_", "-"), dest=o.name,
                               default=None, help=o.help, **_flag_kwargs(o.type))
        p.set_defaults(handler=handler)
    return parser


# options naming a file the command writes
_OUTPUT_FILES = ("output", "trial_log")


def _check_output_files(cfg: dict) -> None:
    """Refuse, before any work runs, an output file that cannot be created,
    or one that two options name."""
    seen = {}  # real path -> flag naming it
    for name in _OUTPUT_FILES:
        path = cfg.get(name)
        if not path:
            continue
        flag = "--" + name.replace("_", "-")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ValueError(f"{flag} {path}: {parent} is not an existing directory")
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path} is a directory")
        other = seen.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ValueError(f"{flag} {path} names the same file as {other}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        _check_output_files(cfg)
        return args.handler(cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
