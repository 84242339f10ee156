"""Command-line front end.

Subcommands: ``verify`` (structural checks), ``simulate`` (trace
replay), ``attack`` (Monte Carlo experiments), ``cost`` (XOR-gate
model).  Reports are JSON (default) or CSV, to stdout or ``--output``.

Every option is one row of ``OPTIONS``, which names the runs that read
it; the parser, the ``--config`` merge and the report's ``config`` echo
are derived from it.  Any option can be given as a flag or as a key of
the ``--config`` JSON object.  Precedence, highest first: explicit flag,
config file, the row's default.  Config values are type-checked, and
unknown keys and options the run does not read rejected, before any
command runs.  Numeric flags accept decimal, 0x and 0b literals.  Exit
codes: 0 success, 1 verification violations, 2 invalid configuration or
input.
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

_ALL = "verify cost simulate attack"  # every subcommand, all of its kinds
_FIELD = "verify cost simulate:galois simulate:stacked-galois attack:galois-pp attack:collusion"
_TRIALS = "attack:baseline-pp attack:galois-pp attack:collusion"  # one scenario each


def _on(readers: str, default, **per_command) -> dict:
    """Reader -> default for each of the space-separated ``readers``: a
    subcommand all of whose kinds read the option, or ``subcommand:kind``."""
    return {r: per_command.get(r.partition(":")[0], default) for r in readers.split()}


class Option(NamedTuple):
    """One option: flag ``--name`` (dashes for underscores), config key ``name``.

    ``type`` is int, float, str or bool, or a tuple of allowed strings.
    ``defaults`` maps each reader (see ``_on``) to its default; a None
    default makes the option nullable.  A subcommand takes the option if
    one of its kinds reads it.  ``echo`` is False for the options that
    only steer the output; simulate and attack reports echo the others
    their run read, verify and cost the resolved field.
    """

    name: str
    type: object
    defaults: dict
    echo: bool = True
    help: str | None = None


OPTIONS = (
    Option("p", int, _on(_FIELD, 2), help="field characteristic (prime)"),
    Option("n", int, _on(_FIELD, 2, cost=3), help="extension degree"),
    Option("modulus", int, _on(_FIELD, 0),
           help="reducing polynomial; 0 picks the built-in default"),
    Option("a", int, _on(_FIELD, 1)),
    Option("b", int, _on(_FIELD, 1)),
    Option("c", int, _on(_FIELD, 0)),
    Option("kind", ("galois", "conventional", "stacked-galois"),
           _on("simulate", "galois")),
    Option("offset_bits", int, _on("simulate", 6)),
    Option("sets", int, _on("simulate:conventional attack:baseline-pp", 4),
           help="conventional cache sets"),
    Option("ways", int, _on("simulate:conventional attack:baseline-pp", 4)),
    Option("replacement", ("random", "lru"),
           _on("simulate:conventional attack:baseline-pp", "random", attack="lru")),
    Option("stack_bits", int, _on("simulate:stacked-galois", 0)),
    Option("seed", int, _on("simulate attack", 0)),
    Option("trials", int, _on("attack", 10000)),
    Option("victim_prob", float, _on("attack", 1.0),
           help="victim activity probability"),
    Option("victim_domain", int, _on(_TRIALS, 2)),
    Option("victim_set", int, _on(_TRIALS, 0)),
    Option("trial_log", str, _on(_TRIALS, None), False,
           help="write one CSV row per trial to this path"),
    Option("adversary_domain", int, _on("attack:baseline-pp attack:galois-pp", 1)),
    Option("prime_set", int, _on("attack:baseline-pp attack:galois-pp", None)),
    Option("prober_domain", int, _on("attack:collusion", 1)),
    Option("squeezer_domain", int, _on("attack:collusion", 0)),
    Option("skip_set", int, _on("attack:collusion", None)),
    Option("n_min", int, _on("attack:sweep", 2)),
    Option("n_max", int, _on("attack:sweep", 4)),
    Option("sweep_kind", ("galois-pp", "collusion"), _on("attack:sweep", "galois-pp")),
    Option("emit_netlists", str, _on("cost", None), False,
           help="directory for one netlist file per way"),
    Option("format", ("json", "csv"), _on(_ALL, "json"), False),
    Option("output", str, _on(_ALL, None), False,
           help="write the report here instead of stdout"),
    Option("no_timestamp", bool, _on(_ALL, False), False,
           help="omit the generated_at field from JSON reports"),
)


def _run_defaults(command: str, kind: str | None) -> dict:
    """Option name -> default, for every option the run reads."""
    readers = (command, f"{command}:{kind}")
    return {o.name: o.defaults[r] for o in OPTIONS for r in readers if r in o.defaults}


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


class _LongInt(str):
    """A config file's integer past the decimal digit limit, as its text."""


def _json_int(text: str):
    try:
        return int(text)
    except ValueError:  # the digit limit, checked before any conversion
        return _LongInt(text)


def _checked(opt: Option, value):
    """A config-file value, after checking it against the option's type."""
    if value is None and None in opt.defaults.values():
        return None
    if opt.type is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"config key {opt.name!r} is past a float's range") from None
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
    """The parsed arguments, each option the run (the subcommand and its
    kind) reads set by its flag, else its config key, else its default; an
    option it does not read is refused if set, and left out otherwise."""
    cfg = dict(vars(args))
    command = cfg["command"]
    options = {o.name: o for o in OPTIONS if o.name in cfg}  # what the parser took
    file_cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh, parse_int=_json_int)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    too_long = 10 ** digits if digits else float("inf")  # as str() refuses it
    for key, value in file_cfg.items():
        if key not in options:
            raise ValueError(f"config key {key!r} is not an option of {command}")
        if type(value) is _LongInt:
            raise ValueError(f"config key {key!r} has more than {digits} decimal digits")
        file_cfg[key] = _checked(options[key], value)
    given = {**file_cfg, **{k: cfg[k] for k in options if cfg[k] is not None}}
    kind = cfg.get("which") or given.get("kind", _run_defaults(command, None).get("kind"))
    reads = _run_defaults(command, kind)
    run = f"{command} {kind}" if kind else command
    for name, value in given.items():
        source = f"--{name.replace('_', '-')}" if cfg[name] is not None else f"config key {name!r}"
        if name not in reads:
            raise ValueError(f"{source} is not read by {run}")
        if type(value) is int and abs(value) >= too_long:
            raise ValueError(f"{source} has more than {digits} decimal digits")
    if given.get("seed", 0) < 0:  # random.Random would seed from |seed|
        raise ValueError(f"seed {given['seed']} is negative")
    cfg = {k: v for k, v in cfg.items() if k not in options}
    return cfg | {name: given.get(name, default) for name, default in reads.items()}


def _echo(cfg: dict) -> dict:
    """The options the run read, but those that only steer its output."""
    return {o.name: cfg[o.name] for o in OPTIONS if o.echo and o.name in cfg}


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
    else:
        cache = galois_config(_field_and_skew(cfg))
    if kind == "collusion":
        roles = {"adversary_domains": (cfg["prober_domain"], cfg["squeezer_domain"]),
                 "squeezer_skip_set": cfg["skip_set"]}
    else:
        roles = {"adversary_domains": (cfg["adversary_domain"],),
                 "adversary_prime_set": cfg["prime_set"]}
    return AttackScenario(
        kind=kind,
        cache=cache,
        victim_domain=cfg["victim_domain"],
        victim_target_set=cfg["victim_set"],
        trials=cfg["trials"],
        seed=cfg["seed"],
        victim_access_probability=cfg["victim_prob"],
        record_trials=record_trials,
        **roles,
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
        n_range = range(cfg["n_min"], cfg["n_max"] + 1)
        swept = cfg["sweep_kind"].replace("-", "_")
        rows = sweep_detection_vs_field(
            swept, n_range, cfg["trials"], cfg["seed"], cfg["victim_prob"]
        )
        result = {"kind": "sweep", "rows": rows}
        header = ["n", "order", "theoretical_rate", "detection_rate", "ci_low",
                  "ci_high", "trials"]
        table = [[r[k] for k in header] for r in rows]
    else:
        scenario = _attack_scenario(which, cfg, record_trials=bool(cfg["trial_log"]))
        report = run_scenario(scenario)
        if cfg["trial_log"]:
            _write_trial_log(cfg["trial_log"], report.trial_rows or [])
        result = {"kind": scenario.kind, "report": report.to_dict()}
        header = ["kind", "trials", "true_positives", "false_positives",
                  "false_negatives", "true_negatives", "detection_rate",
                  "ci_low", "ci_high"]
        table = [[getattr(report, k) for k in header]]
    _emit(cfg, {"command": "attack", "config": _echo(cfg), **result}, header, table)
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
            if any(r.partition(":")[0] == command for r in o.defaults):
                p.add_argument("--" + o.name.replace("_", "-"), dest=o.name,
                               default=None, help=o.help, **_flag_kwargs(o.type))
        p.set_defaults(handler=handler)
    return parser


# options naming a file the command writes
_OUTPUT_FILES = ("output", "trial_log")


def _check_output_files(cfg: dict) -> None:
    """Refuse, before any work runs, an output file that cannot be created,
    one that two options name, or a netlist directory that cannot be made."""
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
    netlists = existing = cfg.get("emit_netlists")
    while existing and not os.path.exists(existing):  # what makedirs would create
        existing = os.path.dirname(existing) or "."
    if existing and not os.path.isdir(existing):
        raise ValueError(f"--emit-netlists {netlists}: {existing} is not a directory")


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
