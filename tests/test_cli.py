"""Command-line interface: exit codes, report formats, precedence."""

import contextlib
import csv
import io
import itertools
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewcache import DEFAULT_MODULI, attacks, cli
from skewcache.cli import main


def _refuse(*args):
    raise AssertionError("work ran before the input was checked")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_clean_field_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--no-timestamp")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["diagonalization"]["checked"] == 192
        assert "generated_at" not in payload

    def test_zero_a_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "2", "--a", "0")
        assert code == 2
        assert "nonzero" in err

    def test_reducible_modulus_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "3", "--modulus", "0b1111")
        assert code == 2
        assert "irreducible" in err

    def test_prime_field_verify(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "7", "--n", "1",
                               "--a", "3", "--b", "5", "--c", "2",
                               "--no-timestamp")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["check", "checked", "violations"]
        assert rows[1] == ["diagonalization", "192", "0"]
        assert rows[2] == ["way_bijection", "16", "0"]

    def test_gf128_exhaustive(self, tmp_path):
        out = tmp_path / "gf128.json"
        code = main(["verify", "--n", "7", "--no-timestamp", "--output", str(out)])
        assert code == 0
        diag = json.loads(out.read_text())["diagonalization"]
        assert diag["checked"] == 128 ** 3 * 127 == 266_338_304
        assert diag["violation_count"] == 0


class TestSimulateCommand:
    def test_empty_trace(self, tmp_path, capsys):
        trace = tmp_path / "empty.trace"
        trace.write_text("# nothing here\n\n")
        code, out, _ = run_cli(capsys, "simulate", str(trace), "--no-timestamp")
        assert code == 0
        payload = json.loads(out)
        assert payload["accesses"] == 0
        assert payload["domains"] == {}

    def test_hit_after_miss(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        trace.write_text("0 R 0x40\n0 R 0x40\n")
        code, out, _ = run_cli(capsys, "simulate", str(trace), "--no-timestamp")
        assert code == 0
        stats = json.loads(out)["domains"]["0"]
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["reads"] == 2 and stats["writes"] == 0

    def test_malformed_trace_line_number(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_text("0 R 0x40\n0 X 0x40\n")
        code, _, err = run_cli(capsys, "simulate", str(trace))
        assert code == 2
        assert "line 2" in err

    def test_unknown_domain_rejected(self, tmp_path, capsys):
        trace = tmp_path / "dom.trace"
        trace.write_text("9 R 0x40\n")
        code, _, err = run_cli(capsys, "simulate", str(trace), "--n", "2")
        assert code == 2
        assert "domain" in err

    def test_out_of_range_domain_names_its_line(self, tmp_path, capsys):
        trace = tmp_path / "dom.trace"
        trace.write_text("0 R 0x40\n# comment\n9 R 0x40\n1 R zz\n")
        code, _, err = run_cli(capsys, "simulate", str(trace), "--n", "2")
        assert code == 2
        assert err == "error: trace line 3: domain id 9 out of range for 4 domains\n"

    @pytest.mark.parametrize("line,reason", [
        ("+1 R 0x40", "bad domain id '+1'"),
        ("٣ R 0x40", "bad domain id '٣'"),
        ("1 W 0x_40", "bad hex address '0x_40'"),
        ("1 W -40", "bad hex address '-40'"),
    ])
    def test_field_outside_the_grammar_names_its_line(self, tmp_path, capsys, line, reason):
        trace = tmp_path / "bad.trace"
        trace.write_text(f"0 R 0x40\n{line}\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", str(trace), "--n", "2")
        assert code == 2
        assert err == f"error: trace line 2: {reason}\n"

    def test_missing_trace_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "/nonexistent.trace")
        assert code == 2

    def test_conventional_kind(self, tmp_path, capsys):
        trace = tmp_path / "c.trace"
        trace.write_text("0 R 0x40\n1 W 0x40\n")
        code, out, _ = run_cli(capsys, "simulate", str(trace), "--kind",
                               "conventional", "--sets", "8", "--ways", "2",
                               "--replacement", "lru", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["domains"]["1"]["misses"] == 1


class TestAttackCommand:
    def test_baseline_full_detection(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "baseline-pp", "--sets", "4",
                               "--ways", "4", "--trials", "200",
                               "--no-timestamp")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["detection_rate"] == 1.0

    def test_galois_pp_small(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "galois-pp", "--n", "2",
                               "--trials", "3000", "--seed", "7",
                               "--no-timestamp")
        assert code == 0
        report = json.loads(out)["report"]
        assert 0.2 < report["detection_rate"] < 0.3

    def test_collusion_small(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "collusion", "--n", "2",
                               "--trials", "2000", "--seed", "7",
                               "--no-timestamp")
        assert code == 0
        report = json.loads(out)["report"]
        assert 0.2 < report["detection_rate"] < 0.3
        assert report["false_positives"] == 0

    def test_sweep_rows(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "sweep", "--n-min", "2",
                               "--n-max", "3", "--trials", "1500",
                               "--no-timestamp")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["n"] for r in rows] == [2, 3]
        assert rows[0]["detection_rate"] > rows[1]["detection_rate"]

    def test_sweep_collusion_kind(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "sweep", "--sweep-kind",
                               "collusion", "--n-min", "2", "--n-max", "2",
                               "--trials", "800", "--no-timestamp")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["sweep_kind"] == "collusion"
        assert 0.18 < payload["rows"][0]["detection_rate"] < 0.32

    def test_sweep_empty_range_rejected(self, capsys):
        code, out, err = run_cli(capsys, "attack", "sweep", "--n-min", "3",
                                 "--n-max", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_attack_csv(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "baseline-pp", "--trials",
                               "50", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0][0] == "kind"
        assert rows[1][0] == "baseline_pp"

    def test_trial_log(self, tmp_path, capsys):
        log = tmp_path / "trials.csv"
        code, _, _ = run_cli(capsys, "attack", "galois-pp", "--n", "2",
                             "--trials", "25", "--trial-log", str(log),
                             "--no-timestamp")
        assert code == 0
        rows = list(csv.DictReader(log.open()))
        assert len(rows) == 25
        assert {"trial", "active", "detected"} <= set(rows[0])

    def test_sweep_refuses_trial_log(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(attacks, "run_scenario", _refuse)
        log = tmp_path / "trials.csv"
        code, out, err = run_cli(capsys, "attack", "sweep", "--trials", "30",
                                 "--trial-log", str(log))
        assert code == 2
        assert out == ""
        assert err == "error: --trial-log is not read by attack sweep\n"
        assert not log.exists()

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_trial_log_and_output_same_file(self, tmp_path, monkeypatch, capsys,
                                            via_config):
        monkeypatch.setattr(attacks, "_run_trials", _refuse)
        report = tmp_path / "report.json"
        # the same file, reached by another spelling of its path
        log = tmp_path / "sub" / ".." / "report.json"
        (tmp_path / "sub").mkdir()
        argv = ["attack", "galois-pp", "--trials", "30", "--output", str(report)]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"trial_log": str(log)}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--trial-log", str(log)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --trial-log {log} names the same file as --output\n"
        assert not report.exists()

    def test_invalid_domains_rejected(self, capsys):
        code, _, err = run_cli(capsys, "attack", "galois-pp", "--n", "2",
                               "--victim-domain", "7")
        assert code == 2

    @pytest.mark.parametrize("args", [
        ("baseline-pp", "--victim-domain", "-1"),
        ("baseline-pp", "--adversary-domain", "-3"),
        ("galois-pp", "--n", "2", "--victim-domain", "-1"),
        ("collusion", "--n", "2", "--squeezer-domain", "-2"),
    ])
    def test_negative_domain_rejected(self, monkeypatch, capsys, args):
        monkeypatch.setattr(attacks, "_run_trials", _refuse)
        code, out, err = run_cli(capsys, "attack", *args, "--trials", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: domain id -") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ("--n-min", "2", "--n-max", "8", "--trials", "3000"),
        ("--n-max", "20", "--trials", "0"),
    ])
    def test_sweep_checks_every_degree_first(self, monkeypatch, capsys, args):
        monkeypatch.setattr(attacks, "run_scenario", _refuse)
        code, out, err = run_cli(capsys, "attack", "sweep", *args)
        assert code == 2
        assert out == ""
        assert err == "error: no default modulus for degree 8; pass one explicitly\n"


class TestCostCommand:
    def test_default_gf8_report(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--no-timestamp")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["n"] == 3
        assert len(payload["report"]["way_paths"]) == 8

    def test_large_field_report(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--n", "7", "--no-timestamp")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["order"] == 128
        assert len(payload["report"]["way_paths"]) == 128

    def test_prime_field_rejected(self, capsys):
        code, _, err = run_cli(capsys, "cost", "--p", "7", "--n", "1")
        assert code == 2

    def test_netlist_emission_deterministic(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for target in (out_a, out_b):
            code, _, _ = run_cli(capsys, "cost", "--n", "2",
                                 "--emit-netlists", str(target),
                                 "--no-timestamp")
            assert code == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == ["way0.netlist", "way1.netlist", "way2.netlist",
                         "way3.netlist"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestReportPlumbing:
    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--output",
                               str(path), "--no-timestamp")
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["ok"] is True

    @pytest.mark.parametrize("argv,flag", [
        (("verify", "--n", "8"), "--output"),
        (("cost", "--n", "3"), "--output"),
        (("simulate", "tests/golden/replay.trace"), "--output"),
        (("attack", "collusion", "--n", "3", "--trials", "1500"), "--output"),
        (("attack", "collusion", "--n", "3", "--trials", "1500"), "--trial-log"),
        (("attack", "sweep", "--trials", "1500"), "--output"),
    ])
    @pytest.mark.parametrize("where", ["missing", "file", "dir"])
    def test_unwritable_output_checked_first(self, tmp_path, monkeypatch, capsys,
                                             argv, flag, where):
        command = argv[0]
        _, *rest = cli.SUBCOMMANDS[command]
        monkeypatch.setitem(cli.SUBCOMMANDS, command, (_refuse, *rest))
        (tmp_path / "file").write_text("")
        path = {"missing": tmp_path / "missing" / "x.json",
                "file": tmp_path / "file" / "x.json",
                "dir": tmp_path}[where]
        code, out, err = run_cli(capsys, *argv, flag, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} {path}") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_timestamp_present_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--n", "2")
        assert "generated_at" in json.loads(out)

    def test_byte_identical_reports(self, capsys):
        args = ("attack", "galois-pp", "--n", "2", "--trials", "500",
                "--seed", "7", "--no-timestamp")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_config_file_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "trials": 40}))
        # config file value used when the flag is absent
        code, out, _ = run_cli(capsys, "attack", "galois-pp", "--config",
                               str(cfg), "--no-timestamp")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["n"] == 3
        assert payload["config"]["trials"] == 40
        # explicit flag wins over the config file
        code, out, _ = run_cli(capsys, "attack", "galois-pp", "--config",
                               str(cfg), "--n", "2", "--no-timestamp")
        payload = json.loads(out)
        assert payload["config"]["n"] == 2
        assert payload["config"]["trials"] == 40

    def test_numeric_literal_forms(self, capsys):
        for literal in ("3", "0x3", "0b11"):
            code, out, _ = run_cli(capsys, "verify", "--n", literal,
                                   "--no-timestamp")
            assert code == 0
            assert json.loads(out)["config"]["n"] == 3

    def test_resolved_config_in_report(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--n", "3", "--no-timestamp")
        cfg = json.loads(out)["config"]
        assert cfg == {"p": 2, "n": 3, "modulus": 0b1011,
                       "modulus_poly": "x^3+x+1", "order": 8,
                       "a": 1, "b": 1, "c": 0}


class TestConfigMerge:
    @pytest.mark.parametrize("config", [
        {"n": "3"},
        {"nn": 5},
        {"trials": True},
        {"replacement": "fifo"},
        {"victim_set": None},
    ], ids=["string-for-int", "unknown-key", "bool-for-int", "not-a-choice",
            "null-not-nullable"])
    def test_bad_config_rejected(self, tmp_path, capsys, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "attack", "galois-pp", "--trials", "10",
                                 "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(next(iter(config))) in err

    def test_report_options_from_config(self, tmp_path, capsys):
        # format, output and no_timestamp are options like any other
        report = tmp_path / "report.csv"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"format": "csv", "output": str(report),
                                    "no_timestamp": True}))
        code, out, _ = run_cli(capsys, "verify", "--config", str(path))
        assert code == 0 and out == ""
        assert report.read_text().splitlines()[0] == "check,checked,violations"

    def test_nullable_option_takes_null(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"prime_set": None, "victim_prob": 1}))
        code, out, _ = run_cli(capsys, "attack", "galois-pp", "--trials", "0",
                               "--config", str(path), "--no-timestamp")
        assert code == 0
        echo = json.loads(out)["config"]
        assert echo["prime_set"] is None
        assert echo["victim_prob"] == 1.0 and isinstance(echo["victim_prob"], float)

    @pytest.mark.parametrize("command", ["verify", "cost"])
    def test_seed_only_where_used(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (("verify", "--n", "3", "--modulus", "-11"), "modulus -11 is negative"),
        (("cost", "--n", "3", "--modulus", "-11"), "modulus -11 is negative"),
        (("verify", "--p", "5", "--n", "1", "--modulus", "7"),
         "GF(5) takes no modulus, got 7"),
        (("attack", "galois-pp", "--seed", "-1"), "seed -1 is negative"),
        (("attack", "baseline-pp", "--seed", "-1"), "seed -1 is negative"),
        (("attack", "sweep", "--trials", "0", "--seed", "-10"), "seed -10 is negative"),
    ])
    def test_bad_modulus_or_seed_rejected(self, monkeypatch, capsys, argv, message):
        monkeypatch.setattr(attacks, "_run_trials", _refuse)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_simulate_negative_seed_rejected(self, tmp_path, capsys, where):
        """Refused before the trace is opened: the trace named does not exist."""
        argv = ["simulate", str(tmp_path / "missing.trace")]
        if where == "flag":
            argv += ["--seed", "-7"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"seed": -7}))
            argv += ["--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: seed -7 is negative\n")

    def test_over_limit_field_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--p", "65537", "--n", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


# values of the echoed options galois-pp reads that keep a GF(4) or GF(8)
# scenario valid
GALOIS_PP_VALUES = {
    "p": st.just(2),
    "n": st.sampled_from([2, 3]),
    "modulus": st.just(0),
    "a": st.integers(1, 3),
    "b": st.integers(1, 3),
    "c": st.integers(0, 3),
    "seed": st.integers(0, 2 ** 32),
    "victim_domain": st.sampled_from([2, 3]),
    "adversary_domain": st.sampled_from([0, 1]),
    "victim_set": st.integers(0, 3),
    "prime_set": st.integers(0, 3),
    "victim_prob": st.sampled_from([0.0, 0.25, 0.5, 1.0]),
}
# the config echo of a galois-pp run with no flags and no config file
ATTACK_ECHO_DEFAULTS = {
    "p": 2, "n": 2, "modulus": 0, "a": 1, "b": 1, "c": 0, "trials": 10000,
    "seed": 0, "victim_domain": 2, "adversary_domain": 1, "victim_set": 0,
    "prime_set": None, "victim_prob": 1.0,
}


@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_config_precedence_property(data):
    """Echo = flag value, else config-file value, else default, per option."""
    sources = data.draw(st.dictionaries(st.sampled_from(sorted(GALOIS_PP_VALUES)),
                                        st.sampled_from(["flag", "file", "both"])))
    flags, file_cfg = {}, {}
    for name, source in sources.items():
        if source != "file":
            flags[name] = data.draw(GALOIS_PP_VALUES[name], label=f"--{name}")
        if source != "flag":
            file_cfg[name] = data.draw(GALOIS_PP_VALUES[name], label=f"file {name}")
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp, "cfg.json"), Path(tmp, "report.json")
        path.write_text(json.dumps(file_cfg))
        argv = ["attack", "galois-pp", "--trials", "0", "--config", str(path),
                "--no-timestamp", "--output", str(report)]
        for name, value in flags.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        assert main(argv) == 0
        echo = json.loads(report.read_text())["config"]
    assert echo == {**ATTACK_ECHO_DEFAULTS, **file_cfg, **flags, "trials": 0}


# -- exit-code fuzz ------------------------------------------------------

GOLDEN_TRACE = str(Path(__file__).parent / "golden" / "replay.trace")

# every subcommand with its positional arguments, per simulate and attack kind
FUZZ_RUNS = (
    ("verify",),
    ("cost",),
    *(("simulate", GOLDEN_TRACE, "--kind", kind)
      for kind in ("galois", "conventional", "stacked-galois")),
    *(("attack", which) for which in ("baseline-pp", "galois-pp", "collusion", "sweep")),
)
_SMALL = [0, 1, 2, 3]
_OUT_OF_RANGE = [-1, 16, 99]
# valid, out-of-range and negative values per option; fields stay at
# order 16 or below and trials below a shard's minimum, so no run forks
# and none runs long
FUZZ_VALUES = {
    "p": [2, 3, 5, 7, 13, 0, 1, 4, -2, 65537, 2 ** 70],
    "n": [1, 2, 3, 4, 0, -1, 17],
    "modulus": [0, *(DEFAULT_MODULI[n] for n in (2, 3, 4)),
                *(-DEFAULT_MODULI[n] for n in (2, 3, 4)), 7, 0b1111, -1],
    "a": [1, 2, 3, 0, -1, 16],
    "b": [1, 2, 3, 0, -1, 16],
    "c": [0, 1, 3, -1, 16],
    "seed": [0, 7, 2 ** 32, -1, -10],
    "sets": [1, 2, 4, 64, 0, 3, -4, 2 ** 40],
    "ways": [1, 2, 4, 8, 0, -1, 2 ** 30],
    "replacement": ["random", "lru"],
    "offset_bits": [0, 6, 12, -1],
    "stack_bits": [0, 1, 2, -1, 25, 10 ** 6],
    "trials": [0, 1, 20, attacks.MIN_SHARD_TRIALS - 1, -1],
    **{name: _SMALL + _OUT_OF_RANGE for name in (
        "victim_domain", "adversary_domain", "prober_domain", "squeezer_domain",
        "victim_set", "prime_set", "skip_set")},
    "victim_prob": [0.0, 0.25, 0.5, 1.0, -0.5, 1.5, float("nan"), float("inf")],
    "n_min": [2, 3, 4, -1, 0, 1, 9],
    "n_max": [2, 3, 4, -1, 0, 1, 9],
    "sweep_kind": ["galois-pp", "collusion"],
    "format": ["json", "csv"],
    # paths under the example's scratch directory ({tmp}), where "file" is a file
    "trial_log": ["{tmp}/trials.csv", "{tmp}/missing/trials.csv", "{tmp}",
                  "{tmp}/report.out"],
    "output": ["{tmp}/report.out", "{tmp}/missing/report.out", "{tmp}",
               "{tmp}/trials.csv"],
    "emit_netlists": ["{tmp}/nets", "{tmp}/file", "{tmp}/file/nets"],
    "no_timestamp": [True, False],
}
# 2^14300, 4,305 decimal digits: a flag's hex text past Python's default
# limit of 4,300 digits for int-to-decimal conversion (JSON cannot hold it)
PAST_DIGIT_LIMIT = "0x1" + "0" * 3575
# 10^4300 and -10^4300, 4,301 decimal digits, as a config file's JSON
# text, which json.dumps cannot write: the fuzz writes a placeholder
# and puts each in its place
PAST_DIGIT_LIMIT_JSON = {"{past}": "1" + "0" * 4300, "{-past}": "-1" + "0" * 4300}
# a float past a float's range: 10^400 as a config file's integer
PAST_FLOAT_JSON = {"{10^400}": "1" + "0" * 400}
# values of the wrong type, and the integer past the digit limit, as a
# flag's text; as a config value, values of the wrong type, and
# integers past the digit limit or a float's range
_WRONG_FLAG = {int: ["x", "1.5", "0x", PAST_DIGIT_LIMIT], float: ["x", "0.5.0"],
               bool: ["yes"]}
_WRONG_CONFIG = {int: ["3", 1.5, True, [1], *PAST_DIGIT_LIMIT_JSON],
                 float: ["0.5", True, "{past}", *PAST_FLOAT_JSON], str: [5, True],
                 bool: ["yes", 1]}
# the work a run does once its input is checked
WORK = ("run_scenario", "sweep_detection_vs_field", "verify_diagonalization",
        "permutation_cost", "replay")


def _run_of(run):
    """A FUZZ_RUNS entry's subcommand and kind (None for verify and cost)."""
    return run[0], run[-1] if len(run) > 1 else None


def _taken(command):
    """The options ``command``'s parser takes: those one of its kinds reads."""
    return [o for o in cli.OPTIONS
            if any(r.partition(":")[0] == command for r in o.defaults)]


def _fuzz_value(opt, where):
    """A value for ``opt``, given as a flag's text or as a config value."""
    if isinstance(opt.type, tuple):  # a choice
        wrong = ["fifo"]
    else:
        wrong = (_WRONG_FLAG if where == "flag" else _WRONG_CONFIG).get(opt.type, [])
    return st.sampled_from(FUZZ_VALUES[opt.name] + wrong)


@st.composite
def cli_runs(draw):
    """A run, its flags and its config file (an object, or a text that is
    not one), drawn from every option its subcommand takes, whether the
    run reads it or not."""
    run = draw(st.sampled_from(FUZZ_RUNS))
    options = {o.name: o for o in _taken(run[0])
               if not (run[0] == "simulate" and o.name == "kind")}
    names = draw(st.sets(st.sampled_from(sorted(options)), max_size=6))
    if run[0] == "attack":
        names.add("trials")  # the default, 10,000 trials, would fork
    flags, file_cfg = {}, {}
    for name in sorted(names):
        where = draw(st.sampled_from(["flag", "file", "both"]))
        if where != "file":
            flags[name] = draw(_fuzz_value(options[name], "flag"))
        if where != "flag":
            file_cfg[name] = draw(_fuzz_value(options[name], "file"))
    if draw(st.integers(0, 9)) == 0:
        file_cfg = draw(st.sampled_from(["[1, 2]", "{", "null"]))
    return run, flags, file_cfg


def _config_text(file_cfg) -> str:
    """The config file: the text drawn, or the object as JSON with each
    placeholder of a long integer in its place."""
    if isinstance(file_cfg, str):
        return file_cfg
    text = json.dumps(file_cfg)
    for mark, digits in {**PAST_DIGIT_LIMIT_JSON, **PAST_FLOAT_JSON}.items():
        text = text.replace(json.dumps(mark), digits)
    return text


def _must_refuse(run, resolved, file_cfg) -> bool:
    """Whether the run is given a value it must refuse: an option it does
    not read; an integer past the digit limit, as a flag or in the config
    file, even where a flag overrides it; a negative modulus, or a nonzero
    one for a prime field; a negative seed."""
    if set(resolved) - set(cli._run_defaults(*_run_of(run))):
        return True
    if PAST_DIGIT_LIMIT in resolved.values():
        return True
    if isinstance(file_cfg, dict) and set(PAST_DIGIT_LIMIT_JSON) & set(map(str, file_cfg.values())):
        return True
    modulus, n, seed = (resolved.get(k) for k in ("modulus", "n", "seed"))
    if type(modulus) is int and (modulus < 0 or (n == 1 and modulus)):
        return True
    return type(seed) is int and seed < 0


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=max(100, settings().max_examples), deadline=None, database=None)
@given(case=cli_runs())
@example(case=(("verify",), {"n": 3, "modulus": -11}, {}))
@example(case=(("cost",), {"n": 3, "modulus": -11}, {}))
@example(case=(("verify",), {"p": 5, "n": 1, "modulus": 7}, {}))
@example(case=(("attack", "galois-pp"), {"trials": 20, "seed": -1}, {}))
@example(case=(("attack", "sweep"), {"trials": 0}, {"seed": -1}))
@example(case=(FUZZ_RUNS[2], {}, {"seed": -7}))
@example(case=(("attack", "galois-pp"), {"trials": 0, "sets": 5}, {"n_min": 9}))
@example(case=(("attack", "collusion"), {"trials": 20, "seed": PAST_DIGIT_LIMIT}, {}))
@example(case=(("attack", "galois-pp"), {"trials": 5}, {"seed": "{past}"}))
@example(case=(("attack", "galois-pp"), {"trials": 5, "seed": 1}, {"seed": "{-past}"}))
@example(case=(("attack", "galois-pp"), {"trials": 5}, {"victim_prob": "{10^400}"}))
def test_exit_code_fuzz(case):
    """Every run exits 0 or 2, without a traceback; an exit 2 writes
    nothing to stdout and ends stderr with an ``error:`` line.  A run
    that must be refused exits 2 before any of its work is called.  The
    example budget comes from the loaded Hypothesis profile
    (HYPOTHESIS_PROFILE=ci, see tests/conftest.py)."""
    run, flags, file_cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "file").write_text("")

        def place(value):
            return value.replace("{tmp}", tmp) if isinstance(value, str) else value

        argv = list(run)
        for name, value in flags.items():
            if value is not False:
                argv.append("--" + name.replace("_", "-"))
            if not isinstance(value, bool):
                argv.append(place(value) if isinstance(value, str) else str(value))
        config = Path(tmp, "cfg.json")
        config.write_text(_config_text(file_cfg if isinstance(file_cfg, str) else
                                       {k: place(v) for k, v in file_cfg.items()}))
        with contextlib.ExitStack() as stack:
            work = [stack.enter_context(mock.patch.object(cli, name, wraps=getattr(cli, name)))
                    for name in WORK]
            code, out, err = _run_main([*argv, "--config", str(config)])
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert "error:" in err.splitlines()[-1]
    resolved = {**(file_cfg if isinstance(file_cfg, dict) else {}), **flags}
    if _must_refuse(run, resolved, file_cfg):
        assert code == 2, (code, err)
        assert [name for name, spy in zip(WORK, work) if spy.called] == [], err


# -- the option table: what each run reads --------------------------------

# every option a run's subcommand takes but the run does not read
UNREAD = [(run, o.name) for run in FUZZ_RUNS for o in _taken(run[0])
          if o.name not in cli._run_defaults(*_run_of(run))]


def _run_label(run):
    return " ".join(part for part in _run_of(run) if part)


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("run,name", UNREAD,
                         ids=[f"{_run_label(run)}-{name}" for run, name in UNREAD])
def test_unread_option_refused(tmp_path, monkeypatch, capsys, run, name, where):
    """Set by flag or config key, any option the run does not read exits 2
    with one line naming it and the run, before any work or output."""
    for work in WORK:
        monkeypatch.setattr(cli, work, _refuse)
    value = FUZZ_VALUES[name][0]
    if isinstance(value, str):
        value = value.replace("{tmp}", str(tmp_path))
    report = tmp_path / "report.json"
    argv = [*run, "--output", str(report)]
    if where == "flag":
        source = "--" + name.replace("_", "-")
        argv += [source, str(value)]
    else:
        source = f"config key {name!r}"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({name: value}))
        argv += ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {source} is not read by {_run_label(run)}\n")
    assert not report.exists()


def test_unread_options_count():
    """171 settable values across the nine runs, of which 111 are read."""
    taken = sum(len(_taken(run[0])) for run in FUZZ_RUNS)
    assert (taken, len(UNREAD)) == (171, 60)


def test_integer_past_the_digit_limit_refused_first(tmp_path, monkeypatch, capsys):
    """A report echoes integers in decimal, so one it could not echo is
    refused before the first trial: 2^14300 as a hex --seed."""
    for work in WORK:
        monkeypatch.setattr(cli, work, _refuse)
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "attack", "galois-pp", "--trials", "50",
                             "--seed", PAST_DIGIT_LIMIT, "--output", str(report))
    assert (code, out) == (2, "")
    assert err == "error: --seed has more than 4300 decimal digits\n"
    assert not report.exists()


@pytest.mark.parametrize("mark", PAST_DIGIT_LIMIT_JSON)
def test_config_integer_past_the_digit_limit_refused_first(tmp_path, monkeypatch, capsys, mark):
    """A config file's integer of 4,301 decimal digits, either sign, is
    refused naming its key, before any work, as the flag is."""
    for work in WORK:
        monkeypatch.setattr(cli, work, _refuse)
    config, report = tmp_path / "cfg.json", tmp_path / "report.json"
    config.write_text(_config_text({"seed": mark}))
    code, out, err = run_cli(capsys, "attack", "galois-pp", "--trials", "5",
                             "--config", str(config), "--output", str(report))
    assert (code, out) == (2, "")
    assert err == "error: config key 'seed' has more than 4300 decimal digits\n"
    assert not report.exists()


@pytest.mark.parametrize("where", ["file", "under-file"])
def test_netlist_path_checked_first(tmp_path, monkeypatch, capsys, where):
    """A netlist directory that cannot be made (an existing file, or a path
    under one) is refused before the cost report is computed."""
    monkeypatch.setattr(cli, "permutation_cost", _refuse)
    (tmp_path / "file").write_text("")
    path = tmp_path / "file" / ("nets" if where == "under-file" else "")
    code, out, err = run_cli(capsys, "cost", "--n", "3", "--emit-netlists", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: --emit-netlists {path}: {tmp_path / 'file'} is not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


class _ReadKeys(dict):
    """A run's cfg that records each key its handler reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# small flags per subcommand, so that each handler runs in full and fast
HANDLER_FLAGS = {"verify": ["--n", "2"], "cost": ["--n", "2", "--emit-netlists", "{tmp}"],
                 "simulate": [], "attack": ["--trials", "20"]}


@pytest.mark.parametrize("run", FUZZ_RUNS, ids=_run_label)
def test_handler_reads_the_options_the_table_names(tmp_path, monkeypatch, run):
    """Each handler reads exactly the options ``cli.OPTIONS`` names for its
    run, output-control ones included.  Every option is in the mapping the
    handler gets, so one it reads and the table does not name shows.  The
    report's echo reads whatever the run was given, so it is left out."""
    monkeypatch.setattr(cli, "_echo", lambda cfg: {})
    flags = [f.replace("{tmp}", str(tmp_path / "nets")) for f in HANDLER_FLAGS[run[0]]]
    args = cli.build_parser().parse_args([*run, *flags, "--output", str(tmp_path / "out")])
    cfg = _ReadKeys({**{o.name: next(iter(o.defaults.values())) for o in cli.OPTIONS},
                     **cli._resolve(args)})
    assert args.handler(cfg) == 0
    assert cfg.read & {o.name for o in cli.OPTIONS} == set(cli._run_defaults(*_run_of(run)))


def test_readme_lists_every_option_and_its_readers():
    """README's option table is ``cli.OPTIONS``, one row per run of options
    with the same readers and echo, in order."""
    rows = []
    for (readers, echo), group in itertools.groupby(
            cli.OPTIONS, key=lambda o: (tuple(o.defaults), o.echo)):
        flags = " ".join("--" + o.name.replace("_", "-") for o in group)
        runs = ", ".join(r.replace(":", " ") for r in readers)
        rows.append(f"| `{flags}` | {runs} | {'yes' if echo else 'no'} |")
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert [line for line in readme.splitlines() if line.startswith("| `--")] == rows
