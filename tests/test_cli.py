"""Tests for the command-line interface: formats, exit codes, determinism."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import macc_lab
from macc_lab import MaccInstance, SizeCapError, assemble, cli, plan_to_json


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_RATES = """\
K,L,i,M,scheme,rate_num,rate_den,F,applicable
8,2,3,3/8,prior_restricted,,,,false
8,2,3,3/8,prior_general,2,5,40,true
8,2,3,3/8,divisor,1,2,8,true
8,2,3,3/8,linear,3,8,8,true
8,2,3,3/8,quadratic,3,8,16,true
"""


class TestRates:
    def test_golden_csv(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--K", "8", "--L", "2", "--i", "3")
        assert code == 0
        assert out == GOLDEN_RATES

    def test_memory_share_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--K", "8", "--L", "2", "--i", "3", "--M", "3/10"
        )
        assert code == 0
        assert out.splitlines()[-1] == "8,2,3,3/10,memory_share,39,40,,true"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--K", "8", "--L", "2", "--i", "3",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["K"], data["L"], data["i"]) == (8, 2, 3)
        by_scheme = {row["scheme"]: row for row in data["rows"]}
        quad = by_scheme["quadratic"]
        assert (quad["rate_num"], quad["rate_den"]) == (3, 8)
        assert quad["rate_decimal"] == "0.375000"
        assert by_scheme["prior_restricted"]["rate_num"] is None
        # the stdlib's indent=2 layout with sorted keys, one newline after it
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_explicit_divisor(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--K", "100", "--L", "4", "--i", "20",
            "--divisor", "50",
        )
        assert code == 0
        row = next(r for r in out.splitlines() if ",divisor," in r)
        assert row == "100,4,20,1/5,divisor,5,1,100,true"

    def test_out_of_range_corner(self, capsys):
        code, _, err = run_cli(capsys, "rates", "--K", "8", "--L", "2", "--i", "5")
        assert code == 2
        assert err.startswith("error:")

    def test_missing_flag(self, capsys):
        code, _, err = run_cli(capsys, "rates", "--K", "8", "--L", "2")
        assert code == 2
        assert "--i" in err

    def test_bad_format(self, capsys):
        # refused like every other bad value, not by the argument parser
        code, out, err = run_cli(
            capsys, "rates", "--K", "8", "--L", "2", "--i", "3", "--format", "xml"
        )
        assert (code, out) == (2, "")
        assert err == "error: --format must be one of csv, json, got 'xml'\n"

    def test_non_integer_flag(self, capsys):
        code, _, _ = run_cli(capsys, "rates", "--K", "eight", "--L", "2", "--i", "3")
        assert code == 2


class TestPlan:
    def test_quadratic_example(self, capsys):
        code, out, err = run_cli(
            capsys, "plan", "--K", "8", "--L", "2", "--i", "3",
            "--mode", "quadratic",
        )
        assert code == 0
        data = json.loads(out)
        assert data["rate"] == {"num": 3, "den": 8, "decimal": "0.375000"}
        assert data["subpacketization"] == 16
        assert err == "rate 3/8 (0.375000)\nF 16\ntransmissions 6\n"

    def test_clique_example(self, capsys):
        code, out, err = run_cli(
            capsys, "plan", "--K", "4", "--L", "1", "--i", "3",
            "--mode", "linear",
        )
        assert code == 0
        data = json.loads(out)
        assert data["n_transmissions"] == 1
        assert data["rate"]["num"] == 1 and data["rate"]["den"] == 4

    def test_full_coverage_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--K", "6", "--L", "2", "--i", "3",
            "--mode", "linear",
        )
        assert code == 0
        data = json.loads(out)
        assert data["pairs"] == []
        assert data["rate"]["num"] == 0

    def test_full_coverage_divisor_validated(self, capsys):
        code, out, err = run_cli(
            capsys, "plan", "--K", "6", "--L", "2", "--i", "3",
            "--mode", "divisor", "--divisor", "5",
        )
        assert code == 2
        assert out == ""
        assert "divisor must divide K=6" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "plan.json"
        corner = ("plan", "--K", "8", "--L", "2", "--i", "3", "--mode", "linear")
        code, out, _ = run_cli(capsys, *corner, "--out", str(target))
        assert code == 0
        assert out == "rate 3/8 (0.375000)\nF 8\ntransmissions 3\n"
        data = json.loads(target.read_text())
        assert data["mode"] == "linear"
        code, out, _ = run_cli(capsys, *corner)
        assert code == 0
        assert target.read_bytes() == out.encode()

    def test_out_dash_is_stdout(self, capsys, tmp_path, monkeypatch):
        # "-" names stdout, as in sweep, not a file called "-"
        monkeypatch.chdir(tmp_path)
        corner = ("plan", "--K", "8", "--L", "2", "--i", "3", "--mode", "linear")
        code, summary, _ = run_cli(capsys, *corner, "--out", "plan.json")
        assert code == 0
        code, out, err = run_cli(capsys, *corner, "--out", "-")
        assert code == 0
        assert out.encode() == (tmp_path / "plan.json").read_bytes()
        assert err == summary
        assert not (tmp_path / "-").exists()

    def test_plan_written_in_pieces(self, monkeypatch):
        # the text goes out a pair at a time, never as one document-sized string
        writes = []

        class Recorder(io.TextIOBase):
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        assert cli.main(["plan", "--K", "40", "--L", "2", "--i", "6", "--mode", "quadratic"]) == 0
        plan = assemble(MaccInstance(40, 40, 2, 6), mode="quadratic")
        text = "".join(writes)
        assert text == plan_to_json(plan) + "\n"
        assert max(map(len, writes)) <= len(text) / 2

    def test_demands_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--K", "4", "--L", "1", "--i", "3",
            "--mode", "linear", "--demands", "2,2,2,2",
        )
        assert code == 0
        assert json.loads(out)["demands"] == [2, 2, 2, 2]

    def test_bad_mode(self, capsys):
        code, _, _ = run_cli(
            capsys, "plan", "--K", "8", "--L", "2", "--i", "3", "--mode", "cubic"
        )
        assert code == 2

    def test_bad_demands(self, capsys):
        for raw in ("", "1,a", "0,1,2,3"):
            code, _, _ = run_cli(
                capsys, "plan", "--K", "4", "--L", "1", "--i", "3",
                "--mode", "linear", "--demands", raw,
            )
            assert code == 2

    @pytest.mark.parametrize("extra", [(), ("--demands", "1,2,3")])
    def test_zero_memory_corner(self, capsys, extra):
        # refused before the demands are read, so a short list changes nothing
        code, out, err = run_cli(
            capsys, "plan", "--K", "8", "--L", "2", "--i", "0", "--mode", "quadratic", *extra
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: zero-memory corner has no cached side information; "
            "delivery there is a plain broadcast\n"
        )

    @pytest.mark.parametrize("command", [("plan", "--mode", "quadratic"), ("rates",)])
    def test_no_cache_corner(self, capsys, command):
        # the cache count is checked ahead of the file count it sets by default
        code, out, err = run_cli(capsys, command[0], "--K", "0", "--L", "1", "--i", "0", *command[1:])
        assert (code, out) == (2, "")
        assert err == "error: need at least one cache, got K=0\n"

    def test_unwritable_out(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "plan", "--K", "4", "--L", "1", "--i", "3",
            "--mode", "linear", "--out", str(tmp_path / "no" / "plan.json"),
        )
        assert code == 2
        assert "cannot write" in err


class TestSweep:
    def run_sweep(self, capsys, *extra):
        return run_cli(capsys, "sweep", "--K-range", "3:6", "--out", "-", *extra)

    def test_byte_identical_reruns(self, capsys):
        code1, out1, _ = self.run_sweep(capsys)
        code2, out2, _ = self.run_sweep(capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_rows_and_bound(self, capsys):
        code, out, _ = self.run_sweep(capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert tuple(rows[0]) == cli._SWEEP_HEADER
        corners = sum(
            -(-k // l) for k in range(3, 7) for l in range(1, k + 1)
        )
        assert len(rows) - 1 == corners
        for row in rows[1:]:
            rec = dict(zip(rows[0], row))
            assert rec["decode_verified"] == "true"
            assert Fraction(rec["constructed"]) <= Fraction(rec["quadratic"])

    def test_linear_mode_bound(self, capsys):
        code, out, _ = self.run_sweep(capsys, "--mode", "linear")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        for row in rows[1:]:
            rec = dict(zip(rows[0], row))
            assert rec["mode"] == "linear"
            assert Fraction(rec["constructed"]) <= Fraction(rec["linear"])

    def test_empty_range_gives_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--K-range", "5:4", "--out", "-")
        assert code == 0
        assert out == ",".join(cli._SWEEP_HEADER) + "\n"

    def test_l_range_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--K-range", "4", "--L-range", "2:2", "--out", "-"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert {r[1] for r in rows} == {"2"}
        assert [r[2] for r in rows] == ["1", "2"]

    def test_stdout_without_out(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--K-range", "3:6")
        assert code == 0
        assert out == self.run_sweep(capsys)[1]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--K-range", "3:4", "--out", str(target)
        )
        assert code == 0
        assert target.read_text().startswith(",".join(cli._SWEEP_HEADER))

    def test_undecodable_user_marks_row_false(self, capsys, monkeypatch):
        real = cli.verify_plan

        def one_user_fails(plan):
            check = real(plan)
            users_ok = (False,) + check.users_ok[1:]
            return dataclasses.replace(check, ok=False, users_ok=users_ok)

        monkeypatch.setattr(cli, "verify_plan", one_user_fails)
        code, out, _ = run_cli(capsys, "sweep", "--K-range", "3", "--out", "-")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows and all(row[-1] == "false" for row in rows)

    def test_k_cap(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--K-range", "3:41", "--out", "-")
        assert code == 2
        assert "capped" in err

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--K-range", "0:4", "--out", "-")
        assert code == 2


class TestConfig:
    def write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_config_fills_flags(self, capsys, tmp_path):
        cfg = self.write(tmp_path, {"K": 8, "L": 2, "i": 3})
        code, out, _ = run_cli(capsys, "rates", "--config", cfg)
        assert code == 0
        assert out == GOLDEN_RATES

    def test_explicit_flags_win(self, capsys, tmp_path):
        cfg = self.write(tmp_path, {"K": 8, "L": 2, "i": 4})
        code, out, _ = run_cli(capsys, "rates", "--config", cfg, "--i", "3")
        assert code == 0
        assert out == GOLDEN_RATES

    def test_unknown_key(self, capsys, tmp_path):
        cfg = self.write(tmp_path, {"K": 8, "L": 2, "i": 3, "Q": 1})
        code, _, err = run_cli(capsys, "rates", "--config", cfg)
        assert code == 2
        assert "'Q'" in err

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("rates", {"K": 8.7, "L": 2, "i": 3}),
            ("rates", {"K": True, "L": 2, "i": 3}),
            ("rates", {"K": 8, "L": 2, "i": 3, "divisor": 8.9}),
            ("plan", {"K": 4, "L": 2, "i": 1, "mode": "quadratic", "demands": [1.5, 2, 3, 4]}),
        ],
    )
    def test_non_integer_values(self, capsys, tmp_path, command, payload):
        cfg = self.write(tmp_path, payload)
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == 2 and out == ""
        assert "expects an integer" in err

    @pytest.mark.parametrize(
        "command, payload, flag",
        [
            ("sweep", {"K-range": "3:3", "out": 2}, "--out"),
            ("sweep", {"K-range": "3:3", "out": "-", "mode": 0}, "--mode"),
            ("sweep", {"K-range": 3, "out": "-"}, "--K-range"),
            ("sweep", {"K-range": "3:3", "L-range": [1, 2], "out": "-"}, "--L-range"),
            ("rates", {"K": 8, "L": 2, "i": 3, "format": 0}, "--format"),
            ("plan", {"K": 4, "L": 2, "i": 1, "mode": None}, "--mode"),
            ("plan", {"K": 4, "L": 2, "i": 1, "mode": "linear", "out": False}, "--out"),
        ],
    )
    def test_non_string_values(self, capsys, tmp_path, command, payload, flag):
        cfg = self.write(tmp_path, payload)
        code, out, err = run_cli(capsys, command, "--config", cfg)
        assert code == 2 and out == ""
        assert f"{flag} expects a string" in err

    @pytest.mark.parametrize("key", ["func", "command", "flags"])
    def test_internal_names_are_not_keys(self, capsys, tmp_path, key):
        cfg = self.write(tmp_path, {"K": 8, "L": 2, "i": 3, key: "plan"})
        code, out, err = run_cli(capsys, "rates", "--config", cfg)
        assert code == 2 and out == ""
        assert repr(key) in err

    def test_keys_are_the_subcommands_flags(self, capsys, tmp_path):
        # --mode is a flag of plan and sweep, not of rates
        cfg = self.write(tmp_path, {"K": 8, "L": 2, "i": 3, "mode": "linear"})
        assert run_cli(capsys, "rates", "--config", cfg)[0] == 2
        cfg = self.write(tmp_path, {"K": 8, "L": 2, "i": 3, "oracle-cap": 0, "mode": "linear"})
        assert run_cli(capsys, "plan", "--config", cfg)[0] == 0

    def test_config_must_be_object(self, capsys, tmp_path):
        cfg = self.write(tmp_path, [1, 2, 3])
        assert run_cli(capsys, "rates", "--config", cfg)[0] == 2

    def test_malformed_config(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(capsys, "rates", "--config", str(path))[0] == 2

    def test_missing_config(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.json")
        assert run_cli(capsys, "rates", "--config", missing)[0] == 2


    def test_null_refused_for_integer_flags(self, capsys, tmp_path):
        cfg = self.write(tmp_path, {"K": 8, "L": 2, "i": 3, "divisor": None})
        code, out, err = run_cli(capsys, "rates", "--config", cfg)
        assert code == 2 and out == ""
        assert "--divisor expects an integer" in err

    def test_overridden_values_are_checked(self, capsys, tmp_path):
        # the command line wins, but the config's value must still be valid
        cfg = self.write(tmp_path, {"K": 8.5, "L": 2, "i": 3})
        code, out, err = run_cli(capsys, "rates", "--config", cfg, "--K", "8")
        assert code == 2 and out == ""
        assert "--K expects an integer" in err


# per subcommand: its required flags, then a valid value for each flag, as
# typed on the command line and as written in a config
PARITY = {
    "rates": (
        ("K", "L", "i"),
        {"K": ("8", 8), "L": ("2", 2), "i": ("3", 3), "M": ("3/10", 0.3),
         "divisor": ("4", 4), "format": ("json", "json")},
    ),
    "plan": (
        ("K", "L", "i", "mode"),
        {"K": ("4", 4), "L": ("1", 1), "i": ("3", 3), "mode": ("divisor", "divisor"),
         "N": ("5", 5), "divisor": ("2", 2), "demands": ("2,2,5,2", [2, 2, 5, 2]),
         "out": ("plan.json", "plan.json"), "oracle-cap": ("0", 0)},
    ),
    "sweep": (
        ("K-range", "out"),
        {"K-range": ("3:4", "3:4"), "out": ("-", "-"), "L-range": ("2:3", "2:3"),
         "mode": ("divisor", "divisor"), "oracle-cap": ("3", 3)},
    ),
}


@pytest.mark.parametrize(
    "command, flag", [(command, flag) for command, (_, values) in PARITY.items() for flag in values]
)
def test_config_matches_command_line(capsys, tmp_path, monkeypatch, command, flag):
    # every flag takes the same value from --config as from the command line
    monkeypatch.chdir(tmp_path)
    required, values = PARITY[command]
    base = [a for name in required if name != flag for a in ("--" + name, values[name][0])]
    typed, written = values[flag]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({flag: written}))
    from_line = run_cli(capsys, command, *base, "--" + flag, typed)
    from_config = run_cli(capsys, command, *base, "--config", str(cfg))
    assert from_line[0] == 0
    assert from_config[:2] == from_line[:2]


class TestEnvironment:
    def test_field_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MACC_LAB_FIELD_W", "16")
        code, out, _ = run_cli(
            capsys, "plan", "--K", "8", "--L", "2", "--i", "3",
            "--mode", "quadratic",
        )
        assert code == 0
        assert json.loads(out)["field"]["w"] == 16

    def test_bad_field_value(self, capsys, monkeypatch):
        monkeypatch.setenv("MACC_LAB_FIELD_W", "wide")
        code, _, _ = run_cli(
            capsys, "plan", "--K", "8", "--L", "2", "--i", "3",
            "--mode", "quadratic",
        )
        assert code == 2

    def test_blank_value_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("MACC_LAB_FIELD_W", "")
        code, out, _ = run_cli(
            capsys, "plan", "--K", "8", "--L", "2", "--i", "3",
            "--mode", "quadratic",
        )
        assert code == 0
        assert json.loads(out)["field"]["w"] == 8


class TestExitCodes:
    def test_verification_failure_maps_to_three(self, capsys, monkeypatch):
        real = cli.verify_plan

        def doctored(plan):
            check = real(plan)
            object.__setattr__(check, "ok", False)
            return check

        monkeypatch.setattr(cli, "verify_plan", doctored)
        code, _, err = run_cli(
            capsys, "plan", "--K", "4", "--L", "1", "--i", "3", "--mode", "linear"
        )
        assert code == 3
        assert err.startswith("verification failed:")

    def test_size_cap_maps_to_four(self, capsys, monkeypatch):
        def capped(*args, **kwargs):
            raise SizeCapError("instance too large for the exact search")

        monkeypatch.setattr(cli, "assemble", capped)
        code, _, err = run_cli(
            capsys, "plan", "--K", "4", "--L", "1", "--i", "3", "--mode", "linear"
        )
        assert code == 4
        assert err.startswith("size cap exceeded:")

    def test_oversized_plan_refused_with_four(self, capsys):
        # the verification budget, not a stub: refused before any elimination
        code, out, err = run_cli(
            capsys, "plan", "--K", "320", "--L", "100", "--i", "2", "--mode", "quadratic"
        )
        assert code == 4
        assert out == ""
        assert err.startswith("size cap exceeded: verifying this plan takes about ")
        assert err.endswith(f"above the budget of {macc_lab.delivery.VERIFY_CELL_BUDGET:.0e}\n")


class TestEntryPoint:
    @staticmethod
    def child_env():
        # the child imports the same package, wherever pytest found it
        src = os.path.dirname(os.path.dirname(macc_lab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return dict(os.environ, PYTHONPATH=path)

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "macc_lab.cli", "rates",
             "--K", "8", "--L", "2", "--i", "3"],
            capture_output=True,
            text=True,
            env=self.child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_RATES

    def test_closed_pipe_exits_one_quietly(self):
        # like `| head -c 100`: the 243 kB plan overflows the pipe after the
        # reader has gone, so the child's write meets a closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "macc_lab.cli", "plan", "--K", "40", "--L", "2",
             "--i", "6", "--mode", "quadratic"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.child_env(),
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err
