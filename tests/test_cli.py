"""CLI behavior: formats, determinism, and the exit-code contract.

Everything runs in-process through main() except one subprocess smoke test
that exercises the installed entry point end to end.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from fttlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstants:
    def test_csv_layout(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "3", "--kind", "lower-pinned")
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "n,kind,sharp_constant,threshold_alpha"
        assert lines[1].startswith("3,lower-pinned,")
        assert out.count("\r\n") == 2  # header + one row + trailing

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "constants", "--n-range", "1..2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "constants"
        assert len(payload["rows"]) == 8  # 2 dims x 4 kinds
        row = payload["rows"][0]
        assert set(row) == {"n", "kind", "sharp_constant", "threshold_alpha"}

    def test_range_and_kind_filter(self, capsys):
        code, out, _ = run(
            capsys, "constants", "--n-range", "2..5", "--kind", "upper-free"
        )
        assert code == 0
        rows = out.strip().split("\r\n")[1:]
        assert len(rows) == 4
        assert all(",upper-free," in r for r in rows)


class TestVerify:
    def test_clean_run_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--samples", "50")
        assert code == 0
        rows = out.strip().split("\r\n")[1:]
        assert len(rows) == 4
        assert all(r.endswith(",true") for r in rows)

    def test_tamper_exits_one_with_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--n", "4", "--kind", "lower-free",
            "--samples", "10", "--tamper", "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["rows"][0]["holds"] is False
        witness = payload["witnesses"][0]
        assert witness["kind"] == "lower-free"
        assert len(witness["vector"]) == 4
        assert witness["lhs"] < witness["rhs"]

    def test_deterministic_bytes(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(
                ["verify", "--n", "6", "--samples", "25", "--seed", "3",
                 "--out", str(out)]
            )
            assert code == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_does_not_change_verdict(self, capsys):
        # the worst sample is the deterministic extremal vector, so even the
        # margins coincide across seeds; the verdict certainly must
        for seed in ("1", "2", "99"):
            code, out, _ = run(
                capsys, "verify", "--n", "6", "--seed", seed, "--samples", "40"
            )
            assert code == 0
            assert all(
                line.endswith(",true") for line in out.strip().split("\r\n")[1:]
            )


class TestSemigroupNorm:
    def test_csv_columns_and_crlf(self, capsys):
        code, out, _ = run(
            capsys,
            "semigroup-norm", "--n", "2", "--alpha", "-0.5",
            "--grid", "0:1:3",
        )
        assert code == 0
        assert "\r\n" in out
        lines = out.strip().split("\r\n")
        assert lines[0] == "n,alpha,variant,x,norm"
        assert len(lines) == 4
        assert lines[1].split(",")[3] == "0.0"
        assert lines[1].split(",")[4] == "1.0"

    def test_overflow_exits_three(self, capsys):
        code, _, err = run(
            capsys,
            "semigroup-norm", "--n", "2", "--alpha", "500",
            "--grid", "1:50:3",
        )
        assert code == 3
        assert "numeric failure" in err

    def test_overflowing_argument_norm_exits_three_without_traceback(self):
        # at x = 50 the scaled generator's 1-norm is inf; this used to be a
        # bare OverflowError, a traceback and exit 1 ("bound violated")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "fttlab", "semigroup-norm", "--n", "2",
             "--alpha", "1e308", "--grid", "0:50:2"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert result.returncode == 3
        # one line: numpy's overflow warning used to print first
        assert result.stderr.splitlines() == [
            "fttlab: numeric failure: 2 ||Qx||_1 overflows double precision"]

    def test_tol_flag_is_gone(self, capsys):
        # it only ever set the power-iteration tolerance, to 1e-12 for any tol >= 1e-11
        code, out, _ = run(capsys, "semigroup-norm", "--n", "2", "--alpha", "0", "--tol", "1e-10")
        assert code == 2
        assert out == ""

    def test_malformed_grid_exits_two(self, capsys):
        code, _, err = run(
            capsys, "semigroup-norm", "--n", "2", "--alpha", "0", "--grid", "nope"
        )
        assert code == 2
        assert err

    def test_out_file_written(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code = main(
            ["semigroup-norm", "--n", "3", "--alpha", "-0.9", "--out", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        content = target.read_bytes()
        assert content.startswith(b"n,alpha,variant,x,norm\r\n")
        assert content.count(b"\r\n") == 66  # header + 65 grid rows


class TestBesselSweep:
    def test_n2_reports_second_bound_failures_but_exits_zero(self, capsys):
        code, out, _ = run(capsys, "bessel-sweep", "--n", "2", "--grid", "0:6:13")
        assert code == 0
        assert "bound2-exceeded" in out
        assert "bound1-exceeded" not in out

    def test_json_statuses(self, capsys):
        code, out, _ = run(
            capsys, "bessel-sweep", "--n", "3", "--grid", "0:4:5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert {r["status"] for r in payload["rows"]} == {"ok"}

    def test_negative_grid_rejected(self, capsys):
        code, _, err = run(capsys, "bessel-sweep", "--n", "2", "--grid=-1:4:5")
        assert code == 2
        assert "x >= 0" in err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tol_rejected(self, capsys, tol):
        # nan would mark the bound2 failure at x = 2 ok; -1 would report
        # bound1 exceeded where it holds
        code, out, err = run(capsys, "bessel-sweep", "--n", "2", "--grid", "0:4:5", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tol" in err


class TestThreshold:
    def test_range_with_rejected_row(self, capsys):
        code, out, _ = run(capsys, "threshold", "--n-range", "1..3")
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[1].startswith("1,false,nan,")
        assert lines[1].endswith(",rejected")
        assert lines[2].endswith(",ok")
        assert lines[3].endswith(",ok")

    def test_explicit_n1_is_usage_error(self, capsys):
        code, _, err = run(capsys, "threshold", "--n", "1")
        assert code == 2
        assert "n >= 2" in err

    def test_json_nan_becomes_null(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--n-range", "1..2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["x0"] is None
        assert payload["rows"][1]["x0"] == pytest.approx(0.7504556349680938)

    def test_not_found_status(self, capsys):
        code, out, _ = run(capsys, "threshold", "--n", "2", "--search-hi", "0.5")
        assert code == 0
        assert out.strip().split("\r\n")[1].endswith(",not-found")


class TestProbe:
    def test_json_only_output(self, capsys):
        code, out, _ = run(capsys, "probe-gftt2", "--n", "2", "--samples", "60", "--seed", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "probe-gftt2"
        assert payload["bound_excess"]["value"] > 0
        assert len(payload["bound_excess"]["a"]) == 2

    def test_empty_probe(self, capsys):
        code, out, _ = run(capsys, "probe-gftt2", "--n", "3", "--samples", "0", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_excess"] is None
        assert payload["exact_discrepancy"] is None


class TestContract:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_argument(self, capsys):
        assert run(capsys, "verify")[0] == 2

    def test_bad_kind_value(self, capsys):
        assert run(capsys, "verify", "--n", "3", "--kind", "sideways")[0] == 2

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("fttlab ")

    def test_no_color_is_vacuous(self, capsys, monkeypatch):
        _, plain, _ = run(capsys, "constants", "--n", "2")
        monkeypatch.setenv("NO_COLOR", "1")
        _, with_env, _ = run(capsys, "constants", "--n", "2")
        assert plain == with_env
        assert "\x1b[" not in plain

    def test_subprocess_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "fttlab", "constants", "--n", "2",
             "--kind", "upper-pinned"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("n,kind,sharp_constant,threshold_alpha")
        assert "upper-pinned" in result.stdout

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "constants", "--n", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("fttlab: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_output_bytes_match_fixture(capsys):
    # exit code and stdout SHA-256 of every table command in both formats,
    # the witness envelope, the rejected and not-found threshold rows, an
    # empty probe and the default semigroup-norm grid
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "cli_bytes.json")
    assert os.path.exists(fixture), "the committed fixture is missing; it is never regenerated"
    with open(fixture, encoding="utf-8") as fh:
        frozen = json.load(fh)
    for line, want in frozen.items():
        code, out, _ = run(capsys, *line.split())
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (code, digest) == (want["exit_code"], want["stdout_sha256"]), line
    assert len(frozen) == 17
