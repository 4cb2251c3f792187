"""CLI behavior: formats, determinism, and the exit-code contract.

Everything runs in-process through main() except one subprocess smoke test
that exercises the installed entry point end to end.
"""

import ast
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fttlab.cli import _parse_grid, main


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
            "fttlab: numeric failure: ||Qx||_1 overflows double precision"]

    def test_huge_dissipative_block_contracts(self, capsys):
        # at x = 10 the argument's 1-norm is 1e19; past 64 halvings it used to exit 3
        code, out, err = run(capsys, "semigroup-norm", "--n", "2", "--alpha=-1e18",
                             "--format", "json")
        assert (code, err) == (0, "")
        norms = [row["norm"] for row in json.loads(out)["rows"]]
        assert len(norms) == 65 and max(norms) <= 1.0

    @pytest.mark.parametrize("alpha", ["-1e-3", "-2E+1", "-5e-324", "-inf", "-.5", "-1", "0.25"])
    def test_a_negative_alpha_needs_no_equals_sign(self, capsys, alpha):
        # argparse alone takes a token for a negative number only as -1 or -.5, and
        # reads -1e-3 as an option: "--alpha: expected one argument"
        args = ("--grid", "0:1:3", "--format", "json")
        spaced = run(capsys, "semigroup-norm", "--n", "2", "--alpha", alpha, *args)
        assert spaced == run(capsys, "semigroup-norm", "--n", "2", f"--alpha={alpha}", *args)
        assert spaced[0] == (2 if alpha == "-inf" else 0)

    def test_an_option_after_alpha_is_not_its_value(self, capsys):
        code, out, err = run(capsys, "semigroup-norm", "--n", "2", "--alpha", "--format", "json")
        assert (code, out) == (2, "") and "--alpha: expected one argument" in err

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
        # the child sees src through PYTHONPATH, as pytest's own pythonpath setting is not inherited
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "fttlab", "constants", "--n", "2",
             "--kind", "upper-pinned"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
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


_HUGE_N = str(10**400)

# (argv, exit code, what the one stderr line names); each row used to print a
# numpy warning or a traceback, or to exit with another code
FAILURES = {
    # an inf span reached np.linspace, whose nan points failed as bad input (2)
    "grid-span": ("bessel-sweep --n 2 --grid=-1e308:1e308:3", 3, "grid span"),
    # a bare OverflowError: a traceback and exit 1
    **{f"huge-n-{command}": (f"{command} --n {_HUGE_N}", 2, "must fit in double precision")
       for command in ("constants", "threshold", "verify", "probe-gftt2")},
    # search_hi / 1e-3 reached the scan as inf and failed as bad input (2)
    "scan-ratio": ("threshold --n 3 --search-hi 1e306", 3, "scan ratio"),
    # -2 x alpha is inf here, and math.exp(inf) is inf without an OverflowError
    "bound-exponent": ("bessel-sweep --n 1 --grid 1e308:1e308:1", 3, "exponent inf overflows"),
    "argument-norm": ("semigroup-norm --n 2 --alpha 1e308 --grid 0:50:2", 3,
                      "numeric failure: ||Qx||_1 overflows"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failure_path_prints_one_line(capsys, case):
    argv, want, names = FAILURES[case]
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (want, "")
    assert err.startswith("fttlab: ") and err.count("\n") == 1 and names in err


@pytest.mark.filterwarnings("error")
def test_forty_block_near_the_threshold_gets_every_norm(capsys):
    # near x = 0 the power iteration does not settle; the norm bracket's lower end stands in
    code, out, err = run(capsys, *"semigroup-norm --n 40 --alpha -0.997".split())
    assert (code, err) == (0, "")
    assert len(out.split("\r\n")[:-1]) == 66  # header + the 65 default grid points


def test_main_does_not_silence_numpy():
    # each route quiets its own overflow and raises through _validate.finite
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "src", "fttlab", "cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in ("errstate", "seterr")]


def _match_recorded_bytes(capsys, path, count):
    """Run each recorded invocation in-process; compare exit code and stdout SHA-256."""
    assert os.path.exists(path), "the committed fixture is missing; it is never regenerated"
    with open(path, encoding="utf-8") as fh:
        frozen = json.load(fh)
    for line, want in frozen.items():
        code, out, _ = run(capsys, *line.split())
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (code, digest) == (want["exit_code"], want["stdout_sha256"]), line
    assert len(frozen) == count


def test_output_bytes_match_fixture(capsys):
    # every table command in both formats, the witness envelope, the rejected
    # and not-found threshold rows, an empty probe and the default semigroup-norm grid
    _match_recorded_bytes(capsys, os.path.join(os.path.dirname(__file__), "fixtures",
                                               "cli_bytes.json"), 17)


@pytest.mark.filterwarnings("error")
def test_output_bytes_match_bench_golden(capsys):
    # the benchmark's cli-session invocations, recorded as `python -W error -m fttlab`
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    _match_recorded_bytes(capsys, os.path.join(root, "bench", "cli_golden.json"), 7)


# outputs that go through BLAS ddot or gemm, whose rounding depends on the OpenBLAS kernel
_KERNEL_BOUND = ("verify --n 6 ", "verify --n 16 ", "semigroup-norm ")

# runs each invocation given as JSON in argv[1] in-process; prints {line: [exit code, SHA-256]}
_DIGESTS = """
import contextlib, hashlib, io, json, sys
from fttlab.cli import main
got = {}
for line in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(line.split())
    got[line] = [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]
print(json.dumps(got))
"""


def _has_cpu_flag(flag: str) -> bool:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return any(line.startswith("flags") and flag in line.split() for line in fh)
    except OSError:
        return False


def _kernel_env(kernel: str) -> dict[str, str]:
    """A child's environment forcing an OpenBLAS kernel, which is read at load time;
    skips where that kernel cannot run."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE names x86-64 kernels")
    if kernel == "Haswell" and not _has_cpu_flag("avx2"):
        pytest.skip("the Haswell kernel needs AVX2")
    return {"OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
def test_kernel_free_outputs_match_under_other_blas_kernels(kernel):
    # the pinned entries that reach no BLAS ddot or gemm keep their bytes on any
    # OpenBLAS kernel
    env_vars = _kernel_env(kernel)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    want = {}
    for path, count in ((os.path.join(root, "tests", "fixtures", "cli_bytes.json"), 12),
                        (os.path.join(root, "bench", "cli_golden.json"), 5)):
        with open(path, encoding="utf-8") as fh:
            entries = {line: [v["exit_code"], v["stdout_sha256"]]
                       for line, v in json.load(fh).items() if not line.startswith(_KERNEL_BOUND)}
        assert len(entries) == count, path
        want.update(entries)
    result = _python("-W", "error", "-c", _DIGESTS, json.dumps(list(want)), timeout=120,
                     env_vars=env_vars)
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout) == want


_VDOT_SWEEP = """
import sys
sys.path.insert(0, sys.argv[1])
from test_inequalities import vdot_mismatches
print(*vdot_mismatches())
"""


@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
def test_vdot_is_the_ddot_of_matmul_under_other_blas_kernels(kernel):
    # verify's a.a is np.vdot in place of a @ a: the same ddot call on each kernel
    result = _python("-W", "error", "-c", _VDOT_SWEEP, os.path.dirname(os.path.abspath(__file__)),
                     timeout=120, env_vars=_kernel_env(kernel))
    assert (result.returncode, result.stderr) == (0, "")
    mismatches, cases = map(int, result.stdout.split())
    assert (mismatches, cases) == (0, 302 * 5 * 4)  # sizes, scales, views


_OWN_PEAK = """\
import sys
from fttlab.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
try:  # VmHWM is this process's own peak
    with open("/proc/self/status", encoding="ascii") as fh:
        peak_mb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 2**10
except OSError:  # off Linux; there ru_maxrss is bytes on macOS, KiB elsewhere
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak / (2**20 if sys.platform == "darwin" else 2**10)
print(peak_mb, file=sys.stderr)
sys.exit(code)
"""


def _digest_and_own_peak(*argv: str) -> tuple[str, float]:
    """SHA-256 of the stdout of ``fttlab argv`` run in a child, and that child's own peak RSS in MB.

    On Linux a child's ru_maxrss keeps its spawner's peak across exec, so a
    pytest process that once held 120 MB would pass that figure on; VmHWM does not.
    """
    result = _python("-c", _OWN_PEAK, *argv, timeout=120, env_vars={"OPENBLAS_NUM_THREADS": "1"},
                     text=False)  # a CSV's CRLF line ends are part of the digest
    assert result.returncode == 0, result.stderr
    return hashlib.sha256(result.stdout).hexdigest(), float(result.stderr)


def test_a_long_curve_runs_in_flat_memory():
    # the curve runs in chunks of a fixed byte budget; the whole 2001-point grid
    # as one stack peaked at 156 MB, the chunked pass at 82 MB
    digest, peak_mb = _digest_and_own_peak("semigroup-norm", "--n", "40", "--alpha", "-1",
                                           "--grid", "0:10:2001")
    assert digest == "9ba489ec5230996844296ba39dc489a7b894b67acbfb0f8391d64cab93d9a08f"
    assert peak_mb < 120, peak_mb


def test_a_long_probe_runs_in_flat_memory():
    # the probe's exponentials run in chunks of the same byte budget as a curve's
    digest, peak_mb = _digest_and_own_peak("probe-gftt2", "--n", "2", "--samples", "20000",
                                           "--seed", "4")
    assert digest == "6b699ec4d67a8268cb899237b5532362383083f4630bdedfa28554917fbef4cd"
    assert peak_mb < 60, peak_mb


def test_a_long_verify_runs_in_flat_memory():
    # verify keeps only each kind's running first minimum; holding every
    # sample's vector and report peaked at 72 MB, the stream at 30 MB
    digest, peak_mb = _digest_and_own_peak("verify", "--n", "200", "--samples", "20000")
    assert digest == "230ac5b4eeb7d5f601f83e55eeb04312acdd166bd3f00a1e14e57bef3e9db324"
    assert peak_mb < 50, peak_mb


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


# (lo, hi, count): negative ends, two points, spans near 1e308, subnormal steps
# (0:5e-324:3 underflows the step to 0, numpy's special case)
LINEAR_GRIDS = [
    (0.0, 10.0, 101), (0.0, 8.0, 17), (0.0, 4.0, 9), (0.0, 1.0, 2), (-5.0, 5.0, 2),
    (-3.0, 7.0, 11), (-1e3, -1e-3, 7), (0.1, 0.7, 6), (-2.5, 1e-9, 1000),
    (1.0, 1.0000000000000002, 5), (-1e308, 7e307, 5), (-8.9e307, 8.9e307, 33),
    (1e-300, 1.7e308, 9), (0.0, 5e-324, 3), (0.0, 1e-323, 7), (-5e-324, 5e-324, 4),
    (0.0, 2.2e-308, 1001),
]


@pytest.mark.parametrize("lo, hi, count", LINEAR_GRIDS)
def test_linear_grid_is_linspace_bit_for_bit(lo, hi, count):
    assert _hex(_parse_grid(f"{lo!r}:{hi!r}:{count}")) == _hex(np.linspace(lo, hi, count))


@given(lo=st.floats(-1e300, 1e300), width=st.floats(1e-300, 1e300), count=st.integers(2, 300))
@settings(max_examples=300)
def test_random_linear_grid_is_linspace_bit_for_bit(lo, width, count):
    hi = lo + width
    if hi > lo:
        assert _hex(_parse_grid(f"{lo!r}:{hi!r}:{count}")) == _hex(np.linspace(lo, hi, count))


@pytest.mark.parametrize("text", ["0.01:10:64:geom", "1e-300:1e300:17:geom", "1:2:2:geom",
                                  "3:3.5:9:geom", "1e-3:1.7e308:100:geom"])
def test_geometric_grid_is_geomspace(text):
    lo, hi, count, _ = text.split(":")
    assert _hex(_parse_grid(text)) == _hex(np.geomspace(float(lo), float(hi), int(count)))


def test_one_point_grid():
    assert _parse_grid("2.5:2.5:1") == [2.5]


def _python(*args: str, env_vars: dict[str, str] | None = None, **kwargs):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, **(env_vars or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    kwargs.setdefault("text", True)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, **kwargs)


def _fttlab(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    return _python("-m", "fttlab", *argv, **kwargs)


def test_huge_term_count_sweeps_at_once():
    # i0_partial used to loop over all 10**300 terms until killed
    result = _fttlab("bessel-sweep", "--n", str(10**300), "--grid", "0:1:2", timeout=10)
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 3


def _cap_address_space():
    # a 7 PiB request then fails at once, so nothing is really allocated
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("command", ["semigroup-norm --alpha -0.7", "verify", "probe-gftt2"])
def test_unallocatable_dimension_exits_two(command):
    # used to print numpy's _ArrayMemoryError traceback and exit 1, "a bound was violated"
    name, *rest = command.split()
    # one BLAS thread: each thread's stack counts against the cap, and a many-core host starts one per core
    one_thread = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    result = _fttlab(name, "--n", str(10**15), *rest, env_vars=one_thread, timeout=60,
                     preexec_fn=_cap_address_space)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("fttlab: out of memory: ") and result.stderr.count("\n") == 1
