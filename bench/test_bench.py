"""Self-test of the benchmark: smoke runs, the oracle gate, the contract.

    python3 -m pytest bench/test_bench.py -q

The smoke runs use ``--tiny`` sizes, so the whole file takes seconds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import fttlab  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fttlab import inequalities, tridiagonal  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False,
    )


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_passes_its_gate(tmp_path, workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0.01",
                 "--trace", trace, "--tiny", "--out", str(tmp_path / "record.json"))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else run.per_layer_units()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["provenance"]["seed"] == 5


def test_compare_prints_ratios(tmp_path):
    first = tmp_path / "first.json"
    args = ["--workload", "spectrum", "--seconds", "0.01", "--tiny"]
    assert bench(*args, "--out", str(first)).returncode == 0
    done = bench(*args, "--out", str(tmp_path / "second.json"), "--compare", str(first))
    assert done.returncode == 0, done.stderr
    assert "compare cases_per_s:" in done.stdout


def test_perturbed_eig_sturm_fails_the_gate(monkeypatch):
    original = tridiagonal.eig_sturm

    def perturbed(*args, **kwargs):
        return original(*args, **kwargs) + 1e-6

    for namespace in (fttlab, tridiagonal, inequalities):
        monkeypatch.setattr(namespace, "eig_sturm", perturbed)
    record = run.measure("spectrum", 0, inputs.TINY, None, lambda: 1.0, decks=1)
    assert record.failures and len(record.failures) == len(record.cases)
    assert all("eig_sturm differs" in failure for failure in record.failures)


def test_changed_cli_bytes_fail_the_gate():
    argv = list(inputs.CLI_INVOCATIONS[0])
    want = {"exit_code": 0, "stdout_sha256": "0" * 64}
    ctx = workloads.CliContext(python=sys.executable, cwd=str(ROOT), env={},
                               golden={workloads.cli_key(argv): want})
    assert workloads.check_cli({"argv": argv}, (0, "0" * 64), ctx) == []
    assert workloads.check_cli({"argv": argv}, (0, "1" * 64), ctx)
    assert workloads.check_cli({"argv": argv}, (1, "0" * 64), ctx)


def test_decks_depend_on_the_seed_but_not_their_shape():
    for workload in inputs.WORKLOADS:
        a = inputs.deck(workload, 1, 0)
        b = inputs.deck(workload, 2, 0)
        assert sorted(c.kind for c in a) == sorted(c.kind for c in b)
        assert repr(inputs.deck(workload, 1, 0)) == repr(a)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "spectrum", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
