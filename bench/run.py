"""The fttlab benchmark: four oracle-gated workloads, timed end to end and per layer.

    python3 bench/run.py --workload spectrum --seed 1 --seconds 24 --trace 0

Workloads (each a closed loop with one caller, in one process):

``spectrum``     full spectra and determinants of symmetrized J_n and J~_n,
                 n in {50, 100, 200, 400}: the O(n^2) all-eigenvalue
                 bisection path, where no eigenvalue is wasted.
``certify``      the ``fttlab verify`` shape for all four kinds, n up to 200:
                 extremal vectors, seeded samples through ``verify``,
                 dissipativity on both sides of the threshold, the Bessel
                 crossing.  Only the extreme eigenpair is used.
``semigroup``    contraction checks at n in {2, 8, 30} inside, at and past
                 the threshold, plus the strict check, the norm-preserving
                 subspace, the generalized bound and the free-end probe:
                 ``operator_norm`` dominates and no ``eig_sturm`` runs.
``cli-session``  short ``python -m fttlab`` subprocesses, one at a time,
                 every subcommand plus ``--version``: start-up dominates.

Every case is checked against an independent route (``workloads.py``); a
failed or raising case counts in ``failed`` and makes the exit code 1.

A run executes whole decks (``inputs.py``) and treats each deck as one batch.
End-to-end metrics (``--trace 0``):

``cases_per_s``   cases in a deck over the median deck time
``case_p50_ms``   median over decks of each deck's median case latency
``case_p95_ms``   median over decks of each deck's 95th-percentile latency
``setup_s``       median over five fresh interpreters of the time to import
                  fttlab and build the first deck (for cli-session that is
                  the bare import, which every CLI call pays)
``peak_rss_mb``   peak resident memory of this process, or of the largest
                  CLI child for cli-session

The numbers of cases and decks are printed and recorded with the result, as
is ``failed_frac``; the latter is no metric of the result line because it is
0 whenever the run is correct.  Timings are calibrated to a nominal host
speed by a reference timed between cases (``calibrate.py``), because on a
shared host the speed one process gets drifts by tens of percent over
minutes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs whole
decks untraced for half the time, then the same decks with every public
``fttlab`` function wrapped in spans (``tracer.py``), and reports per-layer
metrics.  The last line of stdout is the JSON result; the full record, with
provenance, goes to ``.bench_out/`` (or ``--out``), and ``--compare PREV``
prints each metric's ratio against an earlier record.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# one BLAS thread: the matrices are small, and a 2-core host shared with
# other work gives steadier figures without thread hand-offs
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 5
CASE_SPAN = "bench.case"  # root span of one timed case; its self time is harness glue
IMPORT_PROBES = 3

END_TO_END = {
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_STATS = {
    "tridiagonal.eig_sturm": ("calls", "self_s", "max_abs_err"),
    "tridiagonal.check_dissipative": ("calls", "self_s"),
    "tridiagonal.det_recurrence": ("calls", "self_s"),
    "tridiagonal.eigvec_inverse_iteration": ("calls", "self_s", "max_residual"),
    "semigroup.operator_norm": ("calls", "self_s", "max_rel_err"),
    "semigroup.expm_oracle": ("calls", "self_s", "max_rel_err"),
    "semigroup.contraction_check": ("calls", "self_s"),
    "semigroup.strict_contraction_check": ("calls", "self_s"),
    "semigroup.norm_preserving_subspace": ("calls", "self_s"),
    "semigroup.gftt_check": ("calls", "self_s"),
    "semigroup.gftt2_discrepancy_probe": ("calls", "self_s"),
    "inequalities.verify": ("calls", "self_s"),
    "inequalities.extremal_vector": ("calls", "self_s"),
    "rng.SplitMix64.vector": ("calls", "self_s"),
    "bessel.threshold_x0": ("calls", "self_s"),
    "bessel.i0_partial": ("calls", "self_s"),
    "bessel.bound1": ("calls", "self_s"),
    "bessel.bound2": ("calls", "self_s"),
    "chebyshev.u_eval": ("calls", "self_s"),
    "chebyshev.u_diff_eval": ("calls", "self_s"),
    "chebyshev.u_zeros": ("calls", "self_s"),
    "chebyshev.u_diff_zeros": ("calls", "self_s"),
}
STAT_UNITS = {
    "calls": "calls/case", "self_s": "s/case",
    "max_abs_err": "abs", "max_residual": "abs", "max_rel_err": "rel",
}
CLI_COMMANDS = ("version", "constants", "verify", "semigroup-norm", "bessel-sweep",
                "threshold", "probe-gftt2")


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every ``--trace 1`` metric, in report order."""
    units = {f"{layer}.{stat}": STAT_UNITS[stat]
             for layer, stats in LAYER_STATS.items() for stat in stats}
    units["cli.import_s"] = "s"
    units["cli.import_scipy_s"] = "s"
    units.update({f"cli.{command}.p50_ms": "ms" for command in CLI_COMMANDS})
    units["trace.overhead_frac"] = "ratio"
    return units


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("spectrum", "certify", "semigroup", "cli-session"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes and a single set-up probe")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="where to write the full record (default .bench_out/)")
    parser.add_argument("--compare", metavar="PREV", default=None,
                        help="print each metric's ratio against an earlier record")
    return parser.parse_args(argv)


# --- provenance ---------------------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(), "unix_time": time.time(),
    }


# --- subprocess probes --------------------------------------------------------

def setup_seconds(args, env) -> tuple[list[float], list[float]]:
    """Fresh interpreter to first case, raw and calibrated, once per probe.

    A warm-up probe goes first and is not counted.
    """
    import calibrate

    raw, calibrated = [], []
    probes = 1 if args.tiny else 1 + SETUP_PROBES
    before = calibrate.child_process(env)
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
             "1" if args.tiny else "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        after = calibrate.child_process(env)
        raw.append(elapsed)
        calibrated.append(elapsed * 2.0 / (before + after))
        before = after
    skip = 0 if args.tiny else 1
    return raw[skip:], calibrated[skip:]


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")


def import_seconds(env, probes: int) -> tuple[float, float]:
    """Median cumulative ``import fttlab`` time and the scipy share of it (-X importtime)."""
    totals, scipys = [], []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fttlab"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        entries = [(len(m.group(2)), m.group(3), int(m.group(1)) * 1e-6)
                   for m in map(_IMPORTTIME.match, done.stderr.splitlines()) if m]
        totals.append(sum(t for depth, name, t in entries if name == "fttlab"))
        scipy_entries = [(depth, t) for depth, name, t in entries
                         if name == "scipy" or name.startswith("scipy.")]
        top = min((depth for depth, _ in scipy_entries), default=0)
        scipys.append(sum(t for depth, t in scipy_entries if depth == top))
    return statistics.median(totals), statistics.median(scipys)


# --- the closed loop ----------------------------------------------------------

class Record:
    """Cases of one measurement: raw latencies and calibration factors by deck, failures."""

    def __init__(self) -> None:
        self.deck_latencies: list[list[float]] = []
        self.deck_scales: list[list[float]] = []
        self.cases: list = []
        self.failures: list[str] = []

    @property
    def decks(self) -> int:
        return len(self.deck_latencies)

    def calibrated(self) -> list[list[float]]:
        return [[t * f for t, f in zip(times, scales)]
                for times, scales in zip(self.deck_latencies, self.deck_scales)]


def time_case(workloads, case, ctx, tracer):
    """Run one case, traced when a tracer is given; returns (seconds, output, problems)."""
    run, _ = workloads.RUNNERS[case.kind]
    out, problems = None, []
    if tracer is not None:
        tracer.active = True
        root = tracer.open(CASE_SPAN)
    t0 = time.perf_counter()
    try:
        out = run(case.params, ctx)
    except Exception as exc:  # a raising case is a failed case
        problems = [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.active = False
    return elapsed, out, problems


def measure(workload, seed, sizes, ctx, slowness, *, seconds=None, decks=None, tracer=None) -> Record:
    """Run exactly ``decks`` whole decks, or as many as fit in ``seconds`` of wall time.

    A deck is started only if a deck of median length still fits, so a run
    keeps to its time whatever the deck size; the first deck always runs.
    ``slowness()`` times a reference between cases (see ``calibrate.py``),
    and each case is checked against its oracle after it, untimed.
    """
    import inputs
    import workloads

    record = Record()
    start = time.perf_counter()
    walls: list[float] = []
    before = slowness()
    while True:
        if decks is not None:
            if record.decks == decks:
                break
        elif walls and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
        deck_start = time.perf_counter()
        index = record.decks
        latencies, scales = [], []
        for case in inputs.deck(workload, seed, index, sizes):
            elapsed, out, problems = time_case(workloads, case, ctx, tracer)
            after = slowness()
            latencies.append(elapsed)
            scales.append(2.0 / (before + after))
            before = after
            if not problems:
                try:
                    problems = workloads.RUNNERS[case.kind][1](case.params, out, ctx)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            record.cases.append(case)
            record.failures.extend(f"deck {index} {case.kind}: {p}" for p in problems[:1])
        record.deck_latencies.append(latencies)
        record.deck_scales.append(scales)
        walls.append(time.perf_counter() - deck_start)
    return record


# --- metrics --------------------------------------------------------------------

def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(record: Record, setup: list[float], workload: str) -> dict:
    """Calibrated timings; each deck is one batch and each timing the median of its per-deck values."""
    import numpy as np
    decks = [np.array(deck) for deck in record.calibrated()]
    cases_per_deck = len(decks[0])
    return {
        "cases_per_s": cases_per_deck / statistics.median(float(d.sum()) for d in decks),
        "case_p50_ms": 1e3 * statistics.median(float(np.percentile(d, 50)) for d in decks),
        "case_p95_ms": 1e3 * statistics.median(float(np.percentile(d, 95)) for d in decks),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(workload),
    }


def layer_errors(tracer) -> dict[str, float]:
    """Accuracy of the captured calls against independent routes, computed untimed."""
    import numpy as np
    import scipy.linalg

    def worst(values):
        return max(values, default=0.0)

    captured = tracer.captured
    errors = {}
    errors["tridiagonal.eig_sturm.max_abs_err"] = worst(
        float(np.max(np.abs(result - np.linalg.eigvalsh(a["tri"].to_dense()))))
        for a, result in captured["tridiagonal.eig_sturm"])
    errors["tridiagonal.eigvec_inverse_iteration.max_residual"] = worst(
        float(np.linalg.norm(a["tri"].to_dense() @ v - a["eigenvalue"] * v))
        for a, v in captured["tridiagonal.eigvec_inverse_iteration"])

    def norm_err(M, result):
        want = float(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)[0])
        return abs(result - want) / want if want else abs(result)

    errors["semigroup.operator_norm.max_rel_err"] = worst(
        norm_err(a["M"], result) for a, result in captured["semigroup.operator_norm"])

    def expm_err(Q, x, result):
        want = scipy.linalg.expm(np.asarray(Q, dtype=float) * x)
        return float(np.max(np.abs(result - want))) / max(1.0, float(np.max(np.abs(want))))

    errors["semigroup.expm_oracle.max_rel_err"] = worst(
        expm_err(a["Q"], a["x"], result) for a, result in captured["semigroup.expm_oracle"])
    return errors


def per_layer(untraced: Record, traced: Record, tracer, cli_import) -> tuple[dict, dict]:
    """Per-layer metrics (calibrated like the case they ran in), and the full layer table."""
    own = tracer.self_times()
    roots = [i for i, parent in enumerate(tracer.parents) if parent < 0]
    if any(tracer.names[i] != CASE_SPAN for i in roots) or len(roots) != len(traced.cases):
        raise RuntimeError("spans were recorded outside the timed cases")
    scales = [f for deck in traced.deck_scales for f in deck]
    case_of: list[int] = []  # index of the case each span ran in
    cases_seen = 0
    for parent in tracer.parents:
        if parent < 0:
            cases_seen += 1
        case_of.append(cases_seen - 1 if parent < 0 else case_of[parent])
    table: dict[str, dict] = {}
    for i, name in enumerate(tracer.names):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[i] * scales[case_of[i]]

    traced_s = sum(t for deck in traced.calibrated() for t in deck)
    untraced_s = sum(t for deck in untraced.calibrated() for t in deck)
    overhead = traced_s / untraced_s - 1.0
    # the self times must add up to the untraced case time once the tracing
    # overhead is allowed for; a gap means spans were lost or double counted,
    # and then no per-layer figure can be trusted
    accounted = sum(row["self_s"] for row in table.values())
    if abs(accounted - untraced_s * (1.0 + overhead)) > 1e-3 * traced_s:
        raise RuntimeError(f"self times sum to {accounted!r}s, traced cases took {traced_s!r}s")

    cases = len(traced.cases)
    metrics = {}
    for layer, stats in LAYER_STATS.items():
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = row["calls"] / cases
        metrics[f"{layer}.self_s"] = row["self_s"] / cases
    metrics.update(layer_errors(tracer))
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = cli_import
    by_command: dict[str, list[float]] = {}
    for record in (untraced, traced):
        latencies = [t for deck in record.calibrated() for t in deck]
        for case, latency in zip(record.cases, latencies):
            if case.kind == "cli":
                by_command.setdefault(case.params["argv"][0].removeprefix("--"), []).append(latency)
    for command in CLI_COMMANDS:
        samples = by_command.get(command)
        metrics[f"cli.{command}.p50_ms"] = 1e3 * statistics.median(samples) if samples else 0.0
    metrics["trace.overhead_frac"] = overhead
    units = per_layer_units()
    return {name: metrics[name] for name in units}, table


# --- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fttlab" / "__init__.py").is_file():
        print(f"run.py: no fttlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))

    import fttlab
    if Path(fttlab.__file__).resolve().parent != (SRC / "fttlab").resolve():
        print(f"run.py: imported fttlab from {fttlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import inputs
    import tracer as tracing
    import workloads

    sizes = inputs.TINY if args.tiny else inputs.FULL
    if args.workload == "cli-session":
        slowness = functools.partial(calibrate.child_process, env)
    else:
        slowness = calibrate.in_process
    with open(HERE / "cli_golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    ctx = workloads.CliContext(python=sys.executable, cwd=str(ROOT), env=env, golden=golden)
    info = provenance(args)

    if args.trace == 0:
        setup_raw, setup = setup_seconds(args, env)
        record = measure(args.workload, args.seed, sizes, ctx, slowness, seconds=args.seconds)
        records = [record]
        metrics = end_to_end(record, setup, args.workload)
        units = dict(END_TO_END)
        table = None
        info["setup_probes_raw_s"] = setup_raw
    else:
        cli_import = import_seconds(env, 1 if args.tiny else IMPORT_PROBES)
        untraced = measure(args.workload, args.seed, sizes, ctx, slowness, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(args.workload, args.seed, sizes, ctx, slowness, decks=untraced.decks, tracer=tracer)
        finally:
            tracer.uninstall()
        records = [untraced, traced]
        metrics, table = per_layer(untraced, traced, tracer, cli_import)
        units = per_layer_units()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.tsv")

    attempted = sum(len(r.cases) for r in records)
    failures = [f for r in records for f in r.failures]
    info.update({
        "cases": attempted, "decks": sum(r.decks for r in records),
        "failed_frac": len(failures) / attempted,
    })
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    full = dict(result, provenance=info, failures=failures, layers=table,
                raw_deck_latencies_s=[r.deck_latencies for r in records],
                deck_calibration=[r.deck_scales for r in records])
    out_path = Path(args.out) if args.out else (
        OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")

    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload}: {attempted} cases in {info['decks']} decks, "
          f"failed_frac {info['failed_frac']:.4g}, record {out_path}")
    print(json.dumps({"provenance": info}))
    if args.compare:
        previous = json.loads(Path(args.compare).read_text(encoding="utf-8"))["metrics"]
        for name, entry in result["metrics"].items():
            old = previous.get(name, {}).get("value")
            if old:
                print(f"compare {name}: {entry['value']:.6g} / {old:.6g} = {entry['value'] / old:.4f}")
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
