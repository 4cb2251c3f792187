"""Command line interface.

Six subcommands over the library: ``constants``, ``verify``,
``semigroup-norm``, ``bessel-sweep``, ``threshold``, ``probe-gftt2``.

Exit codes: 0 success, 1 a checked bound was violated, 2 usage or input
contract error, 3 numeric failure (overflow, non-convergence, dual-route
disagreement).  A numeric failure aborts the run before any violation is
reported, so 3 takes precedence over 1.

Output is byte-deterministic for fixed arguments: randomness comes only
from the seeded generator in ``rng``, floats are serialized with their
shortest round-trip repr, and CSV rows use the csv module's CRLF endings.
No output is ever colored, so the NO_COLOR convention holds vacuously.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

import numpy as np

from . import __version__
from ._validate import check_tol
from .bessel import bound1, bound2, i0_partial, threshold_x0
from .errors import ConsistencyError, NumericsError
from .inequalities import (
    InequalityKind,
    extremal_vector,
    sharp_constant,
    threshold_alpha,
    verify,
)
from .rng import SplitMix64
from .semigroup import contraction_check, gftt2_discrepancy_probe
from .tridiagonal import JordanVariant, UpperBidiagonal

SCHEMA_VERSION = 1

_KIND_CHOICES = [k.value for k in InequalityKind]


def _parse_n_range(text: str) -> list[int]:
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if match is None:
        raise ValueError(f"range must look like 2..10, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo < 1 or hi < lo:
        raise ValueError(f"range bounds must satisfy 1 <= lo <= hi, got {text!r}")
    return list(range(lo, hi + 1))


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "geom"):
        raise ValueError(f"grid must be lo:hi:count or lo:hi:count:geom, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid fields must be number:number:integer, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid endpoints must be finite, got {text!r}")
    if count < 1:
        raise ValueError(f"grid needs at least one point, got {count}")
    if count == 1:
        if lo != hi:
            raise ValueError("a one-point grid needs lo == hi")
        return np.array([lo])
    if hi <= lo:
        raise ValueError(f"grid needs hi > lo, got {text!r}")
    if len(parts) == 4:
        if lo <= 0.0:
            raise ValueError("a geometric grid needs lo > 0")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _resolve_ns(args: argparse.Namespace) -> list[int]:
    if getattr(args, "n_range", None) is not None:
        return _parse_n_range(args.n_range)
    return [args.n]


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    return value


def _write_text(args: argparse.Namespace, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        # newline="" keeps the csv module's CRLF endings intact on disk
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(args, command: str, fieldnames: list[str], rows: list[dict], extra: dict | None = None) -> None:
    if getattr(args, "format", "csv") == "json":
        payload: dict = {"schema_version": SCHEMA_VERSION, "command": command}
        if extra:
            payload.update({k: _json_value(v) for k, v in extra.items()})
        payload["rows"] = [{k: _json_value(v) for k, v in row.items()} for row in rows]
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_value(v) for k, v in row.items()})
        text = buffer.getvalue()
    _write_text(args, text)


def _cmd_constants(args: argparse.Namespace) -> int:
    kinds = list(InequalityKind) if args.kind == "all" else [InequalityKind(args.kind)]
    rows = [
        {
            "n": n,
            "kind": kind.value,
            "sharp_constant": sharp_constant(kind, n),
            "threshold_alpha": threshold_alpha(kind, n),
        }
        for n in _resolve_ns(args)
        for kind in kinds
    ]
    _emit_table(args, "constants", ["n", "kind", "sharp_constant", "threshold_alpha"], rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < 0:
        raise ValueError(f"samples must be nonnegative, got {args.samples}")
    kinds = list(InequalityKind) if args.kind == "all" else [InequalityKind(args.kind)]
    rng = SplitMix64(args.seed)
    rows: list[dict] = []
    witnesses: list[dict] = []
    violated = False
    for kind in kinds:
        # sample 0 is always the extremal vector, so the sharp edge is on record
        scale = 1.0
        if args.tamper:
            scale = 1.05 if kind.is_lower else 0.95
        vectors = [extremal_vector(kind, args.n)]
        vectors.extend(rng.vector(args.n) for _ in range(args.samples))
        worst_margin = math.inf
        worst_index = -1
        worst_vector = vectors[0]
        worst_report = None
        for index, a in enumerate(vectors):
            report = verify(kind, a, tol=args.tol, constant_scale=scale)
            directed = report.margin if kind.is_lower else -report.margin
            if directed < worst_margin:
                worst_margin = directed
                worst_index = index
                worst_vector = a
                worst_report = report
        holds = worst_report.holds
        if not holds:
            violated = True
            witnesses.append(
                {
                    "kind": kind.value,
                    "n": args.n,
                    "sample": worst_index,
                    "vector": worst_vector,
                    "lhs": worst_report.lhs,
                    "rhs": worst_report.rhs,
                    "margin": worst_report.margin,
                }
            )
        rows.append(
            {
                "kind": kind.value,
                "n": args.n,
                "samples": len(vectors),
                "min_directed_margin": worst_margin,
                "worst_sample": worst_index,
                "holds": holds,
            }
        )
    extra = {"witnesses": [{k: _json_value(v) for k, v in w.items()} for w in witnesses]}
    _emit_table(
        args,
        "verify",
        ["kind", "n", "samples", "min_directed_margin", "worst_sample", "holds"],
        rows,
        extra=extra if getattr(args, "format", "csv") == "json" else None,
    )
    return 1 if violated else 0


def _cmd_semigroup_norm(args: argparse.Namespace) -> int:
    block = UpperBidiagonal(args.n, args.alpha, JordanVariant(args.variant))
    grid = _parse_grid(args.grid) if args.grid else None
    curve = contraction_check(block.to_dense(), xs=grid, tol=args.tol)
    rows = [
        {
            "n": args.n,
            "alpha": args.alpha,
            "variant": args.variant,
            "x": float(x),
            "norm": float(norm),
        }
        for x, norm in zip(curve.xs, curve.norms)
    ]
    _emit_table(args, "semigroup-norm", ["n", "alpha", "variant", "x", "norm"], rows)
    return 0


def _cmd_bessel_sweep(args: argparse.Namespace) -> int:
    check_tol(args.tol, positive=False)
    grid = _parse_grid(args.grid)
    if float(np.min(grid)) < 0.0:
        raise ValueError("partial sums are defined for x >= 0 only")
    rows = []
    dominated_failure = False
    for x in grid:
        x = float(x)
        partial = i0_partial(args.n, x)
        b1 = bound1(args.n, x)
        b2 = bound2(args.n, x)
        if partial > b1 + args.tol:
            status = "bound1-exceeded"
            dominated_failure = True
        elif partial > b2 + args.tol:
            status = "bound2-exceeded"
        else:
            status = "ok"
        rows.append(
            {"n": args.n, "x": x, "partial": partial, "bound1": b1, "bound2": b2, "status": status}
        )
    _emit_table(args, "bessel-sweep", ["n", "x", "partial", "bound1", "bound2", "status"], rows)
    return 1 if dominated_failure else 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    sweeping = getattr(args, "n_range", None) is not None
    rows = []
    for n in _resolve_ns(args):
        if n < 2:
            if not sweeping:
                raise ValueError("threshold needs n >= 2; at n = 1 no crossing exists")
            rows.append(
                {
                    "n": n, "found": False, "x0": math.nan,
                    "bracket_lo": math.nan, "bracket_hi": math.nan,
                    "sign_changes": 0, "iterations": 0, "status": "rejected",
                }
            )
            continue
        result = threshold_x0(
            n, tol=args.tol, search_hi=args.search_hi, scan_points=args.scan_points
        )
        rows.append(
            {
                "n": result.n,
                "found": result.found,
                "x0": result.x0,
                "bracket_lo": result.bracket_lo,
                "bracket_hi": result.bracket_hi,
                "sign_changes": result.sign_changes,
                "iterations": result.iterations,
                "status": "ok" if result.found else "not-found",
            }
        )
    fieldnames = [
        "n", "found", "x0", "bracket_lo", "bracket_hi",
        "sign_changes", "iterations", "status",
    ]
    _emit_table(args, "threshold", fieldnames, rows)
    return 0


def _cmd_probe_gftt2(args: argparse.Namespace) -> int:
    report = gftt2_discrepancy_probe(args.n, args.samples, args.seed)

    def witness(w) -> dict | None:
        if w is None:
            return None
        return {"value": w.value, "x": w.x, "a": [float(v) for v in w.a]}

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "probe-gftt2",
        "n": report.n,
        "samples": report.samples,
        "seed": report.seed,
        "alpha": report.alpha,
        "bound_excess": witness(report.bound_excess),
        "exact_discrepancy": witness(report.exact_discrepancy),
    }
    _write_text(args, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="output format (default csv)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")


def _add_n_or_range(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single dimension")
    group.add_argument("--n-range", metavar="A..B", help="inclusive dimension range")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fttlab",
        description="Sharp difference inequalities, Jordan-block contraction "
                    "semigroups, and Bessel partial-sum bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="sharp constants and threshold alphas")
    _add_n_or_range(p)
    p.add_argument("--kind", choices=_KIND_CHOICES + ["all"], default="all")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("verify", help="check the inequalities on seeded random vectors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=_KIND_CHOICES + ["all"], default="all")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("semigroup-norm", help="operator norms of exp(Jx) over a grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--variant", choices=[v.value for v in JordanVariant],
                   default=JordanVariant.STANDARD.value)
    p.add_argument("--grid", metavar="LO:HI:COUNT[:geom]", default=None,
                   help="default is 0 plus 64 log-spaced points on [0.01, 10]")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_semigroup_norm)

    p = sub.add_parser("bessel-sweep", help="partial sums of I_0(2x) against both bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", metavar="LO:HI:COUNT[:geom]", default="0:10:101")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_bessel_sweep)

    p = sub.add_parser("threshold", help="crossing point of the two candidate bounds")
    _add_n_or_range(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--search-hi", type=float, default=100.0)
    p.add_argument("--scan-points", type=int, default=512)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser("probe-gftt2", help="measure the free-end closed-form gap (JSON only)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(handler=_cmd_probe_gftt2)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; keep main() returnable
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (NumericsError, ConsistencyError) as exc:
        print(f"fttlab: numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"fttlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
