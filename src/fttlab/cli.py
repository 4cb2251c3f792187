"""Command line interface.

Six subcommands over the library: ``constants``, ``verify``,
``semigroup-norm``, ``bessel-sweep``, ``threshold``, ``probe-gftt2``.

Exit codes: 0 success, 1 a checked bound was violated, 2 usage or input
contract error, 3 numeric failure (overflow, non-convergence, dual-route
disagreement).  A numeric failure aborts the run before any violation is
reported, so 3 takes precedence over 1.

Each handler imports the modules it needs, so ``--version``, ``--help``,
``constants``, ``threshold`` and ``bessel-sweep`` on a linear grid run
without importing numpy.

Output is byte-deterministic for fixed arguments: randomness comes only
from the seeded generator in ``rng``, floats are serialized with their
shortest round-trip repr, and CSV rows use the csv module's CRLF endings.
No output is ever colored, so the NO_COLOR convention holds vacuously.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys

from . import __version__
from ._scalar import InequalityKind, JordanVariant, sharp_constant, threshold_alpha
from ._validate import as_finite, as_int, finite
from .errors import NumericsError

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


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "geom"):
        raise ValueError(f"grid must be lo:hi:count or lo:hi:count:geom, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid fields must be number:number:integer, got {text!r}") from None
    lo, hi = as_finite(lo, "grid start"), as_finite(hi, "grid end")
    if count < 1:
        raise ValueError(f"grid needs at least one point, got {count}")
    if count == 1:
        if lo != hi:
            raise ValueError("a one-point grid needs lo == hi")
        return [lo]
    if hi <= lo:
        raise ValueError(f"grid needs hi > lo, got {text!r}")
    span = finite(hi - lo, "grid span")  # an inf span would give nan points
    if len(parts) == 4:
        if lo <= 0.0:
            raise ValueError("a geometric grid needs lo > 0")
        import numpy as np

        return np.geomspace(lo, hi, count).tolist()
    # np.linspace's arithmetic, point for point, with the last point set to hi
    div = count - 1
    step = span / div
    if step == 0.0:  # a subnormal span: numpy scales k / div instead
        grid = [k / div * span + lo for k in range(count)]
    else:
        grid = [k * step + lo for k in range(count)]
    grid[-1] = hi
    return grid


def _resolve_ns(args: argparse.Namespace) -> list[int]:
    if args.n_range is not None:
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
    np = sys.modules.get("numpy")  # an ndarray exists only once numpy is loaded
    if np is not None and isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    return value


def _emit(args: argparse.Namespace, **fields) -> None:
    """The one writer: the JSON envelope holding ``fields`` in call order, or
    the ``rows`` field as CSV; to ``--out`` when given, else to stdout.

    A CSV header is the keys of the first row; no table is ever empty.
    """
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **fields}
        text = json.dumps(_json_value(payload), indent=2, allow_nan=False) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(fields["rows"][0]))
        writer.writeheader()
        for row in fields["rows"]:
            writer.writerow({k: _csv_value(v) for k, v in row.items()})
        text = buffer.getvalue()
    if args.out:
        # newline="" keeps the csv module's CRLF endings intact on disk
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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
    _emit(args, rows=rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .inequalities import extremal_vector, verify
    from .rng import SplitMix64

    samples = as_int(args.samples, "samples", minimum=0)
    kinds = list(InequalityKind) if args.kind == "all" else [InequalityKind(args.kind)]
    rng = SplitMix64(args.seed)
    rows: list[dict] = []
    witnesses: list[dict] = []
    for kind in kinds:
        # sample 0 is always the extremal vector, so the sharp edge is on record
        scale = 1.0
        if args.tamper:
            scale = 1.05 if kind.is_lower else 0.95
        vectors = [extremal_vector(kind, args.n)]
        vectors.extend(rng.vector(args.n) for _ in range(samples))
        reports = [verify(kind, a, tol=args.tol, constant_scale=scale) for a in vectors]
        directed = [r.margin if kind.is_lower else -r.margin for r in reports]
        worst = directed.index(min(directed))  # the first minimum
        report = reports[worst]
        if not report.holds:
            witnesses.append(
                {
                    "kind": kind.value,
                    "n": args.n,
                    "sample": worst,
                    "vector": vectors[worst],
                    "lhs": report.lhs,
                    "rhs": report.rhs,
                    "margin": report.margin,
                }
            )
        rows.append(
            {
                "kind": kind.value,
                "n": args.n,
                "samples": len(vectors),
                "min_directed_margin": directed[worst],
                "worst_sample": worst,
                "holds": report.holds,
            }
        )
    _emit(args, witnesses=witnesses, rows=rows)
    return 1 if witnesses else 0


def _cmd_semigroup_norm(args: argparse.Namespace) -> int:
    from .semigroup import contraction_check
    from .tridiagonal import UpperBidiagonal

    block = UpperBidiagonal(args.n, args.alpha, JordanVariant(args.variant))
    grid = _parse_grid(args.grid) if args.grid else None
    curve = contraction_check(block.to_dense(), xs=grid)
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
    _emit(args, rows=rows)
    return 0


def _cmd_bessel_sweep(args: argparse.Namespace) -> int:
    from .bessel import bound1, bound2, i0_partial

    tol = as_finite(args.tol, "tol", minimum=0.0)
    grid = _parse_grid(args.grid)
    if min(grid) < 0.0:
        raise ValueError("partial sums are defined for x >= 0 only")
    rows = []
    dominated_failure = False
    for x in grid:
        partial = i0_partial(args.n, x)
        b1 = bound1(args.n, x)
        b2 = bound2(args.n, x)
        if partial > b1 + tol:
            status = "bound1-exceeded"
            dominated_failure = True
        elif partial > b2 + tol:
            status = "bound2-exceeded"
        else:
            status = "ok"
        rows.append(
            {"n": args.n, "x": x, "partial": partial, "bound1": b1, "bound2": b2, "status": status}
        )
    _emit(args, rows=rows)
    return 1 if dominated_failure else 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    from .bessel import ThresholdResult, threshold_x0

    rows = []
    for n in _resolve_ns(args):
        if n >= 2:
            result = threshold_x0(
                n, tol=args.tol, search_hi=args.search_hi, scan_points=args.scan_points
            )
            status = "ok" if result.found else "not-found"
        elif args.n_range is None:
            raise ValueError("threshold needs n >= 2; at n = 1 no crossing exists")
        else:
            result = ThresholdResult(n=n, found=False)
            status = "rejected"
        row = dataclasses.asdict(result)
        del row["sign_pattern"]
        rows.append({**row, "status": status})
    _emit(args, rows=rows)
    return 0


def _cmd_probe_gftt2(args: argparse.Namespace) -> int:
    from .semigroup import gftt2_discrepancy_probe

    report = gftt2_discrepancy_probe(args.n, args.samples, args.seed)
    _emit(args, **dataclasses.asdict(report))
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
    p.set_defaults(handler=_cmd_probe_gftt2, format="json")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; keep main() returnable
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except NumericsError as exc:
        print(f"fttlab: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"fttlab: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a dimension too large to allocate is an input error
        print(f"fttlab: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
