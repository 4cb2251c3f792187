"""Case runners and their oracle gate.

Each case kind has a runner, the timed call into ``fttlab``, and a checker,
run untimed afterwards, that compares the runner's output with an
independent route at the tolerance the test suite uses for the same
comparison.  A checker returns a list of problems; an empty list means the
case passed.

Runners reach the program through module attributes (``tridiagonal.eig_sturm``
rather than a name imported here), so the tracer's wrappers, and a test's
deliberately perturbed layer, are the functions that actually run.

Two false claims are expected outcomes, not failures: ``bound2`` is exceeded
by the partial sum at n = 2, x = 2, and ``gftt2_discrepancy_probe`` finds a
positive ``bound_excess`` at n = 2.  A case in which either stops
reproducing fails.
"""

from __future__ import annotations

import hashlib
import math
import subprocess
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.special

from fttlab import bessel, chebyshev, inequalities, rng, semigroup, tridiagonal
from fttlab.inequalities import InequalityKind
from fttlab.tridiagonal import JordanVariant, UpperBidiagonal

# tolerances, each the one the test suite applies to the same comparison
EIG_VS_EIGVALSH = 1e-10
EIG_VS_CLOSED_FORM = 1e-12
DET_REL = 1e-9
EIGVEC_RESIDUAL = 1e-9
EXTREMAL_MARGIN = 1e-8
SAMPLE_MARGIN = 1e-10
NORM_REL = 1e-9
NORM_ABS = 1e-11
CONTRACTION_SLACK = 1e-9
GFTT_REL = 1e-10
I0_REL = 1e-13
BOUND1_REL = 1e-12
THRESHOLD_WIDTH = 1e-10
THRESHOLD_ROOT = 1e-9
SUBSPACE_RESIDUAL = 1e-9


@dataclass(frozen=True)
class CliContext:
    """How to start the CLI: interpreter, working directory, environment, golden outputs."""

    python: str
    cwd: str
    env: dict
    golden: dict


def cli_key(argv) -> str:
    return " ".join(argv)


# --- spectrum ---------------------------------------------------------------

def run_spectrum(p, ctx):
    n, alpha = p["n"], p["alpha"]
    standard = p["variant"] == "standard"
    tri = tridiagonal.symmetrize(UpperBidiagonal(n, alpha, JordanVariant(p["variant"])))
    eig = tridiagonal.eig_sturm(tri)
    det = tridiagonal.det_recurrence(tri)
    if standard:
        zeros, poly = chebyshev.u_zeros(n), chebyshev.u_eval(n, alpha)
    else:
        zeros, poly = chebyshev.u_diff_zeros(n), chebyshev.u_diff_eval(n, alpha)
    return tri, eig, det, zeros, poly


def check_spectrum(p, out, ctx):
    tri, eig, det, zeros, poly = out
    n, alpha = p["n"], p["alpha"]
    problems = []
    if eig.shape != (n,) or np.any(np.diff(eig) < 0):
        return [f"eig_sturm returned shape {eig.shape}, not {n} ascending values"]
    err = float(np.max(np.abs(eig - np.linalg.eigvalsh(tri.to_dense()))))
    if not err <= EIG_VS_EIGVALSH:
        problems.append(f"eig_sturm differs from eigvalsh by {err:.3g}")
    closed = np.sort(2 * alpha + 2 * zeros if p["variant"] == "standard" else 2 * alpha - 2 * zeros)
    err = float(np.max(np.abs(eig - closed)))
    if not err <= EIG_VS_CLOSED_FORM:
        problems.append(f"eig_sturm differs from the Chebyshev closed form by {err:.3g}")
    if not abs(det - poly) <= DET_REL * max(1.0, abs(poly)):
        problems.append(f"det_recurrence {det!r} differs from the polynomial value {poly!r}")
    return problems


# --- certify ----------------------------------------------------------------

def run_certify(p, ctx):
    kind, n = InequalityKind(p["kind"]), p["n"]
    extremal = inequalities.extremal_vector(kind, n)
    sharp = inequalities.verify(kind, extremal)
    flip_scale = 1.05 if kind.is_lower else 0.95
    flipped = inequalities.verify(kind, extremal, constant_scale=flip_scale)
    gen = rng.SplitMix64(p["sample_seed"])
    samples = [gen.vector(n) for _ in range(p["samples"])]
    reports = [inequalities.verify(kind, a) for a in samples]
    threshold = tridiagonal.dissipativity_threshold(n, kind.variant)
    inside = tridiagonal.check_dissipative(UpperBidiagonal(n, threshold - p["delta"], kind.variant))
    outside = tridiagonal.check_dissipative(UpperBidiagonal(n, threshold + p["delta"], kind.variant))
    m = p["m"]
    crossing = bessel.threshold_x0(m)
    series = [(bessel.i0_partial(m, x), bessel.bound1(m, x), bessel.i0_reference(x)) for x in p["xs"]]
    known_false = (bessel.i0_partial(2, 2.0), bessel.bound2(2, 2.0))
    return {
        "extremal": extremal, "sharp": sharp, "flipped": flipped,
        "samples": samples, "reports": reports,
        "inside": inside, "outside": outside,
        "crossing": crossing, "series": series, "known_false": known_false,
    }


def _splitmix_reference(seed: int, n: int) -> np.ndarray:
    """The README's SplitMix64 definition, written out independently."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(2.0 * (((z ^ (z >> 31)) >> 11) * 2.0 ** -53) - 1.0)
    return np.array(out)


def _energy(A: np.ndarray, pinned: bool) -> np.ndarray:
    """Row-wise difference energy of a stack of vectors."""
    zero = np.zeros((A.shape[0], 1))
    padded = np.hstack([zero, A, zero] if pinned else [zero, A])
    return np.sum(np.diff(padded, axis=1) ** 2, axis=1)


def _sharp_constant(kind: InequalityKind, n: int) -> float:
    c = {
        InequalityKind.LOWER_PINNED: -math.cos(math.pi / (n + 1)),
        InequalityKind.LOWER_FREE: -math.cos(math.pi / (2 * n + 1)),
        InequalityKind.UPPER_PINNED: math.cos(math.pi / (n + 1)),
        InequalityKind.UPPER_FREE: math.cos(2 * math.pi / (2 * n + 1)),
    }[kind]
    return 2.0 * (1.0 + c)


def _bessel_gap(m: int, x: float) -> float:
    return (1.0 - math.exp(-x) + math.exp(2 * x * math.cos(2 * math.pi / (2 * m + 1)))
            - math.exp(2 * x * math.cos(math.pi / (m + 1))))


def check_certify(p, out, ctx):
    kind, n = InequalityKind(p["kind"]), p["n"]
    problems = []
    sharp, flipped = out["sharp"], out["flipped"]
    if not (sharp.holds and abs(sharp.margin) <= EXTREMAL_MARGIN):
        problems.append(f"extremal vector margin {sharp.margin!r} is not an equality case")
    if flipped.holds:
        problems.append("a 5% perturbed constant did not flip the verdict on the extremal vector")

    samples = np.array(out["samples"])
    if not np.array_equal(samples[0], _splitmix_reference(p["sample_seed"], n)):
        problems.append("SplitMix64.vector departs from the published generator")
    lhs = np.array([r.lhs for r in out["reports"]])
    rhs = np.array([r.rhs for r in out["reports"]])
    energy = _energy(samples, kind.pins_right_end)
    bound = _sharp_constant(kind, n) * np.sum(samples * samples, axis=1)
    if not (np.allclose(lhs, energy, rtol=1e-12, atol=0) and np.allclose(rhs, bound, rtol=1e-12, atol=0)):
        problems.append("verify's lhs or rhs departs from the directly computed energy and bound")
    directed = (lhs - rhs) if kind.is_lower else (rhs - lhs)
    if not (np.all(directed >= -SAMPLE_MARGIN) and all(r.holds for r in out["reports"])):
        problems.append(f"a random sample violates the sharp bound (directed margin {directed.min()!r})")

    threshold = tridiagonal.dissipativity_threshold(n, kind.variant)
    for side, sign, report in (("inside", -1.0, out["inside"]), ("outside", 1.0, out["outside"])):
        if report.is_dissipative != (sign < 0):
            problems.append(f"check_dissipative says {report.is_dissipative} {side} the threshold")
        J = UpperBidiagonal(n, threshold + sign * p["delta"], kind.variant).to_dense()
        sym = J + J.T
        top = float(np.linalg.eigvalsh(sym)[-1])
        if not abs(report.max_eigenvalue - top) <= EIG_VS_EIGVALSH:
            problems.append(f"check_dissipative max eigenvalue off by {abs(report.max_eigenvalue - top):.3g}")
        residual = float(np.linalg.norm(sym @ report.witness - report.max_eigenvalue * report.witness))
        if not residual <= EIGVEC_RESIDUAL:
            problems.append(f"dissipativity witness has residual {residual:.3g}")

    m, crossing = p["m"], out["crossing"]
    if not (crossing.found and crossing.sign_changes == 1
            and crossing.bracket_hi - crossing.bracket_lo <= THRESHOLD_WIDTH):
        problems.append(f"threshold_x0({m}) did not bracket a single crossing: {crossing!r}")
    else:
        root = scipy.optimize.brentq(lambda x: _bessel_gap(m, x),
                                     crossing.bracket_lo * 0.5, crossing.bracket_hi * 2.0,
                                     xtol=1e-15, rtol=4 * np.finfo(float).eps)
        if not abs(crossing.x0 - root) <= THRESHOLD_ROOT:
            problems.append(f"threshold_x0({m}) = {crossing.x0!r}, independent root {root!r}")
    for x, (partial, b1, ref) in zip(p["xs"], out["series"]):
        if not partial <= b1 * (1.0 + BOUND1_REL):
            problems.append(f"bound1({m}, {x!r}) does not dominate the partial sum")
        want = float(scipy.special.i0(2.0 * x))
        if not abs(ref - want) <= I0_REL * want:
            problems.append(f"i0_reference({x!r}) differs from scipy.special.i0 by {abs(ref - want) / want:.3g} rel")
    partial, b2 = out["known_false"]
    if not partial > b2 * (1.0 + BOUND1_REL):
        problems.append("known-false claim no longer reproduces: bound2(2, 2) now dominates the partial sum")
    return problems


# --- semigroup --------------------------------------------------------------

def _contraction_generator(p) -> np.ndarray:
    variant = JordanVariant(p["variant"])
    alpha = tridiagonal.dissipativity_threshold(p["n"], variant) + p["delta"]
    return UpperBidiagonal(p["n"], alpha, variant).to_dense()


def _norm_problems(Q, xs, norms) -> list[str]:
    want = np.array([np.linalg.svd(scipy.linalg.expm(Q * x), compute_uv=False)[0] for x in xs])
    err = np.abs(np.asarray(norms) - want)
    bad = err > NORM_REL * want + NORM_ABS
    if np.any(bad):
        worst = int(np.argmax(err / np.maximum(want, 1e-300)))
        return [f"norm at x={xs[worst]!r} is {norms[worst]!r}, svd(expm) gives {want[worst]!r}"]
    return []


def run_contraction(p, ctx):
    return semigroup.contraction_check(_contraction_generator(p))


def check_contraction(p, curve, ctx):
    Q = _contraction_generator(p)
    problems = _norm_problems(Q, curve.xs, curve.norms)
    if p["position"] == "past":
        if not curve.max_norm > 1.0:
            problems.append(f"block past the threshold did not escape: max norm {curve.max_norm!r}")
    elif not curve.max_norm <= 1.0 + CONTRACTION_SLACK:
        problems.append(f"block {p['position']} the threshold escaped: max norm {curve.max_norm!r}")
    return problems


def _strict_generator(p) -> np.ndarray:
    variant = JordanVariant(p["variant"])
    alpha = tridiagonal.dissipativity_threshold(p["n"], variant) - p["margin"]
    return UpperBidiagonal(p["n"], alpha, variant).to_dense()


def run_strict(p, ctx):
    return semigroup.strict_contraction_check(_strict_generator(p))


def check_strict(p, report, ctx):
    Q = _strict_generator(p)
    problems = []
    if not (report.is_strict and report.grid_strict and report.agree):
        problems.append(f"strictly dissipative block misclassified: {report!r}")
    top = float(np.linalg.eigvalsh(Q + Q.T)[-1])
    if not abs(report.sym_max_eigenvalue - top) <= EIG_VS_EIGVALSH:
        problems.append(f"sym max eigenvalue {report.sym_max_eigenvalue!r}, eigvalsh gives {top!r}")
    return problems + _norm_problems(Q, report.curve.xs, report.curve.norms)


def run_subspace(p, ctx):
    return semigroup.norm_preserving_subspace(p["Q"], p["x"])


def check_subspace(p, basis, ctx):
    problems = []
    if basis.dim != p["skew_dim"]:
        return [f"norm-preserving subspace has dim {basis.dim}, constructed with {p['skew_dim']}"]
    if basis.dim:
        V = basis.vectors
        image = scipy.linalg.expm(p["Q"] * p["x"]) @ V
        residual = float(np.max(np.abs(image - V @ (V.T @ image))))
        if not residual <= SUBSPACE_RESIDUAL:
            problems.append(f"subspace is not invariant: residual {residual:.3g}")
        if not np.allclose(V.T @ V, np.eye(basis.dim), atol=1e-10):
            problems.append("subspace basis is not orthonormal")
    return problems


def run_gftt(p, ctx):
    return [semigroup.gftt_check(a, x) for a, x in p["batch"]]


def check_gftt(p, reports, ctx):
    problems = []
    for (a, x), report in zip(p["batch"], reports):
        shift = np.diag(np.ones(a.size - 1), 1)
        image = scipy.linalg.expm(shift * x) @ a
        want = float(image @ image)
        if not abs(report.lhs - want) <= GFTT_REL * max(1.0, abs(want)):
            problems.append(f"gftt_lhs at n={a.size}, x={x!r} is {report.lhs!r}, expm gives {want!r}")
        if not report.holds:
            problems.append(f"generalized bound fails at n={a.size}, x={x!r}")
    return problems


def run_probe(p, ctx):
    return semigroup.gftt2_discrepancy_probe(p["n"], p["samples"], p["seed"])


def _toeplitz_form(a: np.ndarray, x: float) -> float:
    """The hypothesized free-end closed form, from its docstring definition."""
    n = a.size
    coeff = [x ** k / math.factorial(k) for k in range(n)]
    total = math.exp(-x) * a[-1] ** 2
    for j in range(1, n):
        total += sum(coeff[k] * a[n - 1 - j + k] for k in range(j + 1)) ** 2
    return float(total)


def check_probe(p, report, ctx):
    n = p["n"]
    c = math.cos(2 * math.pi / (2 * n + 1))
    alpha = -c
    problems = []
    excess, gap = report.bound_excess, report.exact_discrepancy
    if excess is None or not excess.value > 0.0:
        return ["known-false claim no longer reproduces: the probe found no bound excess at n=2"]
    want = _toeplitz_form(excess.a, excess.x) - math.exp(2 * excess.x * c) * float(excess.a @ excess.a)
    if not abs(excess.value - want) <= 1e-9 * max(1.0, abs(want)):
        problems.append(f"bound excess {excess.value!r}, recomputed {want!r}")
    block = UpperBidiagonal(n, alpha, JordanVariant.MODIFIED).to_dense()
    image = scipy.linalg.expm(block * gap.x) @ gap.a
    exact = math.exp(-2 * alpha * gap.x) * float(image @ image)
    want = abs(_toeplitz_form(gap.a, gap.x) - exact)
    if not (gap.value > 0.0 and abs(gap.value - want) <= 1e-9 * max(1.0, want)):
        problems.append(f"exact discrepancy {gap.value!r}, recomputed {want!r}")
    return problems


# --- cli-session ------------------------------------------------------------

def run_cli(p, ctx):
    done = subprocess.run(
        [ctx.python, "-m", "fttlab", *p["argv"]],
        cwd=ctx.cwd, env=ctx.env, capture_output=True, timeout=120, check=False,
    )
    return done.returncode, hashlib.sha256(done.stdout).hexdigest()


def check_cli(p, out, ctx):
    want = ctx.golden.get(cli_key(p["argv"]))
    if want is None:
        return [f"no golden output recorded for {p['argv']}"]
    code, digest = out
    if (code, digest) != (want["exit_code"], want["stdout_sha256"]):
        return [f"{p['argv']}: exit {code}, stdout sha256 {digest[:12]}... "
                f"differ from the recorded exit {want['exit_code']}, {want['stdout_sha256'][:12]}..."]
    return []


# case kind -> (timed runner, untimed oracle checker)
RUNNERS = {
    "spectrum": (run_spectrum, check_spectrum),
    "certify": (run_certify, check_certify),
    "contraction": (run_contraction, check_contraction),
    "strict": (run_strict, check_strict),
    "subspace": (run_subspace, check_subspace),
    "gftt": (run_gftt, check_gftt),
    "probe": (run_probe, check_probe),
    "cli": (run_cli, check_cli),
}

