"""Jordan-type bidiagonal blocks, symmetrizations, and dissipativity.

The central objects are the n x n upper bidiagonal blocks

    J_n(alpha)      : alpha on the diagonal, ones on the superdiagonal
    J~_n(alpha)     : the same, but the last diagonal entry is alpha - 1/2

stored structurally as (n, alpha, variant) so closed forms stay exact.  Their
symmetrizations B = J^T + J are symmetric tridiagonal with constant diagonal
2 alpha (last entry 2 alpha - 1 in the modified case) and unit off-diagonal,
and everything spectral reduces to Chebyshev polynomials:

    det B_n(x)  = U_n(x)  when built at alpha = x (standard variant)
    det B~_n(x) = U_n(x) - U_{n-1}(x)              (modified variant)

A matrix A is dissipative when <Aa, a> <= 0 for every real a, equivalently
when A + A^T is negative semidefinite.  For the blocks above this reduces to
a closed-form threshold on alpha, which ``check_dissipative`` verifies
independently through a Sturm-bisection eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scalar import BlockSign, JordanVariant, _bisect, dissipativity_threshold
from ._validate import as_finite, as_int, as_vector, as_vector_and_square, finite
from .errors import ConvergenceError

__all__ = [
    "JordanVariant",
    "BlockSign",
    "UpperBidiagonal",
    "SymTridiagonal",
    "DissipativityReport",
    "symmetrize",
    "det_recurrence",
    "eig_sturm",
    "eigvec_inverse_iteration",
    "quad_form",
    "dissipativity_threshold",
    "check_dissipative",
]


@dataclass(frozen=True)
class UpperBidiagonal:
    """Structural representation of J_n(alpha) or J~_n(alpha).

    ``variant`` is a ``JordanVariant`` or its value, "standard" or "modified".
    """

    n: int
    alpha: float
    variant: JordanVariant = JordanVariant.STANDARD

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_int(self.n, "block size", minimum=1))
        object.__setattr__(self, "alpha", as_finite(self.alpha, "alpha"))
        object.__setattr__(self, "variant", JordanVariant(self.variant))

    def diagonal(self) -> np.ndarray:
        d = np.full(self.n, self.alpha)
        if self.variant is JordanVariant.MODIFIED:
            d[-1] -= 0.5
        return d

    def to_dense(self) -> np.ndarray:
        out = np.diag(self.diagonal())
        idx = np.arange(self.n - 1)
        out[idx, idx + 1] = 1.0
        return out


@dataclass(frozen=True, eq=False)
class SymTridiagonal:
    """Symmetric tridiagonal matrix in band storage (diag, offdiag)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        diag = as_vector(self.diag, "diag")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", as_vector(self.offdiag, "offdiag", size=diag.size - 1))

    @property
    def n(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        out[idx, idx + 1] = self.offdiag
        out[idx + 1, idx] = self.offdiag
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        if self.n > 1:
            out[:-1] += self.offdiag * v[1:]
            out[1:] += self.offdiag * v[:-1]
        return out


@dataclass(frozen=True, eq=False)
class DissipativityReport:
    """Outcome of an eigenvalue-based dissipativity check."""

    threshold: float
    is_dissipative: bool
    max_eigenvalue: float
    witness: np.ndarray


def symmetrize(block: UpperBidiagonal) -> SymTridiagonal:
    """B = J^T + J: diagonal doubles, off-diagonal is identically one."""
    finite(2.0 * block.alpha, "J^T + J")  # bounds every entry, and a Python float never warns
    return SymTridiagonal(2.0 * block.diagonal(), np.ones(block.n - 1))


def det_recurrence(tri: SymTridiagonal) -> float:
    """Continuant: b_{-1} = 0, b_0 = 1, b_k = d_k b_{k-1} - e_{k-1}^2 b_{k-2}."""
    prev, curr = 0.0, 1.0
    for d, e2 in zip(tri.diag.tolist(), [0.0] + [e * e for e in tri.offdiag.tolist()]):
        prev, curr = curr, d * curr - e2 * prev  # Python floats overflow to inf silently
    return finite(curr, "continuant")


def _bisection_setup(tri: SymTridiagonal) -> tuple[list[tuple[float, float]], float, float, float]:
    """Sturm pairs (d_i, e_{i-1}^2), Gershgorin bracket [lo, hi] and pivot floor.

    The first pair carries e_{-1}^2 = 0.0, so its pivot d_0 - mid needs no branch.
    Overflow shows up only as the ``OverflowFailure`` of the guard on hi - lo,
    the width the halvings compare with tol, never as a numpy warning first; past
    the guard lo and hi are finite, and so is every midpoint ``0.5 * lo + 0.5 * hi``
    of a bracket inside them.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        off2 = tri.offdiag * tri.offdiag
        radius = np.append(np.sqrt(off2), 0.0) + np.append(0.0, np.sqrt(off2))
        lo = float(np.min(tri.diag - radius)) - 1e-3
        hi = float(np.max(tri.diag + radius)) + 1e-3
    finite(hi - lo, "Gershgorin width")
    pivmin = max(float(np.max(off2, initial=0.0)), 1.0) * 1e-292
    pairs = list(zip(tri.diag.tolist(), [0.0] + off2.tolist()))  # x - 0.0 / p == x
    return pairs, lo, hi, pivmin


def _sturm_count(pairs: list[tuple[float, float]], pivmin: float, mid: float) -> int:
    """Eigenvalues below ``mid``: the negative LDL^T pivots of T - mid I.

    Kahan's clamp, as in LAPACK ``dstebz``: a pivot of modulus below ``pivmin``
    becomes -pivmin, so no division by zero happens and it counts as negative.
    """
    count, p = 0, 1.0
    for d, e2 in pairs:
        p = (d - mid) - e2 / p
        if abs(p) < pivmin:
            p = -pivmin
        if p < 0.0:
            count += 1
    return count


def _sturm_counts(
    diag: np.ndarray, pairs: list[tuple[float, float]], pivmin: float, mids: np.ndarray
) -> np.ndarray:
    """``_sturm_count`` at every shift of ``mids`` at once, in one pass of n row steps.

    The pivots are built 32 rows at a time in one reused (33, k) buffer, whose
    row 0 carries the previous block's last pivot row, so memory is O(32 k),
    not n by k.  A row step is ``row = base - e2 / prev`` in two ufunc calls;
    a unit e2, every row of a block, takes ``np.reciprocal``, which IEEE
    division rounds to the bits of 1.0 / prev.  A 32-row block whose rows all
    carry one diagonal entry d, as every block of J^T + J does but the last of
    a free-end one, takes as ``base`` one shared row d - mids, computed again
    only when d differs from the last shared row's; any other block is filled
    with its rows' d_i - mids first and takes each row as its own ``base``.
    Either way a pivot is fl(fl(d - mid) - fl(e2 / p)), as in ``_sturm_count``.
    Blocks share the row by ``==``, so a block of -0.0 may take the row of
    0.0: the two differ only at a zero shift, in the sign of a zero, and that
    sign reaches only pivots of modulus 0, whose columns are recounted below.

    ``dstebz``'s clamp (a pivot below ``pivmin`` in modulus becomes -pivmin)
    is deferred: up to a column's first such pivot its unclamped pivots are
    the clamped ones bit for bit, so a column without one is counted exactly.
    After each block its negatives are counted as uint8 and ``fmin`` of its
    moduli folds into a running least per column; a column whose least is
    below ``pivmin``, where a zero pivot's inf or nan stays, is recounted by
    ``_sturm_count``, the clamped scalar count.  ``fmin``, unlike ``minimum``,
    skips a nan further down a column, which would hide a tiny pivot above it.
    """
    k = mids.size
    buf, tmp, shift = np.empty((33, k)), np.empty(k), np.empty(k)
    rows = list(buf)  # the row views, made once
    count, least = np.zeros(k, dtype=np.intp), np.full(k, math.inf)
    ds, shared = diag.tolist(), math.nan  # ``shift`` holds shared - mids
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(0, diag.size, 32):
            m = min(32, diag.size - i)
            block = buf[1:m + 1]
            first = 1 if i == 0 else 0  # the matrix's row 0 has no row above
            if ds[i:i + m].count(ds[i]) == m:  # every row's d - mids is ``shift``
                if ds[i] != shared:
                    shared = ds[i]
                    np.subtract(shared, mids, out=shift)
                if first:
                    buf[1] = shift
                bases = [shift] * m
            else:
                np.subtract(diag[i:i + m, None], mids, out=block)  # no broadcast buffer
                bases = rows[1:m + 1]
            for (_, e2), prev, row, base in zip(
                    pairs[i + first:i + m], rows[first:], rows[first + 1:], bases[first:]):
                # a zero pivot's inf or nan only reaches its own column; a positional
                # ``out`` is the faster call
                if e2 == 1.0:
                    np.subtract(base, np.reciprocal(prev, tmp), row)
                else:
                    np.subtract(base, np.divide(e2, prev, tmp), row)
            # a uint8 sum of at most 32 rows needs no cast buffer
            count += (block < 0.0).view(np.uint8).sum(axis=0, dtype=np.uint8)
            buf[0] = buf[m]  # the carry, taken before the moduli overwrite it
            np.fmin(least, np.fmin.reduce(np.abs(block, out=block), axis=0), out=least)
    for j in np.flatnonzero(least < pivmin):
        count[j] = _sturm_count(pairs, pivmin, float(mids[j]))
    return count


def _block_guesses(tri: SymTridiagonal) -> np.ndarray:
    """The closed-form eigenvalues of ``tri``, ascending, or nan guesses.

    ``tri`` is recognised as J^T + J of a block from its band alone, in O(n):
    unit off-diagonals, a constant ``diag[:-1]`` = 2 alpha, and a last entry
    2 alpha (standard) or 2 (alpha - 1/2) (modified).  The eigenvalues are then
    2 alpha + 2 z over the zeros z of U_n, or 2 alpha - 2 z over those of
    U_n - U_{n-1}; a 1x1 matrix, with no off-diagonal, is a standard block.
    Any other matrix gets nan guesses, which steer nothing.
    """
    from .chebyshev import u_diff_zeros, u_zeros  # only a steered block needs it

    diag, n = tri.diag, tri.n
    alpha = float(diag[0]) / 2.0
    if (tri.offdiag == 1.0).all() and (diag[:-1] == diag[0]).all():
        if diag[-1] == diag[0]:
            return 2.0 * alpha + 2.0 * u_zeros(n)[::-1]
        if diag[-1] == 2.0 * (alpha - 0.5):
            return 2.0 * alpha - 2.0 * u_diff_zeros(n)
    return np.full(n, math.nan)


def _far(x, guess, reach):
    """Whether ``x`` is more than ``reach`` from ``guess``: ``_eig_sturm_one``'s steering rule.

    A far midpoint takes the side ``guess`` puts it on with no count; every
    other midpoint is counted, and a nan guess is never far (an inf guess
    becomes nan on entry).  Midpoints lie strictly inside their brackets, so
    a final endpoint off its Gershgorin start was set by a halving, and one
    count confirms it, count(lo) <= index < count(hi).  Sturm counts are
    monotone in the shift (Kahan; Demmel, Dhillon and Ren 1995), and every
    midpoint that moved an end lies at or beyond that end's final value, so
    a confirmed bracket was halved as the counts alone halve it, to their
    bits; only the ends a settled midpoint set need the count.  A failed
    confirmation reruns with no guess: a wrong guess or ``reach`` costs
    counts, never bits.
    """
    return abs(x - guess) > reach


def eig_sturm(tri: SymTridiagonal, tol: float = 1e-13) -> np.ndarray:
    """All eigenvalues of ``tri``, ascending, each bracketed to width <= tol.

    Sturm bisection of all n Gershgorin brackets in lockstep, as LAPACK
    ``dstebz`` does, in one compact run (``_halve``): each step halves every
    open bracket and counts the negative LDL^T pivots of T - mid I for its
    midpoints in one pass of n row steps (``_sturm_counts``).  A bracket
    closes at width <= tol or when its midpoint no longer splits it, as the
    scalar ``_bisect`` does, so the run ends by its own arithmetic.

    Where ``tri`` is J^T + J of a block, recognised from its band, the same
    run halves each bracket to the side of its column's closed-form
    eigenvalue instead, with no count, until it closes.  Then one count pass
    confirms every final endpoint that moved, and a column that fails reruns
    alone by the one-bracket bisection on the same set-up, steered within a
    margin read off the matrix, so the values keep the bits of the counts
    alone (``_far`` says why): one pass of n row steps per call for
    n <= 400, |alpha| < 1 and tol 1e-13, where the counted run takes about 46.
    """
    tol = as_finite(tol, "tol", above=0.0)
    return _eig_sturm(tri, tol, _block_guesses(tri))


def _halve(lo: np.ndarray, hi: np.ndarray, key: np.ndarray, below, tol: float, fine: float):
    """Halve, in place, every open bracket in lockstep until it closes; ``below`` picks sides.

    A step keeps the lower half where ``below(mid, key)``: ``np.greater``
    against closed-form guesses steers with no count, and a Sturm count
    against the column indices halves as ``dstebz`` does.  The columns run
    compacted, ``key`` with them: a step takes the midpoint, the side and
    the new ends, selected in place by ``np.putmask`` (the midpoint array
    becomes the new lower ends), and a column leaves the run, its bracket
    written back, when its bracket closes as ``_bisect`` closes one; the run
    returns as its last column leaves, so ``below`` never sees an empty step.
    That open test is needed only once a bracket may be within ``fine``,
    max(tol, 4 ulp of the largest Gershgorin end): a wider bracket is wider
    than tol, and a midpoint, off by half an ulp at most, splits it.  So it
    starts when the narrowest entry width, halved once a step, is within
    2 ``fine``, which leaves room for the steps' roundings.
    """
    cols, l, h = np.arange(lo.size), lo.copy(), hi.copy()
    narrowest = float(np.min(hi - lo))
    while True:
        m = 0.5 * l + 0.5 * h  # 0.5 * (lo + hi) overflows past ~9e307
        if narrowest <= 2.0 * fine:  # from here on a bracket may close
            stay = (h - l > tol) & (m > l) & (m < h)  # else at float resolution
            if not stay.all():
                lo[cols[~stay]], hi[cols[~stay]] = l[~stay], h[~stay]
                cols, l, h, m, key = cols[stay], l[stay], h[stay], m[stay], key[stay]
                if not cols.size:
                    return
        narrowest *= 0.5
        lower = below(m, key)
        np.putmask(h, lower, m)
        np.putmask(m, lower, l)
        l = m


def _eig_sturm(tri: SymTridiagonal, tol: float, guess: np.ndarray) -> np.ndarray:
    """``eig_sturm`` steered by ``guess``, one per column, where every guess is finite.

    ``_halve`` takes each side from ``np.greater`` against the guesses, and
    one ``_sturm_counts`` pass then confirms each final endpoint that moved,
    count(lo) <= index < count(hi); a column that fails reruns alone through
    ``_eig_sturm_one`` with its guess and this call's set-up, which gives its
    bits of the counts alone.  A guess that is not finite everywhere steers
    nothing: ``_halve`` then counts the open brackets' midpoints against
    their column indices, one pass a step.
    """
    setup = _bisection_setup(tri)
    pairs, lo0, hi0, pivmin = setup
    lo, hi = np.full(tri.n, lo0), np.full(tri.n, hi0)
    fine = max(tol, 4.0 * math.ulp(max(abs(lo0), abs(hi0))))
    if not (abs(guess) < math.inf).all():
        _halve(lo, hi, np.arange(tri.n),
               lambda mid, j: _sturm_counts(tri.diag, pairs, pivmin, mid) > j, tol, fine)
        return 0.5 * lo + 0.5 * hi
    _halve(lo, hi, guess, np.greater, tol, fine)
    lo_k, hi_k = np.flatnonzero(lo != lo0), np.flatnonzero(hi != hi0)
    values = 0.5 * lo + 0.5 * hi
    if lo_k.size + hi_k.size:
        counts = _sturm_counts(tri.diag, pairs, pivmin, np.concatenate((lo[lo_k], hi[hi_k])))
        wrong = np.union1d(lo_k[counts[:lo_k.size] > lo_k], hi_k[counts[lo_k.size:] <= hi_k])
        values[wrong] = [_eig_sturm_one(setup, j, tol, guess[j]) for j in wrong.tolist()]
    return values


def _eig_sturm_one(
    setup: tuple[list[tuple[float, float]], float, float, float], index: int, tol: float,
    guess: float = math.nan,
) -> float:
    """Eigenvalue ``index`` (ascending) of T, bit for bit ``eig_sturm(T, tol)[index]``.

    ``setup`` is ``_bisection_setup(T)``, which every caller already holds.
    The one bracket evolves exactly as in ``_eig_sturm``'s counted run: the
    same set-up, midpoints and freeze, and the clamped Sturm count that
    ``_sturm_counts`` falls back on, ``_sturm_count`` over Python floats, O(n)
    per halving.  A ``guess`` of the eigenvalue settles the halvings whose
    midpoint is farther than the margin from it, as ``_far`` rules, and a
    failed confirmation reruns on the same set-up with no guess; the default
    nan steers nothing.  It serves ``check_dissipative`` and
    ``extremal_vector``, and it reruns a column of ``_eig_sturm`` that fails
    its confirmation.

    The margin is read off T: 32 eps (|alpha| + 2), with alpha = d_0 / 2, the
    alpha of J^T + J of a block (alpha - 1/2 for the 1x1 free-end block, as
    ``_block_guesses`` reads it too).  It covers, several times over, the
    rounding of a closed-form guess (a few ulps of |alpha| + 1), of the
    block's last diagonal 2 fl(alpha - 1/2) and the backward error of a Sturm
    count, about 5 eps max|e| + 2 pivmin with unit off-diagonals.
    """
    pairs, lo0, hi0, pivmin = setup
    margin = 32.0 * math.ulp(1.0) * (abs(pairs[0][0]) / 2.0 + 2.0)
    guess = guess if abs(guess) < math.inf else math.nan  # an inf guess is never far

    def step(lo: float, mid: float, hi: float) -> tuple[float, float]:
        if _far(mid, guess, margin):
            below = mid > guess
        else:
            below = _sturm_count(pairs, pivmin, mid) > index
        return (lo, mid) if below else (mid, hi)

    lo, hi, _ = _bisect(step, lo0, hi0, tol)
    wrong_lo = lo != lo0 and _far(lo, guess, margin) and _sturm_count(pairs, pivmin, lo) > index
    wrong_hi = hi != hi0 and _far(hi, guess, margin) and _sturm_count(pairs, pivmin, hi) <= index
    if wrong_lo or wrong_hi:
        return _eig_sturm_one(setup, index, tol)
    return 0.5 * lo + 0.5 * hi


def _solve_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """x with (sub, diag, sup) x = rhs: LAPACK ``dgtsv`` for one right-hand side,
    with its partial pivoting, its second superdiagonal fill-in (kept in ``dl``)
    and its operation order; a zero pad on ``du`` and ``b`` stands in for its
    special-cased last row.  An exactly zero pivot raises ``LinAlgError``.
    """
    dl, d, du, b = sub.tolist(), diag.tolist(), sup.tolist() + [0.0], rhs.tolist() + [0.0]
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:  # interchange rows i and i + 1
            if dl[i] == 0.0:  # only a nan d[i] gets here with a zero dl[i]
                raise np.linalg.LinAlgError("singular matrix")
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            dl[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    b[n - 1] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(b[:n])


def _norm(x: np.ndarray) -> float:
    """The bits of ``np.linalg.norm(x)``, sqrt of the same ddot, without its overflow warning."""
    return math.sqrt(np.vdot(x, x))


def _inverse_iteration(
    tri: SymTridiagonal, eigenvalue: float, jitters: tuple[float, ...], gate: float,
    rhs_scale: float = 1.0,
) -> tuple[np.ndarray | None, float]:
    """The first unit vector with ``|T v - eigenvalue v| <= gate``, or None, and the best residual.

    Six pivoted solves from the flat start per shift ``eigenvalue + jitter``,
    each of ``rhs_scale`` times the last unit iterate (a power of two, so only
    the iterate's exponent moves); a shift whose solve meets an exactly zero
    pivot, or whose iterate has no finite nonzero norm, gives way to the next.
    """
    n = tri.n
    best_res = math.inf
    for jitter in jitters:
        with np.errstate(over="ignore"):  # an overflowed entry stays inf; the gate decides
            shifted = tri.diag - (eigenvalue + jitter)
        v = np.full(n, 1.0 / math.sqrt(n))
        for _ in range(6):
            try:
                w = _solve_tridiagonal(tri.offdiag, shifted, tri.offdiag, rhs_scale * v)
            except np.linalg.LinAlgError:
                break
            norm = _norm(w)
            if not math.isfinite(norm) or norm == 0.0:
                break
            v = w / norm
            res = _norm(tri.matvec(v) - eigenvalue * v)
            best_res = min(best_res, res)
            if res <= gate:
                return v, best_res
    return None, best_res


def eigvec_inverse_iteration(
    tri: SymTridiagonal, eigenvalue: float, tol: float = 1e-12
) -> np.ndarray:
    """Unit eigenvector for an eigenvalue known to within ``tol``.

    Inverse iteration with pivoted tridiagonal solves; an (almost) singular
    shift is handled by jittering the eigenvalue by ``tol``.  The result
    satisfies ``|T v - eigenvalue v| <= 10 tol`` where such a vector is found.
    Where the matrix's scale puts that bound below float resolution, every
    jitter under ulp(eigenvalue), or under ulp(max |diag|), leaves the shifted
    diagonal unchanged, so one more pass jitters by multiples of the larger of
    the two and admits ``10 tol + n eps ||T||``, with ``||T||`` bounded by the
    largest Gershgorin row sum.  A 1x1 matrix admits the same plus 2e-292,
    twice the pivot floor within which a Sturm count places its eigenvalue.
    Only that residual is guaranteed, not any sign or phase.  A
    ``ConvergenceError`` names the best residual of the jitters by ``tol``.
    """
    tol = as_finite(tol, "tol", above=0.0)
    eigenvalue = as_finite(eigenvalue, "eigenvalue")
    n, eps = tri.n, math.ulp(1.0)
    if n == 1:
        d = float(tri.diag[0])
        residual = abs(d - eigenvalue)  # Python floats overflow silently
        if residual > 10.0 * tol + eps * abs(d) + 2e-292:  # 2 pivmin of _bisection_setup
            raise ConvergenceError(
                f"{eigenvalue!r} is not an eigenvalue of the 1x1 matrix {tri.diag[0]!r}",
                shift=eigenvalue, residual=residual,
            )
        return np.ones(1)

    v, best_res = _inverse_iteration(tri, eigenvalue, (0.0, tol, -tol, 100.0 * tol, -100.0 * tol),
                                     10.0 * tol)
    if v is None:
        ulp = max(math.ulp(eigenvalue), math.ulp(float(np.max(np.abs(tri.diag)))))
        off = eps * np.abs(tri.offdiag)  # scaled first, so no row sum overflows
        rows = eps * np.abs(tri.diag)
        rows[:-1] += off
        rows[1:] += off
        # a solve at a shift some ulps off an eigenvalue grows the iterate by about 1/ulp
        v, _ = _inverse_iteration(tri, eigenvalue, (0.0, ulp, -ulp, 100.0 * ulp, -100.0 * ulp),
                                  10.0 * tol + n * float(rows.max()), rhs_scale=ulp)
    if v is None:
        raise ConvergenceError(f"inverse iteration residual {best_res!r} exceeds "
                               f"{10.0 * tol!r} for shift {eigenvalue!r}",
                               shift=eigenvalue, residual=best_res)
    return v


def quad_form(block: UpperBidiagonal, a: np.ndarray) -> float:
    """<J a, a> by the scalar formula, never by a dense product.

    Standard: alpha sum a_k^2 + sum_{k=2}^n a_k a_{k-1}; the modified variant
    subtracts a_n^2 / 2.
    """
    a, square = as_vector_and_square(a, "a", size=block.n)
    with np.errstate(over="ignore", invalid="ignore"):  # finite below raises instead
        out = block.alpha * square
        if block.n > 1:
            out += float(a[1:] @ a[:-1])
        if block.variant is JordanVariant.MODIFIED:
            out -= 0.5 * float(a[-1] ** 2)
    return finite(out, "quadratic form <J a, a>")


def _extreme_eigenpair(
    block: UpperBidiagonal, top: bool, tol: float
) -> tuple[float, np.ndarray]:
    """Largest (``top``) or smallest eigenvalue of J^T + J and a unit eigenvector.

    Only the extreme bracket is bisected, to width ``tol``, steered by the
    closed form 2 (alpha - threshold), the threshold under PLUS for the top
    end and MINUS for the bottom; the eigenvector has the residual that
    ``eigvec_inverse_iteration`` states.  A wrong closed form would cost the
    plain loop's time, never the value's bits (``_far`` says why).
    """
    sym = symmetrize(block)
    sign = BlockSign.PLUS if top else BlockSign.MINUS
    guess = 2.0 * (block.alpha - dissipativity_threshold(block.n, block.variant, sign))
    mu = _eig_sturm_one(_bisection_setup(sym), sym.n - 1 if top else 0, tol, guess)
    return mu, eigvec_inverse_iteration(sym, mu, tol=tol)


def check_dissipative(block: UpperBidiagonal, tol: float = 1e-10) -> DissipativityReport:
    """Decide dissipativity of the block from the spectrum of J^T + J.

    The block is dissipative iff the largest eigenvalue of its symmetrization
    is <= tol.  The witness is a unit eigenvector at that eigenvalue; its
    quadratic form equals max_eigenvalue / 2 up to the eigensolver residual.

    That eigenvalue is bit for bit ``eig_sturm``'s, from the extreme bracket
    alone, bisected to width min(1e-13, tol * 1e-2), or to the least double
    above zero where that underflows.  The closed form 2 (alpha - threshold)
    steers the bisection, settling only the midpoints beyond the margin
    32 eps (|alpha| + 2) of it, yet the check stays independent of the
    threshold it reports: a wrong closed form would change the time taken,
    not the result (``_far`` says why).
    """
    tol = as_finite(tol, "tol", above=0.0)
    inner = max(min(1e-13, tol * 1e-2), math.ulp(0.0))
    mu, witness = _extreme_eigenpair(block, top=True, tol=inner)
    return DissipativityReport(
        threshold=dissipativity_threshold(block.n, block.variant, BlockSign.PLUS),
        is_dissipative=mu <= tol,
        max_eigenvalue=mu,
        witness=witness,
    )
