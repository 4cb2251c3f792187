"""A bound that holds, and a tempting closed form that does not.

The pinned-end story is clean: the squared image of a vector under the
unit-diagonal Jordan propagator is bounded by exp(2x cos(pi/(n+1))) times
the squared length, the bound is equality at x = 0, and its derivative
there is exactly the pinned difference inequality.

The free-end story has a trap.  The exact semigroup quantity
||exp(J~_n(alpha) x) a||^2 contracts at the free threshold alpha.  But the
"same-shape" polynomial form built from x^k/k! coefficients plus an e^{-x}
tail is NOT that quantity for n >= 2 (the true propagator's last column is
exponential, not polynomial), and the bound it suggests is simply false.
The probe hunts for the counterexample and prints the witness.  At n = 5
the random probe finds nothing, yet the bound fails there too: the guess
is a quadratic form, and its top eigenvector is a witness.
"""

import math

import numpy as np

from fttlab import (
    InequalityKind,
    JordanVariant,
    dissipativity_threshold,
    gftt2_discrepancy_probe,
    gftt2_exact_lhs,
    gftt2_toeplitz_lhs,
    gftt_check,
    gftt_lhs,
    verify,
)
from fttlab.rng import SplitMix64

rng = SplitMix64(12)
n = 4
a = rng.vector(n)

print("pinned-end bound along x:")
for x in (0.0, 0.5, 1.0, 2.0):
    report = gftt_check(a, x)
    print(f"  x = {x:4.1f}   lhs {report.lhs:10.5f}   rhs {report.rhs:10.5f}   holds {report.holds}")

h = 1e-5
sum_sq = float(a @ a)
cos_t = math.cos(math.pi / (n + 1))
gap = lambda x: math.exp(2 * x * cos_t) * sum_sq - gftt_lhs(a, x)
derivative = (gap(h) - gap(-h)) / (2 * h)
margin = verify(InequalityKind.LOWER_PINNED, a).margin
print(f"  d(gap)/dx at 0 = {derivative:.8f}")
print(f"  pinned margin  = {margin:.8f}   (the bound linearizes to the inequality)")

print()
print("free-end: exact route contracts at the threshold")
alpha = -math.cos(2 * math.pi / (2 * n + 1))
for x in (0.5, 2.0, 5.0):
    exact = gftt2_exact_lhs(a, alpha, x)
    print(f"  x = {x:4.1f}   ||exp(J~x)a||^2 = {exact:8.5f}   <= sum a^2 = {sum_sq:8.5f}")

print()
print("free-end: the polynomial form is a different animal")
probe = gftt2_discrepancy_probe(2, 400, 12)
w = probe.bound_excess
print(f"  probed n = 2 with 400 seeded samples")
print(f"  worst bound excess {w.value:+.5f} at x = {w.x:.5f}, a = {np.round(w.a, 5)}")
print(f"  (positive excess = the suggested bound is violated there)")
d = probe.exact_discrepancy
print(f"  worst |polynomial - exact| gap: {d.value:.5f}")

print()
print("free-end: at n = 5 sampling sees no excess, the quadratic form does")
n5, x5 = 5, 1.0
probe5 = gftt2_discrepancy_probe(n5, 200, 1)
print(f"  probed n = 5 with 200 seeded samples: worst bound excess "
      f"{probe5.bound_excess.value:+.5f}")
# the guess is a^T G a; G by polarization, its top eigenvector the witness
unit = np.eye(n5)
form = np.array([[0.25 * (gftt2_toeplitz_lhs(unit[i] + unit[j], x5)
                          - gftt2_toeplitz_lhs(unit[i] - unit[j], x5))
                  for j in range(n5)] for i in range(n5)])
v = np.linalg.eigh(form)[1][:, -1]
v *= np.sign(v.sum())  # an eigenvector has no sign of its own
guess = gftt2_toeplitz_lhs(v, x5)
bound = math.exp(2 * x5 * math.cos(2 * math.pi / (2 * n5 + 1))) * float(v @ v)
exact = gftt2_exact_lhs(v, dissipativity_threshold(n5, JordanVariant.MODIFIED), x5)
print(f"  top eigenvector of the guess's form at x = {x5}: a = {np.round(v, 5)}")
print(f"  polynomial {guess:.4f} > bound {bound:.4f}, while the exact quantity is "
      f"{exact:.3f} <= sum a^2 = {float(v @ v):.3f}")

print()
print("the gap in closed form, at a = (0, 1):")
for x in (1.0, 2.0, 4.0):
    toe = gftt2_toeplitz_lhs(np.array([0.0, 1.0]), x)
    alpha2 = -math.cos(2 * math.pi / 5)
    exact = math.exp(-2 * alpha2 * x) * gftt2_exact_lhs(np.array([0.0, 1.0]), alpha2, x)
    print(
        f"  x = {x:3.1f}   polynomial {toe:9.4f}   exact {exact:9.4f}"
        f"   difference {toe - exact:9.4f} = x^2 - 4(1-e^(-x/2))^2 = "
        f"{x * x - 4 * (1 - math.exp(-x / 2)) ** 2:9.4f}"
    )
