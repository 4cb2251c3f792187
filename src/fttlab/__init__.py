"""Sharp discrete Wirtinger-type inequalities via Jordan-block dissipativity.

The package is organized around one chain of ideas:

``chebyshev``
    Chebyshev polynomials of the second kind, their zeros, and the zeros of
    the difference U_n - U_{n-1}; everything downstream reduces to these.
``tridiagonal``
    Jordan-type upper bidiagonal blocks, their symmetrizations, continuant
    determinants, a Sturm-bisection eigensolver and dissipativity checks.
``inequalities``
    The four sharp difference-energy inequalities (pinned and free right
    end, lower and upper bounds), their constants and extremal vectors.
``semigroup``
    Matrix exponentials, operator norms, contraction checks in the spirit of
    Lumer-Phillips, the generalized exponential bound, and norm-preserving
    subspaces.
``bessel``
    Partial sums of I_0(2x), the two exponential upper bounds and the
    crossover threshold x0(n) between them.
``cli``
    A deterministic command line front end (``fttlab --help``).
"""

from . import bessel, chebyshev, errors, inequalities, semigroup, tridiagonal
from .bessel import *  # noqa: F403
from .chebyshev import *  # noqa: F403
from .errors import *  # noqa: F403
from .inequalities import *  # noqa: F403
from .semigroup import *  # noqa: F403
from .tridiagonal import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    *bessel.__all__, *chebyshev.__all__, *errors.__all__,
    *inequalities.__all__, *semigroup.__all__, *tridiagonal.__all__,
]
