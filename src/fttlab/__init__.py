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

from importlib import import_module

__version__ = "0.1.0"

# the modules whose __all__ lists make up the package's exports
_MODULES = ("bessel", "chebyshev", "errors", "inequalities", "semigroup", "tridiagonal")


def __getattr__(name: str):
    """Load on first use (PEP 562): ``import fttlab`` imports no module and no numpy.

    A name is a submodule (``fttlab.cli``) or is looked up in the modules'
    ``__all__`` lists, each the one list of its module's public names.
    """
    if name == "__all__":
        value = [export for module in _MODULES for export in __getattr__(module).__all__]
    elif name.startswith("__") or not name.isidentifier():  # a probe for __main__ loads nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        owner = next((m for m in map(__getattr__, _MODULES) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
