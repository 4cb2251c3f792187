"""Seeded inputs for the four benchmark workloads.

Inputs come from the standard library's ``random.Random``, never from
``fttlab.rng``, so the program's own generator is timed only where the
program itself draws from it.

Work is dealt in decks.  Every deck of a workload holds the same multiset of
case shapes (sizes, variants, sample counts) whatever the seed; the seed
moves parameter values and the order of cases only.  A run executes whole
decks, so two runs with different seeds do the same amount of work and their
throughput figures are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("spectrum", "certify", "semigroup", "cli-session")

KINDS = ("lower-pinned", "lower-free", "upper-pinned", "upper-free")
VARIANTS = ("standard", "modified")
POSITIONS = ("inside", "at", "past")

# The CLI session: every subcommand once at a small size, plus --version.
# Exit codes and stdout digests for exactly these argument lists are stored
# in cli_golden.json.
CLI_INVOCATIONS = (
    ("--version",),
    ("constants", "--n-range", "1..8"),
    ("verify", "--n", "16", "--samples", "50", "--seed", "3"),
    ("semigroup-norm", "--n", "3", "--alpha", "-0.7", "--grid", "0:4:9"),
    ("bessel-sweep", "--n", "2", "--grid", "0:8:17"),
    ("threshold", "--n-range", "2..4", "--format", "json"),
    ("probe-gftt2", "--n", "2", "--samples", "40", "--seed", "11"),
)


@dataclass(frozen=True)
class Sizes:
    """Case shapes of one deck; ``FULL`` is the benchmark, ``TINY`` the smoke run."""

    spectrum: tuple[int, ...]
    certify: tuple[int, ...]
    certify_samples: int
    semigroup: tuple[int, ...]
    strict: tuple[int, ...]
    gftt_batch: int
    probe_samples: int
    cli: tuple[tuple[str, ...], ...] = field(default=CLI_INVOCATIONS)


FULL = Sizes(
    spectrum=(50, 100, 200, 400),
    certify=(16, 64, 128, 200),
    certify_samples=400,
    semigroup=(2, 8, 30),
    strict=(2, 8),
    gftt_batch=50,
    probe_samples=200,
)

TINY = Sizes(
    spectrum=(5, 9),
    certify=(4, 8),
    certify_samples=10,
    semigroup=(2, 3),
    strict=(2,),
    gftt_batch=3,
    probe_samples=20,
    cli=CLI_INVOCATIONS[:2],
)


@dataclass(frozen=True)
class Case:
    """One unit of timed work: ``kind`` names the runner, ``params`` its input."""

    kind: str
    params: dict


def deck(workload: str, seed: int, index: int, sizes: Sizes = FULL) -> list[Case]:
    """Deck ``index`` of ``workload``; the same arguments give the same cases."""
    gen = random.Random(f"{workload}/{seed}/{index}")
    if workload == "spectrum":
        cases = _spectrum(gen, index, sizes)
    elif workload == "certify":
        cases = _certify(gen, sizes)
    elif workload == "semigroup":
        cases = _semigroup(gen, index, sizes)
    elif workload == "cli-session":
        cases = [Case("cli", {"argv": list(argv)}) for argv in sizes.cli]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    gen.shuffle(cases)
    return cases


def _spectrum(gen: random.Random, index: int, sizes: Sizes) -> list[Case]:
    # consecutive decks swap the variant of every size, so both variants
    # appear at every size over any two decks
    return [
        Case("spectrum", {
            "n": n,
            "variant": VARIANTS[(i + index) % 2],
            "alpha": gen.uniform(-1.0, 1.0),
        })
        for i, n in enumerate(sizes.spectrum)
    ]


def _certify(gen: random.Random, sizes: Sizes) -> list[Case]:
    kinds = list(KINDS)
    gen.shuffle(kinds)
    return [
        Case("certify", {
            "kind": kinds[i % len(kinds)],
            "n": n,
            "samples": sizes.certify_samples,
            "sample_seed": gen.getrandbits(63),
            "delta": gen.uniform(1e-3, 1e-2),
            "m": gen.randint(2, 12),
            "xs": [gen.uniform(0.0, 20.0) for _ in range(16)],
        })
        for i, n in enumerate(sizes.certify)
    ]


def _semigroup(gen: random.Random, index: int, sizes: Sizes) -> list[Case]:
    # one position per deck, rotating, so three consecutive decks cover
    # inside, at and past the threshold for every (n, variant)
    position = POSITIONS[index % len(POSITIONS)]
    sign = {"inside": -1.0, "at": 0.0, "past": 1.0}[position]
    cases = [
        Case("contraction", {
            "n": n,
            "variant": variant,
            "position": position,
            "delta": sign * gen.uniform(5e-3, 5e-2),
        })
        for n in sizes.semigroup
        for variant in VARIANTS
    ]
    cases += [
        Case("strict", {
            "n": n,
            "variant": gen.choice(VARIANTS),
            "margin": gen.uniform(0.05, 0.5),
        })
        for n in sizes.strict
    ]
    skew_dim, strict_dim = ((2, 3), (0, 3), (4, 0))[index % 3]
    cases.append(Case("subspace", {
        "Q": _skew_plus_strict(gen, skew_dim, strict_dim),
        "skew_dim": skew_dim,
        "x": gen.uniform(0.2, 2.0),
    }))
    batch = []
    for _ in range(sizes.gftt_batch):
        n = gen.randint(1, 16)
        batch.append((np.array([gen.uniform(-1.0, 1.0) for _ in range(n)]), gen.uniform(0.0, 5.0)))
    cases.append(Case("gftt", {"batch": batch}))
    cases.append(Case("probe", {
        "n": 2,
        "samples": sizes.probe_samples,
        "seed": gen.getrandbits(63),
    }))
    return cases


def _skew_plus_strict(gen: random.Random, skew_dim: int, strict_dim: int) -> np.ndarray:
    """Rotated generator whose norm-preserving subspace has dimension ``skew_dim``."""
    n = skew_dim + strict_dim
    Q0 = np.zeros((n, n))
    for i in range(0, skew_dim - 1, 2):
        w = 1.0 + gen.random()
        Q0[i, i + 1] = w
        Q0[i + 1, i] = -w
    for i in range(skew_dim, n):
        Q0[i, i] = -(0.5 + gen.random())
    raw = np.array([[gen.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)])
    O, _ = np.linalg.qr(raw)
    return O.T @ Q0 @ O
