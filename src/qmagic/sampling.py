"""Random generators for squares, decompositions, and dilation data.

Exact generators produce Gaussian-rational data suitable for certification
tests; numeric generators produce well-conditioned floating instances.
All functions take a numpy Generator explicitly so experiments are seedable.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from .exact import ExactMatrix, GaussianRational
from .semiclassical import SemiclassicalDecomposition
from .structures import (
    MagicSquare,
    compress,
    permutations_lex,
    zeros,
)

__all__ = [
    "random_unitary",
    "random_isometry",
    "qpm_from_projector",
    "projector_at_angle",
    "outer_direct_sum",
    "random_commuting_qpm",
    "random_member_square",
    "random_exact_psd",
    "random_exact_decomposition",
    "perturbed_constant_decomposition",
    "square_from_decomposition",
    "random_doubly_stochastic",
]


def random_unitary(rng: np.random.Generator, t: int) -> np.ndarray:
    z = rng.normal(size=(t, t)) + 1j * rng.normal(size=(t, t))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_isometry(rng: np.random.Generator, t: int, s: int) -> np.ndarray:
    """t x s matrix with V*V = I_s (requires t >= s)."""
    if t < s:
        raise ValueError("isometry needs t >= s")
    return random_unitary(rng, t)[:, :s]


def projector_at_angle(theta: float) -> np.ndarray:
    """Rank-1 projector onto (cos t, sin t) in C^2."""
    v = np.array([[np.cos(theta)], [np.sin(theta)]])
    return v @ v.T + 0j


def qpm_from_projector(p: np.ndarray) -> MagicSquare:
    """The 2x2 quantum permutation matrix [[p, 1-p], [1-p, p]]."""
    ident = np.eye(p.shape[0])
    return MagicSquare([[p, ident - p], [ident - p, p]])


def outer_direct_sum(a: MagicSquare, b: MagicSquare) -> MagicSquare:
    """Disjoint union in the square direction: size n_a + n_b, zeros across.

    Preserves the quantum-permutation property; the entries of the two
    summands need not commute with each other.
    """
    if a.s != b.s or a.exact != b.exact:
        raise ValueError("outer_direct_sum needs matching block size and representation")
    zero = zeros(a.s, a.s, a.exact)
    grid = [list(row) + [zero] * b.n for row in a.blocks]
    grid += [[zero] * a.n + list(row) for row in b.blocks]
    return MagicSquare(grid)


def random_commuting_qpm(rng: np.random.Generator, n: int, t: int) -> MagicSquare:
    """Quantum permutation matrix with commuting t x t entries.

    Entries are simultaneously diagonalized 0/1 matrices (one classical
    permutation per diagonal slot) conjugated by one random unitary.
    """
    sigmas = [tuple(rng.permutation(n)) for _ in range(t)]
    q = random_unitary(rng, t)
    blocks = []
    for i in range(n):
        row = []
        for j in range(n):
            d = np.diag([1.0 if sig[i] == j else 0.0 for sig in sigmas])
            row.append(q.conj().T @ d @ q)
        blocks.append(row)
    return MagicSquare(blocks)


def random_member_square(
    rng: np.random.Generator, n: int, s: int, t: int | None = None
) -> MagicSquare:
    """A floating square in the matrix convex hull of commuting qpm's."""
    t = t if t is not None else max(s + 2, n)
    u = random_commuting_qpm(rng, n, t)
    return compress(u, random_isometry(rng, t, s))


# -- exact generators --------------------------------------------------------


def _rand_frac(rng, num=6, den=4) -> Fraction:
    return Fraction(int(rng.integers(-num, num + 1)), int(rng.integers(1, den + 1)))


def random_exact_psd(rng: np.random.Generator, s: int) -> ExactMatrix:
    """G*G for a random Gaussian-rational G; PSD and usually full rank."""
    g = ExactMatrix(
        [
            [GaussianRational(_rand_frac(rng), _rand_frac(rng)) for _ in range(s)]
            for _ in range(s)
        ]
    )
    return g.h @ g


def random_exact_decomposition(rng: np.random.Generator, n: int, s: int) -> dict:
    """Exact PSD weights q_sigma with sum exactly I_s, indexed by permutation.

    All weights are strictly positive definite: raw PSD terms are scaled so
    their total trace stays below 1, and the identity permutation absorbs
    the exact remainder.  At n = 1 the only decomposition is {(0,): I_s}.
    """
    perms = permutations_lex(n)
    ident = ExactMatrix.identity(s)
    if n == 1:
        return {perms[0]: ident}
    raw = {}
    for sigma in perms[1:]:
        raw[sigma] = random_exact_psd(rng, s) + ident * Fraction(1, int(rng.integers(2, 6)))
    total = ExactMatrix.zeros(s)
    for m in raw.values():
        total = total + m
    c = Fraction(int(rng.integers(1, 10)), 20)  # total trace scaled to c < 1/2
    scale = c / total.trace().re
    out = {sigma: m * scale for sigma, m in raw.items()}
    rest = ident
    for m in out.values():
        rest = rest - m
    out[perms[0]] = rest  # exact remainder; PSD since sum of others <= c I < I
    return {sigma: out[sigma] for sigma in perms}


def perturbed_constant_decomposition(
    rng: np.random.Generator, n: int, s: int, pairs: int = 3, scale: Fraction = Fraction(1)
) -> dict:
    """Exact decomposition near uniform: q_sigma = I/n! plus paired offsets.

    Offsets cancel in the total sum; at scale <= 1 their size is capped so
    every weight stays PD and the resulting square keeps a wide interior
    margin.  Larger scales push toward (and past) the boundary.
    """
    perms = permutations_lex(n)
    nf = factorial(n)
    q = {sigma: ExactMatrix.identity(s) * Fraction(1, nf) for sigma in perms}
    delta = Fraction(scale, nf * 4 * pairs * s * n)
    for _ in range(pairs):
        a, b = rng.choice(len(perms), size=2, replace=False)
        h = _random_exact_hermitian_unit(rng, s)
        q[perms[a]] = q[perms[a]] + h * delta
        q[perms[b]] = q[perms[b]] - h * delta
    return q


def _random_exact_hermitian_unit(rng, s: int) -> ExactMatrix:
    """Random exact Hermitian with entries bounded by 1 in modulus."""
    grid = [[GaussianRational(0) for _ in range(s)] for _ in range(s)]
    for i in range(s):
        grid[i][i] = GaussianRational(Fraction(int(rng.integers(-4, 5)), 4))
        for j in range(i + 1, s):
            z = GaussianRational(
                Fraction(int(rng.integers(-2, 3)), 4),
                Fraction(int(rng.integers(-2, 3)), 4),
            )
            grid[i][j] = z
            grid[j][i] = z.conjugate()
    return ExactMatrix(grid)


def square_from_decomposition(q: dict) -> MagicSquare:
    """Assemble sum_sigma P_sigma (x) q_sigma as an exact magic square."""
    sigma, block = next(iter(q.items()))
    return SemiclassicalDecomposition(len(sigma), block.rows, True, q).reconstruct()


def random_doubly_stochastic(
    rng: np.random.Generator, n: int, terms: int | None = None
) -> list[list[Fraction]]:
    """Exact doubly stochastic matrix: rational convex combination of permutations."""
    terms = terms if terms is not None else int(rng.integers(1, n * n + 2))
    weights = [int(rng.integers(1, 20)) for _ in range(terms)]
    total = sum(weights)
    m = [[Fraction(0)] * n for _ in range(n)]
    for w in weights:
        sigma = rng.permutation(n)
        f = Fraction(w, total)
        for i in range(n):
            m[i][int(sigma[i])] += f
    return m
