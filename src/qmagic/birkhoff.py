"""Birkhoff-von Neumann decomposition and the classical magic-matrix facts.

Everything here is exact rational arithmetic; floating inputs are refused.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import ExactMatrix, nullspace_exact, rational_str

__all__ = [
    "NotDoublyStochastic",
    "validate_doubly_stochastic",
    "birkhoff_decompose",
    "magic_space_dimension",
    "is_extreme_point",
]

class NotDoublyStochastic(ValueError):
    pass


def validate_doubly_stochastic(m) -> list[list[Fraction]]:
    """Normalize to nested Fractions; raise unless exactly doubly stochastic."""
    try:
        flat = [x for row in m for x in row]
        if any(isinstance(x, float) for x in flat):
            raise TypeError("floating entries")
        rows = [[Fraction(x) for x in row] for row in m]
    except (TypeError, ValueError) as e:
        raise NotDoublyStochastic(f"entries must be exact rationals: {e}") from None
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise NotDoublyStochastic("matrix must be square")
    if any(x < 0 for r in rows for x in r):
        raise NotDoublyStochastic("negative entry")
    for i, r in enumerate(rows):
        if sum(r) != 1:
            raise NotDoublyStochastic(f"row {i} sums to {rational_str(sum(r))}")
    for j in range(n):
        c = sum(rows[i][j] for i in range(n))
        if c != 1:
            raise NotDoublyStochastic(f"column {j} sums to {rational_str(c)}")
    return rows


def _has_perfect_matching(adj: list[set[int]], rows: list[int], cols: set[int]) -> bool:
    """Kuhn's augmenting paths restricted to the given rows and columns."""
    match: dict[int, int] = {}

    def augment(r, seen):
        for c in adj[r]:
            if c in cols and c not in seen:
                seen.add(c)
                if c not in match or augment(match[c], seen):
                    match[c] = r
                    return True
        return False

    return all(augment(r, set()) for r in rows)


def _lex_smallest_matching(adj: list[set[int]], n: int) -> tuple[int, ...]:
    """Lexicographically smallest permutation supported on adj, or raise."""
    sigma: list[int] = []
    used: set[int] = set()
    for i in range(n):
        rest_rows = list(range(i + 1, n))
        for c in sorted(adj[i] - used):
            if _has_perfect_matching(adj, rest_rows, set(range(n)) - used - {c}):
                sigma.append(c)
                used.add(c)
                break
        else:
            raise NotDoublyStochastic("support admits no perfect matching")
    return tuple(sigma)


def _caratheodory_reduce(
    terms: list[tuple[tuple[int, ...], Fraction]], n: int, bound: int
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Shrink a convex combination of permutations to at most `bound` terms.

    While too many terms remain, an exact affine dependency among the
    permutation matrices shifts weight until one term vanishes; the
    combination value never changes.
    """
    terms = list(terms)
    while len(terms) > bound:
        cols = []
        for sigma, _ in terms:
            cols.append([int(sigma[i] == j) for i in range(n) for j in range(n)] + [1])
        # kernel of the (n^2+1) x k matrix whose columns are the vectorized terms
        kernel = nullspace_exact(ExactMatrix(list(map(list, zip(*cols)))))
        c = [kernel[0][i, 0].re for i in range(len(terms))]
        if all(x <= 0 for x in c):
            c = [-x for x in c]
        t = min(w / x for (_, w), x in zip(terms, c) if x > 0)
        new_terms = []
        for (sigma, w), x in zip(terms, c):
            nw = w - t * x
            if nw < 0:
                raise AssertionError("reduction produced a negative weight")
            if nw > 0:
                new_terms.append((sigma, nw))
        terms = new_terms
    return terms


def birkhoff_decompose(m) -> list[tuple[tuple[int, ...], Fraction]]:
    """Write a doubly stochastic matrix as an exact convex combination of
    permutations, using at most (n-1)^2 + 1 terms.

    Greedy peeling: repeatedly subtract the minimum entry along the
    lexicographically smallest perfect matching of the support.  A final
    Caratheodory pass enforces the term bound, which peeling alone does
    not guarantee.
    """
    rows = validate_doubly_stochastic(m)
    n = len(rows)
    work = [r[:] for r in rows]
    terms: list[tuple[tuple[int, ...], Fraction]] = []
    while any(x for r in work for x in r):
        adj = [{j for j in range(n) if work[i][j] > 0} for i in range(n)]
        sigma = _lex_smallest_matching(adj, n)
        w = min(work[i][sigma[i]] for i in range(n))
        for i in range(n):
            work[i][sigma[i]] -= w
        terms.append((sigma, w))
    return _caratheodory_reduce(terms, n, (n - 1) ** 2 + 1)


def magic_space_dimension(n: int) -> int:
    """Rank of the span of all n! permutation matrices: (n-1)^2 + 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n - 1) ** 2 + 1


def is_extreme_point(m) -> bool:
    """True iff the doubly stochastic matrix is a permutation matrix."""
    rows = validate_doubly_stochastic(m)
    return all(x == 0 or x == 1 for r in rows for x in r)
