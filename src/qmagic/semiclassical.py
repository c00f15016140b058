"""Semiclassicality: the membership LMI, interior decomposition formula,
and synthesis of commuting quantum-permutation dilations.

A square A is semiclassical when A = sum_pi P_pi (x) q_pi with PSD weights
q_pi summing to the identity.  The LMI is posed in the weights themselves:
the equalities sum_{pi(i)=j} q_pi = a_ij are eliminated once per n through
the n^2 x n! incidence matrix, which leaves the block-diagonal pencil
blockdiag(q_pi) over the kernel of that matrix.  Membership is decided by
the eps-resolution semantics of the solver plus, for exact input, an exact
rational repair of the recovered weights on the same incidence system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np

from .exact import (
    affine_least_squares,
    exact_from_float_matrix,
    hermitian_basis_stack,
    hermitian_coordinates,
    hermitian_from_coordinates,
    psd_check_exact,
)
from .birkhoff import magic_space_dimension
from .sdp import SdpProblem, SdpResult, Status, kron_pairs, solve_feasibility, DEFAULT_EPS
from .structures import (
    DEFAULT_TOL,
    MagicSquare,
    as_complex,
    difference,
    identity,
    permutations_lex,
    psd_margin,
    residual,
    scalar,
    vanishes,
    zeros,
)

__all__ = [
    "TooLarge",
    "BoundViolated",
    "SemiclassicalDecomposition",
    "CommutingDilation",
    "CheckResult",
    "MapReport",
    "build_semiclassical_lmi",
    "check_semiclassical",
    "interior_map_decomposition",
    "synthesize_commuting_dilation",
    "verify_positive_unital_map",
    "MAX_LMI_N",
    "REPAIR_DENOMINATORS",
]

MAX_LMI_N = 5
REPAIR_DENOMINATORS = (10**3, 10**6, 10**9)


class TooLarge(ValueError):
    """n! exceeds the LMI guard."""


class BoundViolated(ValueError):
    """The interior sufficient condition fails; lists offending permutations."""

    def __init__(self, violations):
        super().__init__(
            "interior bound violated at " + ", ".join(str(p) for p, _ in violations)
        )
        self.violations = violations


@dataclass(frozen=True)
class SemiclassicalDecomposition:
    """PSD weights q_pi (summing to I_s) indexed by permutations of {0..n-1}."""

    n: int
    s: int
    exact: bool
    weights: dict

    def blocks(self) -> list:
        """Raw blocks of sum_pi P_pi (x) q_pi, without validation."""
        zero = zeros(self.s, self.s, self.exact)
        out = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                acc = zero
                for sigma, q in self.weights.items():
                    if sigma[i] == j:
                        acc = acc + q
                row.append(acc)
            out.append(row)
        return out

    def reconstruct(self, tol: float = DEFAULT_TOL) -> MagicSquare:
        """Assemble sum_pi P_pi (x) q_pi as a validated magic square."""
        return MagicSquare(self.blocks(), tol=tol)


@dataclass(frozen=True)
class CommutingDilation:
    """A quantum permutation matrix U with commuting entries and an isometry V
    compressing it back to the source square: V* u_ij V = a_ij."""

    u: MagicSquare
    v: np.ndarray
    decomposition: SemiclassicalDecomposition

    def compressed(self) -> MagicSquare:
        from .structures import compress

        return compress(self.u, self.v)


@dataclass(frozen=True)
class CheckResult:
    verdict: str  # "yes" | "no" | "inconclusive"
    decomposition: SemiclassicalDecomposition | None = None
    dual: SdpResult | None = None
    residuals: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MapReport:
    """Finite verification of the positive unital *-linear map conditions."""

    ok: bool
    positivity: tuple  # (sigma, ok, margin) per permutation
    unitality_residual: object
    generator_residuals: dict  # (i, j) -> residual of sum_{sigma(i)=j} q - a_ij


# -- the membership LMI -----------------------------------------------------


@cache
def _incidence(n: int) -> np.ndarray:
    """The n^2 x n! 0/1 matrix of the constraints sum_{pi(i)=j} q_pi = a_ij:
    row (i, j), in row-major order, marks the pi (in lex order) with pi(i) = j."""
    perms = permutations_lex(n)
    m = np.array([[int(sigma[i] == j) for sigma in perms] for i in range(n) for j in range(n)])
    m.flags.writeable = False
    return m


@cache
def _elimination(n: int) -> tuple:
    """The min-norm particular-solution operator (n! x n^2) of the incidence
    map and an orthonormal basis of its kernel, one row per kernel vector;
    the rank is (n-1)^2 + 1."""
    m = _incidence(n)
    pinv = np.linalg.pinv(m)
    kernel = np.linalg.svd(m)[2][magic_space_dimension(n) :]
    pinv.flags.writeable = kernel.flags.writeable = False
    return pinv, kernel


def build_semiclassical_lmi(a: MagicSquare) -> SdpProblem:
    """The weights q_pi as a block-diagonal pencil, PSD at some x iff A is
    semiclassical.

    The equalities sum_{pi(i)=j} q_pi = a_ij are eliminated once per n:
    every solution is q0 + sum_r v_r (x) X_r, with q0 the min-norm solution
    and v_r an orthonormal kernel basis of the incidence map.  F0 is
    blockdiag(q0_pi), of dimension n! s (I / n! for the constant square),
    and the directions are kron(diag(v_r), h_b) over the Hermitian basis
    h_b of Mat_s: (n! - (n-1)^2 - 1) s^2 of them, none for n <= 2.
    sum_pi q_pi = I needs no constraint of its own: it is the sum of the
    constraints of any row of A.
    """
    n, s = a.n, a.s
    if n > MAX_LMI_N:
        raise TooLarge(f"n = {n} exceeds the n! guard ({MAX_LMI_N})")
    pinv, kernel = _elimination(n)
    q0 = np.tensordot(pinv, np.reshape(a.to_float().blocks, (n * n, s, s)), axes=1)
    nf = len(q0)
    f0 = np.einsum("pq,pab->paqb", np.eye(nf), q0).reshape(nf * s, nf * s)
    return SdpProblem(f0, kron_pairs(kernel[:, :, None] * np.eye(nf), hermitian_basis_stack(s)))


def _weights_from_x(problem: SdpProblem, n: int, x: np.ndarray) -> dict:
    """q_pi = q0_pi + sum_(r,b) x_(r,b) v_r[pi] h_b: the diagonal blocks of
    the pencil at x."""
    nf = factorial(n)
    s = problem.dim // nf
    f = problem.evaluate(x).reshape(nf, s, nf, s)
    return dict(zip(permutations_lex(n), np.einsum("papb->pab", f)))


def _exact_repair(a: MagicSquare, weights: dict, max_denominator: int):
    """Rationalize numeric weights and project them exactly onto the affine
    set {sum_pi P_pi (x) q_pi = A}; None if PSD breaks.

    The constraints sum_{pi(i)=j} q_pi = a_ij act on one Hermitian coordinate
    at a time with the same incidence rows, and the Frobenius weight of a
    coordinate is the same for every pi, so the weighted projection is the
    unweighted projection of each coordinate separately.  sum_pi q_pi = I
    needs no rows of its own: it is the sum of the constraints of any row
    of the exact magic square A.
    """
    n, s = a.n, a.s
    perms = permutations_lex(n)
    x0 = []
    for sigma in perms:
        q = exact_from_float_matrix(weights[sigma], max_denominator)
        x0.append(hermitian_coordinates((q + q.h) * Fraction(1, 2)))
    targets = [hermitian_coordinates(a.block(i, j)) for i in range(n) for j in range(n)]
    rows = _incidence(n).tolist()
    try:
        coords = [
            affine_least_squares(rows, [t[c] for t in targets], [x[c] for x in x0])
            for c in range(s * s)
        ]
    except ValueError:
        return None
    out = {}
    for k, sigma in enumerate(perms):
        q = hermitian_from_coordinates(s, [x[k] for x in coords])
        if not psd_check_exact(q).is_psd:
            return None
        out[sigma] = q
    return out


def check_semiclassical(a: MagicSquare, eps: float = DEFAULT_EPS) -> CheckResult:
    """Decide semiclassicality through the LMI.

    Yes carries a decomposition; No carries the solver's dual certificate;
    boundary cases the margins cannot settle come back Inconclusive.  When
    A is exact, the solver's weights are rationalized at each bound of
    REPAIR_DENOMINATORS in turn and projected exactly, one Hermitian
    coordinate at a time, onto the n^2 x n! incidence system; its
    projection operator is built once per n and reused across rungs and
    squares.  The first rung whose weights stay PSD gives the exact yes.
    """
    problem = build_semiclassical_lmi(a)
    res = solve_feasibility(problem, eps=eps)
    residuals = {
        **res.residuals, "lmi_dim": problem.dim, "lmi_directions": len(problem.directions),
    }
    if res.status is Status.INFEASIBLE:
        return CheckResult("no", dual=res, residuals=residuals)
    # When the solver could not resolve but a nearly feasible point exists,
    # exact repair may still rationalize it into the set.
    near = a.exact and res.residuals["primal_lambda_min"] > -1e-4
    if res.status is Status.INCONCLUSIVE and not near:
        return CheckResult("inconclusive", residuals=residuals)

    weights = _weights_from_x(problem, a.n, res.x)
    if not a.exact:
        dec = SemiclassicalDecomposition(a.n, a.s, False, weights)
        recon = dec.blocks()
        resid = max(
            float(np.abs(recon[i][j] - a.block(i, j)).max())
            for i in range(a.n)
            for j in range(a.n)
        )
        return CheckResult(
            "yes", decomposition=dec,
            residuals={**residuals, "reconstruction": resid},
        )
    for max_den in REPAIR_DENOMINATORS:
        repaired = _exact_repair(a, weights, max_den)
        if repaired is not None:
            dec = SemiclassicalDecomposition(a.n, a.s, True, repaired)
            return CheckResult(
                "yes", decomposition=dec,
                residuals={**residuals, "repair_denominator": max_den},
            )
    return CheckResult("inconclusive", residuals=residuals)


# -- closed-form interior decomposition -------------------------------------


def interior_map_decomposition(a: MagicSquare) -> SemiclassicalDecomposition:
    """The closed-form decomposition valid on the interior ball.

    Requires sum_k a_{k, pi(k)} >= ((n-2)/(n-1)) I for every permutation;
    then q_pi = (sum_k a_{k, pi(k)} - ((n-2)/(n-1)) I) / ((n-2)! n).
    No SDP involved; exact on exact input.
    """
    n, s = a.n, a.s
    ident = identity(s, a.exact)
    if n == 1:  # the lone weight is I_s, complex like every float weight
        return SemiclassicalDecomposition(1, s, a.exact, {(0,): zeros(s, s, a.exact) + ident})
    bound = scalar(Fraction(n - 2, n - 1), a.exact)
    scale = scalar(Fraction(1, factorial(n - 2) * n), a.exact)
    weights = {}
    violations = []
    for sigma in permutations_lex(n):
        acc = sum((a.block(k, sigma[k]) for k in range(1, n)), a.block(0, sigma[0]))
        shifted = acc - ident * bound
        ok, margin = psd_margin(shifted, DEFAULT_TOL)
        if ok:
            weights[sigma] = shifted * scale
        else:
            violations.append((sigma, margin))
    if violations:
        raise BoundViolated(violations)
    return SemiclassicalDecomposition(n, s, a.exact, weights)


# -- dilation synthesis ------------------------------------------------------


def synthesize_commuting_dilation(dec: SemiclassicalDecomposition) -> CommutingDilation:
    """Build U = diag-block quantum permutation and V stacked from q_pi^(1/2).

    U is exact 0/1 data rendered as floats; V is numeric (square roots leave
    the rationals), but V* u_ij V = a_ij holds through the exact identity
    sum_{pi(i)=j} q_pi = a_ij.
    """
    n, s = dec.n, dec.s
    perms = permutations_lex(n)
    nf = len(perms)
    blocks = []
    for i in range(n):
        row = []
        for j in range(n):
            d = np.zeros(nf * s)
            for k, sigma in enumerate(perms):
                if sigma[i] == j:
                    d[k * s : (k + 1) * s] = 1.0
            row.append(np.diag(d) + 0j)
        blocks.append(row)
    u = MagicSquare(blocks)
    v = np.zeros((nf * s, s), dtype=np.complex128)
    for k, sigma in enumerate(perms):
        qc = as_complex(dec.weights[sigma])
        lam, w = np.linalg.eigh((qc + qc.conj().T) / 2)
        root = (w * np.sqrt(np.clip(lam, 0, None))) @ w.conj().T
        v[k * s : (k + 1) * s, :] = root
    return CommutingDilation(u, v, dec)


def verify_positive_unital_map(
    dec: SemiclassicalDecomposition, a: MagicSquare, tol: float = DEFAULT_TOL
) -> MapReport:
    """Check the three finite conditions carried by a decomposition:
    positivity of each q_pi, unitality of their sum, and the generator
    identities sum_{pi(i)=j} q_pi = a_ij.  Exact decompositions are held
    to zero residual; float ones to tol."""
    positivity = tuple((sigma, *psd_margin(q, tol)) for sigma, q in dec.weights.items())
    weights = list(dec.weights.values())
    unit = sum(weights[1:], weights[0]) - identity(dec.s, dec.exact)

    recon = dec.blocks()
    diffs = {
        (i, j): difference(recon[i][j], a.block(i, j))
        for i in range(a.n)
        for j in range(a.n)
    }

    ok = (
        all(p[1] for p in positivity)
        and vanishes(unit, tol)
        and all(vanishes(d, tol) for d in diffs.values())
    )
    gen = {ij: residual(d) for ij, d in diffs.items()}
    return MapReport(ok, positivity, residual(unit), gen)
