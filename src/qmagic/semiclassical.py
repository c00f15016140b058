"""Semiclassicality: the membership LMI, interior decomposition formula,
and synthesis of commuting quantum-permutation dilations.

A square A is semiclassical when A = sum_pi P_pi (x) q_pi with PSD weights
q_pi summing to the identity.  Every route here meets the n^2 x n! incidence
system sum_{pi(i)=j} q_pi = a_ij, and all of them solve it by one closed
form, its least-norm solution `_min_norm_weights`: the LMI takes it as the
constant term of a pencil of n! blocks q_pi of size s over the kernel of
the incidence matrix, solved as a block stack; the exact rational repair of
the solver's weights adds it for the residual; and on the interior ball it
is the decomposition itself.  Each route reads the square's one (n, n, s, s)
grid, `grid` or, for an exact square, its integer `numerators` over one
denominator, and works on the (n!, s, s) weight stack at once, gathering
sum_k g_{k, pi(k)} for every pi.  The repair and the interior formula keep
integer numerators until one stacked PSD proof (`psd_check_stack`) has
passed and build the n! exact weights only then.  Membership is decided by
the eps-resolution semantics of the solver plus, for exact input, that
exact repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import factorial, lcm

import numpy as np

from .exact import (
    DENOMINATOR_LADDER,
    ExactMatrix,
    hermitian_basis_stack,
    psd_check_stack,
    rational_hermitian,
)
from .birkhoff import magic_space_dimension
from .sdp import SdpProblem, SdpResult, Status, solve_feasibility, DEFAULT_EPS
from .structures import (
    DEFAULT_TOL,
    MagicSquare,
    _block_violations,
    as_complex,
    compress,
    difference,
    grid_residual,
    identity,
    permutations_lex,
    psd_margins,
    residual,
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
REPAIR_DENOMINATORS = DENOMINATOR_LADDER


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
        """Raw blocks of sum_pi P_pi (x) q_pi, summed in weight order, unvalidated."""
        zero, terms = zeros(self.s, self.s, self.exact), self.weights.items()
        return [
            [sum((q for sigma, q in terms if sigma[i] == j), zero) for j in range(self.n)]
            for i in range(self.n)
        ]

    def reconstruct(self, tol: float = DEFAULT_TOL) -> MagicSquare:
        """Assemble sum_pi P_pi (x) q_pi as a validated magic square."""
        return MagicSquare(self.blocks(), tol=tol)

    def weight_violations(self, tol: float = DEFAULT_TOL) -> tuple:
        """The hermiticity or else PSD violation of each weight, located at
        its permutation, as `validate_magic` tests blocks: exact weights
        exactly, float ones to tol."""
        found = _block_violations(list(self.weights.items()), tol)
        return tuple(v for v in found if v)


@dataclass(frozen=True)
class CommutingDilation:
    """A quantum permutation matrix U with commuting entries and an isometry V
    compressing it back to the source square: V* u_ij V = a_ij."""

    u: MagicSquare
    v: np.ndarray
    decomposition: SemiclassicalDecomposition

    def compressed(self) -> MagicSquare:
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
def _elimination(n: int) -> np.ndarray:
    """An orthonormal basis of the kernel of the incidence map, one row per
    kernel vector; the rank is (n-1)^2 + 1.  The particular solution needs
    no operator: it is `_min_norm_weights`."""
    kernel = np.linalg.svd(_incidence(n))[2][magic_space_dimension(n) :]
    kernel.flags.writeable = False
    return kernel


@cache
def _lex_permutations(n: int) -> np.ndarray:
    """`permutations_lex(n)` as an (n!, n) array: row pi holds pi(0), ..., pi(n-1)."""
    perms = np.array(permutations_lex(n)).reshape(-1, n)
    perms.flags.writeable = False
    return perms


def _min_norm_weights(grid: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The least-norm solution of sum_{pi(i)=j} q_pi = g_ij, as the
    (n!, s, s) stack of the q_pi in lex order, for an (n, n, s, s) grid of
    blocks whose rows and columns all sum to the block `row`:

        q_pi = (sum_k g_{k, pi(k)} - ((n-2)/(n-1)) row) / ((n-2)! n),

    and q = row at n = 1.  The incidence Gram lies in the algebra spanned by
    I, "same row", "same column" and J, which gives its pseudo-inverse this
    closed form.  The sums gather g_{k, pi(k)} for every pi at once and add
    them in k order.  Float blocks give the float weights; integer
    numerators (object arrays) of a grid and row over one denominator D
    give the numerators (n-1) sum_k g_{k, pi(k)} - (n-2) row of the weights
    over n! D, exactly.
    """
    n = len(grid)
    perms = _lex_permutations(n)
    total = grid[0, perms[:, 0]]
    for k in range(1, n):
        total = total + grid[k, perms[:, k]]
    if grid.dtype == object:
        return (n - 1) * total - (n - 2) * row
    if n == 1:  # the lone weight, complex like every float weight
        return np.zeros_like(total) + row
    shift = row * float(Fraction(n - 2, n - 1))
    return (total - shift) * float(Fraction(1, factorial(n - 2) * n))


def build_semiclassical_lmi(a: MagicSquare) -> SdpProblem:
    """The weights q_pi, in lex order of pi, as a pencil of n! blocks of
    size s, PSD at some x iff A is semiclassical.

    The equalities sum_{pi(i)=j} q_pi = a_ij are eliminated once per n:
    every solution is q0 + sum_r v_r (x) X_r, with q0 the least-norm
    solution `_min_norm_weights` and v_r an orthonormal kernel basis of the
    incidence map.  F0 is the (n!, s, s) stack of the q0_pi (I / n! for the
    constant square), and the directions are the stacks v_r[pi] h_b over
    the Hermitian basis h_b of Mat_s, in (r, b) order: (n! - (n-1)^2 - 1) s^2
    of them, none for n <= 2.  sum_pi q_pi = I needs no constraint of its
    own: it is the sum of the constraints of any row of A.
    """
    n, s = a.n, a.s
    if n > MAX_LMI_N:
        raise TooLarge(f"n = {n} exceeds the n! guard ({MAX_LMI_N})")
    q0 = _min_norm_weights(a.grid, identity(s, False))
    dirs = np.einsum("rp,bij->rbpij", _elimination(n), hermitian_basis_stack(s))
    return SdpProblem(q0, dirs.reshape(-1, *q0.shape))


def _exact_repair(a: MagicSquare, weights: np.ndarray, max_denominator: int):
    """Rationalize numeric weights, the (n!, s, s) stack in lex order, and
    project them exactly onto the affine set {sum_pi P_pi (x) q_pi = A};
    None if PSD breaks.

    The projection of the rationalized x0 is x0 plus the least-norm solution
    for the residual A - sum_pi P_pi (x) x0_pi, whose rows and columns all
    sum to I - sum_pi x0_pi.  The constraints act on each Hermitian
    coordinate alike, with the same Frobenius weight for every pi, so this
    is also the Frobenius-weighted projection of the whole block system.
    It all runs on integer numerators over one denominator: x0 comes from
    `rational_hermitian`; the fitted blocks are one product with the
    incidence matrix; one congruence proof covers the result.  The n! exact
    weights are built only when it is PSD.
    """
    n, s = a.n, a.s
    x_den, x_re, x_im = rational_hermitian(weights, max_denominator)
    a_den, a_re, a_im = a.numerators
    e = lcm(x_den, a_den)
    incidence = _incidence(n).astype(object)

    def correction(target, x0, unit):  # the least-norm weights of the residual, over e n!
        fitted = (incidence @ x0.reshape(len(x0), -1)).reshape(n, n, s, s)
        grid = target * (e // a_den) - fitted * (e // x_den)
        return _min_norm_weights(grid, unit - x0.sum(axis=0) * (e // x_den))

    den = e * factorial(n)
    eye = np.eye(s, dtype=object) * e
    re = x_re * (den // x_den) + correction(a_re, x_re, eye)
    im = x_im * (den // x_den) + correction(a_im, x_im, 0 * eye)
    if not all(check.is_psd for check in psd_check_stack(den, re, im)):
        return None
    return {
        sigma: ExactMatrix.from_parts(den, *q)
        for sigma, q in zip(permutations_lex(n), zip(re, im))
    }


def check_semiclassical(a: MagicSquare, eps: float = DEFAULT_EPS) -> CheckResult:
    """Decide semiclassicality through the LMI.

    Yes carries a decomposition; No carries the solver's dual certificate,
    whose Y is the (n!, s, s) stack of its diagonal blocks; boundary cases
    the margins cannot settle come back Inconclusive.  When A is exact,
    the solver's weights are rationalized at each bound of
    REPAIR_DENOMINATORS in turn and projected exactly onto the n^2 x n!
    incidence system, by its closed-form least-norm solution, which needs
    no elimination.  The first rung whose weights stay PSD gives the exact
    yes.
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

    weights = problem.evaluate(res.x)
    if not a.exact:
        weights = dict(zip(permutations_lex(a.n), weights))
        dec = SemiclassicalDecomposition(a.n, a.s, False, weights)
        resid = grid_residual(dec.blocks(), a.blocks)
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

    q_pi = (sum_k a_{k, pi(k)} - ((n-2)/(n-1)) I) / ((n-2)! n), the
    least-norm solution of the incidence system, is a decomposition when
    every q_pi is PSD, that is when sum_k a_{k, pi(k)} >= ((n-2)/(n-1)) I.
    No SDP involved; exact on exact input, proven before a weight is built.
    """
    n, s, perms = a.n, a.s, permutations_lex(a.n)
    if a.exact:  # the weights' numerators over den n!, proven before any is built
        den, g_re, g_im = a.numerators
        eye = np.eye(s, dtype=object) * den
        weights = den * factorial(n), _min_norm_weights(g_re, eye), _min_norm_weights(g_im, 0 * eye)
    else:
        weights = list(_min_norm_weights(a.grid, identity(s, False)))
    margins = psd_margins(weights, DEFAULT_TOL)
    violations = [(sigma, margin) for sigma, (ok, margin) in zip(perms, margins) if not ok]
    if violations:
        raise BoundViolated(violations)
    if a.exact:
        den, re, im = weights
        weights = [ExactMatrix.from_parts(den, *q) for q in zip(re, im)]
    return SemiclassicalDecomposition(n, s, a.exact, dict(zip(perms, weights)))


# -- dilation synthesis ------------------------------------------------------


def synthesize_commuting_dilation(dec: SemiclassicalDecomposition) -> CommutingDilation:
    """Build U = diag-block quantum permutation and V stacked from q_pi^(1/2).

    U is exact 0/1 data rendered as floats: u_ij is the diagonal of the
    incidence row (i, j), each mark repeated s times.  V stacks, in lex
    order, the PSD roots of the Hermitian parts of the (n!, s, s) weight
    stack from one batched eigh; a permutation missing from the weights
    weighs zero.  Square roots leave the rationals, but V* u_ij V = a_ij
    holds through the exact identity sum_{pi(i)=j} q_pi = a_ij.  Raises
    TooLarge above MAX_LMI_N, where U, n^2 blocks of size n! s, grows too
    large.
    """
    n, s = dec.n, dec.s
    if n > MAX_LMI_N:
        raise TooLarge(f"n = {n} exceeds the n! guard ({MAX_LMI_N})")
    marks = _incidence(n).reshape(n, n, -1)
    u = MagicSquare([[np.diag(np.repeat(m, s) + 0j) for m in row] for row in marks])
    zero = zeros(s, s, False)
    q = np.stack([as_complex(dec.weights.get(sigma, zero)) for sigma in permutations_lex(n)])
    lam, w = np.linalg.eigh((q + q.conj().swapaxes(1, 2)) / 2)
    roots = (w * np.sqrt(np.clip(lam, 0, None))[:, None, :]) @ w.conj().swapaxes(1, 2)
    return CommutingDilation(u, roots.reshape(-1, s), dec)


def verify_positive_unital_map(
    dec: SemiclassicalDecomposition, a: MagicSquare, tol: float = DEFAULT_TOL
) -> MapReport:
    """Check the three finite conditions carried by a decomposition:
    positivity of each q_pi, unitality of their sum, and the generator
    identities sum_{pi(i)=j} q_pi = a_ij.  Exact decompositions are held
    to zero residual; float ones to tol."""
    weights = list(dec.weights.values())
    positivity = tuple((sigma, *m) for sigma, m in zip(dec.weights, psd_margins(weights, tol)))
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
