"""Dense Hermitian semidefinite feasibility: decide sup { t : F0 + sum x_i F_i >= t I }.

An `SdpProblem` holds the directions F_i as one (m, d, d) complex stack, with
the affine map x -> sum x_i F_i (`combine`) and its adjoint (`pairings`).
The solver follows the central path of the log-det barrier with damped Newton
steps; each step takes its gradient and Gram matrix from one batched product
M^-1/2 F_i M^-1/2 over the stack.  Feasibility is certified by re-verifying
the returned primal point; infeasibility by a dual Y, polished by PSD
clipping alternated with affine projection, with trace(Y F_i) = 0,
trace(Y) = 1, Y PSD and trace(Y F0) < 0.  Anything the witnesses cannot
settle is reported Inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "NonHermitian",
    "DimensionMismatch",
    "Status",
    "SdpProblem",
    "SdpResult",
    "solve_feasibility",
    "DEFAULT_EPS",
]

DEFAULT_EPS = 1e-7
HERM_TOL = 1e-9


class NonHermitian(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class Status(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


def _real_rows(stack: np.ndarray) -> np.ndarray:
    """Each complex matrix of a stack as one real row: the row products are
    the real Frobenius pairings Re tr(A* B), without copying the stack."""
    m, rows, cols = stack.shape
    return stack.reshape(m, rows * cols).view(np.float64)


def _hermitian_part(stack: np.ndarray) -> np.ndarray:
    """(F + F*) / 2 for every F of a stack, which must be Hermitian within HERM_TOL."""
    adj = stack.conj().swapaxes(1, 2)
    resid = float(np.abs(stack - adj).max(initial=0.0))
    if resid > HERM_TOL:
        raise NonHermitian(f"hermiticity residual {resid:.2e}")
    return (stack + adj) / 2


class SdpProblem:
    """Pencil feasibility data: F0 and the directions F_i as one (m, d, d)
    complex stack.  The directions must be linearly independent; the
    solver re-verifies every witness, so dependent directions can only
    stall it to Inconclusive, never turn a verdict."""

    __slots__ = ("f0", "directions", "dim")

    def __init__(self, f0, directions=()):
        f0 = np.asarray(f0, dtype=np.complex128)
        d = f0.shape[0]
        try:
            dirs = np.asarray(directions, dtype=np.complex128)
        except ValueError:  # a ragged list of matrices
            raise DimensionMismatch("directions have different shapes") from None
        if dirs.size == 0:
            dirs = dirs.reshape(0, d, d)
        if f0.shape != (d, d) or dirs.shape[1:] != (d, d):
            raise DimensionMismatch(
                f"shapes {f0.shape} and {dirs.shape[1:]}, expected {(d, d)}"
            )
        object.__setattr__(self, "f0", _hermitian_part(f0[None])[0])
        object.__setattr__(self, "directions", _hermitian_part(dirs))
        object.__setattr__(self, "dim", d)

    def __setattr__(self, name, value):
        raise AttributeError("SdpProblem is immutable")

    def combine(self, x: np.ndarray) -> np.ndarray:
        """sum x_i F_i for real coefficients x."""
        return np.tensordot(np.asarray(x, dtype=float), self.directions, axes=1)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """F0 + sum x_i F_i for real coefficients x."""
        return self.f0 + self.combine(x)

    def pairings(self, y: np.ndarray) -> np.ndarray:
        """[Re tr(Y F_i)], the adjoint of `combine`."""
        y = np.ascontiguousarray(y, dtype=np.complex128)
        return _real_rows(self.directions) @ y.reshape(-1).view(np.float64)


@dataclass(frozen=True)
class SdpResult:
    status: Status
    t_star: float
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)


def _dual_polish(y0: np.ndarray, stack: np.ndarray, rounds: int) -> np.ndarray:
    """Alternate PSD clipping with exact projection onto the affine set
    {trace(Y F_i) = 0 for every F_i of the stack, trace(Y) = 1}; end on affine."""
    d = y0.shape[0]
    rows = _real_rows(np.concatenate([stack, np.eye(d, dtype=np.complex128)[None]]))
    gram_inv = np.linalg.pinv(rows @ rows.T)
    targets = np.zeros(len(rows))
    targets[-1] = 1.0

    def affine(y):
        mu = gram_inv @ (rows @ y.reshape(-1).view(np.float64) - targets)
        return y - (mu @ rows).view(np.complex128).reshape(d, d)

    y = (y0 + y0.conj().T) / 2
    for _ in range(rounds):
        y = affine(y)
        lam, u = np.linalg.eigh((y + y.conj().T) / 2)
        y = (u * np.clip(lam, 0, None)) @ u.conj().T
    return affine((y + y.conj().T) / 2)


def solve_feasibility(
    problem: SdpProblem, eps: float = DEFAULT_EPS, max_iter: int = 800
) -> SdpResult:
    """Resolve pencil feasibility to within eps; see module docstring.

    Feasible: the returned x re-verifies lambda_min(F(x)) >= -eps.
    Infeasible: the returned Y re-verifies the four dual conditions with
    trace(Y F0) <= -10 eps.  Otherwise Inconclusive with diagnostics and
    the last primal point x, whose lambda_min(F(x)) is t_star.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = problem.dim
    stack = problem.directions
    m = len(stack)
    eye = np.eye(d, dtype=np.complex128)
    lam0 = np.linalg.eigvalsh(problem.f0)
    scale = max(1.0, float(np.abs(lam0).max()))
    y = np.zeros(m + 1)
    y[m] = lam0[0] - scale  # strictly feasible start: F0 - t I >= scale I

    mu = scale
    mu_end = 0.1 * eps / d
    iters = 0
    stalled = False

    def pencil(yv):
        return problem.evaluate(yv[:m]) - yv[m] * eye

    mat = pencil(y)

    while mu > mu_end and iters < max_iter and not stalled:
        for _ in range(60):
            iters += 1
            lam, u = np.linalg.eigh(mat)
            if lam[0] <= 0:
                stalled = True
                break
            isqrt = (u / np.sqrt(lam)) @ u.conj().T
            # M^-1/2 F M^-1/2 for every direction, and -M^-1 for the t-direction -I
            gmats = np.empty((m + 1, d, d), dtype=np.complex128)
            np.matmul(isqrt @ stack, isqrt, out=gmats[:m])
            gmats[m] = -(isqrt @ isqrt)
            grad = np.trace(gmats, axis1=1, axis2=2).real
            grad[m] += 1.0 / mu
            flat = gmats.reshape(m + 1, d * d)
            k = (flat @ flat.conj().T).real
            try:
                step = np.linalg.solve(k, grad)
            except np.linalg.LinAlgError:
                stalled = True
                break
            decrement = float(grad @ step)
            f_cur = float(np.log(lam).sum()) + y[m] / mu
            alpha = 1.0
            while alpha > 1e-13:
                cand = y + alpha * step
                lam_c = np.linalg.eigvalsh(pencil(cand))
                if lam_c[0] > 0 and np.log(lam_c).sum() + cand[m] / mu > f_cur - 1e-12:
                    y = cand
                    mat = pencil(y)
                    break
                alpha /= 2
            else:
                stalled = True
                break
            if decrement <= 0.3 or iters >= max_iter:
                break
        mu *= 0.2

    x = y[:m]
    lam_min = float(np.linalg.eigvalsh(problem.evaluate(x)).min())
    diagnostics = {
        "iterations": iters,
        "mu_final": mu,
        "stalled": stalled,
        "primal_lambda_min": lam_min,
        "dual_bound_estimate": float(y[m] + mu * d / 0.2),
    }

    if lam_min >= -eps:
        return SdpResult(
            Status.FEASIBLE, t_star=lam_min, x=x, residuals=diagnostics
        )

    # Infeasibility route: polish the barrier dual mu M^{-1} into a certificate.
    lam, u = np.linalg.eigh(mat)
    y_raw = (u / lam) @ u.conj().T if lam[0] > 0 else np.outer(u[:, 0], u[:, 0].conj())
    y_raw = y_raw / y_raw.trace().real
    y_cert = _dual_polish(y_raw, stack, rounds=80)

    pair_max = float(np.abs(problem.pairings(y_cert)).max(initial=0.0))
    p0 = float((y_cert @ problem.f0).trace().real)
    y_min = float(np.linalg.eigvalsh((y_cert + y_cert.conj().T) / 2).min())
    diagnostics.update(dual_pairing_max=pair_max, dual_f0_pairing=p0, dual_lambda_min=y_min)
    if p0 <= -10 * eps and pair_max <= eps and y_min >= -eps:
        return SdpResult(
            Status.INFEASIBLE, t_star=p0, y=y_cert, residuals=diagnostics
        )
    if iters >= max_iter:
        diagnostics["iteration_limit"] = True
    return SdpResult(Status.INCONCLUSIVE, t_star=lam_min, x=x, residuals=diagnostics)
