"""Dense Hermitian semidefinite feasibility: decide sup { t : F0 + sum x_i F_i >= t I }.

The solver follows the central path of the log-det barrier with damped Newton
steps, entirely in complex Hermitian arithmetic.  Feasibility is certified by
re-verifying the returned primal point; infeasibility by a polished dual
matrix Y with trace(Y F_i) = 0, trace(Y) = 1, Y PSD and trace(Y F0) < 0.
Anything the witnesses cannot settle is reported Inconclusive.
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
DEDUP_TOL = 1e-10


class NonHermitian(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class Status(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


def _gram_schmidt_keep(mats: list[np.ndarray], tol: float) -> list[int]:
    """Indices of a maximal independent subset (first occurrence wins)."""
    basis: list[np.ndarray] = []
    keep: list[int] = []
    for k, m in enumerate(mats):
        v = m.reshape(-1)
        norm0 = np.linalg.norm(v)
        if norm0 == 0:
            continue
        w = v.copy()
        for b in basis:
            w = w - np.vdot(b, w) * b
        if np.linalg.norm(w) > tol * norm0:
            basis.append(w / np.linalg.norm(w))
            keep.append(k)
    return keep


class SdpProblem:
    """Pencil feasibility data.  Directions are deduplicated at construction;
    `kept` maps the stored directions back to positions in the input list."""

    __slots__ = ("f0", "directions", "dim", "kept")

    def __init__(self, f0, directions=()):
        f0 = np.asarray(f0, dtype=np.complex128)
        dirs = [np.asarray(f, dtype=np.complex128) for f in directions]
        d = f0.shape[0]
        for m in [f0, *dirs]:
            if m.shape != (d, d):
                raise DimensionMismatch(f"matrix of shape {m.shape}, expected {(d, d)}")
            resid = float(np.abs(m - m.conj().T).max())
            if resid > HERM_TOL:
                raise NonHermitian(f"hermiticity residual {resid:.2e}")
        kept = _gram_schmidt_keep(dirs, DEDUP_TOL)
        object.__setattr__(self, "f0", (f0 + f0.conj().T) / 2)
        object.__setattr__(
            self, "directions", tuple((dirs[k] + dirs[k].conj().T) / 2 for k in kept)
        )
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "kept", tuple(kept))

    def __setattr__(self, name, value):
        raise AttributeError("SdpProblem is immutable")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """F0 + sum x_i F_i for real coefficients x over the stored directions."""
        out = self.f0.copy()
        for xi, f in zip(x, self.directions):
            out = out + float(xi) * f
        return out


@dataclass(frozen=True)
class SdpResult:
    status: Status
    t_star: float
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status is Status.FEASIBLE


def _dual_polish(
    y0: np.ndarray, constraints: list[np.ndarray], targets: list[float], rounds: int
) -> np.ndarray:
    """Alternate PSD clipping with exact affine projection; end on affine."""
    vecs = np.stack([c.reshape(-1) for c in constraints])
    gram = vecs.conj() @ vecs.T
    gram_inv = np.linalg.pinv(gram.real)
    t = np.array(targets, dtype=float)

    def affine(y):
        r = vecs.conj() @ y.reshape(-1)
        mu = gram_inv @ (r.real - t)
        return y - np.tensordot(mu, np.stack(constraints), axes=1)

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
    trace(Y F0) <= -10 eps.  Otherwise Inconclusive with diagnostics.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = problem.dim
    dirs = list(problem.directions)
    m = len(dirs)
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(problem.f0)).max()))

    tilted = dirs + [-np.eye(d, dtype=np.complex128)]
    lam0 = float(np.linalg.eigvalsh(problem.f0).min())
    y = np.zeros(m + 1)
    y[m] = lam0 - scale  # strictly feasible start: F0 - t I >= scale I

    mu = scale
    mu_end = 0.1 * eps / d
    iters = 0
    stalled = False
    mat = problem.f0 - y[m] * np.eye(d)

    def pencil(yv):
        out = problem.f0 - yv[m] * np.eye(d)
        for k in range(m):
            out = out + yv[k] * dirs[k]
        return (out + out.conj().T) / 2

    def logdet_min(a):
        lam = np.linalg.eigvalsh(a)
        if lam[0] <= 0:
            return None, lam[0]
        return float(np.log(lam).sum()), lam[0]

    while mu > mu_end and iters < max_iter and not stalled:
        for _ in range(60):
            iters += 1
            lam, u = np.linalg.eigh(mat)
            if lam[0] <= 0:
                stalled = True
                break
            isqrt = (u / np.sqrt(lam)) @ u.conj().T
            gmats = [isqrt @ f @ isqrt for f in tilted]
            grad = np.array([g.trace().real for g in gmats])
            grad[m] += 1.0 / mu
            gstack = np.stack([g.reshape(-1) for g in gmats])
            k = (gstack @ gstack.conj().T).real
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
                ld, lmin = logdet_min(pencil(cand))
                if ld is not None and ld + cand[m] / mu > f_cur - 1e-12:
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
    fx = problem.evaluate(x)
    lam_min = float(np.linalg.eigvalsh(fx).min())
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
    if lam[0] > 0:
        y_raw = (u / lam) @ u.conj().T
    else:
        bottom = u[:, :1]
        y_raw = bottom @ bottom.conj().T
    y_raw = y_raw / y_raw.trace().real
    constraints = dirs + [np.eye(d, dtype=np.complex128)]
    targets = [0.0] * m + [1.0]
    y_cert = _dual_polish(y_raw, constraints, targets, rounds=80)

    pairings = np.array([float((y_cert @ f).trace().real) for f in dirs])
    p0 = float((y_cert @ problem.f0).trace().real)
    y_min = float(np.linalg.eigvalsh((y_cert + y_cert.conj().T) / 2).min())
    diagnostics.update(
        {
            "dual_pairing_max": float(np.abs(pairings).max()) if m else 0.0,
            "dual_f0_pairing": p0,
            "dual_lambda_min": y_min,
        }
    )
    pair_ok = m == 0 or float(np.abs(pairings).max()) <= eps
    if p0 <= -10 * eps and pair_ok and y_min >= -eps:
        return SdpResult(
            Status.INFEASIBLE, t_star=p0, y=y_cert, residuals=diagnostics
        )
    if iters >= max_iter:
        diagnostics["iteration_limit"] = True
    return SdpResult(Status.INCONCLUSIVE, t_star=lam_min, residuals=diagnostics)
