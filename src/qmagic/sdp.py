"""Hermitian semidefinite feasibility: decide sup { t : F0 + sum x_i F_i >= t I }.

An `SdpProblem` holds F0, one Hermitian (d, d) matrix or the (k, b, b) stack
of the diagonal blocks of a block-diagonal pencil, and the directions F_i as
one (m, *F0.shape) complex stack, with the affine map x -> sum x_i F_i
(`combine`) and its adjoint (`pairings`).  Everything acts on the last two
axes, so a block-diagonal pencil is never embedded densely.  F0 and the
directions are stored as their Hermitian parts (F + F*) / 2, each formed
in one buffer that first holds the residual F* - F.  The solver follows
the central path of the log-det barrier with damped Newton steps; each
step takes its gradient and Gram matrix from the stack of the
M^-1/2 F_i M^-1/2, which a solve allocates once, with a buffer for its
conjugate, and every step fills anew.  On a block stack whose directions
have at most one nonzero entry per column, real or imaginary (those of
the semiclassical LMI), that stack costs two matrix products per
diagonal block, over the directions laid side by side once per solve,
instead of one per direction and block; the numbers do not change
(`_congruences`).  A one-block pencil keeps one product per direction,
over CHUNK_BYTES of directions at a time.  The gradient's traces of a
stack of blocks up to 3 x 3 come from one einsum, bit for bit np.trace's
(`_trace_sums`).
Feasibility is certified by re-verifying the returned primal point;
infeasibility by a dual Y of the shape of F0, polished by PSD clipping
alternated with affine projection, with trace(Y F_i) = 0, trace(Y) = 1,
Y PSD and trace(Y F0) < 0.  Anything the witnesses cannot settle is
reported Inconclusive.  A problem is solved once per eps: its arrays are
read-only, and `solve_feasibility` keeps each result on the problem, so a
second call with the same eps returns the same `SdpResult`.
"""

from __future__ import annotations

import math
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
MAX_ITER = 800  # Newton steps over the whole path
POLISH_ROUNDS = 80  # PSD clipping and affine projection rounds of the dual
CHUNK_BYTES = 1 << 18  # the isqrt @ F_i products held at once by `_congruences`


class NonHermitian(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class Status(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


def _real_rows(stack: np.ndarray) -> np.ndarray:
    """Each complex matrix or block stack of a stack as one real row: the row
    products are the real Frobenius pairings Re tr(A* B), without copying."""
    return stack.reshape(len(stack), math.prod(stack.shape[1:])).view(np.float64)


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _hermitian_part(stack: np.ndarray) -> np.ndarray:
    """(F + F*) / 2 for every F of a stack, which must be Hermitian within
    HERM_TOL, formed in one C-contiguous buffer: F* - F for the residual,
    then F* + F halved, bit for bit the same as with a fresh F* each time."""
    out = np.empty(stack.shape, dtype=np.complex128)
    np.conjugate(stack.swapaxes(-1, -2), out=out)
    np.subtract(out, stack, out=out)
    resid = float(np.abs(out).max(initial=0.0))
    if resid > HERM_TOL:
        raise NonHermitian(f"hermiticity residual {resid:.2e}")
    np.conjugate(stack.swapaxes(-1, -2), out=out)
    np.add(out, stack, out=out)
    return np.divide(out, 2, out=out)


class SdpProblem:
    """Pencil feasibility data: F0 and the directions F_i as one (m, *F0.shape)
    complex stack, of total dimension `dim`.  The directions must be linearly
    independent; the solver re-verifies every witness, so dependent
    directions can only stall it to Inconclusive, never turn a verdict.
    F0 and the directions are read-only, so the results kept in `_solves`,
    one per eps, stay those of the problem."""

    __slots__ = ("f0", "directions", "dim", "_solves")

    def __init__(self, f0, directions=()):
        f0 = np.asarray(f0, dtype=np.complex128)
        try:
            dirs = np.asarray(directions, dtype=np.complex128)
        except ValueError:  # a ragged list of matrices
            raise DimensionMismatch("directions have different shapes") from None
        if dirs.size == 0:
            dirs = dirs.reshape(0, *f0.shape)
        if f0.ndim < 2 or f0.shape[-1] != f0.shape[-2] or dirs.shape[1:] != f0.shape:
            raise DimensionMismatch(f"F0 {f0.shape}, directions {dirs.shape[1:]}")
        f0, dirs = _hermitian_part(f0), _hermitian_part(dirs)
        f0.flags.writeable = dirs.flags.writeable = False
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "dim", math.prod(f0.shape[:-1]))
        object.__setattr__(self, "_solves", {})

    def __setattr__(self, name, value):
        raise AttributeError("SdpProblem is immutable")

    def combine(self, x: np.ndarray) -> np.ndarray:
        """sum x_i F_i for real coefficients x: one row-times-matrix product."""
        m, shape = len(self.directions), self.f0.shape
        rows = self.directions.reshape(m, math.prod(shape))
        return np.dot(np.asarray(x, dtype=float).reshape(1, m), rows).reshape(shape)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """F0 + sum x_i F_i for real coefficients x."""
        return self.f0 + self.combine(x)

    def pairings(self, y: np.ndarray) -> np.ndarray:
        """[Re tr(Y F_i)], the adjoint of `combine`; Y has the shape of F0."""
        y = np.ascontiguousarray(y, dtype=np.complex128)
        return _real_rows(self.directions) @ y.reshape(-1).view(np.float64)


@dataclass(frozen=True)
class SdpResult:
    """The solve of one problem at one eps, shared by every caller that
    asks for it.  `x` and `y` are read-only.  `residuals` stays one shared
    dict: the CLI only stores it and `check_semiclassical` copies it with
    `**`, so no caller mutates it."""

    status: Status
    t_star: float
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)


def _single_products(stack: np.ndarray) -> bool:
    """Whether every column of every matrix of the stack has at most one
    nonzero entry, and that entry is real or imaginary, as in the directions
    of the semiclassical LMI (a real weight times a Hermitian basis matrix).
    Then every entry of isqrt @ F is one rounded product, in whatever order
    and with whatever fused multiply-adds BLAS forms its sums; only an exact
    zero can come out with either sign."""
    mixed = (stack.real != 0) & (stack.imag != 0)
    return not mixed.any() and bool(np.count_nonzero(stack, axis=-2).max(initial=0) <= 1)


def _congruences(stack: np.ndarray):
    """The map (isqrt, out) -> out[i] = (isqrt @ F_i) @ isqrt over the
    directions F_i of the stack, the same numbers as that product.  numpy
    broadcasts it into one BLAS call per direction and diagonal block, m k
    calls of size b on a (k, b, b) block stack.  A block stack of
    `_single_products` is laid side by side once, [F_1j | ... | F_mj] for
    each block j, and each block takes two products: isqrt_j @ [F_1j | ... |
    F_mj], then those products stacked as rows @ isqrt_j.  Stacking rows
    keeps OpenBLAS's sum for every entry; the wider left product does not in
    general (the kernel changes with the column count), hence single
    products.  The result is bit for bit the broadcast product's, except
    that an exact zero may take the other sign.  Other stacks, and a
    one-block pencil, whose products are large already and would pay for
    the copy, keep one product per direction, broadcast over CHUNK_BYTES
    of directions at a time so that the isqrt @ F_i held at once stay
    small; each product is its own BLAS call, so chunks keep the bits."""
    m, shape = len(stack), stack.shape[1:]
    k, b = math.prod(shape[:-2]), shape[-1]
    if k == 1 or not _single_products(stack):
        step = max(1, CHUNK_BYTES // (stack.itemsize * math.prod(shape)))

        def broadcast(isqrt, out):
            for i in range(0, m, step):
                np.matmul(isqrt @ stack[i:i + step], isqrt, out=out[i:i + step])

        return broadcast
    wide = stack.reshape(m, k, b, b).transpose(1, 2, 0, 3).reshape(k, b, m * b)

    def side_by_side(isqrt, out):
        isqrt = isqrt.reshape(k, b, b)
        tall = (isqrt @ wide).reshape(k, b, m, b).swapaxes(1, 2).reshape(k, m * b, b)
        out.reshape(m, k, b, b)[...] = (tall @ isqrt).reshape(k, m, b, b).swapaxes(0, 1)

    return side_by_side


def _trace_sums(stack: np.ndarray) -> np.ndarray:
    """Re of the summed block traces of every matrix or block stack of a
    stack, as np.trace over the last two axes, then summed over blocks.
    On a block stack of blocks up to 3 x 3 the traces come from einsum,
    which adds each diagonal in order from +0 as np.trace does there, in a
    fraction of its time over many small blocks; from 4 x 4 on np.trace
    sums in interleaved lanes, so larger blocks and a one-block pencil keep
    np.trace and its bits."""
    k, b = math.prod(stack.shape[1:-2]), stack.shape[-1]
    if k > 1 and b <= 3:
        traces = np.einsum("...ii->...", stack)
    else:
        traces = np.trace(stack, axis1=-2, axis2=-1)
    return traces.real.reshape(len(stack), -1).sum(axis=1)


def _dual_polish(y0: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Alternate PSD clipping with exact projection onto the affine set
    {trace(Y F_i) = 0 for every F_i of the stack, trace(Y) = 1}; end on affine."""
    eye = np.broadcast_to(np.eye(y0.shape[-1], dtype=np.complex128), y0.shape)
    rows = _real_rows(np.concatenate([stack, eye[None]]))
    gram_inv = np.linalg.pinv(rows @ rows.T)
    targets = np.zeros(len(rows))
    targets[-1] = 1.0

    def affine(y):
        mu = gram_inv @ (rows @ y.reshape(-1).view(np.float64) - targets)
        return y - (mu @ rows).view(np.complex128).reshape(y.shape)

    y = (y0 + _adjoint(y0)) / 2
    for _ in range(POLISH_ROUNDS):
        y = affine(y)
        lam, u = np.linalg.eigh((y + _adjoint(y)) / 2)
        y = (u * np.clip(lam, 0, None)[..., None, :]) @ _adjoint(u)
    return affine((y + _adjoint(y)) / 2)


def solve_feasibility(problem: SdpProblem, eps: float = DEFAULT_EPS) -> SdpResult:
    """Resolve pencil feasibility to within eps; see module docstring.

    Feasible: the returned x re-verifies lambda_min(F(x)) >= -eps.
    Infeasible: the returned Y re-verifies the four dual conditions with
    trace(Y F0) <= -10 eps.  Otherwise Inconclusive with diagnostics and
    the last primal point x, whose lambda_min(F(x)) is t_star.  The
    problem is solved once per eps; a later call with that eps returns the
    same result, with read-only x and y.  The path has no bound on x: a
    pencil with an unbounded feasible set can return a huge x, which still
    re-verifies (9e161 on F0 = diag(1, -1), F1 = diag(0, 1), feasible at x >= 1).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    res = problem._solves.get(eps)
    if res is None:
        res = problem._solves[eps] = _solve(problem, eps)
        for arr in (res.x, res.y):
            if arr is not None:
                arr.flags.writeable = False
    return res


def _solve(problem: SdpProblem, eps: float) -> SdpResult:
    """The Newton path and witnesses of `solve_feasibility`."""
    d = problem.dim
    stack = problem.directions
    m = len(stack)
    eye = np.eye(problem.f0.shape[-1], dtype=np.complex128)
    lam0 = np.linalg.eigvalsh(problem.f0)
    scale = max(1.0, float(np.abs(lam0).max()))
    y = np.zeros(m + 1)
    y[m] = lam0.min() - scale  # strictly feasible start: F0 - t I >= scale I

    mu = scale
    mu_end = 0.1 * eps / d
    iters = 0
    stalled = False

    def pencil(yv):
        return problem.evaluate(yv[:m]) - yv[m] * eye

    mat = pencil(y)
    congruences = _congruences(stack)
    # the Newton stack and its conjugate, filled anew by every step
    gmats = np.empty((m + 1, *mat.shape), dtype=np.complex128)
    flat = gmats.reshape(m + 1, -1)
    flat_conj = np.empty_like(flat)

    while mu > mu_end and iters < MAX_ITER and not stalled:
        for _ in range(60):
            iters += 1
            lam, u = np.linalg.eigh(mat)
            if lam.min() <= 0:
                stalled = True
                break
            isqrt = (u / np.sqrt(lam)[..., None, :]) @ _adjoint(u)
            # M^-1/2 F M^-1/2 for every direction, and -M^-1 for the t-direction -I
            congruences(isqrt, gmats[:m])
            gmats[m] = -(isqrt @ isqrt)
            grad = _trace_sums(gmats)
            grad[m] += 1.0 / mu
            k = (flat @ np.conjugate(flat, out=flat_conj).T).real
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
                mat_c = pencil(cand)
                lam_c = np.linalg.eigvalsh(mat_c)
                if lam_c.min() > 0 and np.log(lam_c).sum() + cand[m] / mu > f_cur - 1e-12:
                    y, mat = cand, mat_c
                    break
                alpha /= 2
            else:
                stalled = True
                break
            if decrement <= 0.3 or iters >= MAX_ITER:
                break
        mu *= 0.2

    del gmats, flat, flat_conj
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
    if lam.min() <= 0:  # 1/inf = 0 keeps only the least eigenvector over all blocks
        lam = np.where(np.arange(lam.size).reshape(lam.shape) == lam.argmin(), 1.0, np.inf)
    y_raw = (u / lam[..., None, :]) @ _adjoint(u)
    y_raw = y_raw / np.trace(y_raw, axis1=-2, axis2=-1).sum().real
    y_cert = _dual_polish(y_raw, stack)

    pair_max = float(np.abs(problem.pairings(y_cert)).max(initial=0.0))
    p0 = float(np.trace(y_cert @ problem.f0, axis1=-2, axis2=-1).sum().real)
    y_min = float(np.linalg.eigvalsh((y_cert + _adjoint(y_cert)) / 2).min())
    diagnostics.update(dual_pairing_max=pair_max, dual_f0_pairing=p0, dual_lambda_min=y_min)
    if p0 <= -10 * eps and pair_max <= eps and y_min >= -eps:
        return SdpResult(
            Status.INFEASIBLE, t_star=p0, y=y_cert, residuals=diagnostics
        )
    if iters >= MAX_ITER:
        diagnostics["iteration_limit"] = True
    return SdpResult(Status.INCONCLUSIVE, t_star=lam_min, x=x, residuals=diagnostics)
