"""Splitting of dilations and the one-step dilation extension.

A projector u compressed from a contraction w through an isometry v,
u = v* w v with 0 <= w <= I, forces w to be block diagonal in the basis
[v, v_perp]: w = diag(u, p) with 0 <= p <= I.  Applied entrywise to a
magic square dilating a quantum permutation matrix this shows that
quantum permutation matrices only admit trivial dilations.

The extension step goes the other way: given a member square A of size s
(with a_11 - a_11^2 != 0) and a feasibility witness X with
phi(A) + X >= 0, factor phi(A) + X = B B*, read off the factor blocks
b_ij, and assemble a square A' of size s+1 whose top-left corner
compresses back to A and whose coupling column is nonzero.  A, being a
proper compression of A', is then not an Arveson extreme point.  X lives
in Z (x) Z (x) Mat_s, on the slots (i k),(j l) with i != j and k != l, so
the relations the factor must satisfy are B B* = phi(A) on every other
slot: b_ik* b_il = delta_kl a_ik - a_ik a_il along a block row and
b_ik* b_jk = -a_ik a_jk down a block column.  A witness comes from a
commuting dilation U of A: its factor blocks are the corners of U's
blocks in a basis completing the dilation's isometry.  The pipeline is
numeric throughout: matrix square roots leave the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .obstruction import phi_matrix
from .sampling import random_unitary
from .semiclassical import CommutingDilation
from .structures import (
    MagicSquare,
    adjoint,
    as_complex,
    difference,
    identity,
    psd_margins,
    residual,
)

SPLIT_TOL = 1e-8
RANK_CUTOFF = 1e-10


class InvariantViolated(ValueError):
    """An input triple fails its defining inequalities or identities."""


class DegenerateTopLeft(ValueError):
    """a_11 - a_11^2 vanishes, so no coupling vector exists."""


class RelationViolated(ValueError):
    """The Gram factor blocks do not satisfy the required products."""


# -- splitting ---------------------------------------------------------------


@dataclass(frozen=True)
class DilationTriple:
    """A projector u, a contraction 0 <= w <= I, and an isometry v with
    u = v* w v."""

    u: np.ndarray
    w: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class SplitResult:
    p: np.ndarray  # complement corner, 0 <= p <= I for valid inputs
    residual: float  # off-block mass of w in the [v, v_perp] basis
    basis: np.ndarray  # the unitary [v, v_perp]


def _complete_isometry(v: np.ndarray) -> np.ndarray:
    t, s = v.shape
    q, _ = np.linalg.qr(v, mode="complete")
    return np.hstack([v, q[:, s:]])


def validate_triple(d: DilationTriple, tol: float = SPLIT_TOL) -> None:
    """Check the three defining conditions of a dilation triple."""
    u = np.asarray(d.u, dtype=np.complex128)
    w = np.asarray(d.w, dtype=np.complex128)
    v = np.asarray(d.v, dtype=np.complex128)
    s = u.shape[0]
    t = w.shape[0]
    if u.shape != (s, s) or w.shape != (t, t) or v.shape != (t, s) or t < s:
        raise InvariantViolated(f"shapes u{u.shape}, w{w.shape}, v{v.shape}")
    herm = max(residual(difference(m, adjoint(m))) for m in (u, w))
    if herm > tol:
        raise InvariantViolated(f"hermiticity residual {herm:.2e}")
    proj = residual(difference(u @ u, u))
    if proj > tol:
        raise InvariantViolated(f"u is not a projector, residual {proj:.2e}")
    iso = residual(difference(adjoint(v) @ v, identity(s, False)))
    if iso > tol:
        raise InvariantViolated(f"v is not an isometry, residual {iso:.2e}")
    (lo_ok, lo), (hi_ok, hi) = psd_margins([w, identity(t, False) - w], tol)
    if not (lo_ok and hi_ok):
        raise InvariantViolated(f"w outside [0, I]: eigenvalue bounds {lo:.2e}, {hi:.2e}")
    corner = residual(difference(adjoint(v) @ w @ v, u))
    if corner > tol:
        raise InvariantViolated(f"v* w v != u, residual {corner:.2e}")


def split_decompose(d: DilationTriple, tol: float = SPLIT_TOL) -> SplitResult:
    """Split w = diag(u, p) in the basis [v, v_perp].

    Valid triples split with off-block residual at roundoff scale; the
    returned p satisfies 0 <= p <= I up to the same scale.  Inputs that
    fail the triple invariants raise InvariantViolated.
    """
    validate_triple(d, tol)
    w = np.asarray(d.w, dtype=np.complex128)
    v = np.asarray(d.v, dtype=np.complex128)
    s = v.shape[1]
    basis = _complete_isometry(v)
    tilted = basis.conj().T @ w @ basis
    off = tilted[s:, :s]
    residual = float(np.abs(off).max()) if off.size else 0.0
    p = tilted[s:, s:]
    return SplitResult(p=p, residual=residual, basis=basis)


@dataclass(frozen=True)
class SplitReport:
    """Entrywise splitting of a magic square dilating a quantum permutation."""

    ok: bool
    worst_residual: float
    corners: dict  # (i, j) -> complement block c_ij
    basis: np.ndarray


def arveson_split_check(
    u_square: MagicSquare, a_square, v, tol: float = SPLIT_TOL
) -> SplitReport:
    """Certify that a dilation of a quantum permutation matrix is trivial.

    Requires u_ij = v* a_ij v entrywise with every u_ij a projector and
    every a_ij in [0, I].  The report confirms a_ij = diag(u_ij, c_ij)
    in the common basis [v, v_perp].
    """
    n = u_square.n
    grid = a_square.grid if isinstance(a_square, MagicSquare) else a_square
    blocks = [[as_complex(b) for b in row] for row in grid]
    v = np.asarray(v, dtype=np.complex128)
    worst = 0.0
    corners = {}
    basis = _complete_isometry(v)
    for i in range(n):
        for j in range(n):
            triple = DilationTriple(u_square.grid[i, j], blocks[i][j], v)
            result = split_decompose(triple, tol)
            worst = max(worst, result.residual)
            corners[(i, j)] = result.p
    return SplitReport(ok=worst <= tol, worst_residual=worst, corners=corners, basis=basis)


# -- the extension step ------------------------------------------------------


@dataclass(frozen=True)
class ExtensionStep:
    """One dilation-extension move from size s to size s + 1."""

    square: MagicSquare  # the input A
    b_blocks: dict  # (i, j) -> t x s Gram factor block
    v: np.ndarray  # coupling vector, v* b_11* b_11 v = 1
    p_blocks: dict  # (i, j) -> pseudo-inverse of a_ij^(1/2)
    c: np.ndarray  # 3 x 3 nonnegative completion weights
    row_sums: tuple  # s_{i*}
    col_sums: tuple  # s_{*j}
    total: float  # s = sum_j (1 - s_{*j})
    extended: MagicSquare  # A' of block size s + 1


def _pinv_sqrt(block: np.ndarray, cutoff: float) -> np.ndarray:
    """Pseudo-inverse of block^(1/2), dropping eigenvalues below cutoff * max."""
    lam, vecs = np.linalg.eigh((block + block.conj().T) / 2)
    lam = np.clip(lam, 0, None)
    top = float(lam.max()) if lam.size else 0.0
    keep = lam > cutoff * max(top, 1e-300)
    inv = np.where(keep, 1.0 / np.sqrt(np.where(keep, lam, 1.0)), 0.0)
    return (vecs * inv) @ vecs.conj().T


def _sum_kernel_projector(n: int, s: int) -> np.ndarray:
    """Projector onto the orthocomplement of the row/column sum functionals.

    For any Gram matrix of factor blocks with vanishing row and column
    sums, the vectors sum_j e_i (x) e_j (x) xi and sum_i e_i (x) e_j (x) xi
    lie in the kernel.  Compressing onto their orthocomplement before
    factoring removes roundoff mass along these directions, which would
    otherwise surface as sqrt(eps)-size residuals in the sum identities.
    With J the all-ones matrix, the projector onto their span is
    (I (x) J/n + J/n (x) I - J/n (x) J/n) (x) I_s.
    """
    eye, mean = np.eye(n), np.full((n, n), 1 / n)
    sums = np.kron(eye, mean) + np.kron(mean, eye) - np.kron(mean, mean)
    return np.eye(n * n * s) - np.kron(sums, np.eye(s))


def extend_dilation_step(a: MagicSquare, x: np.ndarray, tol: float = SPLIT_TOL) -> ExtensionStep:
    """Extend a 3x3 member square by one dimension using a witness X.

    Factors phi(A) + X = B B* by eigendecomposition, verifies B B* = phi(A)
    on the slots of a common block row or column (the relations
    b_ik* b_il = delta a_ik - a_ik a_il and b_ik* b_jk = -a_ik a_jk) and
    the vanishing row/column sums of the b_ij, then assembles

        a'_ij = [[a_ij,            b_ij* b_11 v],
                 [v* b_11* b_ij,   v* b_11* b_ij p_ij^2 b_ij* b_11 v + c_ij]]

    with the completion weights c_ij = (1 - s_i*)(1 - s_*j)/s.  The
    output validates as a magic square of block size s + 1 and its
    top-left corner compresses back to A.
    """
    n, s = a.n, a.s
    if n != 3:
        raise ValueError(f"the extension step is defined for n=3, got n={n}")
    blocks = a.grid
    a11 = blocks[0][0]
    h = a11 - a11 @ a11
    lam_h, vec_h = np.linalg.eigh((h + h.conj().T) / 2)
    if float(lam_h.max()) <= 1e-8:
        raise DegenerateTopLeft(
            f"a_11 - a_11^2 has top eigenvalue {float(lam_h.max()):.2e}"
        )

    phi = phi_matrix(a.to_float())
    m = phi + np.asarray(x, dtype=np.complex128)
    m = (m + m.conj().T) / 2
    # A Gram matrix of the required form kills the sum functionals exactly,
    # so compress onto their orthocomplement before factoring; the drift
    # this introduces is itself a sum-identity residual and is gated below.
    pi = _sum_kernel_projector(n, s)
    mt = pi @ m @ pi
    mt = (mt + mt.conj().T) / 2
    drift = float(np.abs(mt - m).max())
    lam, vecs = np.linalg.eigh(mt)
    keep = lam > RANK_CUTOFF * max(float(lam.max()), 1e-300)
    factor = vecs[:, keep] * np.sqrt(lam[keep])  # m = factor factor* up to drift
    rows = factor.reshape(n, n, s, -1)  # rows[i, j] = b_ij*
    b = {(i, j): rows[i, j].conj().T for i in range(n) for j in range(n)}  # t x s

    # X lives on the slots (i k),(j l) with i != j and k != l; on every slot
    # sharing a block row or column the factor must reproduce phi(A).  These
    # slots hold the diagonal, so an indefinite phi(A) + X, whose negative
    # part the factor drops, fails here too.
    same_row = np.kron(np.eye(n), np.ones((n, n)))
    same_col = np.kron(np.ones((n, n)), np.eye(n))
    mask = np.kron(same_row + same_col, np.ones((s, s))) > 0
    gap = np.where(mask, np.abs(factor @ factor.conj().T - phi), 0.0)
    at = np.unravel_index(int(gap.argmax()), gap.shape)
    sums = max(float(np.abs(rows.sum(axis=0)).max()), float(np.abs(rows.sum(axis=1)).max()))
    worst = max(float(gap[at]), sums, drift)
    if worst > tol:
        slot = tuple(divmod(int(k) // s, n) for k in at)
        raise RelationViolated(
            f"factor relations fail, residual {worst:.2e}; B B* is furthest from "
            f"phi(A) at slot {slot}"
        )

    v = vec_h[:, -1] / np.sqrt(lam_h[-1])
    p = {(i, j): _pinv_sqrt(blocks[i][j], RANK_CUTOFF) for i in range(n) for j in range(n)}
    w = {key: bk.conj().T @ (b[(0, 0)] @ v) for key, bk in b.items()}
    g = np.array(
        [[float(np.linalg.norm(p[(i, j)] @ w[(i, j)]) ** 2) for j in range(n)] for i in range(n)]
    )
    row, col = g.sum(axis=1), g.sum(axis=0)
    total = float(n - g.sum())
    c = np.outer(1 - row, 1 - col) / total if total > 1e-12 else np.zeros((n, n))
    extended = [
        [
            np.block([[blocks[i][j], w[(i, j)][:, None]], [w[(i, j)].conj(), g[i, j] + c[i, j]]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return ExtensionStep(
        square=a,
        b_blocks=b,
        v=v,
        p_blocks=p,
        c=c,
        row_sums=tuple(map(float, row)),
        col_sums=tuple(map(float, col)),
        total=total,
        extended=MagicSquare(extended, tol=tol),
    )


# -- feasibility witnesses from dilations ------------------------------------


@dataclass(frozen=True)
class MemberWitness:
    """Numeric X with phi(A) + X = B B* >= 0 built from a dilation."""

    x: np.ndarray
    blocks: dict  # (i, j) -> the corner block b_ij of the dilated generator


def member_witness_from_dilation(dilation: CommutingDilation) -> MemberWitness:
    """Reconstruct the feasibility witness of a dilated square.

    Complete the isometry V to a unitary W = [V, V_perp] and read off the
    corner blocks b_ij = (W* u_ij W)[s:, :s].  They satisfy
    b_ij* b_ij = a_ij - a_ij^2, and stacking them into B gives an
    explicit X = B B* - phi(A) supported on the off-diagonal slots with
    phi(A) + X >= 0.
    """
    a = dilation.compressed()
    n, s = a.n, a.s
    w = _complete_isometry(np.asarray(dilation.v, dtype=np.complex128))
    corners = (w.conj().T @ dilation.u.grid @ w)[:, :, s:, :s]  # (n, n, t - s, s)
    bcol = corners.conj().swapaxes(2, 3).reshape(n * n * s, -1)
    x = bcol @ bcol.conj().T - phi_matrix(a.to_float())
    blocks = {(i, j): corners[i, j] for i in range(n) for j in range(n)}
    return MemberWitness(x=x, blocks=blocks)


# -- samplers for property suites --------------------------------------------


def make_projector_dilation(
    rng: np.random.Generator, s: int, t: int
) -> DilationTriple:
    """A genuine projector dilation: w a projector on t dims, v an isometry
    mixing range(w) and ker(w) columns so that u = v* w v is a projector."""
    basis = random_unitary(rng, t)
    rank = int(rng.integers(1, t))
    w = basis[:, :rank] @ basis[:, :rank].conj().T
    k = int(rng.integers(0, s + 1))  # columns taken from range(w)
    k = min(k, rank)
    k = max(k, s - (t - rank))  # remaining columns must fit in ker(w)
    cols = np.hstack([basis[:, :k], basis[:, rank : rank + (s - k)]])
    mix = random_unitary(rng, s)
    v = cols @ mix
    u = v.conj().T @ w @ v
    return DilationTriple(u=u, w=w, v=v)
