"""Membership obstruction for the matrix convex hull of quantum permutations.

For a magic square A = (a_ij) with s x s blocks, stack the blocks into

    col(A)  = sum_ij e_i (x) e_j (x) a_ij              (n^2 s  x  s)
    diag(A) = blockdiag(a_11, a_12, ..., a_nn)         (n^2 s  x  n^2 s)

with index pairs ordered lexicographically, and set

    phi(A) = diag(A) - col(A) col(A)*.

For n >= 3 there is a correction term supported on off-diagonal slots,

    psi(A) = sum_{i!=j, k!=l} E_ij (x) E_kl (x)
             (-alpha I + beta a_ik + beta a_jl + gamma a_il + gamma a_jk),

    alpha = 1/((n-1)(n-2)),  beta = (n-1)/(n(n-2)),  gamma = 1/(n(n-2)),

chosen so that (phi(A) + psi(A))(e (x) e_i (x) I_s) = 0 for the all-ones
vector e.  Write Z for the zero-diagonal matrices in Mat_n and Z_e for
the subspace of Z annihilating e on both sides.  If A admits a dilation
to a quantum permutation matrix then both of the following hold:

    weak:    exists X in (Z (x) Z (x) Mat_s)_her      phi(A) + X >= 0
    strong:  exists X in (Z_e (x) Z_e (x) Mat_s)_her  phi(A) + psi(A) + X >= 0

and the two formulas are equivalent for every magic square.  Hence an
infeasibility certificate for either pencil proves that A is not in the
matrix convex hull.  Certificates are located numerically and then
re-verified over Q[i]: a Hermitian Y >= 0 with trace(Y B_j) = 0 for
every direction B_j and trace(Y B_0) < 0, all in exact arithmetic.
Both pencils come from one builder: the directions are the Kronecker
products H_a (x) H_b (x) h over a Hermitian basis H of Z (weak) or Z_e
(strong) and the Hermitian basis h of Mat_s, so they form a basis of the
variable space by construction.  They depend only on (n, s, mode), have
Gaussian-integer entries and are stored once as the (m, d, d) complex
stack of an `SdpProblem`.  As h spans all of Her_s, trace(Y (H_a (x) H_b
(x) h)) = trace(C_ab h) for the blocks C_ab of Y contracted twice with H:
a certificate's orthogonality to every direction (every C_ab = 0) and its
projection onto {trace(Y B_j) = 0} are mode products of Y's integer
numerators with H and its inverse Gram matrix, read once per (n, mode).
B_0 is phi(A), or phi(A) + psi(A), read off the square's one
(n, n, s, s) grid of blocks: phi as diag - col col* with col the grid
reshaped to (n^2 s) x s, psi from one vectorized slot formula, both on the
complex grid of a float square or on the Gaussian-integer numerators of an
exact one.  An exact B_0 is one `ExactMatrix`, built from the integer
slots of L D^2 B_0 over one common denominator, whose numerators carry the
kernel identity check; a certificate Y stays in such numerators from
rounding through projection to the PSD check, and trace(Y B_0) is one
integer dot product of the two.

A "yes" from the obstruction check is not a membership proof; it only
reports that this particular obstruction is silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from .exact import (
    DENOMINATOR_LADDER,
    ExactMatrix,
    hermitian_basis_stack,
    nullspace_exact,
    psd_check_exact,
    rational_hermitian,
    rational_str,
    refute_psd,
    rref_exact,
)
from .sdp import DEFAULT_EPS, SdpProblem, SdpResult, Status, solve_feasibility
from .structures import MagicSquare, as_complex, complete_corner, residual

WEAK = "weak"
STRONG = "strong"


class NotDefinedForSmallN(ValueError):
    """The requested construction needs a larger square side."""


class CertificateNotFound(RuntimeError):
    """The obstruction pencil is feasible; no dual certificate exists."""


class CertificateSearchInconclusive(RuntimeError):
    """The solver could not resolve the pencil either way."""


class CertificationFailed(ValueError):
    """Exact verification of a rationalized certificate broke.

    `condition` names the first failing check ("psd" or "negativity"),
    `margin` quantifies it: a negative quadratic form value v* Y v for
    "psd", the nonnegative exact pairing trace(Y B_0) for "negativity".
    On a final rung the "psd" margin is the one the exact elimination
    reads off; on a non-final rung of `certify_with_ladder` it is the
    value at a rounded float eigenvector (`refute_psd`).  A larger
    denominator bound or a better numeric Y may still succeed.
    """

    def __init__(self, condition: str, margin):
        super().__init__(
            f"exact certification failed at {condition} (margin {rational_str(margin)})"
        )
        self.condition = condition
        self.margin = margin


# -- phi and psi --------------------------------------------------------------
#
# Both read the square's (n, n, s, s) grid: `grid` for a float square, for an
# exact one the Gaussian-integer blocks N_ij of N = D col(A) in `numerators`,
# with D^2 phi(A) = D diag(N) - N N* and, for L = n(n-1)(n-2), the slots
# -n D^2 I + (n-1)^2 D (N_ik + N_jl) + (n-1) D (N_il + N_jk) of L D^2 psi(A).


def phi_matrix(a: MagicSquare):
    """diag(A) - col(A) col(A)*, Hermitian of size n^2 s, over Q[i] for an
    exact square and in complex floats for a float one."""
    phi = _phi(a)
    return ExactMatrix.from_parts(*phi) if a.exact else phi


def _phi(a: MagicSquare):
    """phi(A) of a float square as diag - col col*, col its grid as one
    (n^2 s) x s column; of an exact one as (D^2, re, im), re + i im = D^2 phi(A)."""
    if not a.exact:
        col = a.grid.reshape(-1, a.s)
        return _block_diagonal(a.grid) - col @ col.conj().T
    den, n_re, n_im = a.numerators
    c_re, c_im = (part.reshape(-1, a.s) for part in (n_re, n_im))
    re = den * _block_diagonal(n_re) - (c_re @ c_re.T + c_im @ c_im.T)
    im = den * _block_diagonal(n_im) - (c_im @ c_re.T - c_re @ c_im.T)
    return den * den, re, im


def _block_diagonal(b: np.ndarray) -> np.ndarray:
    """blockdiag(b_11, b_12, ..., b_nn), of b's dtype, for an (n, n, s, s) grid b."""
    k, s = b.shape[0] * b.shape[1], b.shape[2]
    out = np.zeros((k, s, k, s), dtype=b.dtype)
    out[range(k), :, range(k)] = b.reshape(k, s, s)
    return out.reshape(k * s, k * s)


def psi_matrix(a: MagicSquare):
    """The off-diagonal correction term; defined for n >= 3.

    Supported only on slots E_ij (x) E_kl with i != j and k != l, and
    built so that (phi(A) + psi(A)) kills e (x) e_i (x) I_s for all i.
    """
    psi = _psi(a)
    return ExactMatrix.from_parts(*psi) if a.exact else psi


def _psi(a: MagicSquare):
    """psi(A) from one slot formula (`_psi_slots`) on the grid: the complex
    matrix of a float square, (L D^2, re, im) with re + i im = L D^2 psi(A)
    for an exact one."""
    n, s = a.n, a.s
    if n < 3:
        raise NotDefinedForSmallN(f"correction term needs n >= 3, got n={n}")
    if a.exact:
        den, n_re, n_im = a.numerators
        unit = -n * den * den * np.eye(s, dtype=int).astype(object)
        near, far = (n - 1) ** 2 * den, (n - 1) * den
        re, im = (_psi_slots(part, u, near, far) for part, u in ((n_re, unit), (n_im, 0)))
        return n * (n - 1) * (n - 2) * den * den, re, im
    alpha = float(Fraction(1, (n - 1) * (n - 2)))
    beta = float(Fraction(n - 1, n * (n - 2)))
    gamma = float(Fraction(1, n * (n - 2)))
    return _psi_slots(a.grid, -alpha * np.eye(s), beta, gamma)


def _psi_slots(b: np.ndarray, unit, near, far) -> np.ndarray:
    """The (n^2 s)-square matrix with slot (i k), (j l) equal to
    unit + near (b_ik + b_jl) + far (b_il + b_jk) where i != j and k != l,
    and zero elsewhere, for an (n, n, s, s) array b of blocks b_ij."""
    n, s = b.shape[0], b.shape[2]
    idx = np.arange(n)
    off = (idx[:, None, None, None] != idx[None, None, :, None]) & (
        idx[None, :, None, None] != idx[None, None, None, :]
    )
    slots = (  # on (i, k, j, l) axes
        unit
        + near * (b[:, :, None, None] + b[None, None])
        + far * (b[:, None, None, :] + b.transpose(1, 0, 2, 3)[None, :, :, None])
    )
    slots = np.where(off[..., None, None], slots, 0)
    return slots.transpose(0, 1, 4, 2, 3, 5).reshape(n * n * s, n * n * s)


# -- the pencils ------------------------------------------------------------


@cache
def zero_diagonal_basis(n: int, doubly_null: bool = False) -> np.ndarray:
    """Hermitian basis of Z, or of Z_e when `doubly_null`, as a read-only
    stack of Gaussian-integer arrays, computed once per (n, doubly_null):
    real symmetric S first, then i K for real antisymmetric K, each fixed by
    its entries on the slots i < j.  For Z_e those entries run over the
    rational nullspace of the row-sum functionals, S e = 0 (a slot (i, j)
    counts +1 in rows i and j) and K e = 0 (+1 in row i, -1 in row j); Z has
    no functionals.  The real dimension is n^2 - n for Z and n^2 - 3n + 1
    for Z_e.
    """
    if n < (3 if doubly_null else 2):
        raise NotDefinedForSmallN(f"the space is trivial for n={n}")
    slots = np.triu_indices(n, 1)
    out = []
    for sign, unit in ((1, 1), (-1, 1j)):
        kernel = np.eye(len(slots[0]))
        if doubly_null:
            rows = [[int(i == r) + sign * int(j == r) for i, j in zip(*slots)] for r in range(n)]
            kernel = [v.to_complex()[:, 0].real for v in nullspace_exact(ExactMatrix(rows))]
        for coords in kernel:
            upper = np.zeros((n, n), dtype=np.complex128)
            upper[slots] = unit * coords
            out.append(upper + sign * upper.T)
    expected = n * n - 3 * n + 1 if doubly_null else n * n - n
    if len(out) != expected:
        raise RuntimeError(f"basis has {len(out)} elements, expected {expected}")
    basis = np.array(out)
    basis.flags.writeable = False
    return basis


def _kron_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a_i, b_j) for every pair of two stacks, i outer."""
    (p, r, c), (q, u, v) = a.shape, b.shape
    prod = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return prod.reshape(p * q, r * u, c * v)


def pencil_directions(n: int, s: int, mode: str) -> np.ndarray:
    """The directions kron(kron(H_a, H_b), h) over the Hermitian basis H of
    Z (weak) or Z_e (strong) and h of Her_s: a basis of the Hermitian part
    of the variable space, (dim H)^2 s^2 Gaussian-integer arrays."""
    z = zero_diagonal_basis(n, doubly_null=mode == STRONG)
    out = _kron_pairs(_kron_pairs(z, z), hermitian_basis_stack(s))
    # complex products of signed entries leave negative zeros; adding zero
    # clears them, so the entries match ExactMatrix.to_complex bit for bit
    return np.add(out, 0.0, out=out)


# -- the complement of the variable space, through the Z factor --------------
#
# A complex array is held in Python ints with a last axis (re, im); a complex
# matrix F[a, x] acts on it through its real form [[re F, -im F], [im F, re F]].


@cache
def _factor(n: int, mode: str):
    """For the basis H of Z (weak) or Z_e (strong): with F the flattened
    H, the real form of conj(F), the real form of G^-1 conj(F) times g, and
    g, for G^-1 = inv / g the inverse of the Gram matrix tr(H_a H_b)."""
    stack = zero_diagonal_basis(n, doubly_null=mode == STRONG)
    if not np.array_equal(stack, np.round(stack)):
        raise ValueError("factor has an entry that is not a Gaussian integer")
    if not np.array_equal(stack, stack.conj().swapaxes(1, 2)):
        raise ValueError("factor is not Hermitian")
    flat = stack.reshape(len(stack), -1)
    re, im = (part.astype(np.int64).astype(object) for part in (flat.real, flat.imag))
    m = len(flat)
    gram = (re @ re.T + im @ im.T).tolist()
    augmented = [g + [int(p == q) for q in range(m)] for p, g in enumerate(gram)]
    inv = rref_exact(ExactMatrix(augmented))[0].block(0, m, m, 2 * m)  # real, as the Gram
    form = np.stack([np.stack([re, im], -1), np.stack([-im, re], -1)], 1)
    return form, np.tensordot(inv.re, form, (1, 0)), inv.den


def _correction(re, im, n: int, s: int, mode: str):
    """(c, T) for Hermitian Y = (re + i im) / den: T = sum_ab c_ab (x) H_a
    (x) H_b as a (d, d, (re, im)) integer array, c_ab = c (G^-1 (x) G^-1)
    C_ab for the blocks C_ab of Y contracted twice with conj(H), c = g^2.
    (c Y - T) / (c den) is the projection onto {trace(Y B_j) = 0}, and T = 0
    exactly when Y pairs to zero with every direction."""
    form, back, g = _factor(n, mode)
    t = np.stack([re, im], -1).reshape(n, n, s, n, n, s, 2).transpose(0, 3, 1, 4, 2, 5, 6)
    t = t.reshape(n * n, n * n, s, s, 2)
    for _ in range(2):  # each step appends its new axis before (re, im)
        t = np.tensordot(t, form, ([0, -1], [2, 3]))
    for _ in range(2):  # (p, q, a, b) -> (p, q, b, (i j)) -> (p, q, (i j), (k l))
        t = np.tensordot(t, back, ([2, -1], [0, 1]))
    t = t.reshape(s, s, n, n, n, n, 2).transpose(2, 4, 0, 3, 5, 1, 6)
    return g * g, t.reshape(len(re), -1, 2)


@dataclass(frozen=True)
class ObstructionProblem:
    """A feasibility pencil B_0 + sum_j x_j B_j >= 0 over a tensor space.

    The directions B_j are stored once, as the Gaussian-integer complex
    arrays `pencil.directions`; certificates meet them only through their
    Z factor (`_correction`).  `b0_exact` is present only for exact squares.
    """

    square: MagicSquare
    mode: str
    pencil: SdpProblem
    b0_exact: ExactMatrix | None

    @property
    def dim(self) -> int:
        return self.pencil.dim


@dataclass(frozen=True)
class ObstructionCertificate:
    """An exact dual certificate of non-membership.

    y_exact >= 0 with trace(y B_j) = 0 for every pencil direction and
    trace(y B_0) < 0, everything over Q[i].
    """

    n: int
    s: int
    mode: str
    y_exact: ExactMatrix
    pairings: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ObstructionCheckResult:
    verdict: str  # "yes" | "no" | "inconclusive"
    problem: ObstructionProblem
    solver: SdpResult
    x: np.ndarray | None = None  # numeric X with B0 + X >= -eps on "yes"
    y: np.ndarray | None = None  # numeric dual witness on "no"


def build_obstruction(a: MagicSquare, mode: str = STRONG) -> ObstructionProblem:
    """Assemble the weak or strong feasibility pencil for a magic square.

    Weak uses constant part phi(A) with variables in Z (x) Z (x) Her_s;
    strong uses phi(A) + psi(A) with variables in Z_e (x) Z_e (x) Her_s.
    In strong mode the kernel identity on e (x) e_i (x) I_s is verified
    at build time.
    """
    b0 = constant_term(a, mode)
    pencil = SdpProblem(as_complex(b0), pencil_directions(a.n, a.s, mode))
    return ObstructionProblem(
        square=a, mode=mode, pencil=pencil, b0_exact=b0 if a.exact else None
    )


def constant_term(a: MagicSquare, mode: str):
    """B0 of the pencil: phi(A) in weak mode, phi(A) + psi(A) in strong
    mode, where the kernel identity on e (x) e_i (x) I_s is verified.

    B0 is one `ExactMatrix` for an exact square and a complex array for a
    float one; psi raises `NotDefinedForSmallN` for n < 3.
    """
    if mode not in (WEAK, STRONG):
        raise ValueError(f"mode must be {WEAK!r} or {STRONG!r}, got {mode!r}")
    if mode == WEAK:
        return phi_matrix(a)
    phi, psi = _phi(a), _psi(a)
    if a.exact:  # L D^2 (phi + psi) in integers, normalized once
        (phi_den, phi_re, phi_im), (den, re, im) = phi, psi
        b0 = ExactMatrix.from_parts(den, den // phi_den * phi_re + re, den // phi_den * phi_im + im)
    else:
        b0 = phi + psi
    _check_kernel_identity(b0, a.n, a.s)
    return b0


def _check_kernel_identity(b0, n: int, s: int) -> None:
    """(phi + psi)(e (x) e_i (x) I_s) = 0 for every i, that is, the block
    columns (j, i) of B0 sum to zero over j: exactly on the numerators
    re and im of an exact B0, within 1e-8 relative to its size for a
    float one."""
    if isinstance(b0, ExactMatrix):
        parts, tol = (b0.re, b0.im), 0
    else:
        parts, tol = (b0,), 1e-8 * (1.0 + residual(b0))
    for part in parts:
        sums = part.reshape(len(part), n, n, s).sum(axis=1)  # [row, i, c]
        held = np.abs(sums).max(axis=(0, 2)) <= tol
        if not held.all():
            raise RuntimeError(f"kernel identity broken at i={int(np.argmin(held))}")


# -- decision procedure ------------------------------------------------------


def check_mconv_obstruction(
    a: MagicSquare, mode: str = STRONG, eps: float = DEFAULT_EPS
) -> ObstructionCheckResult:
    """Decide feasibility of the obstruction pencil for a magic square.

    "no" proves the square is not in the matrix convex hull of the
    quantum permutation matrices and comes with a numeric dual witness.
    "yes" only reports that the obstruction is silent (the pencil is
    feasible, with a numeric X achieving B0 + X >= -eps); it does not
    prove membership.  The weak and strong pencils are equivalent, so
    their exact verdicts agree on every square; numerically, some squares
    are "no" in strong mode, with an exact certificate, and "inconclusive"
    in weak mode: the padded counterexample embed_pad(counterexample_m2_3())
    and, on the segment (1 - t) constant_square(3, 2) + t
    counterexample_m2_3(), the squares at t = 1991/2000, 1593/1600 and
    4979/5000 (the `headline_segment` fixture of tests/test_obstruction.py).
    """
    problem = build_obstruction(a, mode)
    res = solve_feasibility(problem.pencil, eps)
    if res.status is Status.FEASIBLE:
        return ObstructionCheckResult("yes", problem, res, x=problem.pencil.combine(res.x))
    if res.status is Status.INFEASIBLE:
        return ObstructionCheckResult("no", problem, res, y=res.y)
    return ObstructionCheckResult("inconclusive", problem, res)


# -- the separating example --------------------------------------------------


def _corner_block(rows) -> ExactMatrix:
    """(1/3) I + (9/62) H for a 2x2 Hermitian H given entrywise, as "p/q"
    strings and (re, im) pairs of them."""
    h = ExactMatrix(rows)
    return Fraction(1, 3) * ExactMatrix.identity(2) + Fraction(9, 62) * h


def counterexample_m2_3() -> MagicSquare:
    """An exact 3x3 magic square with 2x2 blocks that fails the obstruction.

    The four upper-left blocks are small Hermitian perturbations of I/3;
    the remaining row and column are completed by the unique magic
    completion.  The square is a valid magic square over Q[i] but is not
    semiclassical and admits an exact dual certificate in both modes.
    """
    a11 = _corner_block([["-34/93", ("4/5", "2/13")], [("4/5", "-2/13"), "7/16"]])
    a12 = _corner_block([["5/6", ("1/3", "-20/81")], [("1/3", "20/81"), "-41/55"]])
    a21 = _corner_block([["-2/3", ("-25/92", "-3/7")], [("-25/92", "3/7"), "1/34"]])
    a22 = _corner_block([["29/30", ("6/35", "-1")], [("6/35", "1"), "-5/8"]])
    return complete_corner([[a11, a12], [a21, a22]])


# -- dual certificates -------------------------------------------------------


@dataclass(frozen=True)
class DualWitness:
    """Numeric dual candidate with its verification residuals."""

    y: np.ndarray
    trace_b0: float
    pairing_max: float
    min_eigenvalue: float


def find_dual_certificate(
    problem: ObstructionProblem, eps: float = DEFAULT_EPS
) -> DualWitness:
    """Search for a numeric Y >= 0, trace 1, orthogonal to every direction,
    with trace(Y B_0) < 0.

    Only strong-mode problems are accepted (the variable count is small).
    Reuses the problem's solve at this eps (`solve_feasibility` solves a
    pencil once per eps, so after `check_mconv_obstruction` it takes no
    Newton step), then blends its dual as `blend_dual` does.
    """
    if problem.mode != STRONG:
        raise ValueError("dual certificate search expects a strong-mode problem")
    res = solve_feasibility(problem.pencil, eps)
    if res.status is Status.FEASIBLE:
        raise CertificateNotFound(
            f"pencil is feasible (lambda_min {res.t_star:.3e}); no certificate exists"
        )
    if res.status is Status.INCONCLUSIVE:
        raise CertificateSearchInconclusive(f"solver diagnostics: {res.residuals}")
    return blend_dual(problem, res, eps)


def blend_dual(
    problem: ObstructionProblem, res: SdpResult, eps: float = DEFAULT_EPS
) -> DualWitness:
    """The numeric dual witness of an infeasible solve `res` of the pencil,
    such as the `solver` of a "no" from `check_mconv_obstruction`.

    The polished solver dual is blended with a multiple of I/d to move Y
    strictly inside the cone; the blend keeps the pairings unchanged
    because every direction is traceless.
    """
    d = problem.dim
    f0 = problem.pencil.f0
    y = res.y
    p0 = res.t_star  # trace(Y B_0), as the solver re-verified it
    t0 = float(np.real(np.trace(f0)))
    drift = t0 / d - p0
    # keep at least half of the negative pairing after blending
    bound = 0.5 * (-p0) / drift if drift > 0 else 0.05
    theta = min(0.05, bound)
    theta = max(theta, min(bound, 4 * d * eps))
    y = (1 - theta) * y + theta * np.eye(d) / d
    y = (y + y.conj().T) / 2
    return DualWitness(
        y=y,
        trace_b0=float(np.real(np.trace(y @ f0))),
        pairing_max=float(np.abs(problem.pencil.pairings(y)).max(initial=0.0)),
        min_eigenvalue=float(np.linalg.eigvalsh(y).min()),
    )


def _pairings(y: ExactMatrix, n: int, s: int, mode: str, b0: ExactMatrix) -> dict:
    """trace(Y B) for a Y with `_correction` T = 0: B1 ... Bm in direction
    order, exact zeros, then B0 as sum re_Y re_B0 + im_Y im_B0 on the
    stored numerators of Y and B0.  Every pairing is real."""
    m = len(_factor(n, mode)[0]) ** 2 * s * s
    pairings = {f"B{j}": Fraction(0) for j in range(1, m + 1)}
    b0_dot = (y.re * b0.re).sum() + (y.im * b0.im).sum()
    pairings["B0"] = Fraction(int(b0_dot), y.den * b0.den)
    return pairings


def exact_certify(
    y_num: np.ndarray,
    problem: ObstructionProblem,
    max_denominator: int,
    *,
    final: bool = True,
) -> ObstructionCertificate:
    """Turn a numeric dual candidate into an exact certificate over Q[i].

    Y is rounded with the given denominator bound by `rational_hermitian`
    and, still on its integer numerators, projected exactly onto
    {trace(Y B_j) = 0 for all j} as (c Y - T) / c through the Z factor of
    the directions (`_correction`) before the PSD check, because positivity
    is the fragile condition and the projection is a small perturbation
    when the residuals are tiny.  The pairings B1 ... Bm are recorded as the
    exact zeros the projection makes them.  Verification is exact: Y >= 0
    by a congruence proof, else an exact Hermitian elimination (Schur
    complements, largest-diagonal pivoting), and trace(Y B_0) < 0.  With
    `final=False` (a rung that a larger bound may follow) a Y that
    `refute_psd` rejects fails at once with its rounded-eigenvector value
    as the margin, skipping the elimination; any Y it does not reject is
    decided as above, so the certificate is the same either way.
    """
    if problem.b0_exact is None:
        raise ValueError("exact certification needs an exact square")
    d = problem.dim
    if np.shape(y_num) != (d, d):
        raise ValueError(f"certificate has shape {np.shape(y_num)}, expected {(d, d)}")
    n, s, mode = problem.square.n, problem.square.s, problem.mode
    den, re, im = rational_hermitian(y_num, max_denominator)
    c, t = _correction(re, im, n, s, mode)
    re, im = c * re - t[..., 0], c * im - t[..., 1]
    del t  # free the big-integer T and rounded Y before from_parts divides out the gcd
    y = ExactMatrix.from_parts(c * den, re, im)
    pairings = _pairings(y, n, s, mode, problem.b0_exact)
    if not final and (value := refute_psd(y)) is not None:
        raise CertificationFailed("psd", value)
    check = psd_check_exact(y)
    if not check.is_psd:
        raise CertificationFailed("psd", check.witness_value)
    if pairings["B0"] >= 0:
        raise CertificationFailed("negativity", pairings["B0"])
    return ObstructionCertificate(n=n, s=s, mode=mode, y_exact=y, pairings=pairings)


def certify_with_ladder(
    y_num: np.ndarray,
    problem: ObstructionProblem,
    ladder: tuple[int, ...] = DENOMINATOR_LADDER,
) -> ObstructionCertificate:
    """Try exact certification with increasing denominator bounds.

    Returns the first certificate that verifies; the smallest passing
    bound keeps serialized certificates readable.  Every rung but the last
    is tried with `final=False`, so a failing one is usually refuted by
    one rounded eigenvector instead of an exact elimination; the last
    rung's failure, and its margin, is what the caller sees.
    """
    *early, last = ladder
    for bound in early:
        try:
            return exact_certify(y_num, problem, bound, final=False)
        except CertificationFailed:
            pass
    return exact_certify(y_num, problem, last)


def verify_certificate(cert: ObstructionCertificate, a: MagicSquare) -> dict:
    """Re-verify a certificate against a square by exact arithmetic alone.

    Builds the constant term B0 for the certificate's mode, reruns the
    exact PSD check, tests orthogonality to every direction as T = 0 in
    `_correction` of Y's integer numerators, and recomputes trace(Y B0).
    No pencil and no numeric solver is involved.  A stored pairing that
    disagrees (B1 ... Bm are 0) fails its check.  Returns a report dict
    with an overall `ok` flag.
    """
    if not a.exact:
        raise ValueError("exact verification needs an exact square")
    if (a.n, a.s) != (cert.n, cert.s):
        raise ValueError(
            f"certificate is for n={cert.n}, s={cert.s}, square has n={a.n}, s={a.s}"
        )
    y = cert.y_exact
    d = a.n * a.n * a.s
    if y.shape != (d, d):
        raise ValueError(f"certificate Y has shape {y.shape}, expected {(d, d)}")
    b0 = constant_term(a, cert.mode)
    if not y.is_hermitian():
        return {"ok": False, "hermitian": False}
    check = psd_check_exact(y)
    pairings = _pairings(y, a.n, a.s, cert.mode, b0)
    p0 = pairings.pop("B0")
    orthogonal = not _correction(y.re, y.im, a.n, a.s, cert.mode)[1].any()
    pair_ok = orthogonal and all(cert.pairings.get(label, p) == p for label, p in pairings.items())
    negativity = p0 < 0 and cert.pairings.get("B0", p0) == p0
    return {
        "ok": bool(check.is_psd and pair_ok and negativity),
        "psd": check.is_psd,
        "pairings_zero": pair_ok,
        "trace_b0": p0,
        "negativity": negativity,
    }

