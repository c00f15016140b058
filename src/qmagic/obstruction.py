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
Gaussian-integer entries, are stored once as the (m, d, d) complex stack
of an `SdpProblem`, and are converted exactly to Q[i] on demand, where a
certificate is checked.  phi and psi are written once, on the
representation helpers of `structures`.

A "yes" from the obstruction check is not a membership proof; it only
reports that this particular obstruction is silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .exact import (
    ExactMatrix,
    GaussianRational,
    affine_least_squares,
    exact_from_float_matrix,
    hermitian_basis_stack,
    hermitian_coordinate_weights,
    hermitian_coordinates,
    hermitian_from_coordinates,
    nullspace_exact,
    psd_check_exact,
)
from .sdp import DEFAULT_EPS, SdpProblem, SdpResult, Status, kron_pairs, solve_feasibility
from .structures import (
    MagicSquare,
    adjoint,
    as_complex,
    assemble,
    complete_corner,
    identity,
    scalar,
    vanishes,
    zeros,
)

if TYPE_CHECKING:
    from .semiclassical import CommutingDilation

WEAK = "weak"
STRONG = "strong"

DENOMINATOR_LADDER = (10**3, 10**6, 10**9)


class NotDefinedForSmallN(ValueError):
    """The requested construction needs a larger square side."""


class CertificateNotFound(RuntimeError):
    """The obstruction pencil is feasible; no dual certificate exists."""


class CertificateSearchInconclusive(RuntimeError):
    """The solver could not resolve the pencil either way."""


class CertificationFailed(ValueError):
    """Exact verification of a rationalized certificate broke.

    `condition` names the first failing check ("psd" or "negativity"),
    `margin` quantifies it: a negative quadratic form value for "psd",
    the nonnegative exact pairing trace(Y B_0) for "negativity".  A
    larger denominator bound or a better numeric Y may still succeed.
    """

    def __init__(self, condition: str, margin):
        super().__init__(f"exact certification failed at {condition} (margin {margin})")
        self.condition = condition
        self.margin = margin


# -- stacked column, block diagonal, phi, psi --------------------------------


def col_and_diag(a: MagicSquare):
    """Stacked column col(A) and block diagonal diag(A), lexicographic order.

    Exact squares give exact matrices, float squares give complex arrays.
    """
    n, s = a.n, a.s
    blocks = [a.block(i, j) for i in range(n) for j in range(n)]
    zero = zeros(s, s, a.exact)
    col = assemble([[b] for b in blocks], a.exact)
    diag = assemble(
        [[b if p == q else zero for q in range(n * n)] for p, b in enumerate(blocks)],
        a.exact,
    )
    return col, diag


def phi_matrix(a: MagicSquare):
    """diag(A) - col(A) col(A)*, Hermitian of size n^2 s."""
    col, diag = col_and_diag(a)
    return diag - col @ adjoint(col)


def psi_matrix(a: MagicSquare):
    """The off-diagonal correction term; defined for n >= 3.

    Supported only on slots E_ij (x) E_kl with i != j and k != l, and
    built so that (phi(A) + psi(A)) kills e (x) e_i (x) I_s for all i.
    """
    n, s = a.n, a.s
    if n < 3:
        raise NotDefinedForSmallN(f"correction term needs n >= 3, got n={n}")
    alpha = scalar(Fraction(1, (n - 1) * (n - 2)), a.exact)
    beta = scalar(Fraction(n - 1, n * (n - 2)), a.exact)
    gamma = scalar(Fraction(1, n * (n - 2)), a.exact)
    eye = identity(s, a.exact)
    zero = zeros(s, s, a.exact)
    grid = [[zero] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                for l in range(n):
                    if k == l:
                        continue
                    grid[i * n + k][j * n + l] = (
                        -alpha * eye
                        + beta * (a.block(i, k) + a.block(j, l))
                        + gamma * (a.block(i, l) + a.block(j, k))
                    )
    return assemble(grid, a.exact)


# -- the pencils ------------------------------------------------------------


def zero_diagonal_basis(n: int, doubly_null: bool = False) -> np.ndarray:
    """Hermitian basis of Z, or of Z_e when `doubly_null`, as a stack of
    Gaussian-integer arrays: real symmetric S first, then i K for real
    antisymmetric K, each fixed by its entries on the slots i < j.  For Z_e
    those entries run over the rational nullspace of the row-sum
    functionals, S e = 0 (a slot (i, j) counts +1 in rows i and j) and
    K e = 0 (+1 in row i, -1 in row j); Z has no functionals.  The real
    dimension is n^2 - n for Z and n^2 - 3n + 1 for Z_e.
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
    return np.array(out)


def pencil_directions(n: int, s: int, mode: str) -> np.ndarray:
    """The directions kron(kron(H_a, H_b), h) over the Hermitian basis H of
    Z (weak) or Z_e (strong) and h of Her_s: a basis of the Hermitian part
    of the variable space, (dim H)^2 s^2 Gaussian-integer arrays."""
    z = zero_diagonal_basis(n, doubly_null=mode == STRONG)
    # complex products of signed entries leave negative zeros; adding zero
    # clears them, so the entries match ExactMatrix.to_complex bit for bit
    return kron_pairs(kron_pairs(z, z), hermitian_basis_stack(s)) + 0.0


def _exact_gaussian_integers(m: np.ndarray) -> ExactMatrix:
    """The exact copy of a complex array whose entries are Gaussian integers."""
    if not np.array_equal(m, np.round(m)):
        raise ValueError("direction has an entry that is not a Gaussian integer")
    return ExactMatrix([[(int(z.real), int(z.imag)) for z in row] for row in m.tolist()])


@dataclass(frozen=True)
class ObstructionProblem:
    """A feasibility pencil B_0 + sum_j x_j B_j >= 0 over a tensor space.

    The directions B_j are stored once, as the Gaussian-integer complex
    arrays `pencil.directions`; `directions_exact` converts them to Q[i]
    on first use, for certificates.  `b0_exact` is present only for exact
    squares.
    """

    square: MagicSquare
    mode: str
    pencil: SdpProblem
    b0_exact: ExactMatrix | None

    @property
    def dim(self) -> int:
        return self.pencil.dim

    @cached_property
    def directions_exact(self) -> tuple[ExactMatrix, ...]:
        return tuple(_exact_gaussian_integers(b) for b in self.pencil.directions)

    def labels(self) -> list[str]:
        return [f"B{j + 1}" for j in range(len(self.pencil.directions))]


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
    if mode not in (WEAK, STRONG):
        raise ValueError(f"mode must be {WEAK!r} or {STRONG!r}, got {mode!r}")
    b0 = phi_matrix(a) if mode == WEAK else phi_matrix(a) + psi_matrix(a)
    f0 = as_complex(b0)
    pencil = SdpProblem(f0, pencil_directions(a.n, a.s, mode))
    if mode == STRONG:
        _check_kernel_identity(b0, f0, a.n, a.s, a.exact)
    return ObstructionProblem(
        square=a, mode=mode, pencil=pencil, b0_exact=b0 if a.exact else None
    )


def _check_kernel_identity(b0, f0: np.ndarray, n: int, s: int, exact: bool) -> None:
    """(phi + psi)(e (x) e_i (x) I_s) = 0 for every i; for floats within 1e-8
    relative to the size of B0, read from its complex copy f0."""
    eye = identity(s, exact)
    zero = zeros(s, s, exact)
    tol = 1e-8 * (1.0 + float(np.abs(f0).max()))
    for i in range(n):
        vec = assemble([[eye if k == i else zero] for j in range(n) for k in range(n)], exact)
        if not vanishes(b0 @ vec, tol):
            raise RuntimeError(f"kernel identity broken at i={i}")


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
    their exact verdicts agree on every square; numerically, the padded
    counterexample embed_pad(counterexample_m2_3()) is a known exception,
    "no" in strong mode and "inconclusive" in weak mode.
    """
    problem = build_obstruction(a, mode)
    res = solve_feasibility(problem.pencil, eps)
    if res.status is Status.FEASIBLE:
        return ObstructionCheckResult("yes", problem, res, x=problem.pencil.combine(res.x))
    if res.status is Status.INFEASIBLE:
        return ObstructionCheckResult("no", problem, res, y=res.y)
    return ObstructionCheckResult("inconclusive", problem, res)


# -- the separating example --------------------------------------------------


def _gr(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(*re) if isinstance(re, tuple) else Fraction(re),
                            Fraction(*im) if isinstance(im, tuple) else Fraction(im))


def _corner_block(rows) -> ExactMatrix:
    """(1/3) I + (9/62) H for a 2x2 Hermitian H given entrywise."""
    h = ExactMatrix(rows)
    return Fraction(1, 3) * ExactMatrix.identity(2) + Fraction(9, 62) * h


def counterexample_m2_3() -> MagicSquare:
    """An exact 3x3 magic square with 2x2 blocks that fails the obstruction.

    The four upper-left blocks are small Hermitian perturbations of I/3;
    the remaining row and column are completed by the unique magic
    completion.  The square is a valid magic square over Q[i] but is not
    semiclassical and admits an exact dual certificate in both modes.
    """
    a11 = _corner_block(
        [
            [_gr((-34, 93)), _gr((4, 5), (2, 13))],
            [_gr((4, 5), (-2, 13)), _gr((7, 16))],
        ]
    )
    a12 = _corner_block(
        [
            [_gr((5, 6)), _gr((1, 3), (-20, 81))],
            [_gr((1, 3), (20, 81)), _gr((-41, 55))],
        ]
    )
    a21 = _corner_block(
        [
            [_gr((-2, 3)), _gr((-25, 92), (-3, 7))],
            [_gr((-25, 92), (3, 7)), _gr((1, 34))],
        ]
    )
    a22 = _corner_block(
        [
            [_gr((29, 30)), _gr((6, 35), (-1, 1))],
            [_gr((6, 35), (1, 1)), _gr((-5, 8))],
        ]
    )
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
    The polished solver dual is blended with a multiple of I/d to move Y
    strictly inside the cone; the blend keeps the pairings unchanged
    because every direction is traceless.
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
    d = problem.dim
    f0 = problem.pencil.f0
    y = res.y
    p0 = float(np.real(np.trace(y @ f0)))
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


def _pairing(y: ExactMatrix, b: ExactMatrix) -> GaussianRational:
    """trace(Y B) = sum_ij Y_ij B_ji, summed over the nonzero entries of B."""
    return sum(
        (y[i, j] * b[j, i] for j in range(b.rows) for i in range(b.cols) if b[j, i]),
        GaussianRational(0),
    )


def exact_certify(
    y_num: np.ndarray, problem: ObstructionProblem, max_denominator: int
) -> ObstructionCertificate:
    """Turn a numeric dual candidate into an exact certificate over Q[i].

    Entries are rationalized with the given denominator bound and the
    result symmetrized exactly.  The matrix is then projected exactly
    onto the affine space {trace(Y B_j) = 0 for all j} before the PSD
    check, because positivity is the fragile condition and the
    projection is a small perturbation when the residuals are tiny.
    Verification is exact: Y >= 0 by a congruence proof, else rational
    LDL*, and trace(Y B_0) < 0.
    """
    if problem.b0_exact is None:
        raise ValueError("exact certification needs an exact square")
    y_num = np.asarray(y_num, dtype=np.complex128)
    d = problem.dim
    if y_num.shape != (d, d):
        raise ValueError(f"certificate has shape {y_num.shape}, expected {(d, d)}")
    raw = exact_from_float_matrix(y_num, max_denominator)
    y = Fraction(1, 2) * (raw + raw.h)

    weights = hermitian_coordinate_weights(d)
    coords = hermitian_coordinates(y)
    rows = []
    for b in problem.directions_exact:
        bc = hermitian_coordinates(b)
        rows.append([w * c for w, c in zip(weights, bc)])
    targets = [Fraction(0)] * len(rows)
    projected = affine_least_squares(rows, targets, coords, weights=weights)
    y = hermitian_from_coordinates(d, projected)

    pairings = {
        label: _pairing(y, b).re
        for label, b in zip(problem.labels(), problem.directions_exact)
    }
    check = psd_check_exact(y)
    if not check.is_psd:
        raise CertificationFailed("psd", check.witness_value)
    p0 = _pairing(y, problem.b0_exact)
    if p0.im != 0:
        raise CertificationFailed("negativity", p0)
    if p0.re >= 0:
        raise CertificationFailed("negativity", p0.re)
    pairings["B0"] = p0.re
    return ObstructionCertificate(
        n=problem.square.n,
        s=problem.square.s,
        mode=problem.mode,
        y_exact=y,
        pairings=pairings,
    )


def certify_with_ladder(
    y_num: np.ndarray,
    problem: ObstructionProblem,
    ladder: tuple[int, ...] = DENOMINATOR_LADDER,
) -> ObstructionCertificate:
    """Try exact certification with increasing denominator bounds.

    Returns the first certificate that verifies; the smallest passing
    bound keeps serialized certificates readable.
    """
    last = None
    for bound in ladder:
        try:
            return exact_certify(y_num, problem, bound)
        except CertificationFailed as err:
            last = err
    raise last


def verify_certificate(cert: ObstructionCertificate, a: MagicSquare) -> dict:
    """Re-verify a certificate against a square by exact arithmetic alone.

    Rebuilds the pencil, recomputes every pairing, and reruns the exact
    PSD check.  No numeric solver is involved.  Returns a report dict
    with an overall `ok` flag.
    """
    if not a.exact:
        raise ValueError("exact verification needs an exact square")
    if (a.n, a.s) != (cert.n, cert.s):
        raise ValueError(
            f"certificate is for n={cert.n}, s={cert.s}, square has n={a.n}, s={a.s}"
        )
    problem = build_obstruction(a, cert.mode)
    y = cert.y_exact
    report = {"ok": True}
    if not y.is_hermitian():
        return {"ok": False, "hermitian": False}
    check = psd_check_exact(y)
    report["psd"] = check.is_psd
    pair_ok = True
    for label, b in zip(problem.labels(), problem.directions_exact):
        p = _pairing(y, b)
        zero = p.re == 0 and p.im == 0
        pair_ok = pair_ok and zero
        stored = cert.pairings.get(label)
        if stored is not None and GaussianRational._coerce(stored) != p:
            pair_ok = False
    report["pairings_zero"] = pair_ok
    p0 = _pairing(y, problem.b0_exact)
    report["trace_b0"] = p0.re
    report["negativity"] = p0.im == 0 and p0.re < 0
    stored = cert.pairings.get("B0")
    if stored is not None and GaussianRational._coerce(stored) != p0:
        report["negativity"] = False
    report["ok"] = bool(report["psd"] and pair_ok and report["negativity"])
    return report


# -- feasibility witnesses from dilations ------------------------------------


@dataclass(frozen=True)
class MemberWitness:
    """Numeric X with phi(A) + X = B B* >= 0 built from a dilation."""

    x: np.ndarray
    blocks: dict  # (i, j) -> the corner block b_ij of the dilated generator


def member_witness_from_dilation(dilation: "CommutingDilation") -> MemberWitness:
    """Reconstruct the feasibility witness of a dilated square.

    Complete the isometry V to a unitary W = [V, V_perp] and read off the
    corner blocks b_ij = (W* u_ij W)[s:, :s].  They satisfy
    b_ij* b_ij = a_ij - a_ij^2, and stacking them into B gives an
    explicit X = B B* - phi(A) supported on the off-diagonal slots with
    phi(A) + X >= 0.
    """
    a = dilation.compressed()
    n, s = a.n, a.s
    v = np.asarray(dilation.v, dtype=np.complex128)
    t = v.shape[0]
    q, _ = np.linalg.qr(v, mode="complete")
    # columns s: of q are orthonormal and orthogonal to range(v)
    w = np.hstack([v, q[:, s:]])
    blocks = {}
    bcol = np.zeros((n * n * s, t - s), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            u = np.asarray(dilation.u.block(i, j), dtype=np.complex128)
            tilted = w.conj().T @ u @ w
            b = tilted[s:, :s]
            blocks[(i, j)] = b
            r = (i * n + j) * s
            bcol[r : r + s, :] = b.conj().T
    phi = phi_matrix(a.to_float())
    x = bcol @ bcol.conj().T - phi
    return MemberWitness(x=x, blocks=blocks)
