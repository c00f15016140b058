"""Magic squares over matrix algebras and the constructions that preserve them.

A quantum magic square is an n x n array of s x s PSD Hermitian blocks whose
rows and columns each sum to the identity.  Squares carry either an exact
(Gaussian-rational) or a floating representation; the two never mix silently.

A `MagicSquare` stacks its blocks once, as one (n, n, s, s) grid that
validation and every decider read: a float square's complex array, whose
views are its blocks, or an exact square's integer numerators over one
denominator.  The representation helpers (identity, zeros, assemble,
adjoint, scalar, as_complex, difference, residual, grid_residual, vanishes,
psd_margins) hold all block arithmetic that differs between the
two; the constructions here and elsewhere are written once on top of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import ExactMatrix, GaussianRational, _stack_parts, psd_check_stack, rational_str

__all__ = [
    "ShapeMismatch",
    "SizeMismatch",
    "NotAnIsometry",
    "MixedRepresentation",
    "InvalidMagicSquare",
    "CompletionNotPSD",
    "Violation",
    "ValidationReport",
    "MagicSquare",
    "validate_magic",
    "validate_quantum_permutation",
    "compress",
    "direct_sum",
    "embed_pad",
    "complete_corner",
    "constant_square",
    "permutations_lex",
    "perm_matrix_exact",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-9


class ShapeMismatch(ValueError):
    """Blocks do not form an n x n array of equal square matrices."""


class SizeMismatch(ValueError):
    """Two squares that must share a parameter do not."""


class NotAnIsometry(ValueError):
    """V*V differs from the identity beyond tolerance."""


class MixedRepresentation(TypeError):
    """Exact and floating data met in one operation; convert explicitly."""


class InvalidMagicSquare(ValueError):
    """Construction-time validation failed; carries the report."""

    def __init__(self, report):
        super().__init__(f"not a magic square: {report.violations}")
        self.report = report


class CompletionNotPSD(ValueError):
    """A block completed by complete_corner is not PSD."""

    def __init__(self, offending):
        super().__init__(f"completed blocks not PSD at {sorted(offending)}")
        self.offending = offending


# -- permutations -----------------------------------------------------------


def permutations_lex(n: int) -> list[tuple[int, ...]]:
    """All permutations of {0..n-1} in lexicographic one-line order."""
    return list(itertools.permutations(range(n)))


def perm_matrix_exact(sigma: tuple[int, ...]) -> ExactMatrix:
    """Matrix with a 1 at (i, sigma(i)) for each i."""
    n = len(sigma)
    return ExactMatrix([[1 if sigma[i] == j else 0 for j in range(n)] for i in range(n)])


# -- block coercion ---------------------------------------------------------

_EXACT_SCALARS = (int, Fraction, GaussianRational)


def _coerce_block(b):
    """Return (block, is_exact) for a single block of raw input."""
    if isinstance(b, ExactMatrix):
        return b, True
    if isinstance(b, np.ndarray):
        return np.asarray(b, dtype=np.complex128), False
    rows = list(b)
    flat = [x for row in rows for x in row]
    if all(isinstance(x, _EXACT_SCALARS) for x in flat):
        return ExactMatrix(rows), True
    return np.array(rows, dtype=np.complex128), False


class _Stacked(NamedTuple):
    """An n x n array of blocks coerced and stacked once (`_stack`): float
    blocks as one read-only complex (n, n, s, s) `grid`, whose views are the
    `blocks`; exact ones as `ExactMatrix` blocks and their `numerators`
    (D, re, im) over their least common denominator D, in read-only
    (n, n, s, s) object arrays."""

    n: int
    s: int
    exact: bool
    blocks: tuple
    grid: np.ndarray | None
    numerators: tuple | None


def _stack(blocks) -> _Stacked:
    """Coerce an n x n array of raw blocks and stack them, once."""
    rows = [list(row) for row in blocks]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ShapeMismatch("blocks must form an n x n array")
    flat, tags = zip(*(_coerce_block(b) for row in rows for b in row))
    if len(set(tags)) > 1:
        raise MixedRepresentation("blocks mix exact and floating entries")
    shapes = {b.shape for b in flat}
    if len(shapes) != 1:
        raise ShapeMismatch(f"inconsistent block shapes: {sorted(shapes)}")
    (r, s) = shapes.pop()
    if r != s:
        raise ShapeMismatch("blocks must be square")
    if not tags[0]:
        grid = np.array(flat).reshape(n, n, s, s)  # a copy: no caller holds the square's data
        grid.flags.writeable = False
        return _Stacked(n, s, False, tuple(map(tuple, grid)), grid, None)
    den, *parts = _stack_parts(flat)
    parts = [p.reshape(n, n, s, s) for p in parts]
    for p in parts:
        p.flags.writeable = False
    coerced = tuple(flat[i * n : (i + 1) * n] for i in range(n))
    return _Stacked(n, s, True, coerced, None, (den, *parts))


# -- the two representations -------------------------------------------------
#
# Exact blocks are ExactMatrix over Q[i], float blocks complex arrays; only
# these helpers and the checks of validate_magic tell them apart.  Float tests
# accept only when a comparison holds, so NaN entries fail them.


def identity(s: int, exact: bool):
    return ExactMatrix.identity(s) if exact else np.eye(s)


def zeros(rows: int, cols: int, exact: bool):
    return ExactMatrix.zeros(rows, cols) if exact else np.zeros((rows, cols), dtype=complex)


def assemble(grid, exact: bool):
    """One matrix from a 2d grid of blocks whose shapes tile."""
    if exact:
        return ExactMatrix.from_blocks(grid)
    return np.concatenate([np.concatenate(row, axis=1) for row in grid])


def adjoint(m):
    return m.h if isinstance(m, ExactMatrix) else m.conj().T


def scalar(q: Fraction, exact: bool):
    """The rational q as a coefficient for blocks: itself, or its float."""
    return q if exact else float(q)


def as_complex(m) -> np.ndarray:
    """A complex array with the entries of m (converted from Q[i] if exact)."""
    if isinstance(m, ExactMatrix):
        return m.to_complex()
    return np.asarray(m, dtype=np.complex128)


def difference(x, y):
    """x - y: over Q[i] when both are exact, else as complex arrays."""
    if isinstance(x, ExactMatrix) and isinstance(y, ExactMatrix):
        return x - y
    return as_complex(x) - as_complex(y)


def residual(m):
    """The largest entry: max |re| + |im| over Q[i], the largest modulus for floats."""
    if isinstance(m, ExactMatrix):
        return Fraction(int((np.abs(m.re) + np.abs(m.im)).max()), m.den)
    return float(np.abs(m).max())


def grid_residual(xs, ys):
    """The largest residual(difference(x_ij, y_ij)) over two grids of blocks:
    a Fraction when both grids are exact, else a float, NaN when any
    difference has a NaN entry."""
    diffs = [[difference(x, y) for x, y in zip(rx, ry)] for rx, ry in zip(xs, ys)]
    return residual(assemble(diffs, isinstance(diffs[0][0], ExactMatrix)))


def vanishes(m, tol: float) -> bool:
    """m == 0: exactly over Q[i]; for floats, every entry within tol."""
    if isinstance(m, ExactMatrix):
        return m.is_zero()
    return residual(m) <= tol


def psd_margins(blocks, tol: float) -> list:
    """(m >= 0, margin) for each m of a list of blocks, all exact or all
    float.  Exact blocks are decided exactly by one stacked proof
    (`psd_check_stack`), on their numerators (D, re, im) over one
    denominator when those are given in place of the list; the margin is a
    value v* m v < 0 of the quadratic form (0 when PSD).  For floats it is
    the least eigenvalue of the Hermitian part, and m >= 0 means >= -tol."""
    if blocks and isinstance(blocks[0], ExactMatrix):
        blocks = _stack_parts(blocks)
    if isinstance(blocks, tuple):
        checks = psd_check_stack(*blocks)
        return [(c.is_psd, Fraction(0) if c.is_psd else c.witness_value) for c in checks]
    lams = [float(np.linalg.eigvalsh((m + m.conj().T) / 2).min()) for m in blocks]
    return [(lam >= -tol, lam) for lam in lams]


# -- validation -------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # "not_hermitian" | "block_not_psd" | "row_sum" | "col_sum"
    location: tuple
    margin: object  # largest entry of a residual, or a PSD witness value / eigenvalue

    def __repr__(self) -> str:
        """The dataclass repr; an exact margin by `rational_str`, past the digit limit too."""
        m = self.margin
        if isinstance(m, Fraction):
            m = f"Fraction({rational_str(m.numerator)}, {rational_str(m.denominator)})"
        return f"Violation(kind={self.kind!r}, location={self.location!r}, margin={m})"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    tol: float
    violations: tuple[Violation, ...] = field(default_factory=tuple)


def _mismatch(kind, loc, x, y, tol):
    """A violation unless x == y (exactly over Q[i], entrywise within tol for
    floats); its margin is the largest entry of x - y (see residual)."""
    d = difference(x, y)
    return None if vanishes(d, tol) else Violation(kind, loc, residual(d))


def _block_violations(slots, tol, numerators=None) -> list:
    """The hermiticity or else PSD violation of each (location, block), or
    None; the Hermitian blocks' PSD tests share one stacked proof when exact,
    on the blocks' `numerators` (see `_Stacked`) when given."""
    found = [_mismatch("not_hermitian", loc, b, adjoint(b), tol) for loc, b in slots]
    hermitian = [k for k, herm in enumerate(found) if not herm]
    tested = [slots[k][1] for k in hermitian]
    if numerators:
        den, *parts = numerators
        tested = (den, *(p.reshape(len(slots), *p.shape[-2:])[hermitian] for p in parts))
    for k, (ok, margin) in zip(hermitian, psd_margins(tested, tol)):
        found[k] = None if ok else Violation("block_not_psd", slots[k][0], margin)
    return found


def validate_magic(blocks, *, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the magic-square axioms; report every violation with its margin.

    A hermiticity, row-sum or column-sum margin is the largest entry of the
    difference that should vanish: max |re| + |im| as a Fraction for exact
    blocks, the largest modulus for float ones.  A PSD margin is the value
    of psd_margins: an exact witness value v* b v < 0, or the least float
    eigenvalue.  `MagicSquare` passes its blocks as it stacked them.
    """
    n, s, exact, rows, _, numerators = blocks if isinstance(blocks, _Stacked) else _stack(blocks)
    ident = identity(s, exact)
    slots = [((i, j), rows[i][j]) for i in range(n) for j in range(n)]
    found = _block_violations(slots, tol, numerators)
    for i in range(n):
        row_sum = sum(rows[i][1:], rows[i][0])
        found.append(_mismatch("row_sum", (i,), row_sum, ident, tol))
    for j in range(n):
        col_sum = sum((rows[i][j] for i in range(1, n)), rows[0][j])
        found.append(_mismatch("col_sum", (j,), col_sum, ident, tol))
    violations = tuple(v for v in found if v)
    return ValidationReport(not violations, tol, violations)


class MagicSquare:
    """A validated quantum magic square.  Immutable.

    Its blocks are stacked once (see `_Stacked`): `grid` is one read-only
    complex (n, n, s, s) array, whose views are a float square's `blocks`;
    an exact square holds its integer `numerators` and forms its grid, the
    float image of its blocks, on first use."""

    __slots__ = ("n", "s", "exact", "blocks", "numerators", "_grid")

    def __init__(self, blocks, *, tol: float = DEFAULT_TOL):
        stacked = _stack(blocks)
        report = validate_magic(stacked, tol=tol)
        if not report.ok:
            raise InvalidMagicSquare(report)
        for name in ("n", "s", "exact", "blocks", "numerators"):
            object.__setattr__(self, name, getattr(stacked, name))
        object.__setattr__(self, "_grid", stacked.grid)

    @property
    def grid(self) -> np.ndarray:
        """The blocks as one read-only complex (n, n, s, s) array; an exact
        square's is each block's `to_complex()`, as int true division rounds
        correctly."""
        if self._grid is None:
            den, re, im = self.numerators
            image = np.empty(re.shape, dtype=np.complex128)
            image.real, image.imag = re / den, im / den
            image.flags.writeable = False
            object.__setattr__(self, "_grid", image)
        return self._grid

    def __setattr__(self, name, value):
        raise AttributeError("MagicSquare is immutable")

    def block(self, i: int, j: int):
        return self.blocks[i][j]

    def to_float(self) -> "MagicSquare":
        return MagicSquare(self.grid) if self.exact else self

    def __eq__(self, other):
        if not isinstance(other, MagicSquare):
            return NotImplemented
        if (self.n, self.s, self.exact) != (other.n, other.s, other.exact):
            return False
        if self.exact:
            return self.blocks == other.blocks
        return np.array_equal(self.grid, other.grid)

    def __repr__(self):
        tag = "exact" if self.exact else "float"
        return f"MagicSquare(n={self.n}, s={self.s}, {tag})"


def validate_quantum_permutation(
    a: MagicSquare, *, tol: float = DEFAULT_TOL
) -> ValidationReport:
    """Check projector and row/column orthogonality identities on a magic square.

    Both identity families are verified independently even though orthogonality
    follows from projectivity for magic squares.  A violation's margin is the
    largest entry of b^2 - b or of the product of two blocks that must be
    orthogonal: max |re| + |im| as a Fraction for exact squares, the largest
    modulus for float ones (which fail once it exceeds tol).
    """
    zero = zeros(a.s, a.s, a.exact)
    found = [
        _mismatch("projector", (i, j), b @ b, b, tol)
        for i, row in enumerate(a.blocks)
        for j, b in enumerate(row)
    ]
    for i in range(a.n):
        for j in range(a.n):
            for k in range(j + 1, a.n):
                in_row = a.block(i, j) @ a.block(i, k)
                in_col = a.block(j, i) @ a.block(k, i)
                found.append(_mismatch("row_orthogonality", (i, j, k), in_row, zero, tol))
                found.append(_mismatch("col_orthogonality", (i, j, k), in_col, zero, tol))
    violations = tuple(v for v in found if v)
    return ValidationReport(not violations, tol, violations)


# -- constructions ----------------------------------------------------------


def compress(a: MagicSquare, v, *, tol: float = DEFAULT_TOL) -> MagicSquare:
    """Compress every block by an isometry: blocks become V* a_ij V."""
    if not isinstance(v, ExactMatrix):
        v = np.asarray(v, dtype=np.complex128)
    if isinstance(v, ExactMatrix) != a.exact:
        raise MixedRepresentation("isometry and square differ in representation")
    if len(v.shape) != 2 or v.shape[0] != a.s:
        raise NotAnIsometry(f"isometry domain {v.shape} does not match block size {a.s}")
    vh = adjoint(v)
    defect = difference(vh @ v, identity(v.shape[1], a.exact))
    if not vanishes(defect, tol):
        raise NotAnIsometry(f"V*V - I has an entry of size {float(residual(defect)):.2e}")
    return MagicSquare([[vh @ b @ v for b in row] for row in a.blocks], tol=tol)


def direct_sum(a: MagicSquare, b: MagicSquare, *, tol: float = DEFAULT_TOL) -> MagicSquare:
    """Blockwise diag(a_ij, b_ij); block size adds."""
    if a.n != b.n:
        raise SizeMismatch(f"direct_sum needs equal n, got {a.n} and {b.n}")
    if a.exact != b.exact:
        raise MixedRepresentation("direct_sum across representations")
    upper, lower = zeros(a.s, b.s, a.exact), zeros(b.s, a.s, a.exact)
    grid = [
        [assemble([[x, upper], [lower, y]], a.exact) for x, y in zip(ra, rb)]
        for ra, rb in zip(a.blocks, b.blocks)
    ]
    return MagicSquare(grid, tol=tol)


def embed_pad(a: MagicSquare, *, tol: float = DEFAULT_TOL) -> MagicSquare:
    """Extend to size n+1 by adjoining an identity corner: [[A, 0], [0, I_s]]."""
    zero, ident = zeros(a.s, a.s, a.exact), identity(a.s, a.exact)
    grid = [list(row) + [zero] for row in a.blocks]
    grid.append([zero] * a.n + [ident])
    return MagicSquare(grid, tol=tol)


def complete_corner(corner, *, tol: float = DEFAULT_TOL) -> MagicSquare:
    """Fill a 2x2 corner to the unique 3x3 magic square it determines.

    a_i3 and a_3j absorb the row/column defects and a_33 = a_11+a_12+a_21+a_22-I.
    Raises CompletionNotPSD listing every completed block that fails PSD.
    """
    rows = [list(r) for r in corner]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ShapeMismatch("corner must be a 2x2 array of blocks")
    _, s, exact, c, *_ = _stack(rows)
    ident = identity(s, exact)
    grid = [
        [c[0][0], c[0][1], ident - c[0][0] - c[0][1]],
        [c[1][0], c[1][1], ident - c[1][0] - c[1][1]],
        [
            ident - c[0][0] - c[1][0],
            ident - c[0][1] - c[1][1],
            c[0][0] + c[0][1] + c[1][0] + c[1][1] - ident,
        ],
    ]
    completed = {(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)}
    try:
        return MagicSquare(grid, tol=tol)
    except InvalidMagicSquare as err:  # the sums hold, a completed block may fail
        if offending := [v.location for v in err.report.violations if v.location in completed]:
            raise CompletionNotPSD(offending) from None
        raise


def constant_square(n: int, s: int, *, exact: bool = True) -> MagicSquare:
    """The square with every block (1/n) I_s."""
    b = identity(s, exact) * scalar(Fraction(1, n), exact)
    return MagicSquare([[b for _ in range(n)] for _ in range(n)])
