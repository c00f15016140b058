"""Exact arithmetic over the Gaussian rationals Q[i] and dense exact linear algebra.

Every certification path in this package runs on the types defined here.
Floating point enters only through the explicit conversion helpers
(`rationalize`, `ExactMatrix.to_complex`, `exact_from_float_matrix`).

`psd_check_exact` decides M >= 0 by a congruence proof in Gaussian integers
(a rounded float inverse Cholesky factor, then Gershgorin), else by a
rational `LDL*`, which decides every rejection.

`affine_least_squares` is the one exact orthogonal projection onto an affine
set; its shape-only work (rank selection, inverse Gram) is cached per
constraint system, since every caller's constraints depend only on a shape.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isfinite, lcm

import numpy as np

__all__ = [
    "NonFiniteInput",
    "NonHermitianInput",
    "GaussianRational",
    "ExactMatrix",
    "PsdCheck",
    "psd_check_exact",
    "rationalize",
    "exact_from_float_matrix",
    "rref_exact",
    "rank_exact",
    "nullspace_exact",
    "affine_least_squares",
    "hermitian_coordinates",
    "hermitian_from_coordinates",
    "hermitian_coordinate_weights",
    "hermitian_basis",
    "hermitian_basis_stack",
]


class NonFiniteInput(ValueError):
    """A float that should become a rational is NaN or infinite."""


class NonHermitianInput(ValueError):
    """An operation that requires an exactly Hermitian matrix got something else."""


def _frac(x) -> Fraction:
    """Coerce to Fraction, refusing floats (which hide rounding decisions)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError(
            "floats are not accepted implicitly; use rationalize() to pick a denominator"
        )
    return Fraction(x)


class GaussianRational:
    """A complex number re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return NotImplemented

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.norm2()
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"G({self.re})"
        return f"G({self.re}, {self.im})"


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


def _entry(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction, str)):
        return GaussianRational(x)
    if isinstance(x, tuple) and len(x) == 2:
        return GaussianRational(x[0], x[1])
    raise TypeError(f"cannot use {type(x).__name__} as an exact matrix entry")


class ExactMatrix:
    """A dense matrix over the Gaussian rationals.  Immutable."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries):
        rows = tuple(tuple(_entry(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "_e", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "ExactMatrix":
        cols = rows if cols is None else cols
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def column(cls, entries) -> "ExactMatrix":
        return cls([[x] for x in entries])

    @classmethod
    def from_blocks(cls, grid) -> "ExactMatrix":
        """Assemble from a 2d grid of ExactMatrix blocks (shapes must tile)."""
        out = []
        for block_row in grid:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ValueError("inconsistent block heights")
            for i in range(height):
                row = []
                for b in block_row:
                    row.extend(b._e[i])
                out.append(row)
        return cls(out)

    # -- accessors ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij) -> GaussianRational:
        i, j = ij
        return self._e[i][j]

    def row_list(self) -> list[list[GaussianRational]]:
        """Mutable nested-list copy, for elimination algorithms."""
        return [list(r) for r in self._e]

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        return ExactMatrix([r[c0:c1] for r in self._e[r0:r1]])

    # -- arithmetic --------------------------------------------------------

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._same_shape(other)
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._e, other._e)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._same_shape(other)
        return ExactMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._e, other._e)
            ]
        )

    def __neg__(self):
        return ExactMatrix([[-a for a in r] for r in self._e])

    def __mul__(self, scalar):
        s = _entry(scalar) if not isinstance(scalar, GaussianRational) else scalar
        return ExactMatrix([[a * s for a in r] for r in self._e])

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        cols = list(zip(*other._e))
        return ExactMatrix(
            [
                [sum((a * b for a, b in zip(row, col)), _ZERO) for col in cols]
                for row in self._e
            ]
        )

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self._e == other._e

    def __hash__(self):
        return hash(self._e)

    @property
    def h(self) -> "ExactMatrix":
        """Conjugate transpose."""
        return ExactMatrix(
            [[self._e[i][j].conjugate() for i in range(self.rows)] for j in range(self.cols)]
        )

    def conj(self) -> "ExactMatrix":
        return ExactMatrix([[a.conjugate() for a in r] for r in self._e])

    def trace(self) -> GaussianRational:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self._e[i][i] for i in range(self.rows)), _ZERO)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    a = self._e[i][j]
                    row.extend(a * b for b in other._e[k])
                out.append(row)
        return ExactMatrix(out)

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            if self._e[i][i].im != 0:
                return False
            for j in range(i + 1, self.cols):
                if self._e[i][j] != self._e[j][i].conjugate():
                    return False
        return True

    def is_zero(self) -> bool:
        return all(not a for r in self._e for a in r)

    def to_complex(self) -> np.ndarray:
        return np.array(
            [[complex(a) for a in r] for r in self._e], dtype=np.complex128
        )

    def max_denominator(self) -> int:
        return max(
            max(a.re.denominator, a.im.denominator) for r in self._e for a in r
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


# -- conversion from floating point ---------------------------------------


def rationalize(x: float, max_denominator: int) -> Fraction:
    """Nearest rational with denominator <= max_denominator."""
    if not isfinite(x):
        raise NonFiniteInput(f"cannot rationalize {x!r}")
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    return Fraction(x).limit_denominator(max_denominator)


def exact_from_float_matrix(arr, max_denominator: int) -> ExactMatrix:
    """Rationalize a complex floating matrix entrywise."""
    arr = np.asarray(arr, dtype=np.complex128)
    return ExactMatrix(
        [
            [
                GaussianRational(
                    rationalize(float(z.real), max_denominator),
                    rationalize(float(z.imag), max_denominator),
                )
                for z in row
            ]
            for row in arr
        ]
    )


# -- positive semidefiniteness with certificate ----------------------------


class PsdCheck:
    """Outcome of an exact PSD test.

    When `is_psd` and the `LDL*` ran, the pivoted factorization
    P M P* = L D L* is returned (`permutation`, `lower`, `pivots`); a
    congruence proof returns none.  Otherwise `witness` is a column vector v
    with v* M v = `witness_value` < 0.
    """

    def __init__(self, is_psd, permutation=None, lower=None, pivots=None,
                 witness=None, witness_value=None):
        self.is_psd = is_psd
        self.permutation = permutation
        self.lower = lower
        self.pivots = pivots
        self.witness = witness
        self.witness_value = witness_value

    def __bool__(self):
        return self.is_psd


def psd_check_exact(m: ExactMatrix) -> PsdCheck:
    """Decide M >= 0 exactly: a congruence proof of M > 0, else `LDL*`.

    The congruence proof (`_congruence_proves_pd`) only ever accepts, and
    only positive definite matrices.  Every other matrix, singular PSD and
    indefinite ones included, goes to the `LDL*` (`_ldl_psd_check`), which
    decides every rejection and its witness.
    """
    if not m.is_hermitian():
        raise NonHermitianInput("psd_check_exact requires an exactly Hermitian matrix")
    if _congruence_proves_pd(m):
        return PsdCheck(True)
    return _ldl_psd_check(m)


def _congruence_proves_pd(m: ExactMatrix) -> bool:
    """True only if M > 0, proven in Gaussian integers.

    A float inverse Cholesky factor of M, each column scaled to about 2^30
    and rounded, gives an upper triangular Gaussian-integer T; a nonzero
    diagonal makes it invertible.  With D the common denominator, Z =
    T* (D M) T is computed exactly; a real diagonal that beats each row's
    off-diagonal sum of |re| + |im| gives Z > 0 by Gershgorin, so M > 0.
    """
    try:
        inv = np.linalg.inv(np.linalg.cholesky(m.to_complex())).conj().T
    except (np.linalg.LinAlgError, OverflowError):
        return False
    with np.errstate(all="ignore"):
        t = np.triu(np.round(inv * (2.0**30 / np.abs(inv).max(axis=0))))
    if not np.isfinite(t).all() or not t.diagonal().all():
        return False
    entries = [q for row in m._e for z in row for q in (z.re, z.im)]
    den = lcm(*(q.denominator for q in entries))
    ints = np.array([q.numerator * (den // q.denominator) for q in entries], dtype=object)
    n_re, n_im = ints.reshape(m.rows, m.cols, 2).transpose(2, 0, 1)
    t_re, t_im = (part.astype(np.int64).astype(object) for part in (t.real, t.imag))
    nt_re, nt_im = n_re @ t_re - n_im @ t_im, n_re @ t_im + n_im @ t_re
    z_re = t_re.T @ nt_re + t_im.T @ nt_im
    z_im = t_re.T @ nt_im - t_im.T @ nt_re
    # each row sum includes |z_ii|, so 2 z_ii > row sum is z_ii > 0 and beats the rest
    row_sums = (np.abs(z_re) + np.abs(z_im)).sum(axis=1)
    return not z_im.diagonal().any() and bool((2 * z_re.diagonal() > row_sums).all())


def _ldl_psd_check(m: ExactMatrix) -> PsdCheck:
    """Decide M >= 0 for a Hermitian M via LDL* with largest-magnitude
    diagonal pivoting.

    Zero pivots are accepted only when the entire residual block is zero;
    a negative pivot (or a nonzero residual with all-zero diagonal) yields
    an explicit negativity witness.
    """
    d = m.rows
    s = m.row_list()
    perm = list(range(d))
    lower = [[_ONE if i == j else _ZERO for j in range(d)] for i in range(d)]
    pivots: list[Fraction] = []

    def swap(k, p):
        perm[k], perm[p] = perm[p], perm[k]
        s[k], s[p] = s[p], s[k]
        for row in s:
            row[k], row[p] = row[p], row[k]
        for row in lower:
            row[k], row[p] = row[p], row[k]
        lower[k], lower[p] = lower[p], lower[k]

    def witness_from(local_vec, k):
        # Solve L* v = w where w is zero on the first k coordinates and
        # equals local_vec on the trailing block; then v*(PMP*)v = w*(D+S)w.
        w = [_ZERO] * d
        for idx, val in enumerate(local_vec):
            w[k + idx] = val
        v = [_ZERO] * d
        for i in range(d - 1, -1, -1):
            acc = w[i]
            for j in range(i + 1, d):
                acc = acc - lower[j][i].conjugate() * v[j]
            v[i] = acc
        # Undo the permutation: quadratic form of M at u with u[perm[i]] = v[i].
        u = [_ZERO] * d
        for i in range(d):
            u[perm[i]] = v[i]
        return ExactMatrix.column(u)

    for k in range(d):
        # Largest-magnitude remaining diagonal entry (diagonals are real).
        p = max(range(k, d), key=lambda i: abs(s[i][i].re))
        if s[p][p].re < 0:
            swap(k, p)
            val = s[k][k].re
            wit = witness_from([_ONE], k)
            return PsdCheck(False, witness=wit, witness_value=val)
        if s[p][p].re == 0:
            # All remaining diagonals are zero: PSD iff the block vanishes.
            for i in range(k, d):
                for j in range(k, d):
                    if s[i][j]:
                        vec = [_ZERO] * (d - k)
                        vec[i - k] = s[i][j]
                        vec[j - k] = vec[j - k] - _ONE
                        val = -2 * s[i][j].norm2()
                        wit = witness_from(vec, k)
                        return PsdCheck(False, witness=wit, witness_value=val)
            pivots.extend([Fraction(0)] * (d - k))
            break
        swap(k, p)
        piv = s[k][k]
        pivots.append(piv.re)
        for i in range(k + 1, d):
            lower[i][k] = s[i][k] / piv
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                s[i][j] = s[i][j] - lower[i][k] * piv * lower[j][k].conjugate()
    return PsdCheck(
        True,
        permutation=tuple(perm),
        lower=ExactMatrix(lower),
        pivots=tuple(pivots),
    )


# -- elimination-based linear algebra over Q[i] -----------------------------


def rref_exact(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    rows = m.row_list()
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = _ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return ExactMatrix(rows), tuple(pivots)


def rank_exact(m: ExactMatrix) -> int:
    return len(rref_exact(m)[1])


def nullspace_exact(m: ExactMatrix) -> list[ExactMatrix]:
    """Basis of the right kernel, as column vectors (deterministic order)."""
    red, pivots = rref_exact(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for r, c in enumerate(pivots):
            v[c] = -red[r, f]
        basis.append(ExactMatrix.column(v))
    return basis


@cache
def _projection_operator(
    rows: tuple[tuple[Fraction, ...], ...], weights: tuple[Fraction, ...]
):
    """The shape-only half of `affine_least_squares`, computed once per system.

    Returns the sparse support of every row, the indices of the first
    maximal independent subset of rows, the inverse weights, and the exact
    inverse of the weighted Gram matrix A_k W^-1 A_k* of those rows.
    """
    support = tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in rows)
    winv = tuple(Fraction(1) / w for w in weights)
    keep = rref_exact(ExactMatrix(zip(*rows)))[1]  # pivot columns of A* = first independent rows
    k = len(keep)
    gram = [
        [
            sum((c * winv[j] * rows[q][j] for j, c in support[p]), Fraction(0))
            for q in keep
        ]
        for p in keep
    ]
    red, pivots = rref_exact(
        ExactMatrix([g + [int(p == q) for q in range(k)] for p, g in enumerate(gram)])
    )
    if pivots != tuple(range(k)):
        raise ValueError("degenerate constraint system")
    gram_inv = tuple(
        tuple((q, red[p, k + q].re) for q in range(k) if red[p, k + q]) for p in range(k)
    )
    return support, keep, winv, gram_inv


def affine_least_squares(
    a_rows: list[list[Fraction]],
    b: list[Fraction],
    x0: list[Fraction],
    weights: list[Fraction] | None = None,
) -> list[Fraction]:
    """Minimize sum_i w_i (x_i - x0_i)^2 subject to A x = b, exactly.

    All data is real rational.  The system must be consistent; redundant
    rows are allowed and are dropped via exact rank selection.  The rank
    selection and the inverse Gram matrix depend only on (A, w) and are
    cached per system, so a call costs one residual, one rational matvec
    and the exact check that every original row holds.
    """
    n = len(x0)
    if weights is None:
        weights = [Fraction(1)] * n
    support, keep, winv, gram_inv = _projection_operator(
        tuple(map(tuple, a_rows)), tuple(weights)
    )

    def apply(row, v):
        return sum((c * v[j] for j, c in row), Fraction(0))

    rhs = [b[i] - apply(support[i], x0) for i in keep]
    mu = [apply(row, rhs) for row in gram_inv]
    step = [Fraction(0)] * n
    for i, m in zip(keep, mu):
        for j, c in support[i]:
            step[j] += c * m
    x = [x0[j] + winv[j] * step[j] for j in range(n)]
    # The projection must satisfy every original row, including dropped ones.
    for row, target in zip(support, b):
        if apply(row, x) != target:
            raise ValueError("inconsistent affine constraints")
    return x


# -- real coordinates for Hermitian matrices --------------------------------
#
# Order: diagonal entries first (real), then for each i<j in lex order the
# real and imaginary parts of the (i, j) entry.


def hermitian_coordinates(m: ExactMatrix) -> list[Fraction]:
    if not m.is_hermitian():
        raise NonHermitianInput("coordinates are defined for Hermitian matrices")
    s = m.rows
    coords = [m[i, i].re for i in range(s)]
    for i in range(s):
        for j in range(i + 1, s):
            coords.append(m[i, j].re)
            coords.append(m[i, j].im)
    return coords


def hermitian_from_coordinates(s: int, coords) -> ExactMatrix:
    coords = [Fraction(c) for c in coords]
    if len(coords) != s * s:
        raise ValueError(f"expected {s * s} coordinates, got {len(coords)}")
    grid = [[_ZERO] * s for _ in range(s)]
    for i in range(s):
        grid[i][i] = GaussianRational(coords[i])
    k = s
    for i in range(s):
        for j in range(i + 1, s):
            grid[i][j] = GaussianRational(coords[k], coords[k + 1])
            grid[j][i] = grid[i][j].conjugate()
            k += 2
    return ExactMatrix(grid)


def hermitian_coordinate_weights(s: int) -> list[Fraction]:
    """Weights making coordinate dot products equal Frobenius inner products."""
    return [Fraction(1)] * s + [Fraction(2)] * (s * s - s)


def hermitian_basis(s: int) -> list[ExactMatrix]:
    """Basis of s x s Hermitian matrices in upper-triangle order.

    For each i <= j: E_ii when i = j, otherwise the symmetric pair
    E_ij + E_ji followed by -i E_ij + i E_ji.  For s = 2 this is the
    order (E_11, symmetric, antisymmetric, E_22).
    """
    out = []
    for i in range(s):
        for j in range(i, s):
            if i == j:
                grid = [[1 if (r, c) == (i, i) else 0 for c in range(s)] for r in range(s)]
                out.append(ExactMatrix(grid))
            else:
                sym = [[0] * s for _ in range(s)]
                sym[i][j] = GaussianRational(1)
                sym[j][i] = GaussianRational(1)
                anti = [[0] * s for _ in range(s)]
                anti[i][j] = GaussianRational(0, -1)
                anti[j][i] = GaussianRational(0, 1)
                out.append(ExactMatrix(sym))
                out.append(ExactMatrix(anti))
    return out


def hermitian_basis_stack(s: int) -> np.ndarray:
    """`hermitian_basis(s)` as one (s^2, s, s) complex stack, for pencils."""
    return np.array([h.to_complex() for h in hermitian_basis(s)])
