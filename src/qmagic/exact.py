"""Exact arithmetic over the Gaussian rationals Q[i] and dense exact linear algebra.

Every certification path in this package runs on the types defined here.
An `ExactMatrix` is held in integers, one least common denominator and
numpy object arrays of Python-int numerators, and computes on them;
`GaussianRational` is the scalar an entry is read out as, for the
eliminations and for I/O.  Floats cross only at `ExactMatrix.to_complex`,
`rationalize` and `rational_hermitian` (the float-to-exact step of every
certificate and weight repair, at the bounds of `DENOMINATOR_LADDER`); the
last two round every entry of an array as `Fraction.limit_denominator` in
one continued-fraction loop, straight to integers, on machine integers
where they hold every value it forms.

`psd_check_exact` decides M >= 0 by a congruence proof in Gaussian integers
(a rounded float inverse Cholesky factor T, then Gershgorin on the upper
triangle of T* N T), else by an exact Hermitian elimination (Schur
complements, largest-diagonal pivoting), which decides every rejection.
The proof runs first in int64 on a rounded image of M, with a margin that
covers the rounding (Rump, BIT 46, 2006), then on M's own numerators for
what that did not prove.  `psd_check_stack` gives the same checks for a
stack of integer numerators over one denominator, with one congruence
proof for the stack.
`refute_psd` only ever rejects: an exact v* M v < 0 for v the rounded float
eigenvector of the least eigenvalue, a cheap sound proof that M is not PSD
where the elimination's margin is not needed.

`affine_least_squares` is the exact orthogonal projection onto an affine set
given by its rows, with its shape-only work (rank selection, inverse Gram)
cached per constraint system.  No certification path calls it: obstruction
certificates are projected through the Z factor of their pencil
directions and the semiclassical weights by a closed-form least-norm
solution.  It stays as the generic reference the tests check both closed
forms against.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache
from math import gcd, isfinite, lcm

import numpy as np

__all__ = [
    "NonFiniteInput",
    "NonHermitianInput",
    "GaussianRational",
    "ExactMatrix",
    "PsdCheck",
    "psd_check_exact",
    "psd_check_stack",
    "refute_psd",
    "rationalize",
    "rational_hermitian",
    "rational_str",
    "rref_exact",
    "nullspace_exact",
    "affine_least_squares",
    "hermitian_basis",
    "hermitian_basis_stack",
    "DENOMINATOR_LADDER",
]

DENOMINATOR_LADDER = (10**3, 10**6, 10**9)


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
    """A dense matrix over the Gaussian rationals, held in integers.  Immutable.

    M = (re + i im) / den, with `den` > 0 the least common denominator of
    the entries and `re`, `im` read-only numpy object arrays of Python ints;
    gcd(den, re, im) = 1 makes the form canonical: equal matrices have equal
    parts.  Entries are read out as `GaussianRational`s.
    """

    __slots__ = ("rows", "cols", "den", "re", "im")

    def __init__(self, entries):
        rows = [[_entry(x) for x in row] for row in entries]
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        qs = [q for row in rows for z in row for q in (z.re, z.im)]
        den = lcm(*(q.denominator for q in qs))
        nums = np.array([q.numerator * (den // q.denominator) for q in qs], dtype=object)
        # reduced entries over their least common denominator are canonical
        self._set(den, *nums.reshape(len(rows), ncols, 2).transpose(2, 0, 1))

    def _set(self, den: int, re: np.ndarray, im: np.ndarray) -> "ExactMatrix":
        re.flags.writeable = im.flags.writeable = False
        for name, value in zip(self.__slots__, (*re.shape, den, re, im)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_parts(cls, den: int, re, im) -> "ExactMatrix":
        """The matrix (re + i im) / den, for den > 0 and integer arrays re, im
        of one nonempty 2d shape (object arrays are kept, and made read-only)."""
        re, im = np.asarray(re, dtype=object), np.asarray(im, dtype=object)
        if den <= 0 or re.ndim != 2 or re.shape != im.shape or not re.size:
            raise ValueError(f"bad integer parts: den {den}, shapes {re.shape}, {im.shape}")
        g = gcd(den, *re.ravel().tolist(), *im.ravel().tolist())
        if g > 1:
            den, re, im = den // g, re // g, im // g
        return cls.__new__(cls)._set(den, re, im)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_parts(1, np.eye(n, dtype=int), np.zeros((n, n), dtype=int))

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "ExactMatrix":
        cols = rows if cols is None else cols
        return cls.from_parts(1, *np.zeros((2, rows, cols), dtype=int))

    @classmethod
    def column(cls, entries) -> "ExactMatrix":
        return cls([[x] for x in entries])

    @classmethod
    def from_blocks(cls, grid) -> "ExactMatrix":
        """Assemble from a 2d grid of ExactMatrix blocks (shapes must tile)."""
        den = lcm(*(b.den for block_row in grid for b in block_row))
        parts = [[b._over(den) for b in block_row] for block_row in grid]
        re, im = (
            np.concatenate([np.concatenate([p[k] for p in row], axis=1) for row in parts])
            for k in (0, 1)
        )
        return cls.from_parts(den, re, im)

    # -- accessors ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _over(self, den: int) -> tuple[np.ndarray, np.ndarray]:
        """The numerators of M over a multiple `den` of its denominator."""
        f = den // self.den
        return (self.re, self.im) if f == 1 else (self.re * f, self.im * f)

    def _gaussian(self, re: int, im: int) -> GaussianRational:
        return GaussianRational(Fraction(re, self.den), Fraction(im, self.den))

    def __getitem__(self, ij) -> GaussianRational:
        return self._gaussian(self.re[ij], self.im[ij])

    def row_list(self) -> list[list[GaussianRational]]:
        """Mutable nested-list copy of the entries, for elimination algorithms."""
        return [list(map(self._gaussian, rr, ri)) for rr, ri in zip(self.re.tolist(), self.im.tolist())]

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        return ExactMatrix.from_parts(self.den, self.re[r0:r1, c0:c1], self.im[r0:r1, c0:c1])

    # -- arithmetic --------------------------------------------------------

    def _termwise(self, other, op):
        """op(self, other) for an entrywise op such as + or -, over the
        least common denominator of the two."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        den = lcm(self.den, other.den)
        (ar, ai), (br, bi) = self._over(den), other._over(den)
        return ExactMatrix.from_parts(den, op(ar, br), op(ai, bi))

    def __add__(self, other):
        return self._termwise(other, np.add)

    def __sub__(self, other):
        return self._termwise(other, np.subtract)

    def __neg__(self):
        return ExactMatrix.__new__(ExactMatrix)._set(self.den, -self.re, -self.im)

    def _bilinear(self, other: "ExactMatrix", op) -> "ExactMatrix":
        """op(self, other) for a product op, on the Gaussian-integer parts."""
        (ar, ai), (br, bi) = (self.re, self.im), (other.re, other.im)
        return ExactMatrix.from_parts(
            self.den * other.den, op(ar, br) - op(ai, bi), op(ar, bi) + op(ai, br)
        )

    def __mul__(self, scalar):
        return self._bilinear(ExactMatrix([[scalar]]), np.multiply)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        return self._bilinear(other, np.matmul)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.shape, self.den) == (other.shape, other.den) and all(
            map(np.array_equal, (self.re, self.im), (other.re, other.im))
        )

    def __hash__(self):
        return hash((self.shape, self.den, *self.re.ravel().tolist(), *self.im.ravel().tolist()))

    @property
    def h(self) -> "ExactMatrix":
        """Conjugate transpose."""
        return ExactMatrix.__new__(ExactMatrix)._set(self.den, self.re.T, -self.im.T)

    def trace(self) -> GaussianRational:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return self._gaussian(self.re.trace(), self.im.trace())

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._bilinear(other, np.kron)

    def is_hermitian(self) -> bool:
        h = self.h
        return self.shape == h.shape and np.array_equal(self.re, h.re) and np.array_equal(self.im, h.im)

    def is_zero(self) -> bool:
        return not (self.re.any() or self.im.any())

    def to_complex(self) -> np.ndarray:
        """The nearest complex floats: int true division is correctly rounded,
        so every part is bitwise float(Fraction(part, den))."""
        out = np.empty(self.shape, dtype=np.complex128)
        out.real, out.imag = self.re / self.den, self.im / self.den
        return out

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


# -- conversion from floating point ---------------------------------------


def _limit_denominators(num: np.ndarray, den: np.ndarray, bound: int):
    """(p, q) with p_k / q_k = Fraction(num_k, den_k).limit_denominator(bound)
    in lowest terms, for integer arrays num and den > 0 in lowest terms, of
    one dtype: a machine integer one where every value the loop forms fits
    (at most max(|num| + den, (|num/den| + 2) bound)), else object.

    CPython 3.11's algorithm, one continued-fraction step for every entry
    at a time.  The floor f of num/den is split off first, so the loop
    starts from the convergents 1/0 and f/1 and the remainder pair
    (den, num - f den).  An entry stops at the first partial quotient that
    would take its denominator past the bound, and then keeps its state.
    Of its last convergent p1/q1 and the semiconvergent
    (p0 + k p1)/(q0 + k q1) with k as large as the bound allows, the one
    closer to num/den wins, the convergent on a tie: 2 (q0 + k q1) d <= den
    for the last remainder d, read as 2 (q0 + k q1) <= den // d.  Both are
    in lowest terms (adjacent convergents have determinant +-1).
    """
    go = np.flatnonzero(den > bound)  # the others are exact
    if not go.size:
        return num, den
    p, q = num.copy(), den.copy()
    num, den = num[go], den[go]
    f = num // den
    # (p0, q0, n) and (p1, q1, d): the last two convergents, the remainder pair
    prev, cur = state = np.empty((2, 3, len(go)), dtype=num.dtype)
    prev[0], prev[1], prev[2] = 1, 0, den
    cur[0], cur[1], cur[2] = f, 1, num - f * den
    while True:
        a = prev[2] // cur[2]
        nxt = a * cur  # (p0 + a p1, q0 + a q1, n - a d)
        nxt[:2] += prev[:2]
        np.subtract(prev[2], nxt[2], out=nxt[2])
        step = nxt[1] <= bound
        if not np.count_nonzero(step):
            break
        np.copyto(prev, cur, where=step)
        np.copyto(cur, nxt, where=step)
    (p0, q0, _), (p1, q1, rem) = state
    k = (bound - q0) // q1
    semi = 2 * (q0 + k * q1) > den // rem
    p[go], q[go] = np.where(semi, p0 + k * p1, p1), np.where(semi, q0 + k * q1, q1)
    return p, q


def _rounded(x: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) with p_k / q_k = Fraction(x_k).limit_denominator(bound) in
    lowest terms, for a 1d array of finite floats: p an object array, q
    int64 for bounds up to 2^60.

    |x| < 1/(2 bound) rounds to 0: every other fraction with denominator at
    most the bound is 1/bound or more from 0.  The rest go through
    `_limit_denominators` in uint64 on |x| = w + num / 2^63 with its floor w
    split off, wherever num is an integer and |x| bound < 2^61, so that
    every value formed stays below 2^63 + 2^53; then (w q + p) / q rounds
    |x|.  Rounding commutes with the sign for bounds of 2 and more: on a
    tie Fraction takes the candidate of smaller denominator, and only a
    bound of 1 leaves two of one denominator (two integers).  Every other
    entry, and every entry for a bound of 1 or past 2^60, goes through the
    same loop in object dtype on its signed ratio.
    """
    y = np.abs(x)
    y[y < np.nextafter(1 / (2 * bound), 0)] = 0.0
    whole = np.floor(y)
    num = (y - whole) * 2.0**63  # exact: the bits of y below 1, times 2^63
    fits = (num == np.floor(num)) & (y < (2.0**61 / bound if 1 < bound <= 2**60 else -1.0))
    rest = np.flatnonzero(~fits)
    num[rest] = whole[rest] = 0.0
    num, den = num.astype(np.uint64), np.uint64(2**63)
    g = np.gcd(num, den)
    p, q = _limit_denominators(num // g, den // g, bound)
    q = q.astype(np.int64)
    p = whole.astype(np.int64) * q + p.astype(np.int64)
    p = np.where(x < 0, -p, p).astype(object)
    if rest.size:
        num, den = np.array([v.as_integer_ratio() for v in x[rest].tolist()], dtype=object).T
        q = q if bound <= 2**60 else q.astype(object)
        p[rest], q[rest] = _limit_denominators(num, den, bound)
    return p, q


def rationalize(x: float, max_denominator: int) -> Fraction:
    """Nearest rational with denominator <= max_denominator."""
    if not isfinite(x):
        raise NonFiniteInput(f"cannot rationalize {x!r}")
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    p, q = _rounded(np.array([x], dtype=np.float64), max_denominator)
    return Fraction(int(p[0]), int(q[0]))


def rational_str(q) -> str:
    """str(Fraction(q)), byte for byte, also past the interpreter's int-to-str
    digit limit, which the conversion through `Decimal` does not meet."""
    q = Fraction(q)
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def _rationalized_parts(arr, max_denominator: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(D, re, im) with (re + i im) / D the entrywise `rationalize` of a
    complex array, D the least common denominator of its parts and re, im
    object arrays of Python ints: every part is rounded in one
    continued-fraction loop (`_rounded`).  D joins the distinct
    denominators pairwise, smallest first, so that each lcm joins numbers
    of about one size, and each distinct D / q is divided out once."""
    arr = np.asarray(arr, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise NonFiniteInput("cannot rationalize a non-finite entry")
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    p, q = _rounded(np.stack([arr.real, arr.imag]).ravel(), max_denominator)
    qs = q.tolist()
    distinct = set(qs)
    dens = sorted(distinct) or [1]
    while len(dens) > 1:
        dens = [lcm(*dens[k : k + 2]) for k in range(0, len(dens), 2)]
    den = dens[0]
    scale = {v: den // v for v in distinct}
    nums = p * np.array([scale[v] for v in qs], dtype=object)
    return (den, *nums.reshape(2, *arr.shape))


def rational_hermitian(arr, max_denominator: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(2D, R + R^T, I - I^T) on the last two axes, for (D, R, I) the
    `_rationalized_parts` of a complex matrix or stack: the Hermitian part
    of its entrywise `rationalize`, in integer numerators over one denominator."""
    den, re, im = _rationalized_parts(arr, max_denominator)
    return 2 * den, re + re.swapaxes(-1, -2), im - im.swapaxes(-1, -2)


def _stack_parts(mats) -> tuple[int, np.ndarray, np.ndarray]:
    """(D, re, im) with (re_k + i im_k) / D the k-th of a sequence of exact
    matrices of one shape: D their least common denominator and re, im
    (k, rows, cols) object arrays of Python ints."""
    den = lcm(*(m.den for m in mats))
    parts = [m._over(den) for m in mats]
    return den, np.stack([p[0] for p in parts]), np.stack([p[1] for p in parts])


# -- positive semidefiniteness with certificate ----------------------------


@dataclass(frozen=True)
class PsdCheck:
    """Outcome of an exact PSD test.

    When M is not PSD, `witness_value` is a value v* M v < 0 of its
    quadratic form, read off an exact Hermitian elimination (Schur
    complements, largest-diagonal pivoting) without forming v.
    """

    is_psd: bool
    witness_value: Fraction | None = None

    def __bool__(self):
        return self.is_psd


def psd_check_exact(m: ExactMatrix) -> PsdCheck:
    """Decide M >= 0 exactly: a congruence proof of M > 0, else an exact
    Hermitian elimination (Schur complements, largest-diagonal pivoting).

    The congruence proof (`_congruence_proves_pd`: int64 on a rounded
    image of M, then M's own numerators) only ever accepts, and only
    positive definite matrices.  Every other matrix, singular PSD and
    indefinite ones included, goes to the elimination (`_schur_psd_check`),
    which decides every rejection and its witness value; so does a 1 x 1
    or 2 x 2 matrix, which it decides in fewer operations than the proof
    takes.  This is `psd_check_stack` of a stack of one.
    """
    try:
        return next(psd_check_stack(m.den, m.re[None], m.im[None]))
    except NonHermitianInput:
        raise NonHermitianInput("psd_check_exact requires an exactly Hermitian matrix") from None


def psd_check_stack(den: int, re: np.ndarray, im: np.ndarray):
    """`psd_check_exact` of every M_k = (re_k + i im_k) / den of a (k, d, d)
    stack of integer numerators, in order: one congruence proof covers the
    whole stack (its int64 tier for every member, the exact tier for the
    members that one leaves), and each member it does not prove goes to
    the elimination only when its turn comes, so `all()` over the checks
    stops at the first rejection.  A stack of at most four entries in all
    goes to the elimination alone.  Every check, witness value included, is
    that of `psd_check_exact(M_k)`.
    """
    if not (np.array_equal(re, re.swapaxes(-1, -2)) and np.array_equal(im, -im.swapaxes(-1, -2))):
        raise NonHermitianInput("psd_check_stack requires exactly Hermitian matrices")
    # at most four entries in all (one 2 x 2, or 1 x 1s) take a few Fraction
    # operations to eliminate, less than the fixed cost of a proof
    proven = _congruence_proves_pd(den, re, im) if re.size > 4 else np.zeros(len(re), dtype=bool)
    return (
        PsdCheck(True) if ok else _schur_psd_check(den, r, i)
        for ok, r, i in zip(proven, re, im)
    )


def refute_psd(m: ExactMatrix) -> Fraction | None:
    """An exact value v* M v < 0 proving the Hermitian M is not PSD, or None.

    v is the float eigenvector of the least eigenvalue of M, scaled to
    about 2^30 and rounded to Gaussian integers; v* (D M) v is computed in
    integers, with D the common denominator.  None when that value is not
    negative or the float eigenvector is not finite: M may still fail to be
    PSD, and only `psd_check_exact` decides.
    """
    if not m.is_hermitian():
        raise NonHermitianInput("refute_psd requires an exactly Hermitian matrix")
    try:
        v = np.linalg.eigh(m.to_complex())[1][:, 0]
    except (np.linalg.LinAlgError, OverflowError):
        return None
    with np.errstate(all="ignore"):
        v = np.round(v * (2.0**30 / np.abs(v).max()))
    if not np.isfinite(v).all():
        return None
    v_re, v_im = (part.astype(np.int64).astype(object) for part in (v.real, v.imag))
    mv_re, mv_im = m.re @ v_re - m.im @ v_im, m.re @ v_im + m.im @ v_re
    value = Fraction(v_re @ mv_re + v_im @ mv_im, m.den)
    return value if value < 0 else None


# The int64 tier of `_congruence_proves_pd` rounds 2^sh M to parts of at
# most 2^23, and is tried while T keeps at least 11 bits (d <= 39): every
# `certify` certificate (d = 18, 27) and the n = 4 pad (d = 32), not the
# n = 5 strong pencil (d = 50).
_A_BITS, _T_BITS_MIN = 23, 11


def _int64_t_bits(d: int) -> int:
    """The most bits b with 4 d^2 (d + 1) (2^23 + d) 4^b < 2^63.

    With parts of A - dI at most 2^23 + d and parts of T at most 2^b in
    magnitude, every product and partial sum of U = (A - dI) T and
    T* U, every entry of Z = T* (A - dI) T, and every row sum of
    |re Z| + |im Z| is then below 2^63 in magnitude."""
    return ((2**63 - 1) // (4 * d * d * (d + 1) * (2**_A_BITS + d))).bit_length() - 1 >> 1


def _rounded_factor(inv: np.ndarray, bits: int):
    """(T_re, T_im, ok): the upper triangular float inverse factors of a
    stack, each column scaled to about 2^bits and rounded to int64 Gaussian
    integers; ok marks the members whose T is finite with a nonzero
    diagonal, so invertible, and the others get T = 0."""
    with np.errstate(all="ignore"):
        t = np.triu(np.round(inv * (2.0**bits / np.abs(inv).max(axis=-2, keepdims=True))))
    flat = t.reshape(len(t), -1)
    ok = np.isfinite(flat).all(axis=1) & flat[:, :: t.shape[-1] + 1].all(axis=1)
    if not ok.all():
        t[~ok] = 0  # not proven; zeros keep the integer cast defined
    return t.real.astype(np.int64), t.imag.astype(np.int64), ok


def _gershgorin_proves(t_re, t_im, n_re, n_im) -> np.ndarray:
    """For (k, d, d) stacks of upper triangular Gaussian-integer T and
    Hermitian Gaussian-integer N, of one integer dtype (int64 or object):
    True where Z = T* N T has a real diagonal that beats each row's
    off-diagonal sum of |re| + |im|, so that Z > 0 by Gershgorin.

    Z is Hermitian, so only its upper triangle is formed: as T is upper
    triangular, column j of that triangle needs only the leading
    (j+1) x (j+1) blocks of T and N, and the lower half of each row is read
    by symmetry.
    """
    d = n_re.shape[-1]
    z_re, z_im = np.zeros((2, *n_re.shape), dtype=n_re.dtype)
    for j in range(d):
        # Z[:j+1, j] = T[:j+1, :j+1]* N[:j+1, :j+1] T[:j+1, j]
        tr, ti = t_re[:, : j + 1, : j + 1], t_im[:, : j + 1, : j + 1]
        mr, mi = n_re[:, : j + 1, : j + 1], n_im[:, : j + 1, : j + 1]
        cr, ci = tr[:, :, j:], ti[:, :, j:]
        ur, ui = mr @ cr - mi @ ci, mr @ ci + mi @ cr
        tr, ti = tr.swapaxes(-1, -2), ti.swapaxes(-1, -2)
        z_re[:, : j + 1, j : j + 1], z_im[:, : j + 1, j : j + 1] = tr @ ur + ti @ ui, tr @ ui - ti @ ur
    upper = np.abs(z_re) + np.abs(z_im)
    diag = np.diagonal(upper, axis1=-2, axis2=-1)
    # each row sum includes |z_ii|, so 2 z_ii > row sum is z_ii > 0 and beats the rest
    row_sums = upper.sum(axis=-1) + upper.sum(axis=-2) - diag
    real = ~np.diagonal(z_im, axis1=-2, axis2=-1).astype(bool).any(axis=-1)
    beats = (2 * np.diagonal(z_re, axis1=-2, axis2=-1) > row_sums).astype(bool).all(axis=-1)
    return real & beats


def _congruence_proves_pd(den: int, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """For each Hermitian M = (re + i im) / den of a stack on the last two
    axes: True only if M > 0, proven in Gaussian integers.

    Both tiers are Gershgorin (`_gershgorin_proves`) on Z = T* N T for an
    upper triangular Gaussian-integer T from the rounded float inverse
    Cholesky factor of M (`_rounded_factor`); T is invertible, so Z > 0
    gives N > 0.  The float factors are batched; a member whose factor
    fails or whose entries overflow a float is decided alone, as if it
    came by itself, and is not proven.

    The int64 tier proves M > 0 from its float image fl(M).  For each
    member, A = round(2^sh fl(M)), with sh such that every part of A is at
    most 2^23 in magnitude, is a Hermitian Gaussian-integer matrix.  Each
    part of 2^sh fl(M) is within 2^-30 of 2^sh M (2^-53 relative, or at
    most 2^-52 where fl(M) or the product is subnormal), so each part of A
    is within 1/2 + 2^-30 of 2^sh M, and ||2^sh M - A||_2 <= ||.||_F < d.
    N = A - dI > 0 then gives 2^sh M > A - dI > 0.  T keeps the bits
    `_int64_t_bits(d)` allows, so no sum in Z or its row sums overflows;
    the tier is not tried where that leaves T fewer than 11 bits, nor on a
    member whose parts all lie below 2^-1000, where 2^sh would leave the
    float range.
    The exact tier runs on the members the int64 tier did not prove, with T
    scaled to about 2^30 and N = den M, M's own numerators, in Python ints.
    Either way the verdict of `psd_check_exact` is unchanged: a member
    neither tier proves goes to the elimination.
    """
    stack, d = re.shape[:-2], re.shape[-1]
    re, im = re.reshape(-1, d, d), im.reshape(-1, d, d)
    approx = np.empty(re.shape, dtype=np.complex128)
    try:
        approx.real, approx.imag = re / den, im / den
        inv = np.linalg.inv(np.linalg.cholesky(approx)).conj().swapaxes(-1, -2)
    except (np.linalg.LinAlgError, OverflowError):
        if len(re) == 1:
            return np.zeros(stack, dtype=bool)
        return np.array([_congruence_proves_pd(den, *m) for m in zip(re, im)]).reshape(stack)
    if _int64_t_bits(d) < _T_BITS_MIN:
        return _exact_tier(inv, re, im).reshape(stack)
    proven = _int64_tier(approx, inv)
    rest = np.flatnonzero(~proven)
    if rest.size:
        proven[rest] = _exact_tier(inv[rest], re[rest], im[rest])
    return proven.reshape(stack)


def _int64_tier(approx: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Gershgorin in int64 on T* (A - dI) T, A = round(2^sh fl(M)) with
    parts of at most 2^23, for the (k, d, d) float images and inverse
    factors of `_congruence_proves_pd`."""
    d = approx.shape[-1]
    top = np.frexp(np.abs(approx.view(np.float64)).max(axis=(-1, -2)))[1]  # parts < 2^top
    a = np.round(approx * np.ldexp(1.0, _A_BITS - np.maximum(top, -1000))[:, None, None])
    a_re = a.real.astype(np.int64)
    a_re[:, range(d), range(d)] -= d
    t_re, t_im, ok = _rounded_factor(inv, _int64_t_bits(d))
    return ok & (top >= -1000) & _gershgorin_proves(t_re, t_im, a_re, a.imag.astype(np.int64))


def _exact_tier(inv: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Gershgorin in Python ints on T* (den M) T, T scaled to about 2^30."""
    t_re, t_im, ok = _rounded_factor(inv, 30)
    return ok & _gershgorin_proves(t_re.astype(object), t_im.astype(object), re, im)


def _schur_psd_check(den: int, re: np.ndarray, im: np.ndarray) -> PsdCheck:
    """Decide M = (re + i im) / den >= 0 by exact Hermitian elimination.

    Each step pivots on the largest |diagonal| of the remaining positions
    (ties to the earlier position) and replaces the trailing block by its
    Schur complement, s_ij -= (s_ik / pivot) s_kj, computing each pair once
    and mirroring its conjugate; no factor is kept.  A negative pivot is
    the margin.  A remainder with an all-zero diagonal is PSD iff it
    vanishes; otherwise its first nonzero entry, in row-major position
    order, gives the margin -2|s_ij|^2.
    """
    d = len(re)
    re, im = ([[Fraction(x, den) for x in row] for row in part.tolist()] for part in (re, im))
    order = list(range(d))  # original index at each position
    for k in range(d):
        p = max(range(k, d), key=lambda q: abs(re[order[q]][order[q]]))
        order[k], order[p] = order[p], order[k]
        a = order[k]
        piv = re[a][a]
        if piv < 0:
            return PsdCheck(False, piv)
        if piv == 0:
            for i in order[k:]:
                for j in order[k:]:
                    if re[i][j] or im[i][j]:
                        return PsdCheck(False, -2 * (re[i][j] ** 2 + im[i][j] ** 2))
            break
        rest = order[k + 1:]
        for x, i in enumerate(rest):
            lr, li = re[i][a] / piv, im[i][a] / piv
            for j in rest[x:]:
                br, bi = re[a][j], im[a][j]
                r, c = re[i][j] - lr * br + li * bi, im[i][j] - lr * bi - li * br
                re[i][j], im[i][j] = r, c
                re[j][i], im[j][i] = r, -c
    return PsdCheck(True)


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

    One exact elimination of [G | I], for the weighted Gram matrix
    G = A W^-1 A* of all rows.  G is PSD with the null space of A*, so its
    pivot columns are the first maximal independent subset of rows, `keep`;
    the other rows of its left half vanish.  In the first len(keep) rows,
    the left half R writes A through the kept rows (A = R* A_keep, so
    G = R* G_keep R), and the right half M has M G = R; hence M R* is the
    inverse of G_keep.  Returns the sparse support of every row, `keep`,
    the inverse weights, and that inverse, sparse.
    """
    support = tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in rows)
    winv = tuple(Fraction(1) / w for w in weights)
    m = len(rows)
    gram = [
        [sum((c * winv[j] * rows[q][j] for j, c in support[p]), Fraction(0)) for q in range(m)]
        for p in range(m)
    ]
    red, pivots = rref_exact(
        ExactMatrix([g + [int(p == q) for q in range(m)] for p, g in enumerate(gram)])
    )
    keep = tuple(c for c in pivots if c < m)
    r_rows = [[(j, red[q, j].re) for j in range(m) if red[q, j]] for q in range(len(keep))]
    gram_inv = []
    for p in range(len(keep)):
        row = [sum((red[p, m + j].re * c for j, c in r), Fraction(0)) for r in r_rows]
        gram_inv.append(tuple((q, v) for q, v in enumerate(row) if v))
    return support, keep, winv, tuple(gram_inv)


def affine_least_squares(
    a_rows: list[list[Fraction]],
    b: list[Fraction],
    x0: list[Fraction],
    weights: list[Fraction] | None = None,
) -> list[Fraction]:
    """Minimize sum_i w_i (x_i - x0_i)^2 subject to A x = b, exactly.

    All data is real rational.  The system must be consistent; redundant
    rows are allowed and are dropped.  The independent rows and the inverse
    Gram matrix of those rows depend only on (A, w) and come from one exact
    elimination, cached per system, so a call costs one residual, one
    rational matvec and the exact check that every original row holds.
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


def hermitian_basis_stack(s: int) -> np.ndarray:
    """Basis of s x s Hermitian matrices in upper-triangle order, as one
    (s^2, s, s) complex stack of Gaussian integers, for pencils.

    For each i <= j: E_ii when i = j, otherwise the symmetric pair
    E_ij + E_ji followed by -i E_ij + i E_ji.  For s = 2 this is the
    order (E_11, symmetric, antisymmetric, E_22).
    """
    out = []
    for i in range(s):
        for j in range(i, s):
            sym, anti = np.zeros((2, s, s), dtype=np.complex128)
            sym[i, j] = sym[j, i] = 1
            # through .imag: a literal -1j would carry a -0.0 real part
            anti.imag[i, j], anti.imag[j, i] = -1, 1
            out += [sym, anti] if i < j else [sym]
    return np.array(out)


def hermitian_basis(s: int) -> list[ExactMatrix]:
    """`hermitian_basis_stack(s)` as exact matrices."""
    parts = hermitian_basis_stack(s).view(np.float64).astype(int)  # re, im interleaved
    return [ExactMatrix.from_parts(1, p[:, ::2], p[:, 1::2]) for p in parts]
