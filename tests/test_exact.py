import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmagic import exact
from qmagic.exact import (
    ExactMatrix,
    GaussianRational,
    NonFiniteInput,
    NonHermitianInput,
    affine_least_squares,
    nullspace_exact,
    psd_check_exact,
    psd_check_stack,
    rational_str,
    rationalize,
    refute_psd,
    rref_exact,
)
from qmagic.exact import _congruence_proves_pd, _schur_psd_check, _stack_parts
from qmagic.serialize import certificate_from_json

G = GaussianRational
F = Fraction

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def gr(re, im=0):
    return G(F(re), F(im))


class TestGaussianRational:
    def test_canonical_form(self):
        z = G(F(2, 4), F(-3, 6))
        assert z.re == F(1, 2) and z.im == F(-1, 2)

    def test_rejects_bare_floats(self):
        with pytest.raises(TypeError):
            G(0.5)

    @given(rationals, rationals, rationals, rationals)
    def test_division_inverts_multiplication(self, a, b, c, d):
        z, w = G(a, b), G(c, d)
        if not w:
            return
        assert (z * w) / w == z

    @given(rationals, rationals, rationals, rationals)
    def test_conjugation_is_multiplicative(self, a, b, c, d):
        z, w = G(a, b), G(c, d)
        assert (z * w).conjugate() == z.conjugate() * w.conjugate()

    def test_norm2(self):
        assert G(F(3, 5), F(4, 5)).norm2() == 1

    def test_mixing_with_ints_and_fractions(self):
        assert 1 + G(F(1, 2)) == G(F(3, 2))
        assert F(1, 3) * G(0, 1) == G(0, F(1, 3))


class TestExactMatrix:
    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(7)
        a = ExactMatrix([[gr(rng.integers(-5, 5), rng.integers(-5, 5)) for _ in range(3)] for _ in range(2)])
        b = ExactMatrix([[gr(rng.integers(-5, 5), rng.integers(-5, 5)) for _ in range(4)] for _ in range(3)])
        assert np.allclose((a @ b).to_complex(), a.to_complex() @ b.to_complex())

    def test_blocks_round_trip(self):
        a = ExactMatrix([[1, 2], [3, 4]])
        b = ExactMatrix([[5], [6]])
        c = ExactMatrix([[7, 8]])
        d = ExactMatrix([[9]])
        m = ExactMatrix.from_blocks([[a, b], [c, d]])
        assert m.block(0, 2, 0, 2) == a
        assert m.block(0, 2, 2, 3) == b
        assert m.block(2, 3, 0, 2) == c

    def test_kron_mixed_product(self):
        a = ExactMatrix([[1, 2], [0, 1]])
        b = ExactMatrix([[gr(0, 1)], [gr(1)]])
        c = ExactMatrix([[3, 0], [1, 1]])
        d = ExactMatrix([[gr(2, -1)]])
        assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)

    def test_hermitian_detection(self):
        assert ExactMatrix([[1, gr(0, 1)], [gr(0, -1), 2]]).is_hermitian()
        assert not ExactMatrix([[1, gr(0, 1)], [gr(0, 1), 2]]).is_hermitian()
        assert not ExactMatrix([[gr(0, 1)]]).is_hermitian()
        # pairs are compared on re and -im: equal magnitudes over different
        # denominators, a sign slip on re, and a real matrix that is not symmetric
        third, half = Fraction(1, 3), Fraction(1, 2)
        assert ExactMatrix([[0, gr(half, third)], [gr(half, -third), 0]]).is_hermitian()
        assert not ExactMatrix([[0, gr(0, half)], [gr(0, -third), 0]]).is_hermitian()
        assert not ExactMatrix([[0, gr(half, third)], [gr(-half, -third), 0]]).is_hermitian()
        assert not ExactMatrix([[0, 1], [2, 0]]).is_hermitian()
        assert not ExactMatrix([[0, 1, 0], [1, 0, 0]]).is_hermitian()

    def test_conjugate_transpose(self):
        m = ExactMatrix([[gr(1, 2), gr(3)], [gr(0, -1), gr(4, 4)]])
        assert m.h.h == m
        assert (m @ m.h).is_hermitian()

    def test_immutable(self):
        m = ExactMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3


class ReferenceMatrix:
    """Per-entry reference for `ExactMatrix`: rows of `GaussianRational`s,
    each a pair of Fractions, with every operation written entry by entry.

    `ExactMatrix` keeps one denominator and integer numerators instead; it
    must agree with this on every operation, value for value and float for
    float.
    """

    def __init__(self, rows):
        self.e = tuple(tuple(G(z) if not isinstance(z, G) else z for z in row) for row in rows)
        self.rows, self.cols = len(self.e), len(self.e[0])

    @classmethod
    def of(cls, m: ExactMatrix) -> "ReferenceMatrix":
        return cls(m.row_list())

    def __eq__(self, other):
        return self.e == other.e

    def __add__(self, other):
        return ReferenceMatrix([[a + b for a, b in zip(x, y)] for x, y in zip(self.e, other.e)])

    def __sub__(self, other):
        return ReferenceMatrix([[a - b for a, b in zip(x, y)] for x, y in zip(self.e, other.e)])

    def scaled(self, z):
        return ReferenceMatrix([[a * z for a in row] for row in self.e])

    def __matmul__(self, other):
        cols = list(zip(*other.e))
        return ReferenceMatrix(
            [[sum((a * b for a, b in zip(row, col)), G(0)) for col in cols] for row in self.e]
        )

    @property
    def h(self):
        return ReferenceMatrix([[z.conjugate() for z in col] for col in zip(*self.e)])

    def kron(self, other):
        return ReferenceMatrix(
            [[a * b for a in ra for b in rb] for ra in self.e for rb in other.e]
        )

    @classmethod
    def from_blocks(cls, grid):
        return cls([sum((b.e[i] for b in row), ()) for row in grid for i in range(row[0].rows)])

    def block(self, r0, r1, c0, c1):
        return ReferenceMatrix([row[c0:c1] for row in self.e[r0:r1]])

    def trace(self):
        return sum((self.e[i][i] for i in range(self.rows)), G(0))

    def is_hermitian(self):
        return self.rows == self.cols and self.e == self.h.e

    def to_complex(self):
        return np.array([[complex(float(z.re), float(z.im)) for z in row] for row in self.e])


def _reference_case(rng, d):
    """Two d x d matrices, their references and a scalar: small entries over
    mixed denominators, sparse, with a Hermitian first matrix half the time."""
    def draw(rows, cols):
        den = rng.choice([1, 2, 3, 4, 6, 12, 35, 10**20 + 39], size=(rows, cols, 2))
        num = rng.integers(-30, 31, size=(rows, cols, 2)) * (rng.random((rows, cols, 2)) < 0.7)
        return [[G(F(int(num[i, j, 0]), int(den[i, j, 0])), F(int(num[i, j, 1]), int(den[i, j, 1])))
                 for j in range(cols)] for i in range(rows)]

    a, b = draw(d, d), draw(d, d)
    if rng.random() < 0.5:
        a = [[a[i][j] if i < j else a[j][i].conjugate() if i > j else G(a[i][i].re) for j in range(d)]
             for i in range(d)]
    z = G(F(int(rng.integers(-9, 10)), int(rng.integers(1, 9))), F(int(rng.integers(-9, 10)), 7))
    return a, b, z


@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=16, deadline=None)
def test_exact_matrix_agrees_with_the_per_entry_reference(n, s, seed):
    """Every operation on the integer parts equals the per-entry reference on
    n^2 s x n^2 s matrices, `to_complex` bit for bit, and the parts are the
    least common denominator and the numerators of the entries over it."""
    rng = np.random.default_rng(seed)
    d = n * n * s
    a, b, z = _reference_case(rng, d)
    x, y = ExactMatrix(a), ExactMatrix(b)
    rx, ry = ReferenceMatrix(a), ReferenceMatrix(b)
    ref = ReferenceMatrix.of
    assert ref(x) == rx and ref(y) == ry
    assert x.den == math.lcm(*(q.denominator for row in a for w in row for q in (w.re, w.im)))
    assert all(x.re[i, j] == a[i][j].re * x.den and x.im[i, j] == a[i][j].im * x.den
               for i in range(d) for j in range(d))
    assert ref(x + y) == rx + ry and ref(x - y) == rx - ry and ref(-x) == rx.scaled(G(-1))
    assert ref(x * z) == rx.scaled(z) == ref(z * x)
    col = y.block(0, d, 0, s)
    assert ref(col) == ry.block(0, d, 0, s)
    assert ref(x @ col) == rx @ ry.block(0, d, 0, s)
    assert ref(x.h) == rx.h and x.trace() == rx.trace()
    assert x.is_hermitian() == rx.is_hermitian() and (x + x.h).is_hermitian()
    small, big = x.block(0, n, 0, n), y.block(0, n * s, 0, n * s)
    assert ref(small.kron(big)) == ReferenceMatrix.of(small).kron(ReferenceMatrix.of(big))
    h = d // 2
    grid = [[x.block(0, h, 0, h), y.block(0, h, h, d)], [y.block(h, d, 0, h), x.block(h, d, h, d)]]
    assert ref(ExactMatrix.from_blocks(grid)) == ReferenceMatrix.from_blocks(
        [[ReferenceMatrix.of(blk) for blk in row] for row in grid]
    )
    for m, r in ((x, rx), (y, ry), (x @ col, rx @ ry.block(0, d, 0, s))):
        assert m.to_complex().tobytes() == r.to_complex().tobytes()
    # equal values over different denominators: equal matrices, equal hashes
    k = int(rng.integers(2, 10**6))
    for m in (x, y, x + y - y, ExactMatrix.zeros(d)):
        other = ExactMatrix.from_parts(m.den * k, m.re * k, m.im * k)
        assert other == m and hash(other) == hash(m)
        assert (other.den, other.re.tolist(), other.im.tolist()) == (m.den, m.re.tolist(), m.im.tolist())
    assert x + y - y == x and hash(x + y - y) == hash(x)
    assert (x - x).is_zero() and (x - x).den == 1 and (x == y) == (rx == ry)


@dataclass(frozen=True)
class Ldl:
    """Outcome of `reference_ldl`: the pivoted factorization
    P M P* = L D L* when M >= 0, else a witness v with v* M v < 0."""

    is_psd: bool
    permutation: tuple | None = None
    lower: ExactMatrix | None = None
    pivots: tuple | None = None
    witness: ExactMatrix | None = None
    witness_value: Fraction | None = None


def reference_ldl(m: ExactMatrix) -> Ldl:
    """Reference LDL* with largest-magnitude diagonal pivoting, keeping its
    factor and back-substituting its witness vector.

    The library's elimination must agree with it on every verdict and
    margin; its factor and witness let the tests check both directly.
    """
    d = m.rows
    s = m.row_list()
    perm = list(range(d))
    one, zero = G(1), G(0)
    lower = [[one if i == j else zero for j in range(d)] for i in range(d)]
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
        w = [zero] * d
        for idx, val in enumerate(local_vec):
            w[k + idx] = val
        v = [zero] * d
        for i in range(d - 1, -1, -1):
            acc = w[i]
            for j in range(i + 1, d):
                acc = acc - lower[j][i].conjugate() * v[j]
            v[i] = acc
        # Undo the permutation: quadratic form of M at u with u[perm[i]] = v[i].
        u = [zero] * d
        for i in range(d):
            u[perm[i]] = v[i]
        return ExactMatrix.column(u)

    for k in range(d):
        p = max(range(k, d), key=lambda i: abs(s[i][i].re))
        if s[p][p].re < 0:
            swap(k, p)
            return Ldl(False, witness=witness_from([one], k), witness_value=s[k][k].re)
        if s[p][p].re == 0:
            # All remaining diagonals are zero: PSD iff the block vanishes.
            for i in range(k, d):
                for j in range(k, d):
                    if s[i][j]:
                        vec = [zero] * (d - k)
                        vec[i - k] = s[i][j]
                        vec[j - k] = vec[j - k] - one
                        return Ldl(
                            False,
                            witness=witness_from(vec, k),
                            witness_value=-2 * s[i][j].norm2(),
                        )
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
    return Ldl(True, permutation=tuple(perm), lower=ExactMatrix(lower), pivots=tuple(pivots))


def checked_reference(m: ExactMatrix) -> Ldl:
    """`reference_ldl(m)` after checking its certificate, and that
    `psd_check_exact` reaches the same verdict and margin."""
    ref = reference_ldl(m)
    d = m.rows
    if ref.is_psd:
        perm, low, piv = ref.permutation, ref.lower, ref.pivots
        assert all(p >= 0 for p in piv)
        dd = ExactMatrix([[piv[i] if i == j else 0 for j in range(d)] for i in range(d)])
        pmp = ExactMatrix([[m[perm[i], perm[j]] for j in range(d)] for i in range(d)])
        assert pmp == low @ dd @ low.h
    else:
        v = ref.witness
        assert ref.witness_value < 0
        assert (v.h @ m @ v)[0, 0] == gr(ref.witness_value)
    fast = psd_check_exact(m)
    assert (fast.is_psd, fast.witness_value) == (ref.is_psd, ref.witness_value)
    return ref


class TestPsdCheck:
    def test_zero_1x1(self):
        ref = checked_reference(ExactMatrix([[0]]))
        assert ref.is_psd and ref.pivots == (F(0),)

    def test_indefinite_diagonal_witness(self):
        ref = checked_reference(ExactMatrix([[1, 0], [0, -1]]))
        assert not ref.is_psd
        assert ref.witness_value == -1

    def test_counterexample_block_a11_is_psd(self):
        third = F(1, 3)
        c = F(9, 62)
        m = ExactMatrix(
            [
                [gr(third + c * F(-34, 93)), gr(c * F(4, 5), c * F(2, 13))],
                [gr(c * F(4, 5), -c * F(2, 13)), gr(third + c * F(7, 16))],
            ]
        )
        assert psd_check_exact(m).is_psd

    def test_zero_diagonal_nonzero_offdiagonal(self):
        ref = checked_reference(ExactMatrix([[0, gr(1, 2)], [gr(1, -2), 0]]))
        assert not ref.is_psd
        assert ref.witness_value == -10

    def test_psd_block_with_zero_pivot(self):
        # rank-1 PSD with a zero row that must be tolerated
        ref = checked_reference(ExactMatrix([[1, 0, gr(0, 1)], [0, 0, 0], [gr(0, -1), 0, 1]]))
        assert ref.is_psd
        assert min(ref.pivots) == 0

    def test_factorization_reconstructs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            g = ExactMatrix(
                [
                    [gr(F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))),
                        F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))))
                     for _ in range(d)]
                    for _ in range(d)
                ]
            )
            assert checked_reference(g.h @ g).is_psd

    def test_agrees_with_numeric_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            raw = [[gr(F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))),
                       F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))))
                    for _ in range(4)] for _ in range(4)]
            for i in range(4):
                raw[i][i] = gr(raw[i][i].re)
                for j in range(i + 1, 4):
                    raw[j][i] = raw[i][j].conjugate()
            m = ExactMatrix(raw)
            lam = float(np.linalg.eigvalsh(m.to_complex()).min())
            if abs(lam) < 1e-6:
                continue
            assert psd_check_exact(m).is_psd == (lam > 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput, match="^psd_check_exact requires"):
            psd_check_exact(ExactMatrix([[0, 1], [2, 0]]))
        with pytest.raises(NonHermitianInput):
            psd_check_exact(ExactMatrix([[2, gr(1, 1)], [gr(1, 1), 2]]))
        with pytest.raises(NonHermitianInput):
            psd_check_exact(ExactMatrix([[gr(1, 1)]]))


def _random_gaussian(rng, rows, cols):
    def q():
        return F(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))

    return ExactMatrix([[gr(q(), q()) for _ in range(cols)] for _ in range(rows)])


def _random_hermitian(rng, d):
    g = _random_gaussian(rng, d, d)
    return F(1, 2) * (g + g.h)


def _psd_property_cases(rng):
    """Gaussian-rational Hermitian matrices around the PSD boundary, d in 1..8."""
    for d in range(1, 9):
        yield ExactMatrix.zeros(d)
        for _ in range(4):
            yield _random_hermitian(rng, d)
            g = _random_gaussian(rng, int(rng.integers(1, d + 1)), d)
            singular = g.h @ g  # PSD, rank below d unless the draw has d rows
            yield singular
            for k in (2, 8, 17, 40):
                for sign in (1, -1):
                    yield singular + ExactMatrix.identity(d) * F(sign, 10**k)
            huge = F(int(rng.integers(1, 10**6)), 10**100 + int(rng.integers(1, 10**6)))
            yield singular * huge + ExactMatrix.identity(d) * F(1, 10**101 + 3)
            yield singular * huge - ExactMatrix.identity(d) * F(1, 10**120 + 7)
    yield ExactMatrix([[F(1, 10**150 + 1)]])
    yield ExactMatrix([[F(-1, 10**150 + 1)]])
    # ties in |diagonal| pin the pivot order: the earlier position wins
    for diag in ((1, -1), (-1, 1), (-2, 2, 2)):
        d = len(diag)
        yield ExactMatrix([[diag[i] if i == j else 0 for j in range(d)] for i in range(d)])
    yield ExactMatrix([[2, 1], [1, -2]])  # margin -5/2 pivoting on 2, -2 pivoting on -2
    # one pivot leaves a zero-diagonal remainder: nonzero, then vanishing
    yield ExactMatrix([[1, 1, gr(0, 1)], [1, 1, gr(1, 1)], [gr(0, -1), gr(1, -1), 1]])
    yield ExactMatrix([[1, 1, gr(0, 1)], [1, 1, gr(0, 1)], [gr(0, -1), gr(0, -1), 1]])


def test_congruence_proof_agrees_with_ldl():
    rng = np.random.default_rng(2024)
    proven = fallback = 0
    for m in _psd_property_cases(rng):
        ldl = reference_ldl(m)
        for check in (_schur_psd_check(m.den, m.re, m.im), psd_check_exact(m)):
            assert (check.is_psd, check.witness_value) == (ldl.is_psd, ldl.witness_value)
        if _congruence_proves_pd(m.den, m.re, m.im):
            assert ldl.is_psd
            proven += 1
        else:
            fallback += 1
    # both paths must be exercised for the comparison to mean anything
    assert proven > 100 and fallback > 100


def test_stacked_congruence_proof_agrees_with_each_matrix():
    """One proof over a stack decides every member as a proof of that member
    alone: stacks of one size d mixing PD, singular and indefinite members
    (whose failed float factor sends the stack member by member), and the
    stack of the proven members alone (one batched factor)."""
    by_size = {}
    for m in _psd_property_cases(np.random.default_rng(2024)):
        by_size.setdefault(m.rows, []).append(m)
    batched = 0
    for mats in by_size.values():
        alone = [bool(_congruence_proves_pd(m.den, m.re, m.im)) for m in mats]
        assert True in alone and False in alone
        proven = [m for m, ok in zip(mats, alone) if ok]
        for group, want in ((mats, alone), (proven, [True] * len(proven))):
            den, re, im = _stack_parts(group)
            assert _congruence_proves_pd(den, re, im).tolist() == want
            checks = list(psd_check_stack(den, re, im))
            assert checks == [psd_check_exact(m) for m in group]
        batched += len(proven)
    assert batched > 100


def test_psd_check_stack_stops_at_the_first_rejection(monkeypatch):
    mats = [ExactMatrix([[1, 0], [0, -1]]), ExactMatrix([[-1, 0], [0, 1]])]
    calls = []

    def counted(den, re, im):
        calls.append(ExactMatrix.from_parts(den, re, im))
        return _schur_psd_check(den, re, im)

    monkeypatch.setattr(exact, "_schur_psd_check", counted)
    assert not all(check.is_psd for check in psd_check_stack(*_stack_parts(mats)))
    assert calls == mats[:1]
    with pytest.raises(NonHermitianInput):
        psd_check_stack(*_stack_parts([ExactMatrix([[0, 1], [2, 0]])]))


def test_congruence_proves_counterexample_certificate(monkeypatch):
    path = Path(__file__).parent / "data" / "counterexample.cert.json"
    cert = certificate_from_json(json.loads(path.read_text()))[0]
    calls = []

    def counted(den, re, im):
        calls.append(ExactMatrix.from_parts(den, re, im))
        return _schur_psd_check(den, re, im)

    monkeypatch.setattr(exact, "_schur_psd_check", counted)
    assert psd_check_exact(cert.y_exact).is_psd
    assert calls == []
    rejected = psd_check_exact(-cert.y_exact)
    assert not rejected.is_psd
    assert len(calls) == 1
    assert rejected.witness_value == reference_ldl(-cert.y_exact).witness_value


def _int64_tier_only(monkeypatch):
    """Make `_congruence_proves_pd` report what its int64 tier proves: the
    exact tier proves nothing."""
    monkeypatch.setattr(exact, "_exact_tier", lambda inv, re, im: np.zeros(len(re), dtype=bool))


def _is_pd(m: ExactMatrix) -> bool:
    ldl = reference_ldl(m)
    return ldl.is_psd and min(ldl.pivots) > 0


def test_int64_tier_proves_only_positive_definite_matrices(monkeypatch):
    """Every member the int64 tier accepts, alone or in a stack of one size
    d, is positive definite; the tier runs at every d, d <= 3 included."""
    _int64_tier_only(monkeypatch)
    by_size = {}
    for m in _psd_property_cases(np.random.default_rng(2024)):
        by_size.setdefault(m.rows, []).append(m)
    accepted = small = 0
    for d, mats in by_size.items():
        alone = [bool(_congruence_proves_pd(m.den, m.re, m.im)) for m in mats]
        stacked = _congruence_proves_pd(*_stack_parts(mats)).tolist()
        for m, ok, ok_stacked in zip(mats, alone, stacked):
            if ok or ok_stacked:
                assert _schur_psd_check(m.den, m.re, m.im).is_psd and _is_pd(m)
        if d <= 3:
            small += sum(alone + stacked)
        accepted += sum(alone)
    assert accepted > 40
    assert small > 0


def test_int64_tier_bits_keep_every_sum_in_int64():
    for d in range(1, 65):
        bits = exact._int64_t_bits(d)
        worst = 4 * d * d * (d + 1) * (2**exact._A_BITS + d)
        assert worst * 4**bits < 2**63 <= worst * 4 ** (bits + 1)
    # the int64 tier is tried up to d = 39, where T keeps 11 bits
    assert exact._int64_t_bits(39) == exact._T_BITS_MIN > exact._int64_t_bits(40)


# v v* for v = (1, 167/178), beside I_2: singular, but fl(M) factors in floats
# and its rounded image A = round(2^22 M) has a positive definite leading block,
# which Gershgorin on T* A T proves without the -dI margin
_SINGULAR_BLOCK = F(167, 178)


def _singular_with_pd_image(shift=F(0)) -> ExactMatrix:
    b = _SINGULAR_BLOCK
    return ExactMatrix([[1, b, 0, 0], [b, b * b, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) - (
        ExactMatrix.identity(4) * shift
    )


def test_int64_tier_margin_refuses_singular_and_indefinite_matrices(monkeypatch):
    m = _singular_with_pd_image()
    approx = m.to_complex()[None]
    inv = np.linalg.inv(np.linalg.cholesky(approx)).conj().swapaxes(-1, -2)
    a = np.round(approx * 2.0**22)  # the tier's A: M's parts are below 2^1
    a_re, a_im = a.real.astype(np.int64), a.imag.astype(np.int64)
    assert a_re[0, 0, 0] * a_re[0, 1, 1] - a_re[0, 0, 1] ** 2 > 0
    t_re, t_im, ok = exact._rounded_factor(inv, exact._int64_t_bits(4))
    assert ok[0] and exact._gershgorin_proves(t_re, t_im, a_re, a_im)[0]
    indefinite = _singular_with_pd_image(F(1, 10**40))  # lambda_min = -10^-40
    for case in (m, indefinite):
        assert not _congruence_proves_pd(case.den, case.re, case.im)
    assert psd_check_exact(m).is_psd
    check = psd_check_exact(indefinite)
    assert not check.is_psd and check.witness_value == reference_ldl(indefinite).witness_value
    _int64_tier_only(monkeypatch)
    stack = _stack_parts([m, indefinite, ExactMatrix.identity(4)])
    assert _congruence_proves_pd(*stack).tolist() == [False, False, True]


def test_int64_tier_falls_through_to_the_exact_tier(monkeypatch):
    """Members past the float range are decided alone, and stacks of d = 50
    and d = 64 (where T would keep fewer than 11 bits) go to the exact tier
    only; each still proves what it can."""
    dtypes = []
    body = exact._gershgorin_proves

    def recorded(t_re, t_im, n_re, n_im):
        dtypes.append(n_re.dtype)
        return body(t_re, t_im, n_re, n_im)

    monkeypatch.setattr(exact, "_gershgorin_proves", recorded)
    rng = np.random.default_rng(7)
    huge = ExactMatrix.identity(4) * 10**400
    pd = [_random_gaussian(rng, 4, 4) for _ in range(2)]
    pd = [g.h @ g + ExactMatrix.identity(4) for g in pd]
    assert _congruence_proves_pd(*_stack_parts([pd[0], huge, pd[1]])).tolist() == [True, False, True]
    assert psd_check_exact(huge).is_psd
    for d in (50, 64):
        dtypes.clear()
        g = ExactMatrix.from_parts(1, rng.integers(-3, 4, (d, d)), rng.integers(-3, 4, (d, d)))
        m = g.h @ g + ExactMatrix.identity(d) * d
        assert _congruence_proves_pd(*_stack_parts([m, m * 3])).tolist() == [True, True]
        assert dtypes == [np.dtype(object)]


small_ints = st.integers(-4, 4)
gaussians = st.builds(gr, small_ints, small_ints)


@st.composite
def psd_and_shifted(draw):
    """(M, kind): PD, singular PSD (B B* with B of rank below d), or a PSD
    matrix minus a tiny multiple of a rank-one term u u*, d in 1..6."""
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["pd", "singular", "shifted"]))
    r = draw(st.integers(0, d - 1) if kind == "singular" else st.integers(1, d))
    gram = ExactMatrix.zeros(d)
    if r:
        b = ExactMatrix(draw(st.lists(st.lists(gaussians, min_size=r, max_size=r), min_size=d, max_size=d)))
        gram = b @ b.h
    if kind == "pd":
        return gram + ExactMatrix.identity(d) * F(1, draw(st.integers(1, 10**12))), kind
    if kind == "singular":
        return gram, kind
    u = ExactMatrix.column(draw(st.lists(gaussians, min_size=d, max_size=d)))
    return gram - (u @ u.h) * F(1, 10 ** draw(st.integers(1, 40))), kind


@given(psd_and_shifted())
@settings(max_examples=100, deadline=None)
def test_refute_psd_is_sound(case):
    m, kind = case
    value = refute_psd(m)
    if kind != "shifted":
        assert value is None
    if value is not None:
        assert value < 0
        assert not psd_check_exact(m).is_psd


def test_refute_psd_finds_indefinite_witnesses():
    assert refute_psd(ExactMatrix([[1, 0], [0, -1]])) < 0
    assert refute_psd(ExactMatrix([[0, gr(1, 2)], [gr(1, -2), 0]])) < 0
    assert refute_psd(ExactMatrix.identity(3) * F(-1, 10**60 + 1)) < 0
    assert refute_psd(ExactMatrix.identity(3)) is None
    with pytest.raises(NonHermitianInput):
        refute_psd(ExactMatrix([[1, gr(0, 1)], [gr(0, 1), 2]]))


@pytest.mark.parametrize(
    "m",
    [
        ExactMatrix([[-(10**400)]]),
        ExactMatrix([[1, 10**400], [10**400, 1]]),
    ],
    ids=["diagonal", "off-diagonal"],
)
def test_refute_psd_falls_through_on_non_finite_float_image(m):
    assert refute_psd(m) is None
    assert not psd_check_exact(m).is_psd


# floats next to 1/(2 bound), where rounding to 0 starts, for the tested bounds
_ROUND_TO_ZERO_EDGES = [
    float(np.nextafter(1 / (2 * b), toward)) * sign
    for b in (2, 10**3, 10**6, 10**9, 10**12, 2**70)
    for toward in (0, 1)
    for sign in (1, -1)
] + [1 / (2 * b) for b in (2, 10**3, 2**70)]


def _round_one(x, bound):
    """`exact._rounded` of the one-entry array [x], as Python ints."""
    p, q = exact._rounded(np.array([x], dtype=np.float64), bound)
    return int(p[0]), int(q[0])


class TestRationalize:
    def test_trivial_values(self):
        assert rationalize(0.5, 10) == F(1, 2)
        assert rationalize(0.3333333333, 100) == F(1, 3)

    def test_golden_ratio_convergent(self):
        assert rationalize(0.6180339887, 1000) == F(610, 987)

    def test_brute_force_small_denominators(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = float(rng.uniform(-2, 2))
            got = rationalize(x, 40)
            best = min(
                (F(p, q) for q in range(1, 41) for p in range(int(x * q) - 2, int(x * q) + 3)),
                key=lambda r: abs(float(r) - x),
            )
            assert abs(float(got) - x) <= abs(float(best) - x) + 1e-15

    @given(st.integers(min_value=-(2**20), max_value=2**20), st.integers(min_value=1, max_value=2**20))
    @settings(max_examples=200)
    def test_recovers_exactly_representable_ratios(self, p, q):
        assert rationalize(p / q, q) == F(p, q)

    @pytest.mark.parametrize("bound", [1, 2, 10**3, 10**6, 10**9])
    @given(
        st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 5e-324, -5e-324]),
            st.floats(min_value=-1e2, max_value=1e2),
            st.builds(
                lambda m, e, sign: sign * m * 10.0**e,
                st.floats(1, 10), st.integers(-12, 1), st.sampled_from([-1, 1]),
            ),
            st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals
            st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=400)
    def test_limit_denominator_is_fractions(self, bound, x):
        """The integer-only rounding kernel on a one-entry array is
        Fraction.limit_denominator, as (numerator, denominator) in lowest
        terms."""
        q = F(x).limit_denominator(bound)
        assert _round_one(x, bound) == (q.numerator, q.denominator)
        assert rationalize(x, bound) == q

    @pytest.mark.parametrize("bound", [1, 2, 10**3, 10**6, 10**9, 10**12, 2**70])
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=2.0**-1074, max_value=2.0**60),
                st.floats(min_value=-(2.0**60), max_value=-(2.0**-1074)),
                st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals
                st.sampled_from([0.0, -0.0, 0.5, -0.5, *_ROUND_TO_ZERO_EDGES]),
                st.builds(lambda k: k + 0.5, st.integers(-(2**40), 2**40)),
                st.builds(lambda m, sign: sign * m, st.floats(2.0**31, 1e300), st.sampled_from([-1, 1])),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=150)
    def test_array_rounding_is_fractions_entry_by_entry(self, bound, xs):
        """One continued-fraction loop over an array, its entries in uint64
        and in object dtype alike, rounds each as Fraction.limit_denominator."""
        p, q = exact._rounded(np.array(xs, dtype=np.float64), bound)
        want = [F(x).limit_denominator(bound) for x in xs]
        assert list(zip(p.tolist(), q.tolist())) == [(r.numerator, r.denominator) for r in want]

    def test_ties_at_bound_one_are_not_odd(self):
        assert _round_one(0.5, 1) == (0, 1)
        assert _round_one(-0.5, 1) == (-1, 1)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            rationalize(float("nan"), 10)
        with pytest.raises(NonFiniteInput):
            rationalize(float("inf"), 10)
        for bad in (np.nan, np.inf, 1j * np.inf):
            with pytest.raises(NonFiniteInput):
                exact.rational_hermitian([[0.0, bad], [0.0, 0.0]], 100)

    @pytest.mark.parametrize("bound", [1, 10**3, 10**6, 10**9])
    @given(
        st.one_of(
            st.tuples(st.integers(1, 6)),  # one s x s matrix
            st.tuples(st.integers(1, 6), st.integers(1, 3)),  # a (k, s, s) stack
        ),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rational_hermitian_is_the_hermitian_part_of_the_rounding(
        self, bound, dims, hermitian, data
    ):
        """(2D, R + R^T, I - I^T) of `_rationalized_parts`, on the last two
        axes of a matrix or stack, Hermitian or not: per entry, the mean of
        the rounding of z_jk and of conj(z_kj) as Fraction.limit_denominator."""
        shape = (dims[0], dims[1], dims[1]) if len(dims) == 2 else (dims[0], dims[0])
        parts = st.floats(min_value=-4, max_value=4) | st.sampled_from([0.0, 0.5, -0.5, 1e-7])
        size = 2 * math.prod(shape)
        xs = data.draw(st.lists(parts, min_size=size, max_size=size))
        z = (np.array(xs[::2]) + 1j * np.array(xs[1::2])).reshape(shape)
        if hermitian:
            z = (z + z.conj().swapaxes(-1, -2)) / 2
        den, re, im = exact.rational_hermitian(z, bound)
        d0, r0, i0 = exact._rationalized_parts(z, bound)
        assert den == 2 * d0
        for got, want in ((re, r0 + np.swapaxes(r0, -1, -2)), (im, i0 - np.swapaxes(i0, -1, -2))):
            assert got.shape == z.shape and got.dtype == object
            assert got.tolist() == want.tolist()
        rounded = np.vectorize(lambda x: F(x).limit_denominator(bound), otypes=[object])
        over_den = np.vectorize(lambda v: F(v, den), otypes=[object])
        zr, zi = rounded(z.real), rounded(z.imag)
        assert over_den(re).tolist() == ((zr + np.swapaxes(zr, -1, -2)) / 2).tolist()
        assert over_den(im).tolist() == ((zi - np.swapaxes(zi, -1, -2)) / 2).tolist()


class TestElimination:
    def test_nullspace_full_rank(self):
        assert nullspace_exact(ExactMatrix.identity(3)) == []

    def test_nullspace_sum_constraint(self):
        basis = nullspace_exact(ExactMatrix([[1, 1, 1]]))
        assert len(basis) == 2
        for v in basis:
            assert sum((v[i, 0] for i in range(3)), gr(0)) == gr(0)

    def test_nullspace_vectors_in_kernel(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = ExactMatrix([[gr(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
                              for _ in range(5)] for _ in range(3)])
            basis = nullspace_exact(m)
            assert len(basis) == 5 - len(rref_exact(m)[1])
            for v in basis:
                assert (m @ v).is_zero()

    def test_rref_idempotent(self):
        m = ExactMatrix([[2, 4, 6], [1, 2, 4]])
        red, piv = rref_exact(m)
        again, piv2 = rref_exact(red)
        assert red == again and piv == piv2


class TestAffineProjection:
    def test_projects_onto_plane(self):
        # min (x-1)^2 + (y-1)^2 s.t. x + y = 1
        x = affine_least_squares([[F(1), F(1)]], [F(1)], [F(1), F(1)])
        assert x == [F(1, 2), F(1, 2)]

    def test_redundant_rows_allowed(self):
        rows = [[F(1), F(1)], [F(2), F(2)]]
        x = affine_least_squares(rows, [F(1), F(2)], [F(0), F(0)])
        assert x[0] + x[1] == 1

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError):
            affine_least_squares([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)], [F(0), F(0)])

    def test_weighted_optimality(self):
        # stationarity: residual must be W-orthogonal to the constraint nullspace
        rng = np.random.default_rng(9)
        for _ in range(10):
            rows = [[F(int(rng.integers(-3, 4))) for _ in range(4)] for _ in range(2)]
            m = ExactMatrix([[GaussianRational(c) for c in r] for r in rows])
            if len(rref_exact(m)[1]) < 2:
                continue
            x0 = [F(int(rng.integers(-5, 6)), 2) for _ in range(4)]
            w = [F(1), F(2), F(1), F(2)]
            b = [F(int(rng.integers(-2, 3))) for _ in range(2)]
            try:
                x = affine_least_squares(rows, b, x0, weights=w)
            except ValueError:
                continue
            for v in nullspace_exact(ExactMatrix([[GaussianRational(c) for c in r] for r in rows])):
                dot = sum(w[j] * (x[j] - x0[j]) * v[j, 0].re for j in range(4))
                assert dot == 0


# -- real coordinates for Hermitian matrices ----------------------------------
#
# The reference layout of the generic projection `affine_least_squares` on
# Hermitian matrices: diagonal entries first (real), then for each i < j in
# lex order the real and imaginary parts of the (i, j) entry.


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
    grid = [[G(0)] * s for _ in range(s)]
    for i in range(s):
        grid[i][i] = G(coords[i])
    k = s
    for i in range(s):
        for j in range(i + 1, s):
            grid[i][j] = G(coords[k], coords[k + 1])
            grid[j][i] = grid[i][j].conjugate()
            k += 2
    return ExactMatrix(grid)


def hermitian_coordinate_weights(s: int) -> list[Fraction]:
    """Weights making coordinate dot products equal Frobenius inner products."""
    return [Fraction(1)] * s + [Fraction(2)] * (s * s - s)


class TestHermitianCoordinates:
    def test_round_trip(self):
        m = ExactMatrix([[gr(1), gr(F(1, 2), F(-1, 3))], [gr(F(1, 2), F(1, 3)), gr(-2)]])
        assert hermitian_from_coordinates(2, hermitian_coordinates(m)) == m

    def test_weighted_dot_equals_frobenius(self):
        a = ExactMatrix([[gr(2), gr(1, 1)], [gr(1, -1), gr(0)]])
        b = ExactMatrix([[gr(-1), gr(0, 2)], [gr(0, -2), gr(3)]])
        ca, cb = hermitian_coordinates(a), hermitian_coordinates(b)
        w = hermitian_coordinate_weights(2)
        dot = sum(wi * x * y for wi, x, y in zip(w, ca, cb))
        assert dot == (a @ b).trace().re

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            hermitian_coordinates(ExactMatrix([[0, 1], [2, 0]]))


@pytest.mark.parametrize(
    "q",
    [F(0), F(1), F(-7, 3), F(10**599), F(10**600), F(10**600 - 1), F(-(10**1200) - 7, 10**600 + 1),
     F(3 * 10**4000 + 11, 13)],
)
def test_rational_str_is_str_within_the_digit_limit(q):
    assert rational_str(q) == str(q)


def test_exact_from_float_matrix():
    """A complex float matrix becomes an exact one entry by entry, over the
    least common denominator of its rounded parts."""
    arr = np.array([[0.5 + 0.25j, 1.0], [0.0, -2.0]])
    m = ExactMatrix.from_parts(*exact._rationalized_parts(arr, 100))
    assert m[0, 0] == gr(F(1, 2), F(1, 4))
    assert m[1, 1] == gr(-2)
    assert (m.den, m.re.tolist(), m.im.tolist()) == (4, [[2, 4], [0, -8]], [[1, 0], [0, 0]])
    for bad in (np.nan, np.inf, 1j * np.inf):
        with pytest.raises(NonFiniteInput):
            exact._rationalized_parts([[0.0, bad]], 100)
