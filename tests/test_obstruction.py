"""Hull obstruction: phi/psi constructions, pencils, and exact certificates."""

import hashlib
import importlib.util
import itertools
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from qmagic import cli, exact, obstruction, sdp
from qmagic.cli import main
from qmagic.exact import (
    ExactMatrix,
    GaussianRational,
    _projection_operator,
    affine_least_squares,
    hermitian_basis,
    psd_check_exact,
)
from qmagic.extremality import member_witness_from_dilation
from qmagic.obstruction import (
    CertificateNotFound,
    CertificationFailed,
    DENOMINATOR_LADDER,
    NotDefinedForSmallN,
    ObstructionCertificate,
    blend_dual,
    build_obstruction,
    certify_with_ladder,
    check_mconv_obstruction,
    constant_term,
    counterexample_m2_3,
    exact_certify,
    find_dual_certificate,
    phi_matrix,
    psi_matrix,
    pencil_directions,
    verify_certificate,
    zero_diagonal_basis,
    _correction,
    _factor,
    _pairings,
)
from qmagic.sampling import (
    random_exact_decomposition,
    random_member_square,
    square_from_decomposition,
)
from qmagic.serialize import (
    certificate_from_json,
    certificate_to_json,
    decomposition_to_json,
    dump_square,
    rational_to_json,
)
from qmagic.sdp import DEFAULT_EPS, solve_feasibility
from qmagic.semiclassical import (
    check_semiclassical,
    interior_map_decomposition,
    synthesize_commuting_dilation,
)
from qmagic.structures import (
    MagicSquare,
    adjoint,
    assemble,
    constant_square,
    embed_pad,
    identity,
    perm_matrix_exact,
    scalar,
    validate_magic,
    zeros,
)
from test_exact import (
    hermitian_coordinate_weights,
    hermitian_coordinates,
    hermitian_from_coordinates,
    reference_ldl,
)


def scalar_square(entries) -> MagicSquare:
    return MagicSquare([[ExactMatrix([[x]]) for x in row] for row in entries])


def permutation_square(sigma) -> MagicSquare:
    p = perm_matrix_exact(sigma)
    n = len(sigma)
    return scalar_square([[p[i, j] for j in range(n)] for i in range(n)])


def _exact_gaussian_integers(m: np.ndarray) -> ExactMatrix:
    """Reference converter: the exact copy of a Gaussian-integer complex array."""
    assert np.array_equal(m, np.round(m))
    return ExactMatrix([[(int(z.real), int(z.imag)) for z in row] for row in m.tolist()])


@pytest.fixture(scope="module")
def cex() -> MagicSquare:
    return counterexample_m2_3()


@pytest.fixture(scope="module")
def strong_problem(cex):
    return build_obstruction(cex, "strong")


# -- col, diag, phi ----------------------------------------------------------


def col_and_diag(a: MagicSquare):
    """Stacked column col(A) and block diagonal diag(A), lexicographic order,
    assembled block by block: exact matrices for exact squares, complex
    arrays for float ones."""
    n, s = a.n, a.s
    blocks = [a.block(i, j) for i in range(n) for j in range(n)]
    zero = zeros(s, s, a.exact)
    col = assemble([[b] for b in blocks], a.exact)
    diag = assemble(
        [[b if p == q else zero for q in range(n * n)] for p, b in enumerate(blocks)],
        a.exact,
    )
    return col, diag


def test_col_and_diag_n1():
    sq = scalar_square([[Fraction(1)]])
    col, diag = col_and_diag(sq)
    assert col.shape == (1, 1) and col[0, 0] == GaussianRational(1)
    assert diag.shape == (1, 1) and diag[0, 0] == GaussianRational(1)


def test_col_and_diag_n2_order():
    sq = scalar_square(
        [[Fraction(1, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(1, 4)]]
    )
    col, diag = col_and_diag(sq)
    assert col.shape == (4, 1)
    entries = [col[k, 0].re for k in range(4)]
    assert entries == [Fraction(1, 4), Fraction(3, 4), Fraction(3, 4), Fraction(1, 4)]
    for k in range(4):
        assert diag[k, k].re == entries[k]
    assert sum(1 for i in range(4) for j in range(4) if diag[i, j] != GaussianRational(0)) == 4


def test_diag_block_extraction(cex):
    _, diag = col_and_diag(cex)
    n, s = cex.n, cex.s
    for i in range(n):
        for j in range(n):
            r = (i * n + j) * s
            assert diag.block(r, r + s, r, r + s) == cex.block(i, j)


def test_phi_matches_displayed_4x4():
    a = Fraction(1, 4)
    sq = scalar_square([[a, 1 - a], [1 - a, a]])
    phi = phi_matrix(sq)
    e = [a, 1 - a, 1 - a, a]
    for i in range(4):
        for j in range(4):
            expected = (e[i] if i == j else 0) - e[i] * e[j]
            assert phi[i, j].re == expected and phi[i, j].im == 0


def test_phi_of_permutation_has_zero_diagonal_blocks():
    sq = permutation_square((1, 2, 0))
    phi = phi_matrix(sq)
    for k in range(9):
        assert phi[k, k] == GaussianRational(0)


def test_phi_constant_diagonal():
    phi = phi_matrix(constant_square(3, 1))
    for k in range(9):
        assert phi[k, k].re == Fraction(2, 9)


# -- psi ---------------------------------------------------------------------


def test_psi_needs_three():
    sq = scalar_square(
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    )
    with pytest.raises(NotDefinedForSmallN):
        psi_matrix(sq)


def test_psi_constants_on_constant_squares():
    # every populated slot of psi(constant) is -alpha + 2(beta+gamma)/n
    psi3 = psi_matrix(constant_square(3, 1))
    val3 = -Fraction(1, 2) + 2 * (Fraction(2, 3) + Fraction(1, 3)) / 3
    assert val3 == Fraction(1, 6)
    psi4 = psi_matrix(constant_square(4, 1))
    val4 = -Fraction(1, 6) + 2 * (Fraction(3, 8) + Fraction(1, 8)) / 4
    assert val4 == Fraction(1, 12)
    for psi, n, val in [(psi3, 3, val3), (psi4, 4, val4)]:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        got = psi[i * n + k, j * n + l]
                        if i != j and k != l:
                            assert got.re == val and got.im == 0
                        else:
                            assert got == GaussianRational(0)


def test_psi_slot_formula(cex):
    n, s = cex.n, cex.s
    psi = psi_matrix(cex)
    i, j, k, l = 0, 2, 1, 0
    blk = psi.block((i * n + k) * s, (i * n + k + 1) * s, (j * n + l) * s, (j * n + l + 1) * s)
    expected = (
        Fraction(-1, 2) * ExactMatrix.identity(2)
        + Fraction(2, 3) * (cex.block(i, k) + cex.block(j, l))
        + Fraction(1, 3) * (cex.block(i, l) + cex.block(j, k))
    )
    assert blk == expected


def test_psi_float_agrees_with_exact(cex):
    diff = psi_matrix(cex).to_complex() - psi_matrix(cex.to_float())
    assert float(np.abs(diff).max()) <= 1e-12


def test_broken_kernel_identity_is_refused(cex, monkeypatch):
    # u = e_1 (x) (e_1 - e_2) (x) e_1 pairs to zero with every e_i (x) e (x) I_s
    # but not with e (x) e_1 (x) I_s, so only the stated identity sees u u*
    # Exact and float squares both take B0 = phi + psi through `_psi`, the
    # integer slots (L D^2, re, im) of an exact psi or a float matrix; each
    # gets the same bump u u*/1000 there.
    u = np.zeros(18, dtype=int)
    u[0], u[2] = 1, -1
    uu = np.outer(u, u).astype(object)
    for square in (cex, cex.to_float()):
        if square.exact:
            den, re, im = obstruction._psi(square)
            broken = (1000 * den, 1000 * re + den * uu, 1000 * im)
        else:
            broken = obstruction._psi(square) + uu.astype(float) / 1000
        monkeypatch.setattr(obstruction, "_psi", lambda a: broken)
        with pytest.raises(RuntimeError, match="kernel identity"):
            build_obstruction(square, "strong")
        if square.exact:
            dummy = ObstructionCertificate(3, 2, "strong", ExactMatrix.identity(18))
            with pytest.raises(RuntimeError, match="kernel identity"):
                verify_certificate(dummy, square)
        monkeypatch.undo()


def test_kernel_identity_exact(cex):
    n, s = cex.n, cex.s
    total = phi_matrix(cex) + psi_matrix(cex)
    eye = ExactMatrix.identity(s)
    zero = ExactMatrix.zeros(s, s)
    for i in range(n):
        vec = ExactMatrix.from_blocks(
            [[eye if k == i else zero] for j in range(n) for k in range(n)]
        )
        assert (total @ vec).is_zero()


# -- the integer B0 against the entrywise reference ---------------------------


def reference_phi(a: MagicSquare):
    """phi(A) = diag(A) - col(A) col(A)*, entrywise over Q[i] for exact squares
    (one Fraction operation per entry) and in floats otherwise."""
    col, diag = col_and_diag(a)
    return diag - col @ adjoint(col)


def reference_psi(a: MagicSquare):
    """psi(A) slot by slot, -alpha I + beta (a_ik + a_jl) + gamma (a_il + a_jk)."""
    n, s = a.n, a.s
    if n < 3:
        raise NotDefinedForSmallN(f"correction term needs n >= 3, got n={n}")
    alpha = scalar(Fraction(1, (n - 1) * (n - 2)), a.exact)
    beta = scalar(Fraction(n - 1, n * (n - 2)), a.exact)
    gamma = scalar(Fraction(1, n * (n - 2)), a.exact)
    eye = identity(s, a.exact)
    zero = zeros(s, s, a.exact)
    grid = [[zero] * (n * n) for _ in range(n * n)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if i != j and k != l:
            grid[i * n + k][j * n + l] = (
                -alpha * eye
                + beta * (a.block(i, k) + a.block(j, l))
                + gamma * (a.block(i, l) + a.block(j, k))
            )
    return assemble(grid, a.exact)


B0_SQUARES = [
    *(f"member-{n}-{s}" for n in range(1, 6) for s in range(1, 4)),
    "orbit-perm",
    "orbit-transpose",
    "orbit-conjugate",
    "pad-4",
    "pad-5",
    "pad-member-2-3",
]


@cache
def _b0_square(label: str) -> MagicSquare:
    """An exact random member for n in 1..5 and s in 1..3, a square in the
    orbit of the counterexample (rows and columns permuted, the grid
    transposed, conjugation by diag(1, i)), or an embed_pad square."""
    kind, _, rest = label.partition("-")
    if kind == "member":
        n, s = map(int, rest.split("-"))
        rng = np.random.default_rng([15, n, s])
        return square_from_decomposition(random_exact_decomposition(rng, n, s))
    if kind == "pad":
        return embed_pad(_b0_square({"4": "orbit-cex", "5": "pad-4"}.get(rest, rest)))
    cex = counterexample_m2_3()
    u = ExactMatrix([[1, 0], [0, GaussianRational(0, 1)]])
    r, c = (2, 0, 1), (1, 2, 0)
    blocks = {
        "cex": lambda i, j: cex.block(i, j),
        "perm": lambda i, j: cex.block(r[i], c[j]),
        "transpose": lambda i, j: cex.block(j, i),
        "conjugate": lambda i, j: u.h @ cex.block(i, j) @ u,
    }[rest]
    return MagicSquare([[blocks(i, j) for j in range(3)] for i in range(3)])


@pytest.mark.parametrize("label", B0_SQUARES)
def test_constant_term_matches_entrywise_reference(label):
    """The integer-numerator phi, psi and B0 equal the entrywise construction
    over Q[i] in both modes; float copies give phi, psi and B0 bit for bit as
    the float reference does; strong mode at n <= 2 is refused."""
    a = _b0_square(label)
    f = a.to_float()
    phi = reference_phi(a)
    assert phi_matrix(a) == phi
    assert constant_term(a, "weak") == phi
    float_phi = reference_phi(f)
    assert phi_matrix(f).tobytes() == float_phi.tobytes()
    assert constant_term(f, "weak").tobytes() == float_phi.tobytes()
    if a.n <= 2:
        for square in (a, f):
            with pytest.raises(NotDefinedForSmallN):
                constant_term(square, "strong")
        return
    psi = reference_psi(a)
    assert psi_matrix(a) == psi
    assert constant_term(a, "strong") == phi + psi
    float_psi = reference_psi(f)
    assert psi_matrix(f).tobytes() == float_psi.tobytes()
    got = constant_term(f, "strong")
    ref = float_phi + float_psi
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_b0_pairing_is_the_trace_of_the_product(cex):
    """trace(Y B0) from the integer dot product equals (Y @ B0).trace().re on
    the shipped counterexample certificate."""
    shipped = Path(__file__).parent / "data" / "counterexample.cert.json"
    cert = certificate_from_json(json.loads(shipped.read_text()))[0]
    b0 = constant_term(cex, cert.mode)
    y = cert.y_exact
    got = _pairings(y, cex.n, cex.s, cert.mode, b0)["B0"]
    assert got == (y @ b0).trace().re
    assert got == cert.pairings["B0"]


# -- variable spaces ---------------------------------------------------------


def _generator_3() -> ExactMatrix:
    """The Hermitian generator [[0, i, -i], [-i, 0, i], [i, -i, 0]] of Z_e at n = 3."""
    z, pi, mi = GaussianRational(0), GaussianRational(0, 1), GaussianRational(0, -1)
    return ExactMatrix([[z, pi, mi], [mi, z, pi], [pi, mi, z]])


def test_ze_basis_n3_is_the_generator():
    assert np.array_equal(zero_diagonal_basis(3, doubly_null=True), [_generator_3().to_complex()])


@pytest.mark.parametrize(
    "n, doubly_null", [(n, False) for n in (2, 3, 4, 5)] + [(n, True) for n in (3, 4, 5, 6)]
)
def test_zero_diagonal_basis(n, doubly_null):
    basis = zero_diagonal_basis(n, doubly_null=doubly_null)
    assert basis is zero_diagonal_basis(n, doubly_null=doubly_null)  # computed once
    assert not basis.flags.writeable
    assert len(basis) == (n * n - 3 * n + 1 if doubly_null else n * n - n)
    assert np.array_equal(basis, np.round(basis))
    assert np.array_equal(basis, basis.conj().swapaxes(1, 2))
    assert np.all(np.diagonal(basis, axis1=1, axis2=2) == 0)
    if doubly_null:  # kills e on both sides
        e = np.ones(n)
        assert np.all(basis @ e == 0) and np.all(e @ basis == 0)
    flat = basis.reshape(len(basis), -1)
    assert np.linalg.matrix_rank(np.hstack([flat.real, flat.imag])) == len(basis)


def test_zero_diagonal_basis_small_n():
    with pytest.raises(NotDefinedForSmallN):
        zero_diagonal_basis(1)
    with pytest.raises(NotDefinedForSmallN):
        zero_diagonal_basis(2, doubly_null=True)


# -- pencils -----------------------------------------------------------------


def test_build_dimensions(cex, strong_problem):
    assert strong_problem.dim == 18
    assert len(strong_problem.pencil.directions) == 4
    weak = build_obstruction(cex, "weak")
    assert len(weak.pencil.directions) == 144
    small = build_obstruction(constant_square(3, 1), "strong")
    assert len(small.pencil.directions) == 1


def test_strong_directions_are_generator_tensors(strong_problem):
    g = _generator_3()
    gg = g.kron(g)
    b1 = gg.kron(ExactMatrix([[1, 0], [0, 0]]))
    b3 = gg.kron(ExactMatrix([[0, GaussianRational(0, -1)], [GaussianRational(0, 1), 0]]))
    dirs = strong_problem.pencil.directions
    assert _exact_gaussian_integers(dirs[0]) == b1
    assert _exact_gaussian_integers(dirs[2]) == b3


def test_directions_traceless_and_hermitian(cex):
    for mode in ("weak", "strong"):
        problem = build_obstruction(cex, mode)
        for b in map(_exact_gaussian_integers, problem.pencil.directions):
            assert b.is_hermitian()
            tr = b.trace()
            assert tr.re == 0 and tr.im == 0


def reference_directions(n, s, mode):
    """The pencil directions as dense exact Kronecker products, in pencil order."""
    z = [_exact_gaussian_integers(b) for b in zero_diagonal_basis(n, mode == "strong")]
    return [za.kron(zb).kron(h) for za in z for zb in z for h in hermitian_basis(s)]


@pytest.mark.parametrize(
    "mode, n, s",
    [("weak", n, s) for n, s in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1)]]
    + [("strong", n, s) for n, s in [(3, 1), (3, 2), (3, 3), (4, 1)]],
)
def test_numpy_directions_match_exact_kron(mode, n, s):
    got = pencil_directions(n, s, mode)
    want = np.array([b.to_complex() for b in reference_directions(n, s, mode)])
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # no negative zeros either


@pytest.mark.parametrize(
    "mode, n, s",
    [("weak", n, s) for n in (2, 3, 4) for s in (1, 2)]
    + [("strong", n, s) for n in (3, 4, 5) for s in (1, 2)],
)
def test_pencil_directions_form_a_basis(mode, n, s):
    dirs = pencil_directions(n, s, mode)
    dim = n * n - 3 * n + 1 if mode == "strong" else n * n - n
    assert dirs.shape == (dim * dim * s * s, n * n * s, n * n * s)
    assert np.array_equal(dirs, np.round(dirs))
    assert np.array_equal(dirs, dirs.conj().swapaxes(1, 2))
    assert np.all(np.trace(dirs, axis1=1, axis2=2) == 0)
    flat = dirs.reshape(len(dirs), -1)
    # Hermitian matrices are independent over R iff their real coordinates are
    assert np.linalg.matrix_rank(np.hstack([flat.real, flat.imag])) == len(dirs)


def _random_hermitian(rng, d: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(den, re, im) of a random Hermitian Y = (re + i im) / den with small
    integer numerators, as object arrays of Python ints."""
    g = rng.integers(-9, 10, size=(2, d, d))
    den = int(rng.integers(2, 50))
    return den, (g[0] + g[0].T).astype(object), (g[1] - g[1].T).astype(object)


def _exact_from_parts(den, re, im) -> ExactMatrix:
    """Reference converter: the exact matrix (re + i im) / den, entry by entry."""
    return ExactMatrix(
        [
            [GaussianRational(Fraction(a, den), Fraction(b, den)) for a, b in zip(ra, ri)]
            for ra, ri in zip(re.tolist(), im.tolist())
        ]
    )


def _projected(den, re, im, n, s, mode) -> ExactMatrix:
    """The projection (c Y - T) / (c den) of Y = (re + i im) / den."""
    c, t = _correction(re, im, n, s, mode)
    return ExactMatrix.from_parts(c * den, c * re - t[..., 0], c * im - t[..., 1])


@pytest.mark.parametrize(
    "mode, n, s",
    [("weak", n, s) for n, s in [(2, 1), (3, 1), (3, 2)]]
    + [("strong", n, s) for n, s in [(3, 1), (3, 2), (4, 1), (4, 2)]],
)
def test_pairing_rows_match_trace_of_product(mode, n, s):
    """The pairings of a Y on the complement of the variable space are B1
    ... Bm in direction order, each an exact 0, then B0, equal to trace(Y
    B0) from the dense product over Q[i]."""
    rng = np.random.default_rng(5 + 10 * n + s)
    y = _projected(*_random_hermitian(rng, n * n * s), n, s, mode)
    b0 = constant_term(square_from_decomposition(random_exact_decomposition(rng, n, s)), mode)
    got = _pairings(y, n, s, mode, b0)
    dirs = pencil_directions(n, s, mode)
    assert list(got) == [f"B{j + 1}" for j in range(len(dirs))] + ["B0"]
    assert all(got[f"B{j + 1}"] == 0 for j in range(len(dirs)))
    assert got["B0"] == (y @ b0).trace()
    assert _factor(n, mode) is _factor(n, mode)


def test_factor_table_refuses_bad_factors(monkeypatch):
    """A basis of Z or Z_e that is not Gaussian-integer, or not Hermitian,
    is refused before any contraction is read from it."""
    bad = np.array([[[0, 0.5], [0.5, 0]]], dtype=complex)
    monkeypatch.setattr(obstruction, "zero_diagonal_basis", lambda n, doubly_null: bad)
    with pytest.raises(ValueError, match="Gaussian integer"):
        _factor(7, "strong")
    bad[0, 0, 1], bad[0, 1, 0] = 1, -1
    with pytest.raises(ValueError, match="Hermitian"):
        _factor(7, "strong")


def _projection_reference(den, re, im, n, s, mode) -> ExactMatrix:
    """The Frobenius-orthogonal projection of Y = (re + i im) / den onto
    {trace(Y B_j) = 0} by the generic `affine_least_squares`, on Hermitian
    coordinates, with one row per direction built here from
    `pencil_directions`: its coordinates times their Frobenius weights."""
    d = n * n * s
    weights = hermitian_coordinate_weights(d)
    rows = []
    for b in pencil_directions(n, s, mode):
        coords = hermitian_coordinates(_exact_gaussian_integers(b))
        rows.append([w * c for w, c in zip(weights, coords)])
    y = _exact_from_parts(den, re, im)
    zeros = [Fraction(0)] * len(rows)
    coords = affine_least_squares(rows, zeros, hermitian_coordinates(y), weights)
    return hermitian_from_coordinates(d, coords)


@pytest.mark.parametrize(
    "mode, n, s",
    [("weak", n, s) for n, s in [(2, 2), (3, 2), (4, 1)]]
    + [("strong", n, s) for n, s in [(3, 3), (4, 1), (4, 2)]],
)
def test_projection_matches_affine_least_squares(mode, n, s):
    """The projection (c Y - T) / (c den) through the Z factor alone equals
    the generic exact least-squares projection, and its own correction T
    is 0."""
    rng = np.random.default_rng(70 + 10 * n + s)
    den, re, im = _random_hermitian(rng, n * n * s)
    got = _projected(den, re, im, n, s, mode)
    assert got == _projection_reference(den, re, im, n, s, mode)
    assert not _correction(got.re, got.im, n, s, mode)[1].any()


@pytest.mark.parametrize(
    "mode, n, s",
    [("weak", n, s) for n, s in [(2, 1), (2, 2), (3, 2)]]
    + [("strong", n, s) for n, s in [(3, 1), (3, 2), (4, 1), (5, 1)]],
)
def test_correction_vanishes_exactly_on_the_complement(mode, n, s):
    """T = 0 exactly when every dense trace(Y B_j) over the directions of
    `pencil_directions` is 0: T is nonzero on a random Hermitian Y, whose
    pairings are not all 0, and zero on its projection, whose pairings all
    are."""
    rng = np.random.default_rng(90 + 10 * n + s)
    den, re, im = _random_hermitian(rng, n * n * s)
    dirs = pencil_directions(n, s, mode)
    br, bi = (part.astype(np.int64).astype(object) for part in (dirs.real, dirs.imag))

    def dense_pairings(yr, yi):  # trace(Y B_j) times the denominator, for every j
        return [(yr * b_re + yi * b_im).sum() for b_re, b_im in zip(br, bi)]

    assert _correction(re, im, n, s, mode)[1].any()
    assert any(dense_pairings(re, im))
    y = _projected(den, re, im, n, s, mode)
    assert not _correction(y.re, y.im, n, s, mode)[1].any()
    assert not any(dense_pairings(y.re, y.im))


def test_build_rejects_bad_mode(cex):
    with pytest.raises(ValueError):
        build_obstruction(cex, "both")


# -- decisions ---------------------------------------------------------------


def test_identity_permutation_weak_yes():
    sq = permutation_square((0, 1, 2))
    out = check_mconv_obstruction(sq, "weak")
    assert out.verdict == "yes"
    # explicit witness: the off-diagonal part of col col* cancels phi entirely
    col, _ = col_and_diag(sq)
    cc = (col @ col.h).to_complex()
    x = cc - np.diag(np.diag(cc))
    phi = phi_matrix(sq).to_complex()
    assert float(np.abs(phi + x).max()) == 0.0


def test_counterexample_fails_both_modes(cex):
    strong = check_mconv_obstruction(cex, "strong")
    weak = check_mconv_obstruction(cex, "weak")
    assert strong.verdict == "no" and weak.verdict == "no"
    assert strong.y is not None and weak.y is not None
    assert strong.solver.t_star < 0 and weak.solver.t_star < 0


def test_embedded_counterexample_fails(cex):
    out = check_mconv_obstruction(embed_pad(cex), "strong")
    assert out.verdict == "no"


@pytest.mark.xfail(
    strict=True,
    reason="known numerical exception: the weak primal stops at lambda_min -7.7e-4, "
    "but the polished dual pairs +2.8e-3 with B0, so the verdict is inconclusive",
)
def test_embedded_counterexample_weak_agrees_with_strong(cex):
    out = check_mconv_obstruction(embed_pad(cex).to_float(), "weak")
    assert out.verdict == "no"


@pytest.fixture(scope="module")
def headline_segment(cex):
    """A(t) = (1 - t) constant_square(3, 2) + t counterexample_m2_3(),
    built block by block over Q[i]: the segment from the center of the
    semiclassical squares to the separating example."""
    center = constant_square(3, 2)

    def square(t: Fraction) -> MagicSquare:
        return MagicSquare(
            [[(1 - t) * center.block(i, j) + t * cex.block(i, j) for j in range(3)] for i in range(3)]
        )

    return square


@pytest.mark.parametrize(
    "t, lmi, strong, weak",
    [
        (Fraction(9953, 10000), "yes", "yes", "yes"),
        (Fraction(1991, 2000), "inconclusive", "no", "inconclusive"),
        (Fraction(1593, 1600), "inconclusive", "no", "inconclusive"),
        (Fraction(4979, 5000), "no", "no", "inconclusive"),
    ],
)
def test_headline_segment_verdicts_as_of_today(headline_segment, t, lmi, strong, weak):
    """A baseline, not a target: the verdicts the LMI and both pencils give
    today on four squares of the segment near its end, gaps included.  The
    LMI's "inconclusive" and the weak pencil's "inconclusive" where strong
    mode certifies "no" are the numerical gaps that better dual handling,
    a weak-mode certificate path and an exact decision along the segment
    (ROADMAP items 6, 7, 9 and 11) are meant to close; such a change moves
    this table on purpose.  Every strong "no" carries an exact certificate
    from `certify_with_ladder` that `verify_certificate` accepts."""
    a = headline_segment(t)
    assert check_semiclassical(a).verdict == lmi
    out = check_mconv_obstruction(a, "strong")
    assert out.verdict == strong
    assert check_mconv_obstruction(a, "weak").verdict == weak
    if strong == "no":
        cert = certify_with_ladder(find_dual_certificate(out.problem).y, out.problem)
        assert verify_certificate(cert, a)["ok"]


def test_building_the_pencil_holds_no_throwaway_stack(cex):
    """The traced peak of building the strong n = 4 pencil stays within
    2.6 times its direction stack: the directions clear their negative
    zeros in place and the Hermitian part is formed in one buffer."""
    square = embed_pad(cex).to_float()
    tracemalloc.start()
    try:
        problem = build_obstruction(square, "strong")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * problem.pencil.directions.nbytes


def test_compression_identity_on_random_directions(cex):
    rng = np.random.default_rng(7)
    big = embed_pad(cex)
    s = cex.s
    v = np.zeros((4, 3))
    v[:3, :3] = np.eye(3)
    w = np.kron(np.kron(v, v), np.eye(s))
    phi_small = phi_matrix(cex).to_complex()
    phi_big = phi_matrix(big).to_complex()
    dirs = pencil_directions(4, 2, "weak")
    for _ in range(20):
        coef = rng.standard_normal(len(dirs))
        xp = sum(c * d for c, d in zip(coef, dirs))
        lhs = w.conj().T @ (phi_big + xp) @ w
        rhs = phi_small + w.conj().T @ xp @ w
        assert float(np.abs(lhs - rhs).max()) <= 1e-9


def test_members_pass_with_reconstructed_witness():
    rng = np.random.default_rng(23)
    for trial in range(8):
        s = 1 + trial % 2
        sq = random_member_square(rng, 3, s, 4 + s)
        out = check_mconv_obstruction(sq, "strong")
        assert out.verdict == "yes"
        assert out.x is not None
        pencil = out.problem.pencil
        lam = float(np.linalg.eigvalsh(pencil.f0 + out.x).min())
        assert lam >= -1e-6


def test_member_witness_from_dilation_relations():
    sq = constant_square(3, 2)
    dil = synthesize_commuting_dilation(interior_map_decomposition(sq))
    witness = member_witness_from_dilation(dil)
    flo = sq.to_float()
    n, s = 3, 2
    for (i, j), b in witness.blocks.items():
        aij = np.asarray(flo.block(i, j))
        resid = float(np.abs(b.conj().T @ b - (aij - aij @ aij)).max())
        assert resid <= 1e-10
    phi = phi_matrix(flo)
    assert float(np.linalg.eigvalsh(phi + witness.x).min()) >= -1e-10
    # the witness lives on slots with both indices off-diagonal
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if i == k or j == l:
                        blk = witness.x[
                            (i * n + j) * s : (i * n + j + 1) * s,
                            (k * n + l) * s : (k * n + l + 1) * s,
                        ]
                        assert float(np.abs(blk).max()) <= 1e-10


def test_mode_equivalence_on_mixed_instances(cex):
    rng = np.random.default_rng(41)
    instances = [constant_square(3, 1), constant_square(3, 2), cex]
    for lam in (Fraction(1, 4), Fraction(9, 10)):
        mixed = [
            [
                lam * cex.block(i, j)
                + (1 - lam) * constant_square(3, 2).block(i, j)
                for j in range(3)
            ]
            for i in range(3)
        ]
        instances.append(MagicSquare(mixed))
    for sq in instances:
        verdicts = {
            mode: check_mconv_obstruction(sq, mode).verdict
            for mode in ("weak", "strong")
        }
        assert verdicts["weak"] == verdicts["strong"], verdicts


# -- the exact counterexample ------------------------------------------------


def test_counterexample_validates_exactly(cex):
    assert cex.exact and (cex.n, cex.s) == (3, 2)
    report = validate_magic(cex.blocks)
    assert report.ok
    for i in range(3):
        for j in range(3):
            assert psd_check_exact(cex.block(i, j)).is_psd
    eye = ExactMatrix.identity(2)
    for i in range(3):
        row = cex.block(i, 0) + cex.block(i, 1) + cex.block(i, 2)
        col = cex.block(0, i) + cex.block(1, i) + cex.block(2, i)
        assert row == eye and col == eye


def test_counterexample_corner_entries(cex):
    a11 = cex.block(0, 0)
    assert a11[0, 0].re == Fraction(1, 3) + Fraction(9, 62) * Fraction(-34, 93)
    assert a11[0, 1].re == Fraction(9, 62) * Fraction(4, 5)
    assert a11[0, 1].im == Fraction(9, 62) * Fraction(2, 13)
    a22 = cex.block(1, 1)
    assert a22[1, 1].re == Fraction(1, 3) - Fraction(9, 62) * Fraction(5, 8)


# -- dual certificates -------------------------------------------------------


@pytest.fixture(scope="module")
def witness(strong_problem):
    return find_dual_certificate(strong_problem)


def test_find_dual_certificate_quality(witness):
    assert witness.trace_b0 <= -1e-4
    assert witness.pairing_max <= 1e-7
    assert witness.min_eigenvalue >= 0
    assert abs(float(np.real(np.trace(witness.y))) - 1) <= 1e-9


def test_find_dual_certificate_feasible_raises():
    with pytest.raises(CertificateNotFound):
        find_dual_certificate(build_obstruction(constant_square(3, 2), "strong"))
    with pytest.raises(CertificateNotFound):
        find_dual_certificate(
            build_obstruction(permutation_square((0, 1, 2)), "strong")
        )


def test_find_dual_certificate_reuses_the_deciding_solve(cex, monkeypatch):
    """A pencil is solved once per eps: after check_mconv_obstruction,
    find_dual_certificate takes no Newton step and blends the same dual,
    while another eps or a freshly built pencil of the square solves again,
    to the same bits."""
    res = check_mconv_obstruction(cex, "strong")
    assert solve_feasibility(res.problem.pencil) is res.solver
    solves = []
    newton = sdp._solve

    def counted(problem, eps):
        solves.append(eps)
        return newton(problem, eps)

    monkeypatch.setattr(sdp, "_solve", counted)
    witness = find_dual_certificate(res.problem)
    assert solves == []
    assert witness.y.tobytes() == blend_dual(res.problem, res.solver).y.tobytes()
    assert solve_feasibility(res.problem.pencil, 2 * DEFAULT_EPS) is not res.solver
    assert solves == [2 * DEFAULT_EPS]
    again = solve_feasibility(build_obstruction(cex, "strong").pencil)
    assert solves == [2 * DEFAULT_EPS, DEFAULT_EPS]
    assert again is not res.solver and again.y.tobytes() == res.solver.y.tobytes()


def test_find_dual_certificate_rejects_weak(cex):
    with pytest.raises(ValueError):
        find_dual_certificate(build_obstruction(cex, "weak"))


@pytest.fixture(scope="module")
def cert(strong_problem, witness):
    return certify_with_ladder(witness.y, strong_problem)


def test_exact_certify_roundtrip(cex, cert):
    assert cert.mode == "strong" and (cert.n, cert.s) == (3, 2)
    assert cert.pairings["B0"] < 0
    for label in ("B1", "B2", "B3", "B4"):
        assert cert.pairings[label] == 0
    report = verify_certificate(cert, cex)
    assert report["ok"]
    assert report["trace_b0"] == cert.pairings["B0"]


def test_certify_fixed_denominator(strong_problem, witness):
    direct = exact_certify(witness.y, strong_problem, 10**6)
    assert direct.pairings["B0"] < 0
    assert psd_check_exact(direct.y_exact).is_psd


def test_failing_rung_margin_matches_reference(strong_problem, witness, monkeypatch):
    """The 10^3 rung fails on PSD with the margin the reference LDL* finds
    on that rung's projected Y."""
    checked = []

    def recorded(y):
        checked.append(y)
        return psd_check_exact(y)

    monkeypatch.setattr(obstruction, "psd_check_exact", recorded)
    with pytest.raises(CertificationFailed) as err:
        exact_certify(witness.y, strong_problem, 10**3)
    assert err.value.condition == "psd"
    (y,) = checked
    assert err.value.margin == reference_ldl(y).witness_value


def test_ladder_refutes_non_final_rungs_without_elimination(strong_problem, witness, monkeypatch):
    """The failing 10^3 rung is refuted by a rounded eigenvector and the
    10^6 rung is proven by congruence: no exact elimination runs, and the
    certificate is the shipped one."""
    calls, eliminate = [], exact._schur_psd_check

    def counted(den, re, im):
        calls.append((den, re, im))
        return eliminate(den, re, im)

    monkeypatch.setattr(exact, "_schur_psd_check", counted)
    cert = certify_with_ladder(witness.y, strong_problem)
    assert calls == []
    shipped = Path(__file__).parent / "data" / "counterexample.cert.json"
    assert cert == certificate_from_json(json.loads(shipped.read_text()))[0]


def _recording_psd_checks(monkeypatch) -> list:
    checked = []

    def recorded(y):
        checked.append(y)
        return psd_check_exact(y)

    monkeypatch.setattr(obstruction, "psd_check_exact", recorded)
    return checked


def test_one_rung_ladder_keeps_elimination_margin(strong_problem, witness, monkeypatch):
    """A lone rung is the final one: its margin is the exact elimination's."""
    checked = _recording_psd_checks(monkeypatch)
    with pytest.raises(CertificationFailed) as err:
        certify_with_ladder(witness.y, strong_problem, (10**3,))
    assert err.value.condition == "psd"
    (y,) = checked
    assert err.value.margin == reference_ldl(y).witness_value


# sha256 of the failure margin that `find-certificate --max-denominator 1000`
# reports on the counterexample, as the exact elimination reads it off
CEX_RUNG_1000_MARGIN_SHA256 = "3cc812de2656ebf61f25de6a00d01eb5becff30deb4b59d79f9f7c848a93a8a6"


def test_find_certificate_failure_margin_is_the_elimination_margin(
    cex, tmp_path, capsys, monkeypatch
):
    path = tmp_path / "counterexample.json"
    dump_square(cex, path)
    checked = _recording_psd_checks(monkeypatch)
    code = main(["find-certificate", str(path), "--max-denominator", "1000"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    (y,) = checked
    margin = str(reference_ldl(y).witness_value)
    assert report["details"]["failure"] == {"condition": "psd", "margin": margin}
    assert hashlib.sha256(margin.encode()).hexdigest() == CEX_RUNG_1000_MARGIN_SHA256


# sha256 of the certificates and `verify_certificate` reports of the four
# squares of the benchmark's `certify` workload at seed 1, each certified
# from the blended dual of its deciding solve, as `obstruction-check` does
CERTIFY_SEED_1_SHA256 = "21eb5387c5b256023bce6ca7afba127a15760b73a01127b49747d84267a8c575"


def _workloads(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads


def test_certify_workload_answers_are_pinned(monkeypatch):
    docs = []
    for case in _workloads(monkeypatch).certify_cases(1):
        res = check_mconv_obstruction(case.square, mode="strong")
        cert = certify_with_ladder(blend_dual(res.problem, res.solver).y, res.problem)
        report = verify_certificate(cert, case.square)
        docs.append(
            {
                "certificate": certificate_to_json(cert),
                "report": {
                    k: rational_to_json(v) if isinstance(v, Fraction) else v
                    for k, v in report.items()
                },
            }
        )
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == CERTIFY_SEED_1_SHA256


def test_certify_duals_round_as_fractions_entry_by_entry(monkeypatch):
    """`exact_certify` rounds the duals of the `certify` squares of seeds
    0-5, at every rung of the ladder and at 10^12, to exactly the
    per-entry `Fraction.limit_denominator` over their least common
    denominator."""
    workloads = _workloads(monkeypatch)
    for seed in range(6):
        for case in workloads.certify_cases(seed):
            res = check_mconv_obstruction(case.square, mode="strong")
            y = blend_dual(res.problem, res.solver).y
            parts = np.stack([y.real, y.imag]).ravel().tolist()
            for bound in (*DENOMINATOR_LADDER, 10**12):
                want = [Fraction(x).limit_denominator(bound) for x in parts]
                den = math.lcm(*(q.denominator for q in want))
                got_den, re, im = exact._rationalized_parts(y, bound)
                assert got_den == den
                assert [*re.ravel().tolist(), *im.ravel().tolist()] == [
                    q.numerator * (den // q.denominator) for q in want
                ]


# sha256 of the answers to the LMI squares of the benchmark's `membership`
# workload at seed 1: verdict, exactly repaired weights, Newton steps and
# repair rung of each `check_semiclassical`
MEMBERSHIP_SEED_1_SHA256 = "ed20e85289ee3aaaa8746cfb7c7f537c928e759d580fe937fc3d30fcfaf401da"


def test_membership_workload_answers_are_pinned(monkeypatch):
    docs = []
    for case in _workloads(monkeypatch).membership_cases(1):
        if case.task != "lmi":
            continue
        res = check_semiclassical(case.square)
        docs.append(
            {
                "verdict": res.verdict,
                "weights": res.decomposition and decomposition_to_json(res.decomposition),
                "iterations": res.residuals["iterations"],
                "repair_denominator": res.residuals.get("repair_denominator"),
            }
        )
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == MEMBERSHIP_SEED_1_SHA256


def test_find_certificate_reports_a_margin_past_the_digit_limit(
    cex, tmp_path, capsys, monkeypatch
):
    """A margin too long for one int-to-str conversion is still reported in
    full, with exit 2 and a JSON report."""

    def failing(*args, **kwargs):
        raise CertificationFailed("psd", Fraction(-(10**4400), 3))

    monkeypatch.setattr(cli, "certify_with_ladder", failing)
    path = tmp_path / "counterexample.json"
    dump_square(cex, path)
    code = main(["find-certificate", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["details"]["failure"] == {"condition": "psd", "margin": "-1" + "0" * 4400 + "/3"}


def test_padded_counterexample_certifies_exactly(cex):
    """At n=4, where Z_e has dimension 5 and a swapped axis in the factor
    contractions would show, the padded counterexample gets an exact
    certificate that re-verifies, with every direction pairing zero; no
    generic projection operator is built on the way."""
    a = embed_pad(cex)
    res = check_mconv_obstruction(a, "strong")
    assert res.verdict == "no"
    witness = blend_dual(res.problem, res.solver)
    _projection_operator.cache_clear()
    cert = certify_with_ladder(witness.y, res.problem)
    report = verify_certificate(cert, a)
    assert report["ok"]
    assert len(cert.pairings) == len(res.problem.pencil.directions) + 1
    assert all(p == 0 for label, p in cert.pairings.items() if label != "B0")
    assert report["trace_b0"] == cert.pairings["B0"] < 0
    info = _projection_operator.cache_info()
    assert info.hits == info.misses == 0


def test_exact_certify_diagnoses_nonnegative_pairing(strong_problem):
    with pytest.raises(CertificationFailed) as err:
        exact_certify(np.eye(18) / 18, strong_problem, 1000)
    assert err.value.condition == "negativity"
    assert err.value.margin >= 0


def test_exact_certify_diagnoses_indefinite(strong_problem):
    bad = np.eye(18)
    bad[0, 0] = -0.1
    with pytest.raises(CertificationFailed) as err:
        exact_certify(bad, strong_problem, 1000)
    assert err.value.condition == "psd"
    assert err.value.margin < 0


def test_exact_certify_needs_exact_square(cex, witness):
    problem = build_obstruction(cex.to_float(), "strong")
    with pytest.raises(ValueError):
        exact_certify(witness.y, problem, 1000)


def test_verify_certificate_rejects_tampering(cex, cert):
    tampered = type(cert)(
        n=cert.n,
        s=cert.s,
        mode=cert.mode,
        y_exact=cert.y_exact,
        pairings={**cert.pairings, "B1": Fraction(1, 7)},
    )
    assert not verify_certificate(tampered, cex)["ok"]
    # a certificate for one square does not verify against another
    assert not verify_certificate(cert, constant_square(3, 2))["ok"]


def test_verify_certificate_refuses_y_off_the_complement(cex):
    """The shipped certificate with a small exact multiple of one direction
    added to Y, its stored pairings untouched, stays PSD with trace(Y B0)
    < 0 but is refused: Y no longer pairs to zero with every direction."""
    shipped = Path(__file__).parent / "data" / "counterexample.cert.json"
    cert = certificate_from_json(json.loads(shipped.read_text()))[0]
    b = _exact_gaussian_integers(pencil_directions(cert.n, cert.s, cert.mode)[0])
    moved = ObstructionCertificate(
        cert.n, cert.s, cert.mode, cert.y_exact + Fraction(1, 10**9) * b, cert.pairings
    )
    report = verify_certificate(moved, cex)
    assert report["psd"] and report["trace_b0"] < 0
    assert report["pairings_zero"] is False and report["ok"] is False
    assert verify_certificate(cert, cex)["ok"]


@pytest.mark.parametrize("size", [16, 20])
def test_verify_certificate_refuses_misshapen_y(cex, size):
    """Pairings are read position by position, so Y must be n^2 s x n^2 s."""
    y = ExactMatrix.identity(size)
    for mode in ("weak", "strong"):
        with pytest.raises(ValueError, match="shape"):
            verify_certificate(ObstructionCertificate(3, 2, mode, y), cex)
