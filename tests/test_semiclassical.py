"""Membership LMI, interior decompositions, and commuting dilations."""

from fractions import Fraction

import numpy as np
import pytest

from qmagic.exact import (
    ExactMatrix,
    GaussianRational,
    _projection_operator,
    affine_least_squares,
    exact_from_float_matrix,
    hermitian_coordinate_weights,
    hermitian_coordinates,
    hermitian_from_coordinates,
    psd_check_exact,
)
from qmagic.obstruction import counterexample_m2_3
from qmagic.sampling import (
    perturbed_constant_decomposition,
    random_exact_decomposition,
    random_member_square,
    square_from_decomposition,
)
from qmagic.sdp import Status, solve_feasibility
from qmagic.semiclassical import (
    REPAIR_DENOMINATORS,
    BoundViolated,
    SemiclassicalDecomposition,
    TooLarge,
    _exact_repair,
    build_semiclassical_lmi,
    check_semiclassical,
    interior_map_decomposition,
    synthesize_commuting_dilation,
    verify_positive_unital_map,
)
from qmagic.structures import (
    MagicSquare,
    compress,
    constant_square,
    permutations_lex,
    validate_magic,
    validate_quantum_permutation,
)


def scalar_square(entries) -> MagicSquare:
    return MagicSquare([[ExactMatrix([[x]]) for x in row] for row in entries])


def exact_dec(n, s, weights) -> SemiclassicalDecomposition:
    return SemiclassicalDecomposition(n, s, True, weights)


# -- pencil shape ------------------------------------------------------------


def test_lmi_dimensions_n3_s2():
    p = build_semiclassical_lmi(constant_square(3, 2))
    assert p.dim == 6 * 2 == 12  # n! s
    assert len(p.directions) == (6 - (3 - 1) ** 2 - 1) * 2**2 == 4


def test_lmi_dimensions_n2_s1():
    sq = scalar_square([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])
    p = build_semiclassical_lmi(sq)
    assert p.dim == 2
    assert len(p.directions) == 0  # the weights are determined for n <= 2


def test_lmi_guard():
    with pytest.raises(TooLarge):
        build_semiclassical_lmi(constant_square(6, 1))


def test_lmi_constant_square_is_strictly_feasible():
    # the weights of the constant square are q_pi = I/n!, an interior point
    p = build_semiclassical_lmi(constant_square(3, 1))
    assert np.allclose(p.f0, np.eye(6) / 6, rtol=0, atol=1e-12)
    res = solve_feasibility(p)
    assert res.status is Status.FEASIBLE
    assert res.t_star == pytest.approx(1 / 6, abs=1e-9)


def _member(rng, n: int, s: int) -> MagicSquare:
    """A random exact semiclassical square; the only one for n = 1."""
    if n == 1:
        return constant_square(1, s)
    return square_from_decomposition(random_exact_decomposition(rng, n, s))


def _diagonal_blocks(m: np.ndarray, count: int) -> np.ndarray:
    s = m.shape[0] // count
    return np.einsum("papb->pab", m.reshape(count, s, count, s))


PENCIL_SHAPES = [(n, s) for n in range(1, 5) for s in range(1, 4) if (n, s) != (4, 3)]


@pytest.mark.parametrize("n,s", PENCIL_SHAPES)
def test_lmi_pencil_structure(n, s):
    rng = np.random.default_rng(10 * n + s)
    sq = _member(rng, n, s)
    p = build_semiclassical_lmi(sq)
    perms = permutations_lex(n)
    nf = len(perms)
    assert p.dim == nf * s
    assert len(p.directions) == (nf - (n - 1) ** 2 - 1) * s * s
    # every matrix of the pencil is block diagonal with one s x s block per pi
    for m in [p.f0, *p.directions]:
        off = m.reshape(nf, s, nf, s).copy()
        off[np.arange(nf), :, np.arange(nf), :] = 0
        assert not off.any()
    q0 = _diagonal_blocks(p.f0, nf)
    flo = sq.to_float()
    for i in range(n):
        for j in range(n):
            hits = [k for k, sigma in enumerate(perms) if sigma[i] == j]
            assert np.abs(q0[hits].sum(axis=0) - flo.block(i, j)).max() <= 1e-12
            for d in p.directions:
                assert np.abs(_diagonal_blocks(d, nf)[hits].sum(axis=0)).max() <= 1e-12


def _rank_one(v) -> ExactMatrix:
    return ExactMatrix([[x * y for y in v] for x in v])


def _boundary_squares():
    """Exact members whose weights are rank one and sit on 2 or 3 permutations."""
    p = _rank_one([Fraction(3, 5), Fraction(4, 5)])
    q = _rank_one([Fraction(-4, 5), Fraction(3, 5)])
    out = []
    for n in (3, 4):
        perms = permutations_lex(n)
        half = q * Fraction(1, 2)
        for weights in (
            {perms[0]: p, perms[-1]: q},
            {perms[0]: p, perms[1]: half, perms[-1]: half},
        ):
            full = {sigma: weights.get(sigma, ExactMatrix.zeros(2)) for sigma in perms}
            out.append(square_from_decomposition(full))
    return out


@pytest.mark.parametrize(
    "sq",
    [
        pytest.param(_member(np.random.default_rng(20 * n + s), n, s), id=f"random-{n}-{s}")
        for n, s in PENCIL_SHAPES
    ]
    + [pytest.param(sq, id=f"boundary-{k}") for k, sq in enumerate(_boundary_squares())],
)
def test_lmi_members_get_exact_weights(sq):
    out = check_semiclassical(sq)
    assert out.verdict == "yes"
    dec = out.decomposition
    assert dec.exact
    assert all(psd_check_exact(q).is_psd for q in dec.weights.values())
    assert dec.reconstruct() == sq


def _orbit(a: MagicSquare, rows, cols, u: ExactMatrix) -> MagicSquare:
    """Rows and columns permuted and every block conjugated by the unitary u."""
    return MagicSquare([[u.h @ a.block(r, c) @ u for c in cols] for r in rows])


ROTATION = ExactMatrix([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
PHASE = ExactMatrix([[GaussianRational(0, 1), 0], [0, 1]])


@pytest.mark.parametrize(
    "rows,cols,u",
    [
        ((0, 1, 2), (0, 1, 2), ExactMatrix.identity(2)),
        ((2, 0, 1), (1, 0, 2), ROTATION),
        ((1, 2, 0), (0, 2, 1), PHASE),
        ((0, 2, 1), (2, 1, 0), ROTATION @ PHASE),
    ],
)
def test_lmi_counterexample_orbit_is_refused(rows, cols, u):
    sq = _orbit(counterexample_m2_3(), rows, cols, u)
    out = check_semiclassical(sq)
    assert out.verdict == "no"
    assert out.dual is not None and out.dual.status is Status.INFEASIBLE
    assert out.dual.y is not None and out.dual.t_star < 0


# -- membership decisions ----------------------------------------------------


def test_constant_square_is_semiclassical_exactly():
    sq = constant_square(3, 2)
    out = check_semiclassical(sq)
    assert out.verdict == "yes"
    dec = out.decomposition
    assert dec.exact
    assert dec.reconstruct() == sq
    total = ExactMatrix.zeros(2)
    for q in dec.weights.values():
        assert psd_check_exact(q).is_psd
        total = total + q
    assert total == ExactMatrix.identity(2)


def test_random_exact_decompositions_verify():
    rng = np.random.default_rng(11)
    for n, s in [(2, 2), (3, 1), (3, 2)]:
        weights = random_exact_decomposition(rng, n, s)
        sq = square_from_decomposition(weights)
        out = check_semiclassical(sq)
        assert out.verdict == "yes"
        assert out.decomposition.exact
        assert out.decomposition.reconstruct() == sq


def test_counterexample_not_semiclassical():
    out = check_semiclassical(counterexample_m2_3())
    assert out.verdict == "no"
    assert out.dual is not None
    assert out.dual.status is Status.INFEASIBLE
    assert out.dual.t_star < 0


def test_float_member_square_accepted():
    rng = np.random.default_rng(3)
    sq = random_member_square(rng, 3, 2, 6)
    assert not sq.exact
    out = check_semiclassical(sq)
    assert out.verdict == "yes"
    report = verify_positive_unital_map(out.decomposition, sq, tol=1e-5)
    assert report.ok


# -- exact repair ------------------------------------------------------------


def _block_system_repair(a: MagicSquare, weights: dict, max_denominator: int) -> dict:
    """Reference repair: one Frobenius-weighted projection of all n! s^2
    coordinates onto the full block system {sum q = I, sum_pi P_pi (x) q_pi
    = A}, identity block included.  No PSD check."""
    n, s = a.n, a.s
    perms = permutations_lex(n)
    s2 = s * s
    x0 = []
    for sigma in perms:
        q = exact_from_float_matrix(weights[sigma], max_denominator)
        x0.extend(hermitian_coordinates((q + q.h) * Fraction(1, 2)))
    nvars = len(perms) * s2
    rows, rhs = [], []
    ident_coords = hermitian_coordinates(ExactMatrix.identity(s))
    for c in range(s2):
        row = [Fraction(0)] * nvars
        for k in range(len(perms)):
            row[k * s2 + c] = Fraction(1)
        rows.append(row)
        rhs.append(ident_coords[c])
    for i in range(n):
        for j in range(n):
            target = hermitian_coordinates(a.block(i, j))
            for c in range(s2):
                row = [Fraction(0)] * nvars
                for k, sigma in enumerate(perms):
                    if sigma[i] == j:
                        row[k * s2 + c] = Fraction(1)
                rows.append(row)
                rhs.append(target[c])
    w = hermitian_coordinate_weights(s) * len(perms)
    x = affine_least_squares(rows, rhs, x0, weights=w)
    return {
        sigma: hermitian_from_coordinates(s, x[k * s2 : (k + 1) * s2])
        for k, sigma in enumerate(perms)
    }


def _noisy_float_weights(rng, weights: dict) -> dict:
    """Float copies of exact weights with a small Hermitian perturbation, so
    that no rung rationalizes them back onto the affine set."""
    out = {}
    for sigma, q in weights.items():
        s = q.rows
        noise = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        out[sigma] = q.to_complex() + 1e-6 * (noise + noise.conj().T)
    return out


@pytest.mark.parametrize("n,s", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_exact_repair_matches_block_system_projection(n, s):
    rng = np.random.default_rng(100 * n + s)
    q = random_exact_decomposition(rng, n, s)
    sq = square_from_decomposition(q)
    weights = _noisy_float_weights(rng, q)
    for den in REPAIR_DENOMINATORS:
        reference = _block_system_repair(sq, weights, den)
        repaired = _exact_repair(sq, weights, den)
        if repaired is None:
            assert not all(psd_check_exact(q).is_psd for q in reference.values())
            continue
        assert repaired == reference
        dec = exact_dec(n, s, repaired)
        assert dec.reconstruct() == sq
        total = sum(repaired.values(), ExactMatrix.zeros(s))
        assert total == ExactMatrix.identity(s)
    assert repaired is not None


def test_exact_repair_builds_one_operator_per_system():
    rng = np.random.default_rng(5)
    q = random_exact_decomposition(rng, 3, 2)
    sq = square_from_decomposition(q)
    weights = _noisy_float_weights(rng, q)
    _projection_operator.cache_clear()
    for den in REPAIR_DENOMINATORS:
        assert _exact_repair(sq, weights, den) is not None
    info = _projection_operator.cache_info()
    # one incidence system for n = 3, projected once per coordinate and rung
    assert info.misses == 1
    assert info.hits == len(REPAIR_DENOMINATORS) * 2 * 2 - 1


# -- interior decomposition formula ------------------------------------------


def test_interior_constant_square_uniform_weights():
    dec = interior_map_decomposition(constant_square(3, 2))
    expected = Fraction(1, 6) * ExactMatrix.identity(2)
    assert set(dec.weights) == set(permutations_lex(3))
    for q in dec.weights.values():
        assert q == expected
    assert dec.reconstruct() == constant_square(3, 2)


def test_interior_circulant_oracle():
    c = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    sq = scalar_square([[c[(j - i) % 3] for j in range(3)] for i in range(3)])
    dec = interior_map_decomposition(sq)
    expected = {
        (0, 1, 2): Fraction(1, 3),
        (0, 2, 1): Fraction(1, 6),
        (1, 0, 2): Fraction(1, 6),
        (2, 1, 0): Fraction(1, 6),
        (1, 2, 0): Fraction(1, 12),
        (2, 0, 1): Fraction(1, 12),
    }
    for sigma, val in expected.items():
        assert dec.weights[sigma] == ExactMatrix([[val]])
    assert dec.reconstruct() == sq


def test_interior_small_sides():
    one = scalar_square([[Fraction(1)]])
    dec1 = interior_map_decomposition(one)
    assert dec1.weights[(0,)] == ExactMatrix.identity(1)

    sq = scalar_square([[Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(1, 3)]])
    dec2 = interior_map_decomposition(sq)
    assert dec2.weights[(0, 1)] == ExactMatrix([[Fraction(1, 3)]])
    assert dec2.weights[(1, 0)] == ExactMatrix([[Fraction(2, 3)]])
    assert dec2.reconstruct() == sq


def test_interior_bound_violations_reported():
    with pytest.raises(BoundViolated) as err:
        interior_map_decomposition(counterexample_m2_3())
    offenders = {sigma for sigma, _ in err.value.violations}
    assert offenders == {(0, 2, 1), (2, 0, 1)}


# -- dilation synthesis ------------------------------------------------------


def test_dilation_roundtrip_exact_decomposition():
    rng = np.random.default_rng(5)
    weights = random_exact_decomposition(rng, 3, 2)
    sq = square_from_decomposition(weights)
    dil = synthesize_commuting_dilation(exact_dec(3, 2, weights))
    assert validate_quantum_permutation(dil.u).ok
    back = compress(dil.u, dil.v)
    target = sq.to_float()
    resid = max(
        float(np.abs(np.asarray(back.block(i, j)) - np.asarray(target.block(i, j))).max())
        for i in range(3)
        for j in range(3)
    )
    assert resid <= 1e-10
    assert back == dil.compressed()


def test_dilation_entries_commute():
    dec = interior_map_decomposition(constant_square(3, 1))
    dil = synthesize_commuting_dilation(dec)
    mats = [np.asarray(dil.u.block(i, j)) for i in range(3) for j in range(3)]
    worst = max(
        float(np.abs(a @ b - b @ a).max()) for a in mats for b in mats
    )
    assert worst == 0.0


# -- one code path for both representations ----------------------------------


def _close(exact_block, float_block) -> bool:
    return float(np.abs(exact_block.to_complex() - float_block).max()) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_exact_and_float_copies_agree(n, s):
    """The float copy of an exact member gets the same answers, within 1e-12."""
    rng = np.random.default_rng(10 * n + s)
    weights = random_exact_decomposition(rng, n, s)
    sq = square_from_decomposition(weights)
    flo = sq.to_float()

    assert validate_magic(sq.blocks).ok and validate_magic(flo.blocks).ok
    bad = [list(row) for row in sq.blocks]
    bad[0][0] = bad[0][0] * 2
    fbad = [[b.to_complex() for b in row] for row in bad]
    exact_bad, float_bad = validate_magic(bad), validate_magic(fbad)
    assert [(v.kind, v.location) for v in exact_bad.violations] == [
        (v.kind, v.location) for v in float_bad.violations
    ]

    dec = exact_dec(n, s, weights)
    fdec = SemiclassicalDecomposition(n, s, False, {k: q.to_complex() for k, q in weights.items()})
    for row, frow in zip(dec.blocks(), fdec.blocks()):
        assert all(_close(b, fb) for b, fb in zip(row, frow))

    exact_map, float_map = verify_positive_unital_map(dec, sq), verify_positive_unital_map(fdec, flo)
    assert exact_map.ok and float_map.ok
    assert [p[:2] for p in exact_map.positivity] == [p[:2] for p in float_map.positivity]
    assert exact_map.unitality_residual == 0 and float_map.unitality_residual <= 1e-12
    assert all(r == 0 for r in exact_map.generator_residuals.values())
    assert all(r <= 1e-12 for r in float_map.generator_residuals.values())

    # random members mostly violate the interior bound; near-constant ones meet it
    near_constant = square_from_decomposition(perturbed_constant_decomposition(rng, n, s))
    for a in (sq, near_constant):
        try:
            interior = interior_map_decomposition(a)
        except BoundViolated as err:
            with pytest.raises(BoundViolated) as float_err:
                interior_map_decomposition(a.to_float())
            assert [p for p, _ in err.violations] == [p for p, _ in float_err.value.violations]
        else:
            float_interior = interior_map_decomposition(a.to_float())
            assert list(interior.weights) == list(float_interior.weights)
            assert all(_close(q, float_interior.weights[p]) for p, q in interior.weights.items())


# -- the finite map conditions -----------------------------------------------


def test_verify_map_accepts_valid_decomposition():
    dec = interior_map_decomposition(constant_square(3, 2))
    report = verify_positive_unital_map(dec, constant_square(3, 2))
    assert report.ok
    assert report.unitality_residual == 0
    assert all(r == 0 for r in report.generator_residuals.values())


def test_verify_map_flags_negated_weight():
    dec = interior_map_decomposition(constant_square(3, 2))
    weights = dict(dec.weights)
    sigma = next(iter(weights))
    weights[sigma] = -weights[sigma]
    broken = exact_dec(3, 2, weights)
    report = verify_positive_unital_map(broken, constant_square(3, 2))
    assert not report.ok
    flagged = {p[0] for p in report.positivity if not p[1]}
    assert sigma in flagged


def test_verify_map_flags_broken_unitality():
    dec = interior_map_decomposition(constant_square(3, 2))
    weights = dict(dec.weights)
    sigma = next(iter(weights))
    weights[sigma] = weights[sigma] * 2
    broken = exact_dec(3, 2, weights)
    report = verify_positive_unital_map(broken, constant_square(3, 2))
    assert not report.ok
    assert report.unitality_residual > 0
