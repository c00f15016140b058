"""Tests for dilation splitting and the one-step extension construction."""

import re

import numpy as np
import pytest

from qmagic.exact import ExactMatrix
from qmagic.extremality import (
    DegenerateTopLeft,
    DilationTriple,
    InvariantViolated,
    RelationViolated,
    _sum_kernel_projector,
    arveson_split_check,
    extend_dilation_step,
    make_projector_dilation,
    member_witness_from_dilation,
    split_decompose,
    validate_triple,
)
from qmagic.obstruction import phi_matrix
from qmagic.sampling import (
    random_commuting_qpm,
    random_exact_decomposition,
    random_unitary,
    square_from_decomposition,
)
from qmagic.semiclassical import SemiclassicalDecomposition, synthesize_commuting_dilation
from qmagic.structures import MagicSquare, compress, direct_sum


def semiclassical_pair(rng, seed_square=None):
    """A semiclassical square together with a witness X built from its
    commuting dilation."""
    weights = seed_square if seed_square is not None else random_exact_decomposition(rng, 3, 2)
    square = square_from_decomposition(weights)
    dec = SemiclassicalDecomposition(3, 2, True, weights)
    witness = member_witness_from_dilation(synthesize_commuting_dilation(dec))
    return square, witness.x


# -- split_decompose ----------------------------------------------------------


def test_split_direct_construction():
    rng = np.random.default_rng(0)
    u = np.diag([1.0, 0.0]).astype(complex)
    g = random_unitary(rng, 3)
    p = g @ np.diag([0.3, 0.6, 1.0]) @ g.conj().T
    w = np.zeros((5, 5), dtype=complex)
    w[:2, :2] = u
    w[2:, 2:] = p
    v = np.vstack([np.eye(2), np.zeros((3, 2))])
    result = split_decompose(DilationTriple(u=u, w=w, v=v))
    assert result.residual == 0.0
    assert np.abs(result.p - p).max() <= 1e-12


def test_split_recovers_complement_of_projector_dilations():
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = int(rng.integers(1, 4))
        t = s + int(rng.integers(1, 5))
        d = make_projector_dilation(rng, s, t)
        result = split_decompose(d)
        assert result.residual <= 1e-10
        p = (result.p + result.p.conj().T) / 2
        lam = np.linalg.eigvalsh(p)
        assert lam.min() >= -1e-10 and lam.max() <= 1 + 1e-10
        # w is a projector, so the complement block is one as well
        assert np.abs(p @ p - p).max() <= 1e-9


def test_split_basis_extends_v():
    rng = np.random.default_rng(2)
    d = make_projector_dilation(rng, 2, 5)
    result = split_decompose(d)
    b = result.basis
    assert np.abs(b.conj().T @ b - np.eye(5)).max() <= 1e-12
    assert np.abs(b[:, :2] - d.v).max() == 0.0


def test_split_flags_injected_off_block_mass():
    rng = np.random.default_rng(3)
    flagged = 0
    trials = 50
    for _ in range(trials):
        s = int(rng.integers(1, 4))
        t = s + int(rng.integers(1, 5))
        d = make_projector_dilation(rng, s, t)
        basis = split_decompose(d).basis
        e = np.zeros((t, t), dtype=complex)
        e[s + int(rng.integers(0, t - s)), int(rng.integers(0, s))] = 1e-2
        bad = DilationTriple(d.u, d.w + basis @ (e + e.conj().T) @ basis.conj().T, d.v)
        try:
            if split_decompose(bad).residual > 1e-8:
                flagged += 1
        except InvariantViolated:
            flagged += 1
    assert flagged == trials


def test_validate_triple_rejections():
    rng = np.random.default_rng(4)
    d = make_projector_dilation(rng, 2, 4)
    validate_triple(d)
    with pytest.raises(InvariantViolated, match="projector"):
        validate_triple(DilationTriple(0.5 * d.u, d.w, d.v))
    with pytest.raises(InvariantViolated, match="isometry"):
        validate_triple(DilationTriple(d.u, d.w, 2.0 * d.v))
    with pytest.raises(InvariantViolated, match="outside"):
        validate_triple(DilationTriple(d.u, 1.5 * d.w, d.v))
    with pytest.raises(InvariantViolated, match="shapes"):
        validate_triple(DilationTriple(d.u, d.w[:3, :3], d.v))
    blended = 0.5 * d.w + 0.25 * np.eye(4)  # stays in [0, I], corner moves off u
    with pytest.raises(InvariantViolated, match="v\\* w v"):
        validate_triple(DilationTriple(d.u, blended, d.v))


# -- arveson_split_check ------------------------------------------------------


def classical_cycle():
    rows = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    return MagicSquare([[ExactMatrix([[v]]) for v in row] for row in rows])


def test_arveson_direct_sum_splits_trivially():
    rng = np.random.default_rng(5)
    u_square = random_commuting_qpm(rng, 3, 2)
    w_square = random_commuting_qpm(rng, 3, 3)
    a = direct_sum(u_square, w_square)
    v = np.vstack([np.eye(2), np.zeros((3, 2))])
    report = arveson_split_check(u_square, a, v)
    assert report.ok
    assert report.worst_residual <= 1e-12
    for i in range(3):
        for j in range(3):
            assert np.abs(report.corners[(i, j)] - np.asarray(w_square.block(i, j))).max() <= 1e-10


def test_arveson_padded_rotated_permutation():
    rng = np.random.default_rng(6)
    u_square = classical_cycle()
    w_square = random_commuting_qpm(rng, 3, 2)
    padded = direct_sum(u_square.to_float(), w_square)
    g = random_unitary(rng, 3)
    blocks = [
        [g.conj().T @ np.asarray(padded.block(i, j)) @ g for j in range(3)]
        for i in range(3)
    ]
    report = arveson_split_check(u_square, MagicSquare(blocks), g.conj().T[:, :1])
    assert report.ok
    assert report.worst_residual <= 1e-10
    # every complement corner is again in [0, I]
    for c in report.corners.values():
        lam = np.linalg.eigvalsh((c + c.conj().T) / 2)
        assert lam.min() >= -1e-10 and lam.max() <= 1 + 1e-10


def test_arveson_rejects_contraction_violation():
    u_square = classical_cycle()
    blocks = [
        [1.5 * np.asarray(u_square.to_float().block(i, j)) for j in range(3)]
        for i in range(3)
    ]
    with pytest.raises(InvariantViolated):
        arveson_split_check(u_square, blocks, np.eye(1))


# -- extend_dilation_step -----------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_sum_kernel_projector_matches_svd_construction(n, s):
    """The closed form equals I - Q Q* for an orthonormal basis Q, read off an
    SVD, of the row-sum and column-sum vectors sum_j e_i (x) e_j (x) xi and
    sum_i e_i (x) e_j (x) xi."""
    d = n * n * s
    cols = np.zeros((d, 2 * n * s))
    for i in range(n):
        for k in range(s):
            for j in range(n):
                cols[(i * n + j) * s + k, 2 * (i * s + k)] = 1.0
                cols[(j * n + i) * s + k, 2 * (i * s + k) + 1] = 1.0
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    q = u[:, sv > 1e-9 * sv[0]]
    expected = np.eye(d) - q @ q.T
    np.testing.assert_allclose(_sum_kernel_projector(n, s), expected, rtol=0, atol=1e-12)


def test_extension_on_semiclassical_squares():
    rng = np.random.default_rng(7)
    for _ in range(5):
        square, x = semiclassical_pair(rng)
        step = extend_dilation_step(square, x)
        assert step.extended.n == 3 and step.extended.s == 3
        # the top-left corner compression returns the input square exactly
        iso = np.vstack([np.eye(2), np.zeros((1, 2))])
        back = compress(step.extended, iso)
        flo = square.to_float()
        for i in range(3):
            for j in range(3):
                assert np.abs(np.asarray(back.block(i, j)) - np.asarray(flo.block(i, j))).max() == 0.0
        # the coupling column carries mass, so the extension is not a direct sum
        coupling = max(
            float(np.abs(np.asarray(step.extended.block(i, j))[:2, 2]).max())
            for i in range(3)
            for j in range(3)
        )
        assert coupling > 1e-3
        assert float(step.c.min()) >= -1e-12
        assert max(step.row_sums) <= 1 + 1e-10
        assert max(step.col_sums) <= 1 + 1e-10


def test_extension_factor_blocks_satisfy_gram_relations():
    rng = np.random.default_rng(8)
    square, x = semiclassical_pair(rng)
    step = extend_dilation_step(square, x)
    flo = square.to_float()
    a = {(i, j): np.asarray(flo.block(i, j)) for i in range(3) for j in range(3)}
    for i in range(3):
        for j in range(3):
            b = step.b_blocks[(i, j)]
            assert np.abs(b.conj().T @ b - (a[(i, j)] - a[(i, j)] @ a[(i, j)])).max() <= 1e-9
    # normalization of the coupling vector
    b11 = step.b_blocks[(0, 0)]
    val = step.v.conj() @ (b11.conj().T @ b11) @ step.v
    assert abs(float(val.real) - 1.0) <= 1e-9
    # vanishing sums hold at roundoff scale after kernel projection
    for i in range(3):
        assert np.abs(sum(step.b_blocks[(i, j)] for j in range(3))).max() <= 1e-10
        assert np.abs(sum(step.b_blocks[(j, i)] for j in range(3))).max() <= 1e-10


def test_extension_total_matches_sums():
    rng = np.random.default_rng(9)
    square, x = semiclassical_pair(rng)
    step = extend_dilation_step(square, x)
    assert step.total == pytest.approx(sum(1 - t for t in step.row_sums), abs=1e-10)
    assert step.total == pytest.approx(sum(1 - t for t in step.col_sums), abs=1e-10)


def test_extension_rejects_quantum_permutation_input():
    rng = np.random.default_rng(10)
    qpm = random_commuting_qpm(rng, 3, 2)
    with pytest.raises(DegenerateTopLeft):
        extend_dilation_step(qpm, np.zeros((18, 18)))


@pytest.mark.parametrize(
    "seed, entries, slot",
    [
        (11, [(0, 0)], "((0, 0), (0, 0))"),  # diagonal slot, outside Z (x) Z
        (12, [(0, 2), (2, 0)], "((0, 0), (0, 1))"),  # equal block-row indices
        (15, [(0, 6), (6, 0)], "((0, 0), (1, 0))"),  # equal block-column indices
    ],
    ids=["diagonal", "same-row", "same-column"],
)
def test_extension_rejects_off_support_slot_witness(seed, entries, slot):
    """Mass of X on a slot sharing a block row or column is refused, and the
    message names that slot."""
    rng = np.random.default_rng(seed)
    square, x = semiclassical_pair(rng)
    bad = x.copy()
    for r, c in entries:
        bad[r, c] += 1e-2
    with pytest.raises(RelationViolated, match=re.escape(f"slot {slot}")):
        extend_dilation_step(square, bad)


def test_extension_requires_three_by_three():
    rng = np.random.default_rng(13)
    qpm = random_commuting_qpm(rng, 2, 2)
    with pytest.raises(ValueError, match="n=3"):
        extend_dilation_step(qpm, np.zeros((8, 8)))


def test_extension_witness_is_feasible_for_phi():
    rng = np.random.default_rng(14)
    square, x = semiclassical_pair(rng)
    m = phi_matrix(square.to_float()) + x
    assert np.linalg.eigvalsh((m + m.conj().T) / 2).min() >= -1e-9
