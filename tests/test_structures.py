import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmagic.exact import ExactMatrix, GaussianRational, psd_check_exact
from qmagic.sampling import (
    outer_direct_sum,
    projector_at_angle,
    qpm_from_projector,
    random_commuting_qpm,
    random_exact_decomposition,
    random_isometry,
    random_member_square,
    square_from_decomposition,
)
from qmagic.structures import (
    CompletionNotPSD,
    InvalidMagicSquare,
    MagicSquare,
    MixedRepresentation,
    NotAnIsometry,
    ShapeMismatch,
    SizeMismatch,
    Violation,
    adjoint,
    complete_corner,
    compress,
    constant_square,
    difference,
    direct_sum,
    embed_pad,
    grid_residual,
    identity,
    perm_matrix_exact,
    permutations_lex,
    residual,
    validate_magic,
    validate_quantum_permutation,
    vanishes,
)

F = Fraction


class TestPermutations:
    def test_lex_order(self):
        perms = permutations_lex(3)
        assert perms[0] == (0, 1, 2)
        assert perms[-1] == (2, 1, 0)
        assert perms == sorted(perms)
        assert len(perms) == 6

    def test_one_entry_per_row_and_column(self):
        p = perm_matrix_exact((2, 0, 1)).to_complex().real
        assert p[0, 2] == p[1, 0] == p[2, 1] == 1
        assert np.array_equal(p.sum(axis=0), np.ones(3))
        assert np.array_equal(p.sum(axis=1), np.ones(3))


class TestValidateMagic:
    def test_constant_square_ok(self):
        report = validate_magic(constant_square(3, 2).blocks)
        assert report.ok and report.violations == ()

    def test_two_by_two_form_ok(self):
        a = ExactMatrix([[F(1, 4), 0], [0, F(3, 4)]])
        one = ExactMatrix.identity(2)
        assert validate_magic([[a, one - a], [one - a, a]]).ok

    def test_block_exceeding_identity_flagged(self):
        a = ExactMatrix([[F(5, 4), 0], [0, F(3, 4)]])
        one = ExactMatrix.identity(2)
        report = validate_magic([[a, one - a], [one - a, a]])
        assert not report.ok
        locs = {(v.kind, v.location) for v in report.violations}
        assert ("block_not_psd", (0, 1)) in locs
        assert ("block_not_psd", (1, 0)) in locs

    def test_stacked_psd_tests_match_each_block_alone(self):
        """Validation proves an exact grid's Hermitian blocks in one stack;
        each block keeps the violation and margin it gets checked alone."""
        g = GaussianRational
        blocks = [
            ExactMatrix([[1, g(0, 1)], [g(0, 1), 1]]),  # not Hermitian
            ExactMatrix([[2, 1], [1, -2]]),  # indefinite
            ExactMatrix([[1, 1], [1, 1]]),  # singular PSD
            ExactMatrix([[F(1, 3), 0], [0, F(2, 7)]]),  # PD
            ExactMatrix([[0, 0], [0, F(-1, 10**40)]]),  # barely indefinite
            ExactMatrix([[1, 2], [2, 1]]),
        ]
        grid = [blocks[:3], blocks[3:], blocks[1:4]]
        want = []
        for i, row in enumerate(grid):
            for j, b in enumerate(row):
                if b != b.h:
                    want.append(("not_hermitian", (i, j)))
                elif not (check := psd_check_exact(b)).is_psd:
                    want.append(("block_not_psd", (i, j), check.witness_value))
        got = [
            (v.kind, v.location) + ((v.margin,) if v.kind == "block_not_psd" else ())
            for v in validate_magic(grid).violations
            if v.kind in ("not_hermitian", "block_not_psd")
        ]
        assert got == want and len(want) == 5

    def test_row_sum_violation_located(self):
        bad = [[np.eye(1), np.eye(1)], [np.zeros((1, 1)), np.eye(1) * 0.5]]
        report = validate_magic(bad)
        kinds = {v.kind for v in report.violations}
        assert "row_sum" in kinds and "col_sum" in kinds

    def test_ragged_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_magic([[np.eye(1)], [np.eye(1), np.eye(1)]])

    def test_mixed_representation_rejected(self):
        one = ExactMatrix.identity(1)
        with pytest.raises(MixedRepresentation):
            validate_magic([[one, np.eye(1)], [np.eye(1), one]])

    def test_floating_tolerance(self):
        eps = 1e-12
        blocks = [[np.eye(1) * (0.5 + eps), np.eye(1) * (0.5 + eps)],
                  [np.eye(1) * (0.5 - eps), np.eye(1) * (0.5 - eps)]]
        assert validate_magic(blocks).ok
        assert not validate_magic(blocks, tol=1e-14).ok

    def test_nan_entries_flagged(self):
        # NaN compares false both ways; every float test must fail, not pass.
        nan = np.full((1, 1), np.nan)
        report = validate_magic([[nan, np.eye(1)], [np.eye(1), nan]])
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert {"not_hermitian", "row_sum", "col_sum"} <= kinds


def _reference_violations(grid, tol) -> tuple:
    """`validate_magic` block by block: each block's hermiticity or else its
    own PSD test, then each row and each column summed in order."""
    n, s = len(grid), grid[0][0].shape[0]
    exact = isinstance(grid[0][0], ExactMatrix)

    def mismatch(kind, loc, x, y):
        d = difference(x, y)
        return None if vanishes(d, tol) else Violation(kind, loc, residual(d))

    found = []
    for i in range(n):
        for j in range(n):
            b = grid[i][j]
            v = mismatch("not_hermitian", (i, j), b, adjoint(b))
            if v is None and exact and not (check := psd_check_exact(b)).is_psd:
                v = Violation("block_not_psd", (i, j), check.witness_value)
            if v is None and not exact:
                lam = float(np.linalg.eigvalsh((b + b.conj().T) / 2).min())
                v = None if lam >= -tol else Violation("block_not_psd", (i, j), lam)
            found.append(v)
    for i in range(n):
        found.append(mismatch("row_sum", (i,), sum(grid[i][1:], grid[i][0]), identity(s, exact)))
    for j in range(n):
        col = sum((grid[i][j] for i in range(1, n)), grid[0][j])
        found.append(mismatch("col_sum", (j,), col, identity(s, exact)))
    return tuple(v for v in found if v)


def _margin_key(m):
    """A Fraction margin as itself, a float one by its bits (NaN included)."""
    return m if isinstance(m, Fraction) else struct.pack("<d", m)


@st.composite
def _faulty_grids(draw):
    """A member square with n in 1..5 and s in 1..3, exact or float, with some
    of its blocks broken: made non-Hermitian, made indefinite, shifted so
    that a row and a column sum is off, or (float) given a NaN entry."""
    n, s, exact = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if exact:
        a = square_from_decomposition(random_exact_decomposition(rng, n, s))
    else:
        a = random_member_square(rng, n, s)
    grid = [list(row) for row in a.blocks]
    one = ExactMatrix.identity(s) if exact else np.eye(s)
    faults = ["skew", "indefinite", "shift", "tiny-shift"] + ([] if exact else ["nan"])
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        fault, b = draw(st.sampled_from(faults)), grid[i][j]
        c = F(draw(st.integers(1, 50)), draw(st.sampled_from([7, 1000, 10**12])))
        c = c if exact else float(c)
        if fault == "skew":  # i c on the diagonal when s = 1, c above it otherwise
            e = np.zeros((2, s, s), dtype=int)
            e[1 if s == 1 else 0, 0, s - 1] = 1
            b = b + (ExactMatrix.from_parts(1, *e) if exact else e[0] + 1j * e[1]) * c
        elif fault == "indefinite":
            b = b - one * (4 * c)
        elif fault in ("shift", "tiny-shift"):
            b = b + one * (c if fault == "shift" else c / 10**6)
        else:
            b = np.array(b)
            b[draw(st.integers(0, s - 1)), draw(st.integers(0, s - 1))] = np.nan
        grid[i][j] = b
    return grid, draw(st.sampled_from([1e-9, 1e-6]))


# rows and columns of 0.1, 0.2, 0.3 and 0.4 + 1e-6 in turn: numpy's pairwise
# sum of row 2 differs in its last bit from the blocks added in order
_CIRCULANT = [
    [np.array([[x]], dtype=complex) for x in np.roll([0.1, 0.2, 0.3, 0.4 + 1e-6], i)]
    for i in range(4)
]


@settings(max_examples=150, deadline=None)
@given(_faulty_grids())
@example((_CIRCULANT, 1e-9))
def test_validation_matches_the_per_block_reference(case):
    """`validate_magic` on the stacked square reports the violations of the
    per-block reference: the same kinds, locations and order, equal exact
    margins and float margins equal bit for bit (float sums add the blocks
    in order)."""
    grid, tol = case
    got = validate_magic(grid, tol=tol).violations
    want = _reference_violations(grid, tol)
    assert [(v.kind, v.location) for v in got] == [(v.kind, v.location) for v in want]
    assert [_margin_key(v.margin) for v in got] == [_margin_key(v.margin) for v in want]


def _exact_grid(entries):
    return [[ExactMatrix([[x]]) for x in row] for row in entries]


def _float_grid(entries):
    return [[np.array([[x]], dtype=complex) for x in row] for row in entries]


_NAN = complex("nan")


@pytest.mark.parametrize(
    "xs, ys, expected",
    [
        # exact: max |re| + |im| over every slot, as a Fraction
        (_exact_grid([[F(1, 2), GaussianRational(F(1, 3), F(-1, 4))], [0, F(-2, 3)]]),
         _exact_grid([[0, 0], [0, F(1, 6)]]), F(5, 6)),
        # float: the largest modulus
        (_float_grid([[0.5, 3 + 4j], [1, 0]]), _float_grid([[0, 0], [0, 0]]), 5.0),
        # an exact grid against a float one compares as floats
        (_exact_grid([[F(1, 4), 1]]), _float_grid([[0, 0.5]]), 0.5),
        # NaN wins wherever it sits
        (_float_grid([[_NAN, 9]]), _float_grid([[0, 0]]), _NAN.real),
        (_float_grid([[9, 0], [0, _NAN]]), _float_grid([[0, 0], [0, 0]]), _NAN.real),
    ],
)
def test_grid_residual_is_the_largest_entry_over_all_slots(xs, ys, expected):
    got = grid_residual(xs, ys)
    assert type(got) is type(expected)
    assert got == expected or (np.isnan(expected) and np.isnan(got))


class TestValidateQuantumPermutation:
    def test_classical_permutation(self):
        sigma = (1, 2, 0)
        p = perm_matrix_exact(sigma)
        square = MagicSquare(
            [[ExactMatrix([[p[i, j]]]) for j in range(3)] for i in range(3)]
        )
        assert validate_quantum_permutation(square).ok

    def test_angle_pair_is_qpm_and_noncommuting(self):
        u = qpm_from_projector(np.diag([1.0, 0.0]) + 0j)
        w = qpm_from_projector(projector_at_angle(np.pi / 5))
        big = outer_direct_sum(u, w)
        assert validate_quantum_permutation(big).ok
        comms = [
            np.linalg.norm(
                big.block(0, 0) @ big.block(2, 2) - big.block(2, 2) @ big.block(0, 0)
            )
        ]
        assert max(comms) > 1e-3

    def test_angle_zero_commutes(self):
        u = qpm_from_projector(np.diag([1.0, 0.0]) + 0j)
        w = qpm_from_projector(projector_at_angle(0.0))
        big = outer_direct_sum(u, w)
        blocks = [big.block(i, j) for i in range(4) for j in range(4)]
        worst = max(
            np.linalg.norm(a @ b - b @ a) for a in blocks for b in blocks
        )
        assert worst < 1e-12

    def test_constant_square_fails_projector_identity(self):
        report = validate_quantum_permutation(constant_square(3, 2))
        assert not report.ok
        proj_fail = {v.location for v in report.violations if v.kind == "projector"}
        assert proj_fail == {(i, j) for i in range(3) for j in range(3)}

    def test_margins_are_largest_entries_in_both_representations(self):
        """Blocks I/3: b^2 - b = -(2/9) I and every product of two blocks is I/9,
        so the margins are 2/9 and 1/9, exactly or as floats."""
        exact = validate_quantum_permutation(constant_square(3, 2))
        flo = validate_quantum_permutation(constant_square(3, 2, exact=False))
        assert [(v.kind, v.location) for v in exact.violations] == [
            (v.kind, v.location) for v in flo.violations
        ]
        for ve, vf in zip(exact.violations, flo.violations):
            expected = F(2, 9) if ve.kind == "projector" else F(1, 9)
            assert ve.margin == expected and isinstance(ve.margin, Fraction)
            assert abs(vf.margin - float(expected)) <= 1e-15
        assert {v.kind for v in exact.violations} == {
            "projector",
            "row_orthogonality",
            "col_orthogonality",
        }

    def test_commuting_generator_small_n(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            q = random_commuting_qpm(rng, n, 4)
            assert validate_quantum_permutation(q).ok
            blocks = [q.block(i, j) for i in range(n) for j in range(n)]
            worst = max(
                np.linalg.norm(a @ b - b @ a) for a in blocks for b in blocks
            )
            assert worst < 1e-10


class TestCompress:
    def test_identity_isometry(self):
        a = constant_square(3, 2, exact=False)
        assert compress(a, np.eye(2)) == a

    def test_corner_extraction(self):
        rng = np.random.default_rng(1)
        a = random_member_square(rng, 3, 2)
        b = constant_square(3, 3, exact=False)
        big = direct_sum(a, b)
        v = np.vstack([np.eye(2), np.zeros((3, 2))]) + 0j
        back = compress(big, v)
        for i in range(3):
            for j in range(3):
                assert np.allclose(back.block(i, j), a.block(i, j))

    def test_compression_stays_magic(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            u = random_commuting_qpm(rng, 3, 5)
            v = random_isometry(rng, 5, 2)
            assert validate_magic(compress(u, v).blocks).ok

    def test_non_isometry_rejected(self):
        a = constant_square(2, 2, exact=False)
        with pytest.raises(NotAnIsometry):
            compress(a, np.eye(2) * 2)
        # a NaN makes every float comparison false, so it must fail the check
        with pytest.raises(NotAnIsometry):
            compress(a, np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(NotAnIsometry):
            compress(constant_square(2, 2), ExactMatrix.identity(3))
        with pytest.raises(NotAnIsometry):
            compress(a, np.ones(2))

    def test_exact_compression(self):
        a = constant_square(2, 2)
        v = ExactMatrix([[1], [0]])
        out = compress(a, v)
        assert out.s == 1 and out.exact

    def test_mixed_rejected(self):
        with pytest.raises(MixedRepresentation):
            compress(constant_square(2, 2), np.eye(2))


class TestDirectSum:
    def test_constant_doubles(self):
        out = direct_sum(constant_square(3, 2), constant_square(3, 1))
        assert out.s == 3 and out.n == 3
        assert out == constant_square(3, 3)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            direct_sum(constant_square(2, 2), constant_square(3, 2))

    def test_qpm_closure(self):
        rng = np.random.default_rng(3)
        u = random_commuting_qpm(rng, 3, 2)
        w = random_commuting_qpm(rng, 3, 3)
        assert validate_quantum_permutation(direct_sum(u, w)).ok

    def test_invalid_summand_cannot_be_built(self):
        with pytest.raises(InvalidMagicSquare):
            MagicSquare([[np.eye(1), np.eye(1)], [np.eye(1), np.eye(1)]])


def test_violation_repr_is_the_dataclass_repr():
    """The message of InvalidMagicSquare, the repr of its violations, keeps
    the dataclass form, and writes exact margins past the int-to-str digit
    limit too."""
    assert repr(Violation("row_sum", (0,), Fraction(-3, 10))) == (
        "Violation(kind='row_sum', location=(0,), margin=Fraction(-3, 10))"
    )
    assert repr(Violation("block_not_psd", (0, 1), -0.25)) == (
        "Violation(kind='block_not_psd', location=(0, 1), margin=-0.25)"
    )
    long = Violation("col_sum", (1,), Fraction(1, 10**5000))
    margin = f"Fraction(1, 1{'0' * 5000})"
    assert repr(long) == f"Violation(kind='col_sum', location=(1,), margin={margin})"


class TestEmbedPad:
    def test_pad_constant(self):
        out = embed_pad(constant_square(3, 2))
        assert out.n == 4 and validate_magic(out.blocks).ok
        assert out.block(3, 3) == ExactMatrix.identity(2)
        assert out.block(0, 3).is_zero()

    def test_double_pad(self):
        out = embed_pad(embed_pad(constant_square(2, 1, exact=False)))
        assert out.n == 4 and validate_magic(out.blocks).ok


class TestCompleteCorner:
    def test_uniform_corner_gives_constant_square(self):
        third = ExactMatrix.identity(2) * F(1, 3)
        out = complete_corner([[third, third], [third, third]])
        assert out == constant_square(3, 2)

    def test_right_inverse_of_corner_extraction(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = square_from_decomposition(random_exact_decomposition(rng, 3, 2))
            corner = [[a.block(0, 0), a.block(0, 1)], [a.block(1, 0), a.block(1, 1)]]
            assert complete_corner(corner) == a

    def test_infeasible_corner_reported(self):
        one = ExactMatrix.identity(2)
        with pytest.raises(CompletionNotPSD) as exc:
            complete_corner([[one, one], [one * 0, one * 0]])
        assert (0, 2) in exc.value.offending

    def test_bad_shape(self):
        with pytest.raises(ShapeMismatch):
            complete_corner([[ExactMatrix.identity(2)]])


class TestExactDecompositionSampler:
    def test_weights_are_psd_and_sum_to_identity(self):
        from qmagic.exact import psd_check_exact

        rng = np.random.default_rng(5)
        q = random_exact_decomposition(rng, 3, 2)
        total = ExactMatrix.zeros(2)
        for m in q.values():
            assert psd_check_exact(m).is_psd
            total = total + m
        assert total == ExactMatrix.identity(2)

    def test_square_is_magic(self):
        rng = np.random.default_rng(6)
        a = square_from_decomposition(random_exact_decomposition(rng, 2, 2))
        assert a.n == 2 and a.exact
