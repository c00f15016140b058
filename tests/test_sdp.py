import numpy as np
import pytest

from qmagic import sdp
from qmagic.exact import hermitian_basis_stack
from qmagic.sdp import (
    HERM_TOL,
    DimensionMismatch,
    NonHermitian,
    SdpProblem,
    Status,
    _congruences,
    _hermitian_part,
    _real_rows,
    _single_products,
    _trace_sums,
    solve_feasibility,
)


def rand_herm(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (z + z.conj().T) / 2


def rand_herm_stack(rng, m, shape):
    z = rng.normal(size=(m, *shape)) + 1j * rng.normal(size=(m, *shape))
    return z + z.conj().swapaxes(-1, -2)


def block_diag(stack):
    """The dense block-diagonal embedding of a (k, b, b) block stack."""
    k, b, _ = stack.shape
    zero = np.zeros((b, b))
    return np.block([[stack[i] if i == j else zero for j in range(k)] for i in range(k)])


def rand_block_instance(rng):
    """F0 and up to three directions as block stacks.  The directions have
    total trace 0, so every F0 of negative trace gives an infeasible
    pencil, and fewer of them than the k b^2 - 1 traceless dimensions."""
    k, b = int(rng.integers(2, 4)), int(rng.integers(1, 4))
    m = int(rng.integers(0, min(4, k * b * b)))
    f0 = np.array([rand_herm(rng, b) for _ in range(k)]) + rng.normal() * np.eye(b)
    dirs = []
    for _ in range(m):
        g = np.array([rand_herm(rng, b) for _ in range(k)])
        dirs.append(g - np.trace(g, axis1=1, axis2=2).sum().real / (k * b) * np.eye(b))
    return f0, dirs


class TestSdpProblem:
    def test_directions_are_one_stack(self):
        f = np.array([[1.0, 0], [0, -1.0]])
        p = SdpProblem(np.eye(2), [f, np.eye(2)])
        assert p.directions.shape == (2, 2, 2)
        assert p.directions.dtype == np.complex128
        assert SdpProblem(np.eye(3)).directions.shape == (0, 3, 3)
        # a block stack: F0 of shape (3, 2, 2), of total dimension 6
        p = SdpProblem(np.array([np.eye(2)] * 3))
        assert p.directions.shape == (0, 3, 2, 2)
        assert _real_rows(p.directions).shape == (0, 2 * 12)
        assert p.dim == 6
        assert p.pairings(np.ones((3, 2, 2))).shape == (0,)
        assert p.evaluate([]).shape == (3, 2, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SdpProblem(np.eye(2), [np.eye(3)])
        with pytest.raises(DimensionMismatch):
            SdpProblem(np.eye(2), [np.eye(2), np.eye(3)])
        with pytest.raises(DimensionMismatch):
            SdpProblem(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            SdpProblem(np.ones(3))
        blocks = np.array([np.eye(2)] * 3)
        with pytest.raises(DimensionMismatch):  # a non-square block
            SdpProblem(np.ones((3, 2, 3)))
        with pytest.raises(DimensionMismatch):  # another number of blocks
            SdpProblem(blocks, [blocks[:2]])
        with pytest.raises(DimensionMismatch):  # another block size
            SdpProblem(blocks, [np.array([np.eye(3)] * 3)])
        with pytest.raises(DimensionMismatch):  # the dense embedding
            SdpProblem(blocks, [np.eye(6)])
        with pytest.raises(DimensionMismatch):
            SdpProblem(blocks, [blocks, blocks[:2]])

    def test_block_stack_combine_and_pairings_match_dense(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            f0, dirs = rand_block_instance(rng)
            p = SdpProblem(f0, dirs)
            dense = SdpProblem(block_diag(f0), [block_diag(f) for f in dirs])
            assert p.dim == dense.dim == f0.shape[0] * f0.shape[1]
            x = rng.normal(size=len(dirs))
            assert np.allclose(block_diag(p.evaluate(x)), dense.evaluate(x), atol=1e-12)
            y = np.array([rand_herm(rng, f0.shape[1]) for _ in f0])
            assert np.allclose(p.pairings(y), dense.pairings(block_diag(y)), atol=1e-12)

    def test_non_hermitian_direction_rejected(self):
        with pytest.raises(NonHermitian):
            SdpProblem(np.eye(2), [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitian):
            SdpProblem(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_evaluate(self):
        p = SdpProblem(np.eye(2), [np.diag([1.0, -1.0])])
        assert np.allclose(p.evaluate([2.0]), np.diag([3.0, -1.0]))

    def test_combine_and_pairings_match_loops(self):
        rng = np.random.default_rng(6)
        for m in (0, 1, 5):
            dirs = [rand_herm(rng, 4) for _ in range(m)]
            p = SdpProblem(rand_herm(rng, 4), dirs)
            x = rng.normal(size=m)
            looped = sum((xi * f for xi, f in zip(x, dirs)), np.zeros((4, 4), complex))
            assert np.allclose(p.combine(x), looped, atol=1e-12)
            assert np.allclose(p.evaluate(x), p.f0 + looped, atol=1e-12)
            y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            want = [float((y @ f).trace().real) for f in dirs]
            assert p.pairings(y).shape == (m,)
            assert np.allclose(p.pairings(y), want, atol=1e-12)
            # the adjoint identity <Y, sum x F> = sum x_i <Y, F_i> (real part)
            assert np.isclose((y @ p.combine(x)).trace().real, x @ p.pairings(y))

    def test_combine_is_the_tensordot_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for shape in ((4, 4), (3, 2, 2), (24, 1, 1)):
            for m in (0, 1, 7):
                p = SdpProblem(np.zeros(shape), rand_herm_stack(rng, m, shape))
                x = rng.normal(size=m)
                want = np.tensordot(x, p.directions, axes=1)
                assert p.combine(x).shape == shape
                assert p.combine(x).tobytes() == want.tobytes()


def _lmi_like(rng, r, k, s):
    """r real weight vectors over k blocks times the Hermitian basis of Mat_s,
    as the directions of the semiclassical LMI: (r s^2, k, s, s)."""
    dirs = np.einsum("rp,bij->rbpij", rng.normal(size=(r, k)), hermitian_basis_stack(s))
    return dirs.reshape(r * s * s, k, s, s)


def _congruences_of(stack, isqrt):
    out = np.empty_like(stack)
    _congruences(stack)(isqrt, out)
    return out


@pytest.mark.parametrize(
    "shape", [(d, d) for d in (18, 32)] + [(k, s, s) for s in (1, 2, 3) for k in (2, 6, 24)]
)
def test_congruences_are_the_broadcast_product_bit_for_bit(shape):
    rng = np.random.default_rng(9)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    lam, u = np.linalg.eigh(z @ z.conj().swapaxes(-1, -2) + np.eye(shape[-1]))
    isqrt = (u / np.sqrt(lam)[..., None, :]) @ u.conj().swapaxes(-1, -2)
    diagonal = np.broadcast_to(np.diag(rng.uniform(1, 2, shape[-1])), shape) + 0j
    stacks = [rand_herm_stack(rng, m, shape) for m in (0, 1, 5)]
    if len(shape) == 3:
        stacks += [_lmi_like(rng, r, shape[0], shape[-1]) for r in (1, 3)]
        assert _single_products(stacks[-1])
        assert _single_products(stacks[-3]) == (shape[-1] == 1)  # random blocks of size 1 are real
    for stack in stacks:
        assert _congruences_of(stack, isqrt).tobytes() == ((isqrt @ stack) @ isqrt).tobytes()
        # products of exact zeros may leave a zero of the other sign
        assert np.array_equal(_congruences_of(stack, diagonal), (diagonal @ stack) @ diagonal)


def test_congruences_take_the_directions_in_chunks_bit_for_bit(monkeypatch):
    """The per-direction path forms isqrt @ F_i for CHUNK_BYTES of
    directions at a time, the same bytes as the whole broadcast product,
    with a last chunk that is not full."""
    rng = np.random.default_rng(12)
    a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    lam, u = np.linalg.eigh(a @ a.conj().T + np.eye(32))
    isqrt = (u / np.sqrt(lam)) @ u.conj().T
    per_chunk = sdp.CHUNK_BYTES // isqrt.nbytes
    for chunk_bytes, m in ((sdp.CHUNK_BYTES, 2 * per_chunk + 3), (3 * isqrt.nbytes, 8)):
        monkeypatch.setattr(sdp, "CHUNK_BYTES", chunk_bytes)
        stack = rand_herm_stack(rng, m, (32, 32))
        assert _congruences_of(stack, isqrt).tobytes() == ((isqrt @ stack) @ isqrt).tobytes()


@pytest.mark.parametrize("shape", [(6, 6), (5, 3, 3)])
def test_hermitian_part_is_the_old_formula_bit_for_bit(shape):
    """(F + F*) / 2 formed in one buffer equals, byte for byte, the formula
    with a fresh conjugate transpose, on a matrix and on a stack carrying
    1e-12 of asymmetry; it is C-contiguous, and more asymmetry than
    HERM_TOL is refused."""
    rng = np.random.default_rng(13)
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    f = h + h.conj().swapaxes(-1, -2) + 1e-12 * rng.normal(size=shape)
    adj = f.conj().swapaxes(-1, -2)
    out = _hermitian_part(f)
    assert out.flags.c_contiguous
    assert out.tobytes() == ((f + adj) / 2).tobytes()
    assert out.tobytes() == _hermitian_part(np.asfortranarray(f)).tobytes()
    tilted = f.copy()
    tilted[..., 0, 1] += 10 * HERM_TOL
    with pytest.raises(NonHermitian):
        _hermitian_part(tilted)


@pytest.mark.parametrize(
    "shape",
    [(d, d) for d in (18, 32)] + [(k, s, s) for s in (1, 2, 3, 4) for k in (2, 6, 24)],
)
def test_gradient_traces_are_np_trace_bit_for_bit(shape):
    """The Newton gradient's summed traces, over a stack like the solver's
    (directions, then the t-direction), equal np.trace's bytes: einsum on
    block stacks of blocks up to 3 x 3, np.trace on a one-block pencil and
    on larger blocks, where einsum sums in another order."""
    rng = np.random.default_rng(11)
    for m in (0, 1, 5):
        g = rng.normal(size=(m + 1, *shape)) + 1j * rng.normal(size=(m + 1, *shape))
        g *= 10.0 ** rng.integers(-8, 8, size=g.shape)
        want = np.trace(g, axis1=-2, axis2=-1).real.reshape(m + 1, -1).sum(axis=1)
        assert _trace_sums(g).tobytes() == want.tobytes()


class TestSolveFeasibility:
    def test_identity_no_directions(self):
        res = solve_feasibility(SdpProblem(np.eye(3)))
        assert res.status is Status.FEASIBLE
        assert abs(res.t_star - 1.0) < 1e-6

    def test_indefinite_no_directions(self):
        res = solve_feasibility(SdpProblem(np.diag([1.0, -1.0])))
        assert res.status is Status.INFEASIBLE
        assert np.allclose(res.y, np.diag([0.0, 1.0]), atol=1e-6)
        assert abs(res.t_star + 1.0) < 1e-5

    def test_motion_needed_for_feasibility(self):
        # F(x) = diag(1, -1 + x): any x >= 1 is feasible
        res = solve_feasibility(SdpProblem(np.diag([1.0, -1.0]), [np.diag([0.0, 1.0])]))
        assert res.status is Status.FEASIBLE
        fx = np.diag([1.0, -1.0]) + res.x[0] * np.diag([0.0, 1.0])
        assert np.linalg.eigvalsh(fx).min() >= -1e-7

    def test_a_solved_problem_cannot_be_written(self):
        # every caller at one eps shares one result, so none may write into it
        feasible = SdpProblem(np.diag([1.0, -1.0]), [np.diag([0.0, 1.0])])
        infeasible = SdpProblem(np.diag([1.0, -1.0]))
        res, dual = solve_feasibility(feasible), solve_feasibility(infeasible)
        assert solve_feasibility(feasible) is res and solve_feasibility(infeasible) is dual
        for arr in (feasible.f0, feasible.directions, res.x, dual.y):
            with pytest.raises(ValueError):
                arr[...] = 0
            assert arr.any()

    def test_infeasible_with_direction(self):
        # min eig of diag(-1,-2) + x [[0,1],[1,0]] is always <= -2
        f0 = np.diag([-1.0, -2.0])
        dirs = [np.array([[0.0, 1.0], [1.0, 0.0]])]
        res = solve_feasibility(SdpProblem(f0, dirs))
        assert res.status is Status.INFEASIBLE
        assert abs(float((res.y @ dirs[0]).trace().real)) <= 1e-7
        assert float((res.y @ f0).trace().real) <= -1e-6

    def test_boundary_instance_is_feasible(self):
        # sup t = 0, attained only in the limit; x = 0 already verifies
        f0 = np.diag([1.0, 0.0])
        dirs = [np.array([[0.0, 1.0], [1.0, 0.0]])]
        res = solve_feasibility(SdpProblem(f0, dirs))
        assert res.status is Status.FEASIBLE
        assert abs(res.t_star) <= 1e-7

    def test_inconclusive_band(self):
        # true optimum sits inside (-10 eps, -eps): neither witness can exist
        prob = SdpProblem(np.diag([1.0, -5e-7]))
        res = solve_feasibility(prob, eps=1e-7)
        assert res.status is Status.INCONCLUSIVE
        assert res.x is not None
        assert np.linalg.eigvalsh(prob.evaluate(res.x)).min() == res.t_star

    def test_witnesses_reverify_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            d = int(rng.integers(2, 6))
            f0 = rand_herm(rng, d)
            m = int(rng.integers(0, 4))
            dirs = []
            for _ in range(m):
                g = rand_herm(rng, d)
                dirs.append(g - np.trace(g).real / d * np.eye(d))
            prob = SdpProblem(f0, dirs)
            res = solve_feasibility(prob)
            if res.status is Status.FEASIBLE:
                assert np.linalg.eigvalsh(prob.evaluate(res.x)).min() >= -1e-7
            elif res.status is Status.INFEASIBLE:
                y = res.y
                assert np.linalg.eigvalsh((y + y.conj().T) / 2).min() >= -1e-7
                assert abs(float(np.trace(y).real) - 1.0) <= 1e-9
                for f in prob.directions:
                    assert abs(float((y @ f).trace().real)) <= 1e-7
                assert float((y @ prob.f0).trace().real) <= -1e-6

    def test_no_contradictory_witnesses(self):
        # weak duality: a strictly feasible point and a strict dual certificate
        # can never coexist; exercised across the random regression set
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            f0 = rand_herm(rng, d)
            prob = SdpProblem(f0, [rand_herm(rng, d) for _ in range(2)])
            res = solve_feasibility(prob)
            if res.status is Status.FEASIBLE and res.t_star > 1e-7:
                assert res.y is None
            if res.status is Status.INFEASIBLE:
                assert res.x is None

    def test_scaling_invariance_of_verdicts(self):
        rng = np.random.default_rng(5)
        instances = [
            (np.eye(3), []),
            (np.diag([1.0, -1.0]), []),
            (np.diag([-1.0, -2.0]), [np.array([[0.0, 1.0], [1.0, 0.0]])]),
            (np.diag([1.0, -1.0]), [np.diag([0.0, 1.0])]),
            (rand_herm(rng, 4), [rand_herm(rng, 4) for _ in range(2)]),
        ]
        for f0, dirs in instances:
            statuses = set()
            for c in (1e-2, 1.0, 1e2):
                res = solve_feasibility(
                    SdpProblem(c * f0, [c * f for f in dirs]), eps=c * 1e-7
                )
                statuses.add(res.status)
            assert len(statuses) == 1, (statuses, f0)

    def test_indefinite_block_stack_no_directions(self):
        # the certificate sits on the negative eigenvector of the second block
        f0 = np.array([np.diag([1.0, 2.0]), np.diag([3.0, -1.0])])
        res = solve_feasibility(SdpProblem(f0))
        assert res.status is Status.INFEASIBLE
        want = np.array([np.zeros((2, 2)), np.diag([0.0, 1.0])])
        assert res.y.shape == (2, 2, 2)
        assert np.allclose(res.y, want, atol=1e-6)
        assert abs(res.t_star + 1.0) < 1e-5

    def test_block_stack_matches_dense_embedding(self):
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(20):
            f0, dirs = rand_block_instance(rng)
            prob = SdpProblem(f0, dirs)
            res = solve_feasibility(prob)
            ref = solve_feasibility(SdpProblem(block_diag(f0), [block_diag(f) for f in dirs]))
            seen.add(res.status)
            assert res.status is ref.status
            assert res.residuals["iterations"] == ref.residuals["iterations"]
            lam, lam_ref = res.residuals["primal_lambda_min"], ref.residuals["primal_lambda_min"]
            assert abs(lam - lam_ref) <= 1e-9
            if res.status is Status.FEASIBLE:
                assert abs(res.t_star - ref.t_star) <= 1e-9
            else:
                # trace(Y F0) of a polished dual: the start mu M^-1 magnifies
                # rounding in the last iterate by about 1/mu
                assert abs(res.t_star - ref.t_star) <= 1e-5 * max(1.0, abs(ref.t_star))
                y = res.y
                assert y.shape == f0.shape
                assert np.linalg.eigvalsh(y).min() >= -1e-7
                assert abs(float(np.trace(y, axis1=1, axis2=2).sum().real) - 1.0) <= 1e-9
                for f in prob.directions:
                    assert abs(float(np.trace(y @ f, axis1=1, axis2=2).sum().real)) <= 1e-7
                assert float(np.trace(y @ f0, axis1=1, axis2=2).sum().real) <= -1e-6
        assert seen == {Status.FEASIBLE, Status.INFEASIBLE}

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_feasibility(SdpProblem(np.eye(2)), eps=0.0)
