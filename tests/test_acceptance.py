"""Acceptance gate: one test per headline criterion, at stated tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Every test states its tolerance and time budget inline;
randomized suites use fixed seeds.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from qmagic.birkhoff import birkhoff_decompose, magic_space_dimension
from qmagic.cli import main as cli_main
from qmagic.exact import ExactMatrix, psd_check_exact
from qmagic.extremality import (
    DilationTriple,
    InvariantViolated,
    extend_dilation_step,
    make_projector_dilation,
    member_witness_from_dilation,
    split_decompose,
)
from qmagic.obstruction import (
    STRONG,
    WEAK,
    build_obstruction,
    certify_with_ladder,
    check_mconv_obstruction,
    counterexample_m2_3,
    find_dual_certificate,
    pencil_directions,
    phi_matrix,
)
from qmagic.sampling import (
    perturbed_constant_decomposition,
    random_doubly_stochastic,
    random_exact_decomposition,
    square_from_decomposition,
)
from qmagic.sdp import Status
from qmagic.semiclassical import (
    SemiclassicalDecomposition,
    check_semiclassical,
    interior_map_decomposition,
    synthesize_commuting_dilation,
)
from qmagic.serialize import certificate_to_json, dump_json
from qmagic.structures import (
    MagicSquare,
    constant_square,
    embed_pad,
    perm_matrix_exact,
    permutations_lex,
    validate_magic,
)


@pytest.fixture(scope="module")
def counterexample():
    return counterexample_m2_3()


@pytest.fixture(scope="module")
def certified(counterexample):
    """Strong-mode verdict and exact certificate for the counterexample,
    with the search wall time."""
    start = time.perf_counter()
    result = check_mconv_obstruction(counterexample, mode=STRONG)
    assert result.verdict == "no"
    witness = find_dual_certificate(result.problem)
    cert = certify_with_ladder(witness.y, result.problem)
    elapsed = time.perf_counter() - start
    return result, cert, elapsed


def blend(a: MagicSquare, b: MagicSquare, lam: Fraction) -> MagicSquare:
    """Exact convex combination of two exact squares."""
    mu = 1 - lam
    return MagicSquare(
        [
            [a.block(i, j) * lam + b.block(i, j) * mu for j in range(a.n)]
            for i in range(a.n)
        ]
    )


def test_criterion_01_counterexample_exact_validity(counterexample):
    # all nine blocks PSD and all six sums exactly I, in < 1 s
    start = time.perf_counter()
    a = counterexample
    report = validate_magic([[a.block(i, j) for j in range(3)] for i in range(3)])
    assert report.ok and not report.violations
    for i in range(3):
        for j in range(3):
            assert psd_check_exact(a.block(i, j)).is_psd
    eye = ExactMatrix.identity(2)
    for i in range(3):
        row = a.block(i, 0) + a.block(i, 1) + a.block(i, 2)
        col = a.block(0, i) + a.block(1, i) + a.block(2, i)
        assert (row - eye).is_zero() and (col - eye).is_zero()
    assert time.perf_counter() - start < 1.0


def test_criterion_02_separation_with_exact_certificate(certified, counterexample, tmp_path):
    result, cert, search_time = certified
    assert result.verdict == "no"
    assert search_time < 60.0
    # exact pairing signs: trace(Y B0) < 0, trace(Y Bj) = 0, over Q[i]
    problem = result.problem
    p0 = (cert.y_exact @ problem.b0_exact).trace()
    assert p0.im == 0 and p0.re < 0
    for arr in problem.pencil.directions:
        b = ExactMatrix([[(int(z.real), int(z.imag)) for z in row] for row in arr.tolist()])
        p = (cert.y_exact @ b).trace()
        assert p.re == 0 and p.im == 0
    # re-verification through the exact-only CLI path in < 5 s
    cert_path = tmp_path / "cert.json"
    dump_json(certificate_to_json(cert, square=counterexample), cert_path)
    start = time.perf_counter()
    assert cli_main(["verify-certificate", str(cert_path)]) == 0
    assert time.perf_counter() - start < 5.0


def test_criterion_03_induction_step(counterexample):
    padded = embed_pad(counterexample)
    assert padded.n == 4
    result = check_mconv_obstruction(padded, mode=STRONG)
    assert result.verdict == "no"
    # compression identity: with V = v (x) v (x) I for the coordinate
    # embedding v, V* (phi(A') + X') V = phi(A) + V* X' V for 20 random X'
    rng = np.random.default_rng(42)
    directions = pencil_directions(4, 2, WEAK)
    v = np.vstack([np.eye(3), np.zeros((1, 3))])
    big = np.kron(np.kron(v, v), np.eye(2))
    phi_small = np.asarray(phi_matrix(counterexample).to_complex())
    phi_big = np.asarray(phi_matrix(padded).to_complex())
    worst = 0.0
    for _ in range(20):
        coeffs = rng.normal(size=len(directions))
        x_prime = sum(c * np.asarray(d) for c, d in zip(coeffs, directions))
        lhs = big.conj().T @ (phi_big + x_prime) @ big
        rhs = phi_small + big.conj().T @ x_prime @ big
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst <= 1e-9


def test_criterion_04_mode_equivalence(counterexample):
    rng = np.random.default_rng(7)
    constant = constant_square(3, 2)
    instances = [counterexample, constant]
    for lam in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
        instances.append(blend(counterexample, constant, lam))
    for s in (1, 2):
        for _ in range(5):
            dec = random_exact_decomposition(rng, 3, s)
            instances.append(square_from_decomposition(dec))
    for lam in (Fraction(1, 3), Fraction(2, 3), Fraction(5, 6)):
        other = square_from_decomposition(random_exact_decomposition(rng, 3, 2))
        instances.append(blend(counterexample, other, lam))
    assert len(instances) == 20
    for k, square in enumerate(instances):
        weak = check_mconv_obstruction(square, mode=WEAK).verdict
        strong = check_mconv_obstruction(square, mode=STRONG).verdict
        assert weak == strong, f"instance {k}: weak={weak}, strong={strong}"
        assert weak in ("yes", "no")


def test_criterion_05_semiclassical_ball():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    n, s = 3, 2
    half = Fraction(n - 2, n - 1)
    eye = ExactMatrix.identity(s)
    perms = permutations_lex(n)
    for trial in range(100):
        weights = perturbed_constant_decomposition(rng, n, s)
        square = square_from_decomposition(weights)
        # precondition of the diameter bound, checked exactly
        for sigma in perms:
            total = square.block(0, sigma[0])
            for k in range(1, n):
                total = total + square.block(k, sigma[k])
            assert psd_check_exact(total - eye * half).is_psd
        dec = interior_map_decomposition(square)
        rebuilt = dec.reconstruct()
        assert all(
            (rebuilt.block(i, j) - square.block(i, j)).is_zero()
            for i in range(n)
            for j in range(n)
        ), f"trial {trial}: reconstruction is not exact"
        assert check_semiclassical(square).verdict == "yes"
    assert time.perf_counter() - start < 120.0


def test_criterion_06_cross_pipeline_consistency(counterexample, certified):
    sc = check_semiclassical(counterexample)
    assert sc.verdict == "no"
    assert sc.dual is not None and sc.dual.status is Status.INFEASIBLE
    assert sc.dual.y is not None  # the LMI dual witness
    _, cert, _ = certified  # the obstruction certificate for the same input
    assert cert.n == 3 and cert.s == 2
    assert cert.pairings["B0"] < 0


def test_criterion_07_dilation_soundness():
    rng = np.random.default_rng(13)
    cases = [(n, s) for n in (2, 3) for s in (1, 2)]
    for trial in range(50):
        n, s = cases[trial % len(cases)]
        weights = random_exact_decomposition(rng, n, s)
        dec = SemiclassicalDecomposition(n, s, True, weights)
        source = dec.reconstruct()
        dilation = synthesize_commuting_dilation(dec)
        compressed = dilation.compressed()
        flo = source.to_float()
        resid = max(
            float(np.abs(np.asarray(compressed.block(i, j)) - np.asarray(flo.block(i, j))).max())
            for i in range(n)
            for j in range(n)
        )
        assert resid <= 1e-10, f"trial {trial}: compression residual {resid:.2e}"
        # q-level identity with exact permutation entries
        for i in range(n):
            for j in range(n):
                acc = ExactMatrix.zeros(s)
                for sigma, q in weights.items():
                    if perm_matrix_exact(sigma)[i, j] == 1:
                        acc = acc + q
                assert (acc - source.block(i, j)).is_zero()


def test_criterion_08_birkhoff():
    rng = np.random.default_rng(17)
    for trial in range(1000):
        n = 1 + trial % 6
        m = random_doubly_stochastic(rng, n)
        terms = birkhoff_decompose(m)
        assert len(terms) <= (n - 1) ** 2 + 1
        rebuilt = [[Fraction(0)] * n for _ in range(n)]
        for sigma, w in terms:
            for i in range(n):
                rebuilt[i][sigma[i]] += w
        assert rebuilt == [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]
    for n in range(1, 6):
        assert magic_space_dimension(n) == (n - 1) ** 2 + 1


def test_criterion_09_split_property_suite():
    rng = np.random.default_rng(19)
    for _ in range(200):
        s = int(rng.integers(1, 4))
        t = s + int(rng.integers(1, 5))
        triple = make_projector_dilation(rng, s, t)
        assert split_decompose(triple).residual <= 1e-10
    flagged = 0
    for _ in range(200):
        s = int(rng.integers(1, 4))
        t = s + int(rng.integers(1, 5))
        triple = make_projector_dilation(rng, s, t)
        basis = split_decompose(triple).basis
        spike = np.zeros((t, t), dtype=complex)
        spike[s + int(rng.integers(0, t - s)), int(rng.integers(0, s))] = 1e-2
        w = triple.w + basis @ (spike + spike.conj().T) @ basis.conj().T
        bad = DilationTriple(triple.u, w, triple.v)
        try:
            if split_decompose(bad).residual > 1e-8:
                flagged += 1
        except InvariantViolated:
            flagged += 1
    assert flagged == 200


def test_criterion_10_extension_pipeline():
    rng = np.random.default_rng(23)
    done = 0
    while done < 20:
        weights = random_exact_decomposition(rng, 3, 2)
        square = square_from_decomposition(weights)
        a11 = np.asarray(square.to_float().block(0, 0))
        h = a11 - a11 @ a11
        if float(np.linalg.eigvalsh(h).max()) <= 1e-6:
            continue  # degenerate top-left, outside this criterion
        dec = SemiclassicalDecomposition(3, 2, True, weights)
        witness = member_witness_from_dilation(synthesize_commuting_dilation(dec))
        step = extend_dilation_step(square, witness.x)
        assert step.extended.s == 3
        report = validate_magic(
            [[step.extended.block(i, j) for j in range(3)] for i in range(3)], tol=1e-8
        )
        assert report.ok, f"extension {done}: {report.violations}"
        assert max(step.row_sums) <= 1 + 1e-10 and max(step.col_sums) <= 1 + 1e-10
        assert float(step.c.min()) >= -1e-12
        done += 1
