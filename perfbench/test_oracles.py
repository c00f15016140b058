"""Each oracle accepts the answer qmagic gives today and rejects a tampered one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import qmagic  # noqa: E402
from qmagic import ExactMatrix  # noqa: E402

import oracles  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _case(cases, name):
    return next(c for c in cases if c.name == name)


@pytest.fixture(scope="module")
def certified():
    case = _case(workloads.certify_cases(0), "orbit-real-rot")
    return case, worker.answer_certify(case.square)


@pytest.fixture(scope="module")
def decomposed():
    case = _case(workloads.membership_cases(0), "decomp-32-0")
    return case, worker.answer_lmi(case.square)


@pytest.fixture(scope="module")
def dilated():
    case = _case(workloads.membership_cases(0), "interior-32-0")
    return case, worker.answer_interior(case.square)


def _with_entries(m: ExactMatrix, changes: dict) -> ExactMatrix:
    rows = m.row_list()
    for (i, j), value in changes.items():
        rows[i][j] = value
    return ExactMatrix(rows)


# -- certificates ----------------------------------------------------------------------


def test_certificate_accepts_current_answer(certified):
    case, ans = certified
    assert ans["verdict"] == "no"
    assert worker.check(case, ans) == []


def test_certificate_rejects_negated_diagonal_entry(certified):
    case, ans = certified
    y = ans["cert"].y_exact
    k = next(k for k in range(y.rows) if y[k, k] != 0)
    cert = dataclasses.replace(ans["cert"], y_exact=_with_entries(y, {(k, k): -y[k, k]}))
    assert oracles.check_certificate(cert, case.square, ans["report"])


def test_certificate_rejects_negated_off_diagonal_pair(certified):
    case, ans = certified
    y = ans["cert"].y_exact
    i, j = next((i, j) for i in range(y.rows) for j in range(i + 1, y.rows) if y[i, j] != 0)
    cert = dataclasses.replace(
        ans["cert"], y_exact=_with_entries(y, {(i, j): -y[i, j], (j, i): -y[j, i]})
    )
    problems = oracles.check_certificate(cert, case.square, ans["report"])
    assert problems


def test_certificate_rejects_failed_verification(certified):
    case, ans = certified
    assert oracles.check_certificate(ans["cert"], case.square, {"ok": False})


def test_rebuilt_pencil_matches_the_program(certified):
    case, _ = certified
    a = case.square
    blocks = [[oracles.exact_entries(a.block(i, j)) for j in range(a.n)] for i in range(a.n)]
    ours = oracles.b0_matrix(blocks, a.n, a.s, strong=True)
    theirs = oracles.exact_entries(qmagic.phi_matrix(a) + qmagic.psi_matrix(a))
    assert ours == theirs


def test_zero_diagonal_basis_dimensions():
    for n in (3, 4, 5):
        assert len(oracles.zero_diagonal_basis(n, strong=True)) == n * n - 3 * n + 1
        assert len(oracles.zero_diagonal_basis(n, strong=False)) == n * n - n


# -- decompositions and dilations ---------------------------------------------------------


def test_decomposition_accepts_current_answer(decomposed):
    case, ans = decomposed
    assert ans["verdict"] == "yes"
    assert worker.check(case, ans) == []


def test_decomposition_rejects_moved_weight(decomposed):
    case, ans = decomposed
    dec = ans["dec"]
    first, second = list(dec.weights)[:2]
    weights = dict(dec.weights)
    weights[second] = weights[second] + weights[first]
    weights[first] = ExactMatrix.zeros(case.square.s)
    moved = dataclasses.replace(dec, weights=weights)
    assert oracles.check_decomposition(moved, case.square)


def test_decomposition_rejects_weight_that_is_not_psd(decomposed):
    # the even and the odd permutations of three letters each cover every
    # cell once, so shifting weight from the odd ones to the even ones keeps
    # every block sum and breaks positivity
    case, ans = decomposed
    dec = ans["dec"]
    shift = ExactMatrix.identity(case.square.s) * Fraction(10)
    even = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    weights = {
        sigma: q + shift if sigma in even else q - shift for sigma, q in dec.weights.items()
    }
    problems = oracles.check_decomposition(dataclasses.replace(dec, weights=weights), case.square)
    assert problems and all("not PSD" in p for p in problems)


def test_psd_by_minors():
    one = (Fraction(1), Fraction(0))
    zero = (Fraction(0), Fraction(0))
    i = (Fraction(0), Fraction(1))
    minus_i = (Fraction(0), Fraction(-1))
    assert oracles.psd_by_minors([[one, i], [minus_i, one]])  # singular, PSD
    assert not oracles.psd_by_minors([[one, zero], [zero, (Fraction(-1, 9), Fraction(0))]])
    assert not oracles.psd_by_minors([[zero, one], [one, zero]])  # diagonal PSD, det < 0


def test_dilation_accepts_current_answer(dilated):
    case, ans = dilated
    assert worker.check(case, ans) == []


def test_dilation_rejects_moved_isometry(dilated):
    case, ans = dilated
    dil = dataclasses.replace(ans["dil"], v=np.asarray(ans["dil"].v) * (1 + 1e-6))
    assert oracles.check_dilation(dil, case.square)


# -- the command line --------------------------------------------------------------------


def _cli(tmp_path, square, mode):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(qmagic.square_to_json(square)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from qmagic.cli import main; sys.exit(main())",
         "obstruction-check", str(path), "--mode", mode],
        capture_output=True, text=True, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1", "PATH": ""},
    )
    return str(path), proc


@pytest.mark.parametrize("name,expect", [("member3-0-strong", "yes"), ("orbit3-0-strong", "no")])
def test_cli_accepts_current_answer_and_rejects_flipped_verdict(tmp_path, name, expect):
    case = _case(workloads.cli_cases(0), name)
    path, proc = _cli(tmp_path, case.square, "strong")
    assert oracles.check_cli(expect, path, proc.returncode, proc.stdout, proc.stderr) == []
    report = json.loads(proc.stdout)
    report["verdicts"][path] = {"yes": "no", "no": "yes"}[expect]
    assert oracles.check_cli(expect, path, proc.returncode, json.dumps(report), proc.stderr)
    assert oracles.check_cli(expect, path, 1 - proc.returncode, proc.stdout, proc.stderr)


def test_cli_n2_square_fails_exactly_when_it_crashes(tmp_path):
    # today the strong pencil raises NotDefinedForSmallN on n = 2
    case = _case(workloads.cli_cases(0), "fixed2")
    path, proc = _cli(tmp_path, case.square, "strong")
    problems = oracles.check_cli("not-no", path, proc.returncode, proc.stdout, proc.stderr)
    assert bool(problems) == ("Traceback" in proc.stderr)


def test_cli_accepts_clean_refusal_of_n2_square():
    report = json.dumps({"verdicts": {"error": "strong pencil needs n >= 3"}})
    assert oracles.check_cli("not-no", "sq.json", 3, report, "error: strong pencil needs n >= 3\n") == []
    assert oracles.check_cli("not-no", "sq.json", 1, json.dumps({"verdicts": {"sq.json": "no"}}), "")


def test_predicted_verdicts():
    assert oracles.check_verdict("not-no", "yes") == []
    assert oracles.check_verdict("not-no", "inconclusive") == []
    assert oracles.check_verdict("not-no", "no")
    assert oracles.check_verdict("yes", "inconclusive")
