"""End-to-end tests of the command line interface.

Each invocation goes through main(argv); stdout carries one JSON report,
exit codes follow the 0/1/2/3 convention (affirmative, negative,
inconclusive, usage).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmagic.obstruction
from qmagic.cli import main
from qmagic.exact import ExactMatrix, rational_str
from qmagic.obstruction import ObstructionCertificate, counterexample_m2_3
from qmagic.sampling import random_member_square
from qmagic.semiclassical import SemiclassicalDecomposition, interior_map_decomposition
from qmagic.serialize import (
    birkhoff_from_json,
    certificate_from_json,
    certificate_to_json,
    decomposition_from_json,
    decomposition_to_json,
    dump_json,
    dump_square,
    load_json,
    rational_from_json,
    square_from_json,
    square_to_json,
)
from qmagic.structures import (
    MagicSquare,
    constant_square,
    permutations_lex,
    validate_quantum_permutation,
)
from test_serialize import _DELETE, _JSON, _mutated, _paths

SHIPPED_CERT = Path(__file__).parent / "data" / "counterexample.cert.json"


def test_importing_the_cli_leaves_hashlib_unloaded():
    """hashlib, and the OpenSSL it loads, is imported only when the input
    digests are taken, after every input has been answered."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, qmagic.cli; print('hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    dump_square(constant_square(3, 2), root / "constant3.json")
    dump_square(counterexample_m2_3(), root / "counterexample.json")
    rng = np.random.default_rng(0)
    dump_square(random_member_square(rng, 3, 2), root / "member_float.json")
    dump_json(
        [["1/2", "1/2", "0"], ["1/4", "1/4", "1/2"], ["1/4", "1/4", "1/2"]],
        root / "ds.json",
    )
    broken = square_to_json(constant_square(2, 1))
    broken["blocks"][0][0][0][0] = {"re": "2/3", "im": "0"}
    dump_json(broken, root / "broken.json")
    (root / "garbage.json").write_text("{not json")
    batch = root / "batch"
    batch.mkdir()
    dump_square(constant_square(3, 1), batch / "a.json")
    dump_square(constant_square(4, 1), batch / "b.json")
    return root


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main([str(a) for a in argv])
        out = capsys.readouterr().out
        return code, json.loads(out) if out.strip() else None

    return _run


@pytest.fixture(scope="module")
def strong_cert(workdir):
    """One strong obstruction run on the counterexample, certificate kept."""
    out = workdir / "cex.cert.json"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(
            ["obstruction-check", str(workdir / "counterexample.json"), "--mode", "strong", "--out", str(out)]
        )
    return code, json.loads(buf.getvalue()), out


# -- validate -------------------------------------------------------------------


def test_validate_ok(run, workdir):
    code, report = run("validate", workdir / "constant3.json")
    assert code == 0
    assert report["command"] == "validate"
    name = str(workdir / "constant3.json")
    assert report["verdicts"][name] == "valid"
    assert report["details"][name]["repr"] == "exact"
    assert len(report["inputs"][0]["digest"]) == 16


def test_validate_invalid_square(run, workdir):
    code, report = run("validate", workdir / "broken.json")
    assert code == 1
    entry = report["details"][str(workdir / "broken.json")]
    assert entry["verdict"] == "invalid"
    assert any(v["kind"] in ("row_sum", "col_sum") for v in entry["violations"])


# An exact n = 2, s = 1 square with a11 = a22 = 10^-5000 and
# a12 = a21 = (10^5000 - 2) / 10^5000: every row and column sums to
# 1 - 10^-5000, so each margin, 10^-5000, is past the int-to-str digit limit.
_TEN_5000 = "1" + "0" * 5000
_CORNER, _OFF = f"1/{_TEN_5000}", f"{'9' * 4999}8/{_TEN_5000}"
_LONG_DIGIT_SQUARE = {
    "n": 2, "s": 1, "repr": "exact",
    "blocks": [[[[_CORNER]], [[_OFF]]], [[[_OFF]], [[_CORNER]]]],
}


def test_validate_reports_margins_past_the_digit_limit(run, tmp_path):
    path = tmp_path / "long.json"
    dump_json(_LONG_DIGIT_SQUARE, path)
    code, report = run("validate", path)
    assert code == 1
    entry = report["details"][str(path)]
    assert entry["verdict"] == "invalid"
    corner, off = Fraction(1, 10**5000), Fraction(10**5000 - 2, 10**5000)
    margin = rational_str(1 - (corner + off))
    assert entry["violations"] == [
        {"kind": kind, "location": [k], "margin": margin}
        for kind in ("row_sum", "col_sum")
        for k in range(2)
    ]


@pytest.mark.parametrize("command", ["check-semiclassical", "obstruction-check"])
def test_square_with_margins_past_the_digit_limit_is_not_magic(capsys, tmp_path, command):
    path = tmp_path / "long.json"
    dump_json(_LONG_DIGIT_SQUARE, path)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["verdicts"]["error"].startswith("not a magic square: ")
    assert captured.err.startswith("input is not a magic square: ")


def test_birkhoff_reports_sums_past_the_digit_limit(capsys, tmp_path):
    """A matrix whose row sums miss 1 by 10^-5000 is refused with exit 3 and
    a JSON report naming the exact sum."""
    path = tmp_path / "long.json"
    dump_json([[_CORNER, _OFF], [_OFF, _CORNER]], path)
    code = main(["birkhoff", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    corner, off = Fraction(1, 10**5000), Fraction(10**5000 - 2, 10**5000)
    error = json.loads(captured.out)["verdicts"]["error"]
    assert error.endswith(f"row 0 sums to {rational_str(corner + off)}")
    assert "Traceback" not in captured.err


def test_validate_batch_directory(run, workdir):
    code, report = run("validate", workdir / "batch")
    assert code == 0
    assert len(report["verdicts"]) == 2
    assert all(v == "valid" for v in report["verdicts"].values())


@pytest.mark.parametrize("command", ["validate", "check-semiclassical", "obstruction-check"])
def test_batch_refused_halfway_reports_no_input(run, workdir, command):
    """Every input is answered before any is reported, so a refusal of the
    second file leaves no verdict of the first in the report."""
    mixed = workdir / "mixed"
    mixed.mkdir(exist_ok=True)
    dump_square(constant_square(3, 1), mixed / "a.json")
    (mixed / "b.json").write_text("{not json")
    code, report = run(command, mixed)
    assert code == 3
    assert list(report["verdicts"]) == ["error"]
    assert report["inputs"] == [] and report["details"] == {}


def test_validate_missing_file(run, workdir):
    code, _ = run("validate", workdir / "nope.json")
    assert code == 3


def test_validate_garbage_json(run, workdir):
    code, _ = run("validate", workdir / "garbage.json")
    assert code == 3


def test_unknown_subcommand(run):
    code, _ = run("frobnicate")
    assert code == 3


def test_exact_flag_rejects_float_input(run, workdir):
    code, _ = run("validate", workdir / "member_float.json", "--exact")
    assert code == 3


def test_float_flag_converts(run, workdir):
    code, report = run("validate", workdir / "constant3.json", "--float")
    assert code == 0
    assert report["details"][str(workdir / "constant3.json")]["repr"] == "float"


# -- birkhoff -------------------------------------------------------------------


def test_birkhoff_decomposes(run, workdir):
    out = workdir / "ds.dec.json"
    code, report = run("birkhoff", workdir / "ds.json", "--out", out)
    assert code == 0
    terms = birkhoff_from_json(report["details"]["terms"])
    assert sum(w for _, w in terms) == 1
    assert report["details"]["count"] <= report["details"]["bound"]
    assert birkhoff_from_json(json.loads(out.read_text())) == terms


def test_birkhoff_rejects_non_stochastic(run, workdir):
    bad = workdir / "notds.json"
    dump_json([["1/2", "1/2"], ["1/2", "1/4"]], bad)
    code, _ = run("birkhoff", bad)
    assert code == 3


# -- check-semiclassical ----------------------------------------------------------


def test_check_semiclassical_yes(run, workdir):
    code, report = run("check-semiclassical", workdir / "constant3.json")
    assert code == 0
    entry = report["details"][str(workdir / "constant3.json")]
    assert entry["verdict"] == "yes" and entry["exact"]
    dec = decomposition_from_json(entry["decomposition"])
    rebuilt = dec.reconstruct()
    target = constant_square(3, 2)
    assert all(
        (rebuilt.block(i, j) - target.block(i, j)).is_zero() for i in range(3) for j in range(3)
    )
    residuals = entry["residuals"]
    assert type(residuals["iterations"]) is int
    assert type(residuals["stalled"]) is bool
    assert type(residuals["repair_denominator"]) is int
    assert type(residuals["mu_final"]) is float
    # the pencil of n = 3, s = 2: n! s = 12 rows, (n! - (n-1)^2 - 1) s^2 = 4 directions
    assert type(residuals["lmi_dim"]) is int and residuals["lmi_dim"] == 12
    assert type(residuals["lmi_directions"]) is int and residuals["lmi_directions"] == 4
    assert report["residuals"][str(workdir / "constant3.json")] == residuals


def test_check_semiclassical_no(run, workdir):
    code, report = run("check-semiclassical", workdir / "counterexample.json")
    assert code == 1
    entry = report["details"][str(workdir / "counterexample.json")]
    assert entry["verdict"] == "no"
    assert entry["dual_objective"] < 0


# -- decompose / dilate -------------------------------------------------------------


def test_decompose_interior_writes_file(run, workdir):
    out = workdir / "constant3.dec.json"
    code, report = run("decompose", workdir / "constant3.json", "--interior", "--out", out)
    assert code == 0
    assert report["details"]["map_verified"]
    dec = decomposition_from_json(json.loads(out.read_text()))
    assert dec.exact and len(dec.weights) == 6


def test_decompose_counterexample_fails(run, workdir):
    code, report = run("decompose", workdir / "counterexample.json")
    assert code == 1
    assert report["verdicts"][str(workdir / "counterexample.json")] == "no"


def test_dilate_from_decomposition_file(run, workdir):
    dec_path = workdir / "constant3.dec.json"
    if not dec_path.exists():
        run("decompose", workdir / "constant3.json", "--interior", "--out", dec_path)
    out = workdir / "constant3.dilation.json"
    code, report = run("dilate", dec_path, "--out", out)
    assert code == 0
    payload = json.loads(out.read_text())
    qpm = square_from_json(payload["qpm"])
    assert validate_quantum_permutation(qpm).ok
    compressed = square_from_json(payload["compressed"])
    target = constant_square(3, 2).to_float()
    worst = max(
        float(np.abs(np.asarray(compressed.block(i, j)) - np.asarray(target.block(i, j))).max())
        for i in range(3)
        for j in range(3)
    )
    assert worst <= 1e-10


def test_dilate_square_directly(run, workdir):
    code, report = run("dilate", workdir / "constant3.json")
    assert code == 0
    assert report["residuals"]["compression"] <= 1e-10


def test_dilate_refuses_weights_not_summing_to_identity(run, workdir):
    path = workdir / "short.dec.json"
    dump_json([{"perm": [0, 1], "q": [["1/2"]]}, {"perm": [1, 0], "q": [["1/3"]]}], path)
    code, report = run("dilate", path, "--out", workdir / "short.dilation.json")
    assert code == 3
    assert "V*V - I" in report["verdicts"]["error"]


def test_dilate_missing_permutation_is_zero_weight(run, workdir):
    path = workdir / "identity.dec.json"
    dump_json([{"perm": [0, 1], "q": [["1"]]}], path)
    code, report = run("dilate", path, "--out", workdir / "identity.dilation.json")
    assert code == 0
    compressed = square_from_json(report["details"]["dilation"]["compressed"])
    assert compressed == MagicSquare([[[[1]], [[0]]], [[[0]], [[1]]]]).to_float()


def _float_weights_doc(*weights):
    """The decomposition of n = 2, s = 1 with float weights q_01, q_10."""
    terms = zip([(0, 1), (1, 0)], weights)
    weights = {p: np.array([[q]], dtype=complex) for p, q in terms}
    return decomposition_to_json(SemiclassicalDecomposition(2, 1, False, weights))


@pytest.mark.parametrize(
    "doc, flags, refused",
    [
        # weights that are not Hermitian: the compressed block (0, 0) would be
        # their Hermitian part [[1/2, 1/4], [1/4, 1/2]], not the q_01 given
        ([{"perm": [0, 1], "q": [["1/2", "1/2"], ["0", "1/2"]]},
          {"perm": [1, 0], "q": [["1/2", "-1/2"], ["0", "1/2"]]}], (),
         [("not_hermitian", [0, 1]), ("not_hermitian", [1, 0])]),
        # Hermitian weights summing to I, one of them not PSD
        ([{"perm": [0, 1], "q": [["3/2"]]}, {"perm": [1, 0], "q": [["-1/2"]]}], (),
         [("block_not_psd", [1, 0])]),
        # float weights are held to --eps
        (_float_weights_doc(1 + 1e-12, -1e-12), ("--eps", "1e-13"), [("block_not_psd", [1, 0])]),
        (_float_weights_doc(1 + 1e-6j, -1e-6j), (), [("not_hermitian", [0, 1]),
                                                   ("not_hermitian", [1, 0])]),
    ],
    ids=["exact-not-hermitian", "exact-not-psd", "float-not-psd", "float-not-hermitian"],
)
def test_dilate_refuses_weights_that_are_not_psd(run, workdir, doc, flags, refused):
    path = workdir / "weights.dec.json"
    dump_json(doc, path)
    out = workdir / "weights.dilation.json"
    code, report = run("dilate", path, "--out", out, *flags)
    assert code == 3
    assert not out.exists()
    got = [(v["kind"], v["location"]) for v in report["details"]["violations"]]
    assert got == refused
    for _, perm in refused:
        assert f"permutation {perm}" in report["verdicts"]["error"]


def test_dilate_holds_float_weights_to_eps(run, tmp_path):
    """Float weights pass within --eps, the solver's 1e-7 by default: a
    weight of -1e-12 dilates, and is refused at --eps 1e-13."""
    dump_json(_float_weights_doc(1 + 1e-12, -1e-12), tmp_path / "dip.dec.json")
    code, report = run("dilate", tmp_path / "dip.dec.json", "--out", tmp_path / "dip.json")
    assert code == 0 and "violations" not in report["details"]
    code, report = run("dilate", tmp_path / "dip.dec.json", "--eps", "1e-13")
    assert code == 3 and report["details"]["violations"][0]["location"] == [1, 0]


def test_dilate_takes_a_float_member_square(run, workdir, tmp_path):
    """The LMI accepts float weights down to -eps, so dilate holds V*V - I
    to the solver's epsilon: a float member dilates."""
    out = tmp_path / "member.dilation.json"
    code, report = run("dilate", workdir / "member_float.json", "--out", out)
    assert code == 0 and report["residuals"]["compression"] <= 1e-7


def test_dilate_takes_the_decomposition_check_semiclassical_wrote(run, workdir, tmp_path):
    """Float weights are held to the solver's epsilon too, so the LMI's own
    float decomposition of a member dilates."""
    dec = tmp_path / "member.dec.json"
    assert run("check-semiclassical", workdir / "member_float.json", "--out", dec)[0] == 0
    assert run("dilate", dec, "--out", tmp_path / "member.dilation.json")[0] == 0


def test_dilate_exact_requires_an_exact_decomposition(run, workdir, tmp_path):
    """--exact refuses a float decomposition, as it refuses a float square."""
    dec = tmp_path / "float.dec.json"
    dump_json(_decomposition_doc(3, 2, False, ()), dec)
    code, report = run("dilate", dec, "--exact", "--out", tmp_path / "float.dilation.json")
    assert code == 3
    assert "--exact requires an exact input" in report["verdicts"]["error"]
    assert not (tmp_path / "float.dilation.json").exists()
    exact = tmp_path / "exact.dec.json"
    dump_json(_decomposition_doc(3, 2, True, ()), exact)
    assert run("dilate", exact, "--exact", "--out", tmp_path / "exact.dilation.json")[0] == 0


@pytest.mark.parametrize(
    "perm", [[], list(range(7))], ids=["empty-perm", "n7-one-term"]
)
def test_dilate_refused_decompositions_are_usage_errors(run, workdir, perm):
    path = workdir / "refused.dec.json"
    dump_json([{"perm": perm, "q": [["1"]]}], path)
    code, report = run("dilate", path, "--out", workdir / "refused.dilation.json")
    assert code == 3
    assert report["verdicts"]["error"]
    assert not (workdir / "refused.dilation.json").exists()


# -- obstruction-check / certificates --------------------------------------------


def test_obstruction_check_yes_on_constant(run, workdir):
    code, report = run("obstruction-check", workdir / "constant3.json", "--mode", "weak")
    assert code == 0
    assert report["verdicts"][str(workdir / "constant3.json")] == "yes"


def test_obstruction_check_no_with_certificate(strong_cert, workdir):
    code, report, cert_path = strong_cert
    assert code == 1
    entry = report["details"][str(workdir / "counterexample.json")]
    assert entry["verdict"] == "no"
    assert entry["certificate"] == str(cert_path)
    assert cert_path.exists()
    assert Fraction(entry["trace_B0"]) < 0


def test_verify_certificate_accepts_emitted(run, strong_cert):
    _, _, cert_path = strong_cert
    code, report = run("verify-certificate", cert_path)
    assert code == 0
    assert report["verdicts"][str(cert_path)] == "verified"


def test_verify_certificate_explicit_square(run, strong_cert, workdir):
    _, _, cert_path = strong_cert
    code, _ = run("verify-certificate", cert_path, "--square", workdir / "counterexample.json")
    assert code == 0


def test_verify_certificate_wrong_square(run, strong_cert, workdir):
    _, _, cert_path = strong_cert
    code, _ = run("verify-certificate", cert_path, "--square", workdir / "constant3.json")
    assert code == 1


def test_verify_certificate_tampered_pairing(run, strong_cert, workdir):
    _, _, cert_path = strong_cert
    data = json.loads(cert_path.read_text())
    data["pairings"]["B1"] = "1/7"
    tampered = workdir / "tampered.cert.json"
    dump_json(data, tampered)
    code, _ = run("verify-certificate", tampered)
    assert code == 1


def test_verify_certificate_past_the_int_digit_limit(run, workdir):
    """The shipped certificate scaled by a positive rational c of more than
    4300 digits (Y >= 0, zero pairings and trace(Y B0) < 0 all survive) is
    written, read back equal and verified; `str` of such an int raises."""
    cert, square = certificate_from_json(json.loads(SHIPPED_CERT.read_text()))
    c = Fraction(10**4400 + 1, 3**9300)
    big = ObstructionCertificate(
        cert.n, cert.s, cert.mode, cert.y_exact * c, {k: v * c for k, v in cert.pairings.items()}
    )
    path = workdir / "long.cert.json"
    dump_json(certificate_to_json(big, square), path)
    data = load_json(path)
    assert len(data["pairings"]["B0"].partition("/")[0]) > 4300
    assert certificate_from_json(data)[0] == big
    code, report = run("verify-certificate", path)
    assert code == 0
    assert report["verdicts"][str(path)] == "verified"
    assert rational_from_json(report["details"]["checks"]["trace_b0"]) == big.pairings["B0"]


def test_verify_certificate_needs_square(run, strong_cert, workdir):
    _, _, cert_path = strong_cert
    data = json.loads(cert_path.read_text())
    data.pop("square")
    bare = workdir / "bare.cert.json"
    dump_json(data, bare)
    code, _ = run("verify-certificate", bare)
    assert code == 3


def test_validate_blocks_not_a_grid(run, workdir):
    data = square_to_json(constant_square(2, 1))
    data["blocks"] = 5
    path = workdir / "blocks5.json"
    dump_json(data, path)
    code, report = run("validate", path)
    assert code == 3
    assert "error" in report["verdicts"]


def _resize_y(data):
    data["Y"] = [row[:-1] for row in data["Y"][:-1]]


def _embed_other_square(data):
    data["square"] = square_to_json(constant_square(3, 1))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda data: data.update(n="x"),
        lambda data: data.update(pairings=[1]),
        _resize_y,
        lambda data: data.update(mode="bogus"),
        _embed_other_square,
    ],
    ids=["n-not-int", "pairings-list", "y-shape", "mode", "embedded-size"],
)
def test_verify_certificate_malformed_is_usage_error(run, strong_cert, workdir, mutate):
    _, _, cert_path = strong_cert
    data = json.loads(cert_path.read_text())
    mutate(data)
    bad = workdir / "malformed.cert.json"
    dump_json(data, bad)
    code, report = run("verify-certificate", bad)
    assert code == 3
    assert "error" in report["verdicts"]


def test_verify_certificate_square_size_mismatch(run, strong_cert, workdir):
    _, _, cert_path = strong_cert
    other = workdir / "constant3_1.json"
    dump_square(constant_square(3, 1), other)
    code, report = run("verify-certificate", cert_path, "--square", other)
    assert code == 3
    assert "n=3, s=2" in report["verdicts"]["error"]


def test_find_certificate_feasible_square(run, workdir):
    code, report = run("find-certificate", workdir / "constant3.json")
    assert code == 1
    assert report["verdicts"][str(workdir / "constant3.json")] == "feasible"


def test_find_certificate_weak_mode_is_usage_error(run, workdir):
    code, _ = run("find-certificate", workdir / "counterexample.json", "--mode", "weak")
    assert code == 3


def test_find_certificate_requires_exact(run, workdir):
    code, _ = run("find-certificate", workdir / "member_float.json")
    assert code == 3


@pytest.mark.parametrize("command", ["obstruction-check", "find-certificate"])
def test_strong_pencil_on_n2_is_usage_error(run, workdir, command):
    path = workdir / "constant2.json"
    dump_square(constant_square(2, 2), path)
    code, report = run(command, path, "--mode", "strong")
    assert code == 3
    assert "n >= 3" in report["verdicts"]["error"]


@pytest.mark.parametrize("command", ["obstruction-check", "check-semiclassical"])
@pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf", "tiny"])
def test_eps_must_be_finite_positive(run, workdir, command, eps):
    code, report = run(command, workdir / "counterexample.json", "--eps", eps)
    assert code == 3
    assert report["command"] == command
    assert "--eps" in report["verdicts"]["error"]


@pytest.mark.parametrize("command", ["obstruction-check", "find-certificate", "reproduce"])
@pytest.mark.parametrize("bound", ["-5", "0", "2.5", "ten"])
def test_max_denominator_must_be_positive_integer(run, workdir, command, bound):
    target = "separation" if command == "reproduce" else workdir / "counterexample.json"
    code, report = run(command, target, "--max-denominator", bound)
    assert code == 3
    assert report["command"] == command
    assert "--max-denominator" in report["verdicts"]["error"]


@pytest.mark.parametrize("command", ["obstruction-check", "check-semiclassical"])
def test_out_refused_with_several_inputs(run, workdir, command):
    out = workdir / f"{command}.several.json"
    code, report = run(command, workdir / "batch", "--out", out)
    assert code == 3
    assert "--out" in report["verdicts"]["error"]
    assert not out.exists()


# Options a command's handler does not read are not declared, so they are refused.
_UNREAD_FLAGS = [
    ("validate", "constant3.json", ("--out", "x.json")),
    ("birkhoff", "ds.json", ("--eps", "1e-3")),
    ("find-certificate", "counterexample.json", ("--exact",)),
    ("find-certificate", "counterexample.json", ("--float",)),
    ("verify-certificate", "shipped", ("--eps", "1e-3")),
    ("verify-certificate", "shipped", ("--out", "x.json")),
    ("verify-certificate", "shipped", ("--exact",)),
    ("verify-certificate", "shipped", ("--float",)),
]


@pytest.mark.parametrize("command, target, flag", _UNREAD_FLAGS)
def test_unread_option_is_usage_error(run, workdir, command, target, flag):
    path = SHIPPED_CERT if target == "shipped" else workdir / target
    code, report = run(command, path, *flag)
    assert code == 3
    assert report["command"] == command
    assert flag[0] in report["verdicts"]["error"]


_ONE_INPUT = [
    ("birkhoff", "ds.json"),
    ("decompose", "constant3.json"),
    ("dilate", "constant3.json"),
    ("find-certificate", "counterexample.json"),
]


@pytest.mark.parametrize("command, name", _ONE_INPUT)
def test_second_input_is_usage_error(run, workdir, command, name):
    code, report = run(command, workdir / name, workdir / name)
    assert code == 3
    assert "unrecognized arguments" in report["verdicts"]["error"]
    assert report["inputs"] == []


@pytest.mark.parametrize("command, name", _ONE_INPUT)
def test_directory_of_several_inputs_is_usage_error(run, workdir, command, name):
    code, report = run(command, workdir / "batch")
    assert code == 3
    assert "takes one input file, got 2" in report["verdicts"]["error"]
    assert report["inputs"] == []


@pytest.fixture(scope="module")
def off_by_1e7(workdir):
    """A float square whose first row and column sums miss I by 1e-7."""
    blocks = [[np.array(b) for b in row] for row in constant_square(3, 2).to_float().blocks]
    blocks[0][0][0, 0] += 1e-7
    path = workdir / "off_by_1e7.json"
    dump_json(square_to_json(MagicSquare(blocks, tol=1e-6)), path)
    return path


@pytest.mark.parametrize("command", ["check-semiclassical", "decompose", "dilate"])
def test_eps_is_the_validation_tolerance(run, off_by_1e7, command):
    code, report = run(command, off_by_1e7)
    assert code == 3
    assert "error" in report["verdicts"]
    code, report = run(command, off_by_1e7, "--eps", "1e-6")
    assert code == 0
    assert "error" not in report["verdicts"]


@pytest.mark.parametrize(
    "command, code, solves",
    # reproduce separation solves the strong and the weak pencil once each
    [("obstruction-check", 1, 1), ("find-certificate", 0, 1), ("reproduce", 0, 2)],
)
def test_certificate_comes_from_the_deciding_solve(run, workdir, monkeypatch, command, code, solves):
    """An exact strong "no" solves its pencil once, and every command that
    certifies it writes the shipped certificate bytes."""
    calls = []
    solve = qmagic.obstruction.solve_feasibility

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(qmagic.obstruction, "solve_feasibility", counted)
    target = "separation" if command == "reproduce" else workdir / "counterexample.json"
    out = workdir / f"{command}.once.cert.json"
    assert run(command, target, "--out", out)[0] == code
    assert len(calls) == solves
    assert out.read_bytes() == SHIPPED_CERT.read_bytes()


def test_find_certificate_unverified_is_inconclusive(run, workdir, monkeypatch):
    monkeypatch.setattr("qmagic.cli.verify_certificate", lambda cert, square: {"ok": False})
    out = workdir / "unverified.cert.json"
    code, report = run("find-certificate", workdir / "counterexample.json", "--out", out)
    assert code == 2
    assert report["details"]["reverified"] is False
    assert report["verdicts"][str(workdir / "counterexample.json")] == "inconclusive"


# -- reproduce ---------------------------------------------------------------------


def test_reproduce_birkhoff_demo(run):
    code, report = run("reproduce", "birkhoff-demo")
    assert code == 0
    assert report["verdicts"]["birkhoff-demo"] == "within bound"
    for n in (3, 4, 5):
        entry = report["details"][f"n{n}"]
        assert entry["terms"] <= entry["bound"]
        assert entry["affine_dimension"] == (n - 1) ** 2 + 1


def test_reproduce_no_semiclassical(run):
    code, report = run("reproduce", "no-semiclassical")
    assert code == 0
    assert report["verdicts"]["counterexample"] == "no"
    assert report["verdicts"]["interior_constant"] == "yes"


def test_reproduce_separation(run, workdir):
    out = workdir / "sep.cert.json"
    code, report = run("reproduce", "separation", "--out", out)
    assert code == 0
    assert report["verdicts"] == {"strong": "no", "weak": "no", "certificate": "verified"}
    assert Fraction(report["details"]["pairings"]["B0"]) < 0
    assert all(
        Fraction(report["details"]["pairings"][f"B{k}"]) == 0 for k in range(1, 5)
    )
    assert out.exists()


def test_reproduce_separation_failed_certification_is_inconclusive(run, workdir):
    out = workdir / "sep10.cert.json"
    code, report = run("reproduce", "separation", "--max-denominator", 10, "--out", out)
    assert code == 2
    assert report["verdicts"] == {"strong": "no", "weak": "no", "certificate": "inconclusive"}
    assert "exact certification failed" in report["details"]["certificate_error"]
    assert not out.exists()


# -- shipped artifacts -------------------------------------------------------------


def test_find_certificate_reproduces_shipped_certificate(run, workdir):
    """find-certificate on the counterexample writes the versioned bytes."""
    out = workdir / "found.cert.json"
    code, _ = run("find-certificate", workdir / "counterexample.json", "--out", out)
    assert code == 0
    assert out.read_bytes() == SHIPPED_CERT.read_bytes()


def test_verify_shipped_certificate(run):
    """The versioned certificate stays verifiable by exact arithmetic alone."""
    code, report = run("verify-certificate", SHIPPED_CERT)
    assert code == 0
    assert list(report["verdicts"].values()) == ["verified"]
    checks = report["details"]["checks"]
    assert checks["psd"] and checks["pairings_zero"]
    assert Fraction(checks["trace_b0"]) < 0


# -- raw bytes at the file boundary ---------------------------------------------------
#
# Files that json.dumps never writes: every command that reads one refuses it
# with exit 3 and a JSON report, like any other malformed input.

_LONG_INT = b"9" * 5000  # past Python's int-to-str digit limit
_RAW_FILES = {
    "not-utf8": b"\xff\xfe{}",
    "nested-100000-deep": b"[" * 100000,
    "long-int-n": b'{"n": ' + _LONG_INT + b', "s": 1, "repr": "exact", "blocks": [[["1"]]]}',
    "long-int-entry": b'{"n": 1, "s": 1, "repr": "exact", "blocks": [[[[' + _LONG_INT + b"]]]]}",
    "truncated": b'{"n": 2, "s": 1, "repr": "exact", "blocks": [[',
    "empty": b"",
}
_READERS = {  # the arguments before the file
    "validate": ["validate"],
    "check-semiclassical": ["check-semiclassical"],
    "obstruction-check": ["obstruction-check"],
    "birkhoff": ["birkhoff"],
    "dilate": ["dilate"],
    "verify-certificate": ["verify-certificate"],
    "verify-certificate-square": ["verify-certificate", SHIPPED_CERT, "--square"],
}


@pytest.mark.parametrize("kind", sorted(_RAW_FILES))
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_raw_file_bytes_are_usage_errors(capsys, tmp_path, kind, reader):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(_RAW_FILES[kind])
    code = main([str(a) for a in (*_READERS[reader], path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "error" in json.loads(captured.out)["verdicts"]
    assert "Traceback" not in captured.err


# -- fuzzing the exit-code contract ------------------------------------------------
#
# Generated and mutated documents go through main() for the commands that run
# no solver.  Whatever the input, the answer is an exit code in 0..3 and one
# JSON report on stdout, never an exception.

_BAD_RATIONALS = ["1/0", "x", "", "1/2/3", "0.5", "--1", 0.5, float("nan"), None, [1, 0], True]
_ENTRIES = st.sampled_from(["0", "1", "1/2", "-1/3"]) | st.sampled_from(_BAD_RATIONALS)
_SQUARE_FLAGS = st.sampled_from([(), ("--exact",), ("--float",), ("--eps", "1e-3")])


def _square_doc(n, s, exact):
    square = constant_square(n, s)
    return square_to_json(square if exact else square.to_float())


def _certificate_doc(n, s, mode):
    d = n * n * s
    cert = ObstructionCertificate(
        n=n, s=s, mode=mode, y_exact=Fraction(1, d) * ExactMatrix.identity(d),
        pairings={"B0": Fraction(-1)},
    )
    return certificate_to_json(cert, square=constant_square(n, s))


def _birkhoff_doc(n, wrapped):
    matrix = [[f"1/{n}"] * n for _ in range(n)]
    return {"matrix": matrix} if wrapped else matrix


def _decomposition_doc(n, s, exact, dropped):
    """The uniform decomposition I/n! of the constant square, with the terms
    at the indices in `dropped` left out."""
    weights = interior_map_decomposition(constant_square(n, s, exact=exact)).weights
    kept = {sigma: q for k, (sigma, q) in enumerate(weights.items()) if k not in dropped}
    return decomposition_to_json(SemiclassicalDecomposition(n, s, exact, kept))


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(["validate", "birkhoff", "verify-certificate", "dilate"]))
    if command == "validate":
        doc = _square_doc(
            draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.booleans())
        )
    elif command == "birkhoff":
        doc = _birkhoff_doc(draw(st.integers(1, 6)), draw(st.booleans()))
    elif command == "dilate":
        n = draw(st.integers(1, 4))
        dropped = draw(st.sets(st.integers(0, len(permutations_lex(n)) - 1)))
        doc = _decomposition_doc(n, draw(st.integers(1, 3)), draw(st.booleans()), dropped)
    else:
        n, s, mode = draw(st.sampled_from([(2, 1, "weak"), (2, 2, "weak"), (3, 1, "strong")]))
        doc = _certificate_doc(n, s, mode)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        squares = st.builds(_square_doc, st.integers(1, 6), st.integers(1, 3), st.booleans())
        value = draw(
            _ENTRIES
            | st.integers(1, 6)
            | _JSON
            | st.just(_DELETE)
            # a square would send dilate to the solver
            | (st.nothing() if command == "dilate" else squares)
        )
        doc = _mutated(doc, path, value)
    flags = _SQUARE_FLAGS if command == "validate" else st.just(())
    return command, doc, draw(flags)


@settings(max_examples=50, deadline=None)
@given(_invocations())
@example(("validate", _LONG_DIGIT_SQUARE, ()))
def test_fuzz_cli_exit_codes_and_reports(invocation):
    command, doc, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *flags])
    assert code in (0, 1, 2, 3)
    assert isinstance(json.loads(out.getvalue()), dict)
    assert "Traceback" not in err.getvalue()
