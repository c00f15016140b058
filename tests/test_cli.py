"""End-to-end tests of the command line interface.

Each invocation goes through main(argv); stdout carries one JSON report,
exit codes follow the 0/1/2/3 convention (affirmative, negative,
inconclusive, usage).
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmagic.cli import main
from qmagic.exact import ExactMatrix
from qmagic.obstruction import ObstructionCertificate, counterexample_m2_3
from qmagic.sampling import random_member_square
from qmagic.serialize import (
    birkhoff_from_json,
    certificate_to_json,
    decomposition_from_json,
    dump_json,
    dump_square,
    square_from_json,
    square_to_json,
)
from qmagic.structures import constant_square, validate_quantum_permutation
from test_serialize import _DELETE, _JSON, _mutated, _paths


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


def test_validate_batch_directory(run, workdir):
    code, report = run("validate", workdir / "batch")
    assert code == 0
    assert len(report["verdicts"]) == 2
    assert all(v == "valid" for v in report["verdicts"].values())


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


def test_verify_shipped_certificate(run):
    """The versioned certificate stays verifiable by exact arithmetic alone."""
    path = Path(__file__).parent / "data" / "counterexample.cert.json"
    code, report = run("verify-certificate", path)
    assert code == 0
    assert list(report["verdicts"].values()) == ["verified"]
    checks = report["details"]["checks"]
    assert checks["psd"] and checks["pairings_zero"]
    assert Fraction(checks["trace_b0"]) < 0


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


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(["validate", "birkhoff", "verify-certificate"]))
    if command == "validate":
        doc = _square_doc(
            draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.booleans())
        )
    elif command == "birkhoff":
        doc = _birkhoff_doc(draw(st.integers(1, 6)), draw(st.booleans()))
    else:
        n, s, mode = draw(st.sampled_from([(2, 1, "weak"), (2, 2, "weak"), (3, 1, "strong")]))
        doc = _certificate_doc(n, s, mode)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(
            _ENTRIES
            | st.integers(1, 6)
            | _JSON
            | st.just(_DELETE)
            | st.builds(_square_doc, st.integers(1, 6), st.integers(1, 3), st.booleans())
        )
        doc = _mutated(doc, path, value)
    flags = _SQUARE_FLAGS if command == "validate" else st.sampled_from([(), ("--eps", "1e-3")])
    return command, doc, draw(flags)


@settings(max_examples=50, deadline=None)
@given(_invocations())
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
