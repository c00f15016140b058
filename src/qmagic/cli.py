"""Command line front end.

Subcommands cover validation, Birkhoff decomposition, semiclassical
membership, dilation synthesis, the matrix-convex-hull obstruction, and
exact certificate handling, plus scripted reproductions of the headline
separation results.  Machine-readable reports go to stdout as JSON, a
short human summary goes to stderr.

Exit codes: 0 affirmative/valid, 1 negative/infeasible (a certificate is
written when one is available), 2 inconclusive, 3 usage or input error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .birkhoff import NotDoublyStochastic, birkhoff_decompose, magic_space_dimension
from .exact import rational_str
from .obstruction import (
    DENOMINATOR_LADDER,
    STRONG,
    WEAK,
    CertificationFailed,
    NotDefinedForSmallN,
    blend_dual,
    certify_with_ladder,
    check_mconv_obstruction,
    counterexample_m2_3,
    verify_certificate,
)
from .sampling import random_doubly_stochastic
from .sdp import DEFAULT_EPS
from .semiclassical import (
    BoundViolated,
    TooLarge,
    check_semiclassical,
    interior_map_decomposition,
    synthesize_commuting_dilation,
    verify_positive_unital_map,
)
from .serialize import (
    FormatError,
    birkhoff_to_json,
    certificate_from_json,
    certificate_to_json,
    decomposition_from_json,
    decomposition_to_json,
    dump_json,
    exact_matrix_from_json,
    float_matrix_to_json,
    load_json,
    load_square,
    rational_to_json,
    square_from_json,
    square_to_json,
)
from .structures import (
    DEFAULT_TOL,
    InvalidMagicSquare,
    MagicSquare,
    NotAnIsometry,
    compress,
    constant_square,
    grid_residual,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError on bad arguments, so they get a JSON report too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def _positive_float(text: str) -> float:
    """argparse type for --eps: a finite number greater than zero."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for --max-denominator: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


@dataclass
class RunReport:
    """Everything one invocation produced, in machine-readable form."""

    command: str
    inputs: list = field(default_factory=list)  # {"path", "digest"}
    verdicts: dict = field(default_factory=dict)  # input or scenario -> verdict
    residuals: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)  # seconds, informational only
    certificates: list = field(default_factory=list)  # files written
    details: dict = field(default_factory=dict)

    def render(self) -> dict:
        return asdict(self)


def _gather(paths) -> list[Path]:
    """Expand directory arguments into their sorted *.json members."""
    out = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            members = sorted(p.glob("*.json"))
            if not members:
                raise UsageError(f"{p}: directory contains no .json files")
            out.extend(members)
        elif p.exists():
            out.append(p)
        else:
            raise UsageError(f"{p}: no such file")
    return out


def _one_input(raw) -> Path:
    """The single file a command answers: a file, or a directory holding one."""
    files = _gather([raw])
    if len(files) > 1:
        raise UsageError(f"{raw}: this command takes one input file, got {len(files)}")
    return files[0]


def _combine(codes) -> int:
    codes = list(codes)
    for level in (EXIT_USAGE, EXIT_NEGATIVE, EXIT_INCONCLUSIVE):
        if level in codes:
            return level
    return EXIT_OK


def _coerce_repr(square: MagicSquare, args) -> MagicSquare:
    if args.float:
        return square.to_float()
    if args.exact and not square.exact:
        raise UsageError("--exact requires an exact input square")
    return square


def _eps(args) -> float:
    """The solver's epsilon: --eps when given."""
    return args.eps or DEFAULT_EPS


def _human(msg: str) -> None:
    print(msg, file=sys.stderr)


def _record(report: RunReport, path: Path) -> None:
    import hashlib  # loads OpenSSL; the digest is taken after the work is done

    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    report.inputs.append({"path": str(path), "digest": digest})


def _each_input(args, report: RunReport, work, what: str = "") -> tuple[int, list]:
    """Answer every input of a batch command with `work(path) -> (code,
    entry)`, then report them in input order: verdict, entry, timing, any
    residuals and certificate, one stderr line `{path}: {what}{verdict}`.
    An input that raises stops the batch before anything is reported.
    Returns the combined exit code and the entries.
    """
    files = _gather(args.inputs)
    if getattr(args, "out", None) and len(files) > 1:
        raise UsageError(f"--out takes one input file, got {len(files)}")
    results = []
    for path in files:
        start = time.perf_counter()
        results.append((path, *work(path), time.perf_counter() - start))
    for path, _, entry, elapsed in results:
        name = str(path)
        report.verdicts[name] = entry["verdict"]
        report.details[name] = entry
        if "residuals" in entry:
            report.residuals[name] = entry["residuals"]
        report.timings[name] = round(elapsed, 4)
        suffix = ""
        if "certificate" in entry:
            report.certificates.append(entry["certificate"])
            suffix = f", certificate -> {entry['certificate']}"
        _human(f"{name}: {what}{entry['verdict']}{suffix}")
    for path, *_ in results:
        _record(report, path)
    return _combine(code for _, code, *_ in results), [entry for _, _, entry, _ in results]


def _code(verdict: str) -> int:
    return {"yes": EXIT_OK, "no": EXIT_NEGATIVE}.get(verdict, EXIT_INCONCLUSIVE)


# -- validate -----------------------------------------------------------------


def _violations_json(violations) -> list:
    """Each violation's kind, location and margin: str(margin), by
    `rational_str`, past the digit limit, when exact."""
    return [
        {
            "kind": v.kind,
            "location": list(v.location),
            "margin": rational_str(v.margin) if isinstance(v.margin, Fraction) else str(v.margin),
        }
        for v in violations
    ]


def cmd_validate(args, report: RunReport) -> int:
    def work(path: Path):
        try:
            square = _coerce_repr(load_square(path, tol=args.eps), args)
        except InvalidMagicSquare as err:
            violations = _violations_json(err.report.violations)
            return EXIT_NEGATIVE, {"verdict": "invalid", "violations": violations}
        repr_ = "exact" if square.exact else "float"
        return EXIT_OK, {"verdict": "valid", "n": square.n, "s": square.s, "repr": repr_}

    return _each_input(args, report, work)[0]


# -- birkhoff -----------------------------------------------------------------


def cmd_birkhoff(args, report: RunReport) -> int:
    path = _one_input(args.input)
    _record(report, path)
    data = load_json(path)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    rows = exact_matrix_from_json(data).row_list()
    if any(z.im for row in rows for z in row):
        raise UsageError("birkhoff input must be a real rational matrix")
    terms = birkhoff_decompose([[z.re for z in row] for row in rows])
    n = len(rows)
    bound = (n - 1) ** 2 + 1
    payload = birkhoff_to_json(terms)
    report.verdicts[str(path)] = "decomposed"
    report.details["terms"] = payload
    report.details["count"] = len(terms)
    report.details["bound"] = bound
    report.details["affine_dimension"] = magic_space_dimension(n)
    if args.out:
        dump_json(payload, args.out)
        report.certificates.append(str(args.out))
    _human(f"{path}: {len(terms)} permutations (Caratheodory bound {bound})")
    return EXIT_OK


# -- check-semiclassical --------------------------------------------------------


def cmd_check_semiclassical(args, report: RunReport) -> int:
    def work(path: Path):
        square = _coerce_repr(load_square(path, tol=args.eps), args)
        res = check_semiclassical(square, eps=_eps(args))
        entry = {"verdict": res.verdict, "residuals": res.residuals}
        if res.verdict == "yes" and res.decomposition is not None:
            entry["decomposition"] = decomposition_to_json(res.decomposition)
            entry["exact"] = res.decomposition.exact
        if res.verdict == "no" and res.dual is not None:
            entry["dual_objective"] = float(res.dual.t_star)
        return _code(res.verdict), entry

    code, entries = _each_input(args, report, work, "semiclassical = ")
    if args.out and "decomposition" in entries[0]:
        dump_json(entries[0]["decomposition"], args.out)
        report.certificates.append(str(args.out))
    return code


# -- decompose ------------------------------------------------------------------


def cmd_decompose(args, report: RunReport) -> int:
    path = _one_input(args.input)
    _record(report, path)
    square = _coerce_repr(load_square(path, tol=args.eps), args)
    if args.interior:
        dec = interior_map_decomposition(square)
        verdict = "yes"
    else:
        res = check_semiclassical(square, eps=_eps(args))
        verdict = res.verdict
        dec = res.decomposition
    report.verdicts[str(path)] = verdict
    if verdict != "yes":
        _human(f"{path}: no decomposition found (verdict {verdict})")
        return _code(verdict)
    check = verify_positive_unital_map(dec, square, tol=max(_eps(args), 1e-9) * 10)
    report.details["decomposition"] = decomposition_to_json(dec)
    report.details["exact"] = dec.exact
    report.details["map_verified"] = bool(check.ok)
    out = args.out or path.with_suffix(".dec.json")
    dump_json(report.details["decomposition"], out)
    report.certificates.append(str(out))
    _human(f"{path}: decomposition with {len(dec.weights)} permutations -> {out}")
    return EXIT_OK


# -- dilate ----------------------------------------------------------------------


def cmd_dilate(args, report: RunReport) -> int:
    path = _one_input(args.input)
    _record(report, path)
    data = load_json(path)
    if isinstance(data, list):
        dec = decomposition_from_json(data)
        if args.exact and not dec.exact:
            raise UsageError("--exact requires an exact input decomposition")
        if violations := dec.weight_violations(_eps(args)):
            report.details["violations"] = _violations_json(violations)
            raise UsageError(
                "weights are not Hermitian and PSD at "
                + ", ".join(f"permutation {list(v.location)} ({v.kind})" for v in violations)
            )
        source = None
    else:
        source = _coerce_repr(square_from_json(data, tol=args.eps), args)
        res = check_semiclassical(source, eps=_eps(args))
        if res.verdict != "yes":
            report.verdicts[str(path)] = res.verdict
            _human(f"{path}: not semiclassical (verdict {res.verdict}), cannot dilate")
            return _code(res.verdict)
        dec = res.decomposition
    dilation = synthesize_commuting_dilation(dec)
    compressed = compress(dilation.u, dilation.v, tol=_eps(args))
    payload = {
        "qpm": square_to_json(dilation.u),
        "isometry": float_matrix_to_json(np.asarray(dilation.v, dtype=np.complex128)),
        "compressed": square_to_json(compressed),
    }
    if source is not None:
        report.residuals["compression"] = grid_residual(compressed.blocks, source.blocks)
    report.verdicts[str(path)] = "dilated"
    report.details["dilation"] = payload
    out = args.out or path.with_suffix(".dilation.json")
    dump_json(payload, out)
    report.certificates.append(str(out))
    _human(f"{path}: commuting dilation of block size {dilation.u.s} -> {out}")
    return EXIT_OK


# -- obstruction-check -----------------------------------------------------------


def _ladder(max_denominator) -> tuple:
    if not max_denominator:
        return DENOMINATOR_LADDER
    rungs = tuple(b for b in DENOMINATOR_LADDER if b < max_denominator)
    return rungs + (max_denominator,)


def _strong_certificate(res, args, out=None):
    """The exact certificate of a strong "no" on an exact square, from the
    solve that decided it: its dual blended once (`blend_dual`), then
    rounded up the denominator ladder; written to `out` when given.

    Returns (witness, certificate); raises CertificationFailed when no rung
    certifies.
    """
    witness = blend_dual(res.problem, res.solver, eps=_eps(args))
    cert = certify_with_ladder(witness.y, res.problem, _ladder(args.max_denominator))
    if out:
        dump_json(certificate_to_json(cert, square=res.problem.square), out)
    return witness, cert


def cmd_obstruction_check(args, report: RunReport) -> int:
    def work(path: Path):
        square = _coerce_repr(load_square(path, tol=args.eps), args)
        res = check_mconv_obstruction(square, mode=args.mode, eps=_eps(args))
        entry = {"verdict": res.verdict, "mode": args.mode}
        if res.verdict == "no":
            entry["dual_objective"] = float(res.solver.t_star)
            if args.mode == STRONG and square.exact:
                out = args.out or path.with_suffix(".cert.json")
                try:
                    _, cert = _strong_certificate(res, args, out)
                    entry["certificate"] = str(out)
                    entry["trace_B0"] = rational_to_json(cert.pairings["B0"])
                except CertificationFailed as err:
                    entry["certificate_error"] = str(err)
        return _code(res.verdict), entry

    return _each_input(args, report, work, f"{args.mode} obstruction verdict = ")[0]


# -- find-certificate -------------------------------------------------------------


def cmd_find_certificate(args, report: RunReport) -> int:
    path = _one_input(args.input)
    _record(report, path)
    name = str(path)
    square = load_square(path)
    if not square.exact:
        raise UsageError("exact certification requires an exact input square")
    if args.mode != STRONG:
        raise UsageError("certificates are built from the strong pencil; use --mode strong")
    res = check_mconv_obstruction(square, mode=STRONG, eps=_eps(args))
    if res.verdict == "yes":
        report.verdicts[name] = "feasible"
        _human(f"{path}: pencil is feasible, no certificate exists")
        return EXIT_NEGATIVE
    if res.verdict == "inconclusive":
        report.verdicts[name] = "inconclusive"
        _human(f"{path}: solver diagnostics: {res.solver.residuals}")
        return EXIT_INCONCLUSIVE
    out = args.out or path.with_suffix(".cert.json")
    try:
        witness, cert = _strong_certificate(res, args, out)
    except CertificationFailed as err:
        report.verdicts[name] = "inconclusive"
        report.details["failure"] = {"condition": err.condition, "margin": rational_str(err.margin)}
        _human(f"{path}: numeric dual found but exact certification failed: {err}")
        return EXIT_INCONCLUSIVE
    verification = verify_certificate(cert, square)
    report.verdicts[name] = "certified" if verification["ok"] else "inconclusive"
    report.certificates.append(str(out))
    report.details["pairings"] = _pairings_json(cert)
    report.details["reverified"] = bool(verification["ok"])
    report.residuals["numeric_dual"] = {
        "trace_B0": witness.trace_b0,
        "pairing_max": witness.pairing_max,
        "min_eigenvalue": witness.min_eigenvalue,
    }
    approx = float(cert.pairings["B0"])
    _human(f"{path}: exact certificate written to {out} (trace vs B0 = {approx:.6e})")
    if not verification["ok"]:
        _human(f"{path}: the written certificate does not re-verify")
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _pairings_json(cert) -> dict:
    return {label: rational_to_json(value) for label, value in cert.pairings.items()}


# -- verify-certificate ------------------------------------------------------------


def cmd_verify_certificate(args, report: RunReport) -> int:
    path = _one_input(args.input)
    _record(report, path)
    cert, embedded = certificate_from_json(load_json(path))
    if args.square:
        square = load_square(args.square)
        _record(report, args.square)
    else:
        square = embedded
    if square is None:
        raise UsageError("no square: pass --square FILE or use a certificate with one embedded")
    if not square.exact:
        raise UsageError("exact verification requires an exact square")
    if (square.n, square.s) != (cert.n, cert.s):
        raise UsageError(
            f"certificate is for n={cert.n}, s={cert.s}, square has n={square.n}, s={square.s}"
        )
    outcome = verify_certificate(cert, square)
    verdict = "verified" if outcome["ok"] else "rejected"
    report.verdicts[str(path)] = verdict
    report.details["checks"] = {
        k: (rational_to_json(v) if k == "trace_b0" else bool(v)) for k, v in outcome.items()
    }
    _human(f"{path}: certificate {verdict}")
    return EXIT_OK if outcome["ok"] else EXIT_NEGATIVE


# -- reproduce ---------------------------------------------------------------------


def scenario_separation(args, report: RunReport) -> int:
    """The n = 3, s = 2 square that is magic but outside the matrix convex
    hull of the quantum permutation matrices, with an exact dual
    certificate."""
    square = counterexample_m2_3()
    report.details["square"] = square_to_json(square)
    strong = check_mconv_obstruction(square, mode=STRONG, eps=_eps(args))
    weak = check_mconv_obstruction(square, mode=WEAK, eps=_eps(args))
    report.verdicts["strong"] = strong.verdict
    report.verdicts["weak"] = weak.verdict
    _human(f"strong pencil: {strong.verdict}; weak pencil: {weak.verdict}")
    if strong.verdict != "no" or weak.verdict != "no":
        return EXIT_INCONCLUSIVE if "inconclusive" in (strong.verdict, weak.verdict) else EXIT_NEGATIVE
    try:
        _, cert = _strong_certificate(strong, args, args.out)
    except CertificationFailed as err:
        report.verdicts["certificate"] = "inconclusive"
        report.details["certificate_error"] = str(err)
        _human(f"no exact certificate: {err}")
        return EXIT_INCONCLUSIVE
    verification = verify_certificate(cert, square)
    report.details["pairings"] = _pairings_json(cert)
    report.details["certificate_ok"] = bool(verification["ok"])
    report.verdicts["certificate"] = "verified" if verification["ok"] else "rejected"
    if args.out:
        report.certificates.append(str(args.out))
        _human(f"certificate -> {args.out}")
    for label in sorted(report.details["pairings"]):
        value = report.details["pairings"][label]
        if len(value) > 64:  # exact value lives in the JSON report
            num, _, den = value.partition("/")
            value = f"({len(num)}-digit)/({len(den)}-digit) ~ {float(cert.pairings[label]):.6e}"
        _human(f"  trace(Y {label}) = {value}")
    return EXIT_OK if verification["ok"] else EXIT_NEGATIVE


def scenario_no_semiclassical(args, report: RunReport) -> int:
    """The same square fails the semiclassical LMI, while a strictly
    interior square decomposes through the positive-map route."""
    square = counterexample_m2_3()
    res = check_semiclassical(square, eps=_eps(args))
    report.verdicts["counterexample"] = res.verdict
    _human(f"counterexample semiclassical check: {res.verdict}")
    if res.verdict != "no":
        return EXIT_INCONCLUSIVE if res.verdict == "inconclusive" else EXIT_NEGATIVE
    report.residuals["lmi_dual_objective"] = float(res.dual.t_star)
    interior = constant_square(3, 2)
    dec = interior_map_decomposition(interior)
    ok = dec.reconstruct() == interior
    report.verdicts["interior_constant"] = "yes" if ok else "rejected"
    _human(f"constant square interior decomposition exact: {ok}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def scenario_birkhoff_demo(args, report: RunReport) -> int:
    """Random rational doubly stochastic matrices decompose into at most
    (n-1)^2 + 1 permutations, matching the affine dimension count."""
    rng = np.random.default_rng(2024)
    worst = 0
    for n in (3, 4, 5):
        ds = random_doubly_stochastic(rng, n)
        terms = birkhoff_decompose(ds)
        bound = (n - 1) ** 2 + 1
        worst = max(worst, len(terms) - bound)
        report.details[f"n{n}"] = {
            "terms": len(terms),
            "bound": bound,
            "affine_dimension": magic_space_dimension(n),
        }
        _human(f"n={n}: {len(terms)} permutations, bound {bound}")
    report.verdicts["birkhoff-demo"] = "within bound" if worst <= 0 else "violated"
    return EXIT_OK if worst <= 0 else EXIT_NEGATIVE


SCENARIOS = {
    "separation": scenario_separation,
    "no-semiclassical": scenario_no_semiclassical,
    "birkhoff-demo": scenario_birkhoff_demo,
}


def cmd_reproduce(args, report: RunReport) -> int:
    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    codes = []
    for name in names:
        _human(f"-- {name} --")
        start = time.perf_counter()
        codes.append(SCENARIOS[name](args, report))
        report.timings[name] = round(time.perf_counter() - start, 4)
    return _combine(codes)


# -- wiring ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmagic",
        description="Magic squares over matrix algebras: membership checks and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--eps": dict(
            type=_positive_float, default=None,
            help="one value for two tolerances: the tolerance to which a float input "
            f"square is validated (default {DEFAULT_TOL:g}) and the solver's epsilon "
            f"(default {DEFAULT_EPS:g}), to which dilate also holds float weights and V*V - I",
        ),
        "--out": dict(type=Path, default=None, help="output file"),
        "--interior": dict(
            action="store_true", help="use the positive-map route for strictly interior squares"
        ),
        "--mode": dict(choices=(WEAK, STRONG), default=STRONG),
        "--max-denominator": dict(type=_positive_int, default=None),
        "--square": dict(type=Path, default=None, help="square file (overrides embedded)"),
    }

    def add(name, handler, summary, *flags, inputs="input"):
        """A subcommand with its positional `inputs` ("inputs" for a batch
        of files) and exactly the `flags` its handler reads."""
        p = sub.add_parser(name, help=summary)
        if inputs == "inputs":
            p.add_argument("inputs", nargs="+", help="input files or directories")
        else:
            p.add_argument(
                "input", metavar=inputs, help=f"{inputs} file, or a directory holding one"
            )
        for flag in flags:
            if flag == "--exact/--float":
                rep = p.add_mutually_exclusive_group()
                rep.add_argument("--exact", action="store_true", help="require exact input")
                rep.add_argument("--float", action="store_true", help="convert input to floating point")
            else:
                p.add_argument(flag, **options[flag])
        p.set_defaults(handler=handler)

    square = ("--eps", "--out", "--exact/--float")
    add("validate", cmd_validate, "check the magic-square axioms",
        "--eps", "--exact/--float", inputs="inputs")
    add("birkhoff", cmd_birkhoff,
        "decompose a rational doubly stochastic matrix into permutations", "--out")
    add("check-semiclassical", cmd_check_semiclassical, "decide semiclassical membership",
        *square, inputs="inputs")
    add("decompose", cmd_decompose, "produce a semiclassical decomposition",
        *square, "--interior")
    add("dilate", cmd_dilate, "synthesize a commuting dilation from a decomposition", *square)
    add("obstruction-check", cmd_obstruction_check, "run the matrix-convex-hull obstruction",
        *square, "--mode", "--max-denominator", inputs="inputs")
    add("find-certificate", cmd_find_certificate, "search and exactly certify a dual witness",
        "--eps", "--out", "--mode", "--max-denominator")
    add("verify-certificate", cmd_verify_certificate,
        "re-verify a certificate by exact arithmetic alone", "--square", inputs="certificate")
    rep = sub.add_parser("reproduce", help="rerun a scripted headline scenario")
    rep.add_argument("scenario", choices=sorted(SCENARIOS) + ["all"])
    rep.add_argument("--eps", type=_positive_float, default=None, help="the solver's epsilon")
    rep.add_argument("--out", type=Path, default=None)
    rep.add_argument("--max-denominator", type=_positive_int, default=None)
    rep.set_defaults(handler=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    report = RunReport(command=argv[0] if argv else "")
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as err:
        return _refuse(report, "error", err, EXIT_USAGE)
    except SystemExit as err:  # --help
        return EXIT_USAGE if err.code else EXIT_OK
    report.command = args.command
    start = time.perf_counter()
    try:
        code = args.handler(args, report)
    except (
        UsageError, FormatError, NotDoublyStochastic, NotAnIsometry, TooLarge,
        NotDefinedForSmallN, OSError,
    ) as err:
        return _refuse(report, "error", err, EXIT_USAGE)
    except BoundViolated as err:
        return _refuse(report, "interior bound violated", err, EXIT_INCONCLUSIVE)
    except InvalidMagicSquare as err:
        return _refuse(report, "input is not a magic square", err, EXIT_USAGE)
    report.timings["total"] = round(time.perf_counter() - start, 4)
    print_json(report)
    return code


def _refuse(report: RunReport, what: str, err: Exception, code: int) -> int:
    """Report an error in the JSON report and on stderr, and return `code`."""
    _human(f"{what}: {err}")
    report.verdicts["error"] = str(err)
    print_json(report)
    return code


def print_json(report: RunReport) -> None:
    import json

    json.dump(report.render(), sys.stdout, indent=1, default=str)
    sys.stdout.write("\n")


if __name__ == "__main__":
    sys.exit(main())
