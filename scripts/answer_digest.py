#!/usr/bin/env python3
"""Print one sha256 over the exact answers of the benchmark squares.

    python3 scripts/answer_digest.py [--seeds 0 1 2 3 4 5]
        [--workloads certify membership interior obstruction-cli dilate]

A change that must leave every answer byte-identical prints the same digest
and document count as its parent.  The script sets OPENBLAS_NUM_THREADS=1
before numpy is loaded: the solver's float duals, and so the certificates
rounded from them, can differ in their last bits with the BLAS thread
count, and one thread makes the digest the same on every host.  The
documents, in this order:

- certify: for each "no" square in strong mode (the `certify` squares of
  `perfbench/workloads.py` at each seed, then `counterexample_m2_3()` and
  `embed_pad(counterexample_m2_3())`), and then for `counterexample_m2_3()`
  in weak mode, the dual of its deciding solve, blended once, is certified
  by `exact_certify` at each bound of RUNGS.  Each rung gives one
  document: the certificate's `certificate_to_json` and its
  `verify_certificate` report, or the failure condition and its exact
  margin.  A square the solver does not decide "no" gives its verdict
  alone.
- membership: for each `membership` LMI square at each seed, its
  `check_semiclassical` verdict, exact decomposition and repair rung.
- interior: for each `membership` interior square at each seed, the
  `decomposition_to_json` of its `interior_map_decomposition`.
- obstruction-cli: for each `obstruction-cli` square at each seed, the
  verdict and float `t_star` of `check_mconv_obstruction` in the square's
  mode (the float B0 reaches the reported `dual_objective` only this way),
  or the refusal of a strong pencil at n = 2.
- dilate: for each `membership` interior square at each seed, and then for
  each float member square of `obstruction-cli` at that seed, the commuting
  dilation (U, V) that `synthesize_commuting_dilation` builds from its
  `interior_map_decomposition`, or from its `check_semiclassical`
  decomposition, as `qmagic dilate` writes it: U, V and the compression
  V* U V at the solver's epsilon, or the refusal of a V whose V*V - I
  exceeds it.  A member the LMI does not decide "yes" gives its verdict
  alone.

The digest is the sha256 of the documents' JSON (sorted keys).  The
workload squares are read from `perfbench/workloads.py`, which is loaded
from its file and not changed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is loaded, through qmagic

from qmagic.exact import rational_str
from qmagic.obstruction import (
    CertificationFailed,
    NotDefinedForSmallN,
    blend_dual,
    check_mconv_obstruction,
    counterexample_m2_3,
    exact_certify,
    verify_certificate,
)
from qmagic.sdp import DEFAULT_EPS
from qmagic.semiclassical import (
    check_semiclassical,
    interior_map_decomposition,
    synthesize_commuting_dilation,
)
from qmagic.serialize import (
    certificate_to_json,
    decomposition_to_json,
    float_matrix_to_json,
    square_to_json,
)
from qmagic.structures import NotAnIsometry, compress, embed_pad

ROOT = Path(__file__).resolve().parents[1]
RUNGS = (10**3, 10**6, 10**9, 10**12)
WORKLOADS = ("certify", "membership", "interior", "obstruction-cli", "dilate")


def load_workloads():
    """`perfbench/workloads.py` as a module, registered for its dataclasses."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def certificate_docs(square, mode="strong") -> list:
    res = check_mconv_obstruction(square, mode=mode)
    if res.verdict != "no":
        return [{"verdict": res.verdict}]
    y = blend_dual(res.problem, res.solver).y
    docs = []
    for bound in RUNGS:
        try:
            cert = exact_certify(y, res.problem, bound)
        except CertificationFailed as err:
            docs.append({"condition": err.condition, "margin": rational_str(err.margin)})
            continue
        report = verify_certificate(cert, square)
        docs.append(
            {
                "certificate": certificate_to_json(cert),
                "report": {
                    k: rational_str(v) if isinstance(v, Fraction) else v for k, v in report.items()
                },
            }
        )
    return docs


def membership_doc(square) -> dict:
    res = check_semiclassical(square)
    return {
        "verdict": res.verdict,
        "weights": res.decomposition and decomposition_to_json(res.decomposition),
        "repair_denominator": res.residuals.get("repair_denominator"),
    }


def obstruction_doc(square, mode) -> dict:
    try:
        res = check_mconv_obstruction(square, mode=mode)
    except NotDefinedForSmallN as err:
        return {"refused": str(err)}
    return {"verdict": res.verdict, "t_star": float(res.solver.t_star)}


def dilation_doc(dec) -> dict:
    dilation = synthesize_commuting_dilation(dec)
    doc = {"qpm": square_to_json(dilation.u), "isometry": float_matrix_to_json(dilation.v)}
    try:
        doc["compressed"] = square_to_json(compress(dilation.u, dilation.v, tol=DEFAULT_EPS))
    except NotAnIsometry as err:
        doc["refused"] = str(err)
    return doc


def member_dilation_doc(square) -> dict:
    res = check_semiclassical(square)
    return dilation_doc(res.decomposition) if res.verdict == "yes" else {"verdict": res.verdict}


def answer_docs(seeds, workloads) -> list:
    cases = load_workloads()
    docs = []
    if "certify" in workloads:
        squares = [case.square for seed in seeds for case in cases.certify_cases(seed)]
        cex = counterexample_m2_3()
        for square in (*squares, cex, embed_pad(cex)):
            docs += certificate_docs(square)
        docs += certificate_docs(cex, mode="weak")
    if "membership" in workloads:
        for seed in seeds:
            docs += [
                membership_doc(case.square)
                for case in cases.membership_cases(seed)
                if case.task == "lmi"
            ]
    if "interior" in workloads:
        for seed in seeds:
            docs += [
                decomposition_to_json(interior_map_decomposition(case.square))
                for case in cases.membership_cases(seed)
                if case.task == "interior"
            ]
    if "obstruction-cli" in workloads:
        for seed in seeds:
            docs += [
                obstruction_doc(case.square, case.task.removeprefix("cli-"))
                for case in cases.cli_cases(seed)
            ]
    if "dilate" in workloads:
        for seed in seeds:
            docs += [
                dilation_doc(interior_map_decomposition(case.square))
                for case in cases.membership_cases(seed)
                if case.task == "interior"
            ]
            # the strong member cases repeat two weak cases' squares
            members = {id(c.square): c.square for c in cases.cli_cases(seed) if c.expect == "yes"}
            docs += [member_dilation_doc(square) for square in members.values()]
    return docs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(6)))
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    docs = answer_docs(args.seeds, args.workloads)
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    print(f"{digest} {len(docs)} documents")
    return 0


if __name__ == "__main__":
    sys.exit(main())
