"""One benchmark process: set up, then answer a workload's squares.

Run by ``run.py``; not meant to be started by hand.  The worker imports
qmagic, generates and validates the seed's squares and, for the in-process
workloads, answers one warm-up square.  It then prints a ``setup_done``
event on stdout.  With ``--setup-only`` it stops there; the
``obstruction-cli`` workload writes its squares as JSON files instead and
always stops there.  Otherwise it answers whole rounds of the squares until
``--seconds`` have passed, checks every answer outside the timed section,
and prints a ``result`` event.  With ``--trace-out`` it records spans around
qmagic's layers and writes them to that file at the end.
"""

from __future__ import annotations

import argparse
import json
import time
import traceback
from pathlib import Path

import qmagic

import oracles
from tracing import Tracer
from workloads import WORKLOADS, make_cases


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


# -- what each task asks of qmagic, and how its answer is checked ------------------


def answer_certify(a):
    res = qmagic.check_mconv_obstruction(a, mode=qmagic.STRONG)
    if res.verdict != "no":
        return {"verdict": res.verdict}
    witness = qmagic.find_dual_certificate(res.problem)
    cert = qmagic.certify_with_ladder(witness.y, res.problem)
    report = qmagic.verify_certificate(cert, a)
    return {"verdict": "no", "cert": cert, "report": report}


def answer_lmi(a):
    res = qmagic.check_semiclassical(a)
    return {"verdict": res.verdict, "dec": res.decomposition}


def answer_interior(a):
    dec = qmagic.interior_map_decomposition(a)
    return {"verdict": "yes", "dec": dec, "dil": qmagic.synthesize_commuting_dilation(dec)}


ANSWER = {"certify": answer_certify, "lmi": answer_lmi, "interior": answer_interior}


def check(case, ans) -> list[str]:
    problems = oracles.check_verdict(case.expect, ans["verdict"])
    if problems:
        return problems
    if "cert" in ans:
        problems += oracles.check_certificate(ans["cert"], case.square, ans["report"])
    if ans["verdict"] == "yes" and case.square.exact:
        if ans.get("dec") is None:
            return ["'yes' without a decomposition"]
        problems += oracles.check_decomposition(ans["dec"], case.square)
    if "dil" in ans:
        problems += oracles.check_dilation(ans["dil"], case.square)
    return problems


def write_cli_inputs(cases, directory: Path) -> None:
    """One JSON file per distinct square, and a manifest of the processes to run."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest, written = [], {}
    for case in cases:
        key = id(case.square)
        if key not in written:
            written[key] = directory / f"square{len(written)}.json"
            with open(written[key], "w") as fh:
                json.dump(qmagic.square_to_json(case.square), fh)
        manifest.append(
            {"name": case.name, "path": str(written[key]), "mode": case.task[4:], "expect": case.expect}
        )
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cli-dir", type=Path)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    tracer = Tracer()
    if args.trace_out:
        tracer.install()
    cases = make_cases(args.workload, args.seed)
    if args.workload == "obstruction-cli":
        write_cli_inputs(cases, args.cli_dir)
    else:
        tracer.square = "warmup"
        ANSWER[cases[0].task](cases[0].square)
    emit("setup_done")
    if args.setup_only or args.workload == "obstruction-cli":
        if args.trace_out:
            tracer.dump(args.trace_out)
        return

    squares = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        rounds += 1
        for case in cases:
            tracer.square = f"{rounds}:{case.name}"
            t0 = time.perf_counter()
            try:
                ans = ANSWER[case.task](case.square)
            except Exception:
                elapsed = time.perf_counter() - t0
                lines = traceback.format_exc().strip().splitlines()
                squares.append({"name": case.name, "seconds": elapsed, "crashed": True, "problems": lines[-1:]})
                continue
            elapsed = time.perf_counter() - t0
            squares.append({"name": case.name, "seconds": elapsed, "crashed": False, "problems": check(case, ans)})
    if args.trace_out:
        tracer.dump(args.trace_out)
    emit("result", rounds=rounds, squares=squares)


if __name__ == "__main__":
    main()
