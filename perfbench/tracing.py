"""Spans around the calls into qmagic's layers, and the per-layer metrics.

``install`` replaces each public function named in ``TARGETS`` by a wrapper
in every loaded ``qmagic`` module that holds it, so calls through imported
names (``qmagic.obstruction.psd_check_exact``, ``qmagic.cli.square_from_json``)
are recorded too.  A span holds its name, start, end, parent span, the id of
the square being answered and the counts in ``TARGETS``.  Spans stay in
memory until ``dump`` writes them out.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics.  It imports nothing from qmagic.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time


def _digits(x) -> int:
    return len(str(abs(x)))


def _pencil_counts(args, kwargs, problem) -> dict:
    return {"dim": problem.dim, "directions": len(problem.pencil.directions)}


def _problem_counts(args, kwargs, problem) -> dict:
    directions = args[1] if len(args) > 1 else kwargs.get("directions", ())
    return {"candidates": len(directions), "kept": len(problem.directions)}


def _solve_counts(args, kwargs, result) -> dict:
    return {"iterations": int(result.residuals.get("iterations", 0))}


def _certificate_counts(args, kwargs, cert) -> dict:
    entries = [z for row in cert.y_exact.row_list() for z in row]
    p0 = cert.pairings["B0"]
    return {
        "den_digits": max(_digits(q.denominator) for z in entries for q in (z.re, z.im)),
        "b0_digits": _digits(p0.numerator) + _digits(p0.denominator),
    }


def _repair_counts(args, kwargs, result) -> dict:
    from qmagic.semiclassical import REPAIR_DENOMINATORS

    den = result.residuals.get("repair_denominator")
    return {"repair_rungs": REPAIR_DENOMINATORS.index(den) + 1 if den else 0}


def _lmi_counts(args, kwargs, problem) -> dict:
    return {"dim": problem.dim}


# (module, public name, span name, counter of the call's counts)
TARGETS = (
    ("qmagic.serialize", "square_from_json", "serialize.load", None),
    ("qmagic.structures", "validate_magic", "structures.validate", None),
    ("qmagic.obstruction", "check_mconv_obstruction", "obstruction.check", None),
    ("qmagic.obstruction", "build_obstruction", "obstruction.build", _pencil_counts),
    ("qmagic.obstruction", "find_dual_certificate", "obstruction.find_dual", None),
    ("qmagic.obstruction", "certify_with_ladder", "obstruction.certify", _certificate_counts),
    ("qmagic.obstruction", "exact_certify", "obstruction.rung", None),
    ("qmagic.obstruction", "verify_certificate", "obstruction.verify", None),
    ("qmagic.sdp", "SdpProblem", "sdp.problem", _problem_counts),
    ("qmagic.sdp", "solve_feasibility", "sdp.solve", _solve_counts),
    ("qmagic.exact", "psd_check_exact", "exact.psd_check", None),
    ("qmagic.exact", "affine_least_squares", "exact.affine_ls", None),
    ("qmagic.semiclassical", "check_semiclassical", "semiclassical.check", _repair_counts),
    ("qmagic.semiclassical", "build_semiclassical_lmi", "semiclassical.lmi_build", _lmi_counts),
    ("qmagic.semiclassical", "interior_map_decomposition", "semiclassical.interior", None),
    ("qmagic.semiclassical", "synthesize_commuting_dilation", "semiclassical.dilation", None),
)


class Tracer:
    """In-memory span recorder; `square` tags the spans of the current square."""

    def __init__(self):
        self.spans: list[dict] = []
        self.square = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "square": self.square,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span["error"] = type(err).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        importlib.import_module("qmagic.cli")
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "qmagic"]
        for modname, attr, name, count in TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            wrapped = self.wrap(name, original, count)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# -- per-layer metrics ---------------------------------------------------------------

# (metric, unit) in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("cli.startup_s", "s"),
    ("serialize.load_s", "s"),
    ("structures.validate_s", "s"),
    ("obstruction.build_s", "s"),
    ("obstruction.build_calls", "count"),
    ("obstruction.candidates", "count"),
    ("obstruction.directions", "count"),
    ("obstruction.pencil_dim", "count"),
    ("obstruction.find_dual_s", "s"),
    ("obstruction.certify_s", "s"),
    ("obstruction.rungs_tried", "count"),
    ("obstruction.rungs_failed", "count"),
    ("obstruction.cert_den_digits", "digits"),
    ("obstruction.trace_b0_digits", "digits"),
    ("obstruction.verify_s", "s"),
    ("sdp.problem_s", "s"),
    ("sdp.solve_s", "s"),
    ("sdp.solve_calls", "count"),
    ("sdp.newton_iters", "count"),
    ("sdp.iter_s", "s"),
    ("exact.psd_check_s", "s"),
    ("exact.psd_check_calls", "count"),
    ("exact.affine_ls_s", "s"),
    ("exact.affine_ls_calls", "count"),
    ("semiclassical.lmi_build_s", "s"),
    ("semiclassical.lmi_dim", "count"),
    ("semiclassical.repair_s", "s"),
    ("semiclassical.repair_rungs", "count"),
    ("semiclassical.interior_s", "s"),
    ("semiclassical.dilation_s", "s"),
)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(processes: list[list[dict]], squares: int, startups: list[float]) -> dict:
    """Per-layer metrics of one traced run.

    `processes` holds the spans of each traced process.  Only spans made
    while answering a square count, except that ``structures.validate_s``
    also counts the validation of the generated inputs; the warm-up square
    never counts.  `squares` is the number of squares answered; `startups`
    the CLI start-up times, one per process that printed a report.  Times
    and call counts are per answered square; sizes are means over calls;
    ``sdp.iter_s`` is solve time per Newton iteration.
    """
    by_name: dict[str, list[dict]] = {}
    candidates = 0
    repair = 0.0
    for proc in processes:
        live = [s for s in proc if s["square"] not in ("warmup", "setup")]
        for s in live:
            by_name.setdefault(s["name"], []).append(s)
        by_name.setdefault("inputs.validate", []).extend(
            s for s in proc if s["square"] == "setup" and s["name"] == "structures.validate"
        )
        # SdpProblem spans made while building an obstruction pencil
        candidates += sum(
            s["counts"]["candidates"]
            for s in live
            if s["name"] == "sdp.problem"
            and s["parent"] is not None
            and proc[s["parent"]]["name"] == "obstruction.build"
        )
        # check_semiclassical time outside its LMI build and solve
        children: dict[int, list[tuple[float, float]]] = {}
        for s in live:
            p = s["parent"]
            if p is not None and proc[p]["name"] == "semiclassical.check":
                if s["name"] in ("semiclassical.lmi_build", "sdp.solve"):
                    children.setdefault(p, []).append((s["start"], s["end"]))
        for idx, s in enumerate(proc):
            if s["name"] == "semiclassical.check" and s["square"] not in ("warmup", "setup"):
                repair += s["end"] - s["start"] - _covered(children.get(idx, []))

    def named(name):
        return by_name.get(name, [])

    def seconds(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def count_sum(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in named(name))

    def count_mean(name, key):
        values = [s["counts"][key] for s in named(name) if key in s.get("counts", {})]
        return statistics.fmean(values) if values else 0.0

    rungs = named("obstruction.rung")
    iters = count_sum("sdp.solve", "iterations")
    per = 1.0 / max(squares, 1)
    values = {
        "cli.startup_s": statistics.fmean(startups) if startups else 0.0,
        "serialize.load_s": seconds("serialize.load") * per,
        "structures.validate_s": (seconds("structures.validate") + seconds("inputs.validate")) * per,
        "obstruction.build_s": seconds("obstruction.build") * per,
        "obstruction.build_calls": len(named("obstruction.build")) * per,
        "obstruction.candidates": candidates * per,
        "obstruction.directions": count_sum("obstruction.build", "directions") * per,
        "obstruction.pencil_dim": count_mean("obstruction.build", "dim"),
        "obstruction.find_dual_s": seconds("obstruction.find_dual") * per,
        "obstruction.certify_s": seconds("obstruction.certify") * per,
        "obstruction.rungs_tried": len(rungs) * per,
        "obstruction.rungs_failed": sum(1 for s in rungs if "error" in s) * per,
        "obstruction.cert_den_digits": count_mean("obstruction.certify", "den_digits"),
        "obstruction.trace_b0_digits": count_mean("obstruction.certify", "b0_digits"),
        "obstruction.verify_s": seconds("obstruction.verify") * per,
        "sdp.problem_s": seconds("sdp.problem") * per,
        "sdp.solve_s": seconds("sdp.solve") * per,
        "sdp.solve_calls": len(named("sdp.solve")) * per,
        "sdp.newton_iters": iters * per,
        "sdp.iter_s": seconds("sdp.solve") / iters if iters else 0.0,
        "exact.psd_check_s": seconds("exact.psd_check") * per,
        "exact.psd_check_calls": len(named("exact.psd_check")) * per,
        "exact.affine_ls_s": seconds("exact.affine_ls") * per,
        "exact.affine_ls_calls": len(named("exact.affine_ls")) * per,
        "semiclassical.lmi_build_s": seconds("semiclassical.lmi_build") * per,
        "semiclassical.lmi_dim": count_mean("semiclassical.lmi_build", "dim"),
        "semiclassical.repair_s": repair * per,
        "semiclassical.repair_rungs": count_sum("semiclassical.check", "repair_rungs") * per,
        "semiclassical.interior_s": seconds("semiclassical.interior") * per,
        "semiclassical.dilation_s": seconds("semiclassical.dilation") * per,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
