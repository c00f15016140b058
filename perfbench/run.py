"""Time-to-verdict benchmark for qmagic.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; qmagic is imported from ``src``.
Workloads (inputs in ``workloads.py``, reasons in ``README.md``):

- ``certify``: exact non-members; verdict, exact certificate, re-verification;
- ``membership``: exact members decided by the LMI with repaired weights,
  interior squares decomposed and dilated, and a few non-members;
- ``obstruction-cli``: one ``qmagic obstruction-check`` process per square.

Set-up (import, input generation and validation, one warm-up square) runs
in a fresh worker process three times and ``setup_s`` is the median.  The
last worker then answers whole rounds of the squares until ``--seconds``
have passed; for ``obstruction-cli`` this process launches the CLI once per
square instead.  Every answer is checked by ``oracles.py`` outside the timed
section.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics, or with ``--trace 1``
the per-layer metrics from spans recorded around qmagic's layers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from oracles import check_cli
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_ENTRY = "import sys; from qmagic.cli import main; sys.exit(main())"


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_deadline(proc: subprocess.Popen, deadline: float) -> threading.Timer:
    """Kill the process if it is still running at the deadline."""
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    return timer


def reap(proc: subprocess.Popen, t0: float, deadline: float):
    """Wait for the process; return (exit code, wall seconds, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() > deadline:
        raise BenchmarkError(f"run did not end within {DEADLINE_S:.0f} s")
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def run_child(cmd: list[str], out: Path, err: Path, deadline: float):
    with open(out, "w") as fo, open(err, "w") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=child_env(), cwd=ROOT)
    timer = start_deadline(proc, deadline)
    try:
        return reap(proc, t0, deadline)
    finally:
        timer.cancel()


def run_worker(args, work: Path, deadline: float, setup_only: bool, trace_out: Path | None = None):
    """Start a worker; return (set-up seconds, its events by name, peak RSS in MB)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--cli-dir", str(work / "inputs"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = start_deadline(proc, deadline)
    setup = None
    events = {}
    try:
        for line in proc.stdout:
            if line.startswith('{"event"'):
                event = json.loads(line)
                if event["event"] == "setup_done":
                    setup = time.perf_counter() - t0
                events[event["event"]] = event
        proc.stdout.close()
        code, _, rss = reap(proc, t0, deadline)
    finally:
        timer.cancel()
    if code != 0 or setup is None:
        raise BenchmarkError(f"worker exited with code {code} before finishing")
    return setup, events, rss


def earlier_setups(args, work: Path, deadline: float, trace: bool) -> list[float]:
    """Set up SETUPS - 1 times in workers that stop after set-up (once traced: none)."""
    return [run_worker(args, work, deadline, True)[0] for _ in range(0 if trace else SETUPS - 1)]


def run_in_process(args, work: Path, deadline: float, trace: bool):
    setups = earlier_setups(args, work, deadline, trace)
    trace_out = work / "trace-worker.json" if trace else None
    setup, events, rss = run_worker(args, work, deadline, False, trace_out)
    if "result" not in events:
        raise BenchmarkError("worker printed no result")
    return setups + [setup], events["result"]["squares"], rss, [trace_out] if trace else [], []


def run_cli(args, work: Path, deadline: float, trace: bool):
    setups = earlier_setups(args, work, deadline, trace)
    setup_trace = work / "trace-setup.json" if trace else None
    setups.append(run_worker(args, work, deadline, True, setup_trace)[0])
    traces = [setup_trace] if trace else []
    with open(work / "inputs" / "manifest.json") as fh:
        manifest = json.load(fh)

    squares, startups, peak = [], [], 0.0
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        rounds += 1
        for k, case in enumerate(manifest):
            path = os.path.relpath(case["path"], ROOT)
            cli_args = ["obstruction-check", path, "--mode", case["mode"]]
            if trace:
                traces.append(work / f"trace-{rounds}-{k}.json")
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(traces[-1]), *cli_args]
            else:
                cmd = [sys.executable, "-c", CLI_ENTRY, *cli_args]
            out, err = work / "stdout.txt", work / "stderr.txt"
            code, elapsed, rss = run_child(cmd, out, err, deadline)
            peak = max(peak, rss)
            stdout, stderr = out.read_text(), err.read_text()
            problems = check_cli(case["expect"], path, code, stdout, stderr)
            crashed = "Traceback" in stderr
            squares.append({"name": case["name"], "seconds": elapsed, "crashed": crashed, "problems": problems})
            try:
                startups.append(elapsed - float(json.loads(stdout)["timings"]["total"]))
            except (ValueError, KeyError, TypeError):
                pass
    return setups, squares, peak, traces, startups


def main() -> int:
    parser = argparse.ArgumentParser(description="qmagic time-to-verdict benchmark")
    parser.add_argument("--workload", choices=("certify", "membership", "obstruction-cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qmagic" / "__init__.py").is_file():
        print(f"error: no qmagic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    trace = bool(args.trace)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_cli if args.workload == "obstruction-cli" else run_in_process
        setups, squares, rss, traces, startups = runner(args, work, deadline, trace)
        spans = [json.loads(p.read_text()) for p in traces]
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = [sq["seconds"] for sq in squares]
    failed = [sq for sq in squares if sq["problems"]]
    wrong = [sq for sq in failed if not sq["crashed"]]
    for sq in squares:
        status = f"FAILED {'; '.join(sq['problems'])}" if sq["problems"] else "ok"
        print(f"  {sq['name']:22s} {sq['seconds']:8.3f} s  {status}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(squares)} squares, {len(failed)} failed, "
        f"{len(squares) / sum(times):.4f} squares/s over {sum(times):.1f} s",
        file=sys.stderr,
    )
    if trace:
        metrics = layer_metrics(spans, len(squares), startups)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "squares_per_s": {"value": len(squares) / sum(times), "unit": "1/s"},
            "verdict_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(squares),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
