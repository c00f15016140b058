#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent HEAD --workloads membership \\
        --seeds 1 5 --pairs 10 --out BENCH_k.json

The parent is extracted with `git archive` and the change is the working
tree's tracked and untracked, not ignored, files, copied fresh; both go
into one new temporary directory, removed at the end, so neither side has
a bytecode cache, and every process runs with PYTHONDONTWRITEBYTECODE=1 so
none is written.  For each workload and seed, pair k runs `perfbench/run.py`
for `BENCHMARK.json`'s `run_seconds` once in each tree, one run at a time,
the parent first on odd pairs and the change first on even ones.  The
output JSON holds every run and, per metric of `BENCHMARK.json`'s
end-to-end list, the median and quartiles of each side, the number of
pairs the change wins, the parent's interquartile range, and whether the
change meets the claim rule and stays within the metric's bound
(`summarize`).  `--dry-run` prints the planned commands and runs
nothing.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("certify", "membership", "obstruction-cli")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract_parent(rev: str, dest: Path) -> None:
    """`git archive` of the revision, unpacked into dest."""
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as fh:
        fh.write(git("archive", "--format=tar", rev))
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            # the "data" filter, where this Python has extraction filters
            tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def copy_working_tree(dest: Path) -> None:
    """The tracked and untracked, not ignored, files of the working tree."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, map(os.fsdecode, names)):
        src = ROOT / name
        if src.is_file():  # a tracked file may be deleted in the working tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_command(workload: str, seed: int, seconds: float) -> list[str]:
    return [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]


def plan(workloads, seeds, pairs: int):
    """(workload, seed, pair, side, first) for every run, in running order."""
    for workload in workloads:
        for seed in seeds:
            for pair in range(1, pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for k, side in enumerate(order):
                    yield workload, seed, pair, side, k == 0


def run_once(tree: Path, cmd: list[str], env: dict) -> dict:
    """One benchmark run: the JSON of its last stdout line, or an error."""
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:]
        return {"error": f"exit {proc.returncode}: {' '.join(tail)}"}
    result = {key: out[key] for key in ("correct", "attempted", "failed")}
    result.update({name: round(m["value"], 5) for name, m in out["metrics"].items()})
    return result


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Median and quartiles per side and the change's wins, over complete
    pairs, and whether the change meets the claim rule and the bound.

    `claim_met`: the change wins at least nine pairs in ten (a tie counts
    for neither side) and its median beats the parent's by more than the
    parent's interquartile range `parent_iqr`.  `within_bound`: the
    change's median is worse than the parent's by at most the metric's
    relative `bound`, so a median 10% worse passes a bound of 0.1."""
    by_pair = {}
    for run in runs:
        if "error" not in run:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for p in by_pair.values() if len(p) == 2]
    if not pairs:
        return {}
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides, stats = {}, {}
        for side in ("parent", "change"):
            values = [p[side][name] for p in pairs]
            # with one pair, its value stands for every quartile
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            median = statistics.median(values)
            stats[side] = median, q1, q3
            sides[side] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
        diffs = [p["change"][name] - p["parent"][name] for p in pairs]
        wins = sum(d < 0 if lower else d > 0 for d in diffs)
        (parent, p_q1, p_q3), change = stats["parent"], stats["change"][0]
        gain = parent - change if lower else change - parent
        summary[name] = {
            **sides,
            "change_wins": f"{wins}/{len(pairs)}",
            "ties": diffs.count(0),
            "parent_iqr": round(p_q3 - p_q1, 4),
            "claim_met": 10 * wins >= 9 * len(pairs) and gain > p_q3 - p_q1,
            "within_bound": -gain <= metric["bound"] * abs(parent),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent (default HEAD)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 5])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", type=Path, help="JSON file to write (default: stdout)")
    parser.add_argument("--dry-run", action="store_true", help="print the planned commands, run nothing")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, metrics = benchmark["run_seconds"], benchmark["end_to_end"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    runs = list(plan(args.workloads, args.seeds, args.pairs))
    if args.dry_run:
        print(f"parent tree: git archive {args.parent} into a new temporary directory")
        print("change tree: a copy of the working tree files into a new temporary directory")
        for workload, seed, pair, side, _ in runs:
            cmd = shlex.join(run_command(workload, seed, seconds))
            print(f"[pair {pair} {side}] PYTHONDONTWRITEBYTECODE=1 {cmd}")
        return 0

    parent = git("rev-parse", "--short", args.parent).decode().strip()
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    trees = {"parent": work / "parent", "change": work / "change"}
    results = {}
    try:
        extract_parent(parent, trees["parent"])
        copy_working_tree(trees["change"])
        for workload, seed, pair, side, first in runs:
            cmd = run_command(workload, seed, seconds)
            run = {"pair": pair, "side": side, "first": first, **run_once(trees[side], cmd, env)}
            print(f"{workload}/seed{seed} {json.dumps(run)}", file=sys.stderr, flush=True)
            results.setdefault(f"{workload}/seed{seed}", []).append(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {
        "parent_commit": parent,
        "command": f"python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {seconds:g} --trace 0",
        "machine": f"{platform.machine()} {platform.system()}, {os.cpu_count()} cores, Python {platform.python_version()}",
        "method": (
            f"git archive {parent} and a fresh copy of the working tree in two new directories, "
            "PYTHONDONTWRITEBYTECODE=1, one run at a time, pairs alternate which side runs first "
            f"(odd pairs parent first); {args.pairs} pairs per seed"
        ),
        "workloads": {
            key: {"pairs": args.pairs, "summary": summarize(rs, metrics), "runs": rs}
            for key, rs in results.items()
        },
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
