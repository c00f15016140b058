"""Smoke tests of the experiment scripts: `--help`, then a tiny config.

Each script runs as its own process, the way a user starts it, with the
package's source directory on PYTHONPATH.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "answer_digest.py": ["--seeds", "1", "--workloads", "membership"],
    "bench_pairs.py": ["--dry-run", "--workloads", "membership", "--seeds", "1", "--pairs", "2"],
    "birkhoff_stats.py": ["--sizes", "3", "--trials", "2"],
    "extension_demo.py": ["--s", "1", "--trials", "1"],
    "interior_sweep.py": ["--n", "3", "--s", "1", "--trials", "2", "--no-lmi"],
}


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(TINY)


@pytest.mark.parametrize("script", sorted(TINY))
def test_script_help_and_tiny_config(script):
    helped = _run(script, "--help")
    assert helped.returncode == 0, helped.stderr
    assert "usage:" in helped.stdout
    ran = _run(script, *TINY[script])
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.strip()
    assert "Traceback" not in ran.stderr


def test_bench_pairs_dry_run_plans_alternating_pairs():
    ran = _run(
        "bench_pairs.py", "--dry-run", "--parent", "HEAD~1", "--workloads", "certify",
        "membership", "--seeds", "1", "5", "--pairs", "3",
    )
    assert ran.returncode == 0, ran.stderr
    lines = ran.stdout.splitlines()
    assert lines[0].startswith("parent tree: git archive HEAD~1 ")
    assert lines[1].startswith("change tree: ")
    runs = lines[2:]
    assert len(runs) == 2 * 2 * 3 * 2
    assert [line.split("]")[0] for line in runs[:6]] == [
        "[pair 1 parent", "[pair 1 change", "[pair 2 change",
        "[pair 2 parent", "[pair 3 parent", "[pair 3 change",
    ]
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    workloads = [line.split("--workload ")[1].split()[:3] for line in runs]
    assert workloads == [
        [w, "--seed", seed] for w in ("certify", "membership") for seed in "15" for _ in range(6)
    ]
    for line in runs:
        assert "] PYTHONDONTWRITEBYTECODE=1 " in line
        assert line.endswith(f" --seconds {seconds:g} --trace 0")

# the answer digest of the `membership` LMI squares at seed 1: verdict,
# exact decomposition and repair rung of each
MEMBERSHIP_SEED_1_ANSWERS = (
    "4a6f5a412e741e35f5dc33f9d65f9413818c90f7aaed96282603d1bf2a758eb9 24 documents"
)


def test_answer_digest_is_pinned():
    ran = _run("answer_digest.py", *TINY["answer_digest.py"])
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.strip() == MEMBERSHIP_SEED_1_ANSWERS


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_applies_the_claim_rule_and_the_bounds():
    """Ten synthetic pairs: memory wins nine with one tie and a gap far
    beyond the parent's spread (claim met); setup time wins nine by less
    than the parent's spread (no claim); throughput loses every pair but
    within its bound; the verdict time loses by more than its bound.  A
    failed run and a pair without its partner are left out."""
    metrics = [
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "squares_per_s", "better": "higher", "bound": 0.25},
        {"name": "verdict_p50_s", "better": "lower", "bound": 0.25},
    ]
    runs = []
    for k in range(10):
        tie = k == 9
        parent = {"peak_rss_mb": 46.0 + k / 10, "setup_s": 0.10 + k / 100,
                  "squares_per_s": 4.0, "verdict_p50_s": 0.25}
        change = {"peak_rss_mb": parent["peak_rss_mb"] if tie else 40.0 + k / 10,
                  "setup_s": parent["setup_s"] - (0 if tie else 0.01),
                  "squares_per_s": 3.5, "verdict_p50_s": 0.4}
        runs += [{"pair": k + 1, "side": "parent", **parent}, {"pair": k + 1, "side": "change", **change}]
    runs += [{"pair": 11, "side": "parent", "error": "exit 1"}, {"pair": 11, "side": "change", **change}]
    runs += [{"pair": 12, "side": "parent", **parent}]
    summary = _bench_pairs().summarize(runs, metrics)

    rss = summary["peak_rss_mb"]
    assert rss["parent"] == {"median": 46.45, "q1": 46.175, "q3": 46.725}
    assert rss["change"]["median"] == 40.45
    assert (rss["change_wins"], rss["ties"], rss["parent_iqr"]) == ("9/10", 1, 0.55)
    assert rss["claim_met"] and rss["within_bound"]
    setup = summary["setup_s"]
    assert setup["change_wins"] == "9/10" and setup["parent_iqr"] == 0.055
    assert not setup["claim_met"] and setup["within_bound"]
    rate = summary["squares_per_s"]
    assert rate["change_wins"] == "0/10" and rate["parent_iqr"] == 0
    assert not rate["claim_met"] and rate["within_bound"]
    slow = summary["verdict_p50_s"]
    assert not slow["claim_met"] and not slow["within_bound"]
    assert _bench_pairs().summarize(runs[-3:], metrics) == {}
