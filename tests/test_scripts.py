"""Smoke tests of the experiment scripts: `--help`, then a tiny config.

Each script runs as its own process, the way a user starts it, with the
package's source directory on PYTHONPATH.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TINY = {
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
