"""The demo scripts run from the repository root against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    child = subprocess.run(
        [sys.executable, str(demo.relative_to(ROOT))],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip()
    if demo.name == "05_claim_checks.py":
        assert not [line for line in child.stdout.splitlines() if line.startswith("[FAIL]")]
