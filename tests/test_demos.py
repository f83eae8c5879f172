"""The Python demos run against the package in ``src`` and print their
pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# sha256 of each demo's stdout.  Like the digests of test_digests.py,
# they pin this numpy/scipy as well as the code.
DEMO_STDOUT_SHA256 = {
    "survey_rankings.py":
        "98fc12ea38497b8b50fd574e6bbbf23ef2aaa95e362bc7b8a3dd1432bfc5191b",
    "coverage_tradeoffs.py":
        "dc11faca522fb9c4da19e55db01273bf21c2a68d3d6dfaccbbd6c133f91f58da",
}


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_exits_zero(demo):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, env=env, cwd=ROOT, timeout=300,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
