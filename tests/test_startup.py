"""What a fresh interpreter loads: scipy waits for the first Clopper-Pearson call."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Prints, as its last line, whether scipy is loaded after each step.
_SCRIPT = """
import json, sys
steps = {}
import ranksets, ranksets.cli
steps["import"] = "scipy" in sys.modules
assert ranksets.cli.main(["analyze", "data/territories8.csv"]) == 0
steps["analyze"] = "scipy" in sys.modules
ranksets.cp_rank_cs(ranksets.MultinomialSample((87, 75, 42, 21, 6, 2, 1)))
steps["cp_rank_cs"] = "scipy" in sys.modules
print(json.dumps(steps))
"""


def test_scipy_loads_on_the_first_clopper_pearson_call():
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SCRIPT],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    steps = json.loads(run.stdout.splitlines()[-1])
    assert steps == {"import": False, "analyze": False, "cp_rank_cs": True}
