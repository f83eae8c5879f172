"""One-shot scaling sweep: every method on a p x n grid of tables.

Run through ``python3 bench/run.py --sweep``.  Each cell is one joint,
two-sided ``rank_cs`` call with B = 1000 on a Zipf(0.5) table, in a
fresh process so every cell starts with cold caches.  A cell gets
``TIME_BUDGET_S`` seconds and ``MEMORY_BUDGET_MB`` of address space
beyond the interpreter's own; a cell over either budget is recorded as
``skipped`` (as is every larger ``n`` for the same ``p`` and method),
never as failed.  The grid is the ROADMAP's, plus its p = 50, n = 80
spot cell.  Results are printed and written as JSON.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

P_GRID = (7, 20, 50, 100, 200)
N_GRID = (234, 10_000, 100_000)
EXTRA_CELLS = ((50, 80),)
METHODS = ("exactBonf", "exactHolm", "cp", "boot", "bootStud", "naive")
B = 1000
TIME_BUDGET_S = 30.0
MEMORY_BUDGET_MB = 1024
#: Address space of an idle interpreter with ranksets imported.
BASE_ADDRESS_SPACE_MB = 256


def _cell(p: int, n: int, method: str) -> dict:
    """Time one cell in this process; runs in the child."""
    import numpy as np

    import ranksets

    shares = 1.0 / np.arange(1, p + 1) ** 0.5
    counts = np.random.default_rng([p, n]).multinomial(n, shares / shares.sum())
    sample = ranksets.MultinomialSample(counts=tuple(counts.tolist()))
    config = ranksets.BootstrapConfig(B=B, seed=0)
    t0 = time.perf_counter()
    rs = ranksets.rank_cs(method, sample, config=config)
    seconds = time.perf_counter() - t0
    mean_length = sum(rs.length(j) for j in rs.J0) / p
    return {
        "seconds": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mean_length": mean_length,
    }


def _limit_memory() -> None:
    limit = (BASE_ADDRESS_SPACE_MB + MEMORY_BUDGET_MB) * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_cell(env: dict, p: int, n: int, method: str) -> dict:
    cmd = [sys.executable, __file__, str(p), str(n), method]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True, preexec_fn=_limit_memory)
    try:
        out, err = proc.communicate(timeout=TIME_BUDGET_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"status": "skipped", "reason": f"over {TIME_BUDGET_S:.0f} s"}
    if proc.returncode == 0:
        return {"status": "ok", **json.loads(out.splitlines()[-1])}
    if "MemoryError" in err:
        return {"status": "skipped", "reason": f"over {MEMORY_BUDGET_MB} MB"}
    return {"status": "failed", "reason": err.strip().splitlines()[-1:]}


def run(env: dict, out_path: Path) -> None:
    cells = [(p, n) for p in P_GRID for n in N_GRID] + list(EXTRA_CELLS)
    results = []
    over_budget: dict[tuple[int, str], int] = {}  # (p, method) -> smallest n over
    for p, n in sorted(cells):
        for method in METHODS:
            skipped_at = over_budget.get((p, method))
            if skipped_at is not None and n > skipped_at:
                row = {"status": "skipped", "reason": f"over budget at n={skipped_at}"}
            else:
                row = _run_cell(env, p, n, method)
                if row["status"] == "skipped":
                    over_budget[(p, method)] = n
            row = {"p": p, "n": n, "method": method, **row}
            results.append(row)
            detail = (f"{row['seconds'] * 1000:10.1f} ms {row['peak_rss_mb']:7.0f} MB"
                      if row["status"] == "ok" else f"{row['status']}: {row['reason']}")
            print(f"p={p:<4} n={n:<7} {method:<10} {detail}", flush=True)
    out_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    p_arg, n_arg, method_arg = sys.argv[1:4]
    print(json.dumps(_cell(int(p_arg), int(n_arg), method_arg)))
