"""Compare a change against its parent on one benchmark workload.

Usage::

    python3 tools/ab.py PARENT CHANGE PARENT2 --workload survey \\
        [--seed 0] [--rounds 10]

``PARENT``, ``CHANGE`` and ``PARENT2`` are three checkouts with the same
``bench/`` code: the parent commit, the change, and a second copy of
the parent (for example two ``git archive`` extracts), which measures
how far two runs of the same code drift apart (the A/A side).  Each
round runs the ``command`` of ``BENCHMARK.json`` with ``--workload W
--seed S --seconds T --trace 0``, ``T`` its ``run_seconds``, once in
each tree, one after another, with the order rotated by one tree each
round.  The script stops at the first run that exits non-zero or reads
``correct: false``.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles (linear percentiles over the rounds), the change's
median change against the parent in % and the rounds in which it beat
the parent of the same round, the same two for the A/A side, and
whether the gap between the medians exceeds the parent's quartile
spread.  A metric is ``worse`` when the change's median is worse than
the parent's by more than the bound.  Otherwise it is ``unresolved``
when some round's A/A change exceeds its bound, unless every change
run beats every parent run.  The last line of standard output
is the whole summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: The three checkouts, in the order of the command line.
SIDES = ("parent", "change", "parent2")


class RunError(RuntimeError):
    """A benchmark run failed or gave a wrong answer."""


def benchmark(path: Path = BENCHMARK) -> dict:
    return json.loads(Path(path).read_text())


def end_to_end_metrics(path: Path = BENCHMARK) -> list[dict]:
    """The ``end_to_end`` entries of ``BENCHMARK.json``: name, better, bound."""
    return benchmark(path)["end_to_end"]


def round_order(r: int) -> tuple[str, ...]:
    """The sides of round ``r``, rotated left by ``r``."""
    k = r % len(SIDES)
    return SIDES[k:] + SIDES[:k]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile, numpy's default method."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: list[float]) -> list[float]:
    return [percentile(values, q) for q in (25, 50, 75)]


def change_pct(new: float, old: float) -> float:
    return 100.0 * (new - old) / old


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Summary of ``runs``: side -> one bench result per round, in round order.

    Each result is the JSON object that ``bench/run.py`` prints, whose
    ``metrics`` map a name to ``{"value": ...}``.  ``metrics`` are the
    ``end_to_end`` entries of ``BENCHMARK.json``.
    """
    out = {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in SIDES}
        parent = values["parent"]
        entry = {side: values[side] for side in SIDES}
        for side in SIDES:
            entry[f"{side}_q25_med_q75"] = quartiles(values[side])
        med = {side: entry[f"{side}_q25_med_q75"][1] for side in SIDES}
        for side, label in (("change", "change"), ("parent2", "aa")):
            pairs = [change_pct(new, old) for new, old in zip(values[side], parent)]
            entry[f"{label}_pair_change_pct"] = pairs
            entry[f"{label}_median_change_pct"] = change_pct(med[side], med["parent"])
            wins = sum(sign * pct > 0 for pct in pairs)
            entry[f"{label}_wins"] = f"{wins}/{len(pairs)}"
        q25, _, q75 = entry["parent_q25_med_q75"]
        gap = abs(med["change"] - med["parent"])
        entry["gap_vs_parent_iqr"] = [gap, q75 - q25]
        entry["gap_exceeds_parent_iqr"] = gap > q75 - q25
        entry["bound_pct"] = 100.0 * bound
        # Every change run beats every parent run in the metric's direction.
        entry["separated"] = (
            min(values["change"]) > max(parent) if sign > 0
            else max(values["change"]) < min(parent)
        )
        entry["resolved"] = entry["separated"] or all(
            abs(pct) <= 100.0 * bound for pct in entry["aa_pair_change_pct"]
        )
        entry["worse"] = -sign * entry["change_median_change_pct"] > 100.0 * bound
        out[name] = entry
    return out


def verdict(entry: dict) -> str:
    if entry["worse"]:
        return "worse"
    return "within bound" if entry["resolved"] else "unresolved"


def report(summary: dict) -> list[str]:
    """One line per metric of ``summary``."""
    lines = [f"{'metric':<12} {'parent q25/med/q75':>28} {'change q25/med/q75':>28}"
             f" {'change':>8} {'wins':>6} {'A/A':>8} {'wins':>6}  gap>IQR  verdict"]
    for name, e in summary.items():
        def q(side):
            return "/".join(f"{v:.4g}" for v in e[f"{side}_q25_med_q75"])
        lines.append(
            f"{name:<12} {q('parent'):>28} {q('change'):>28}"
            f" {e['change_median_change_pct']:>+7.2f}% {e['change_wins']:>6}"
            f" {e['aa_median_change_pct']:>+7.2f}% {e['aa_wins']:>6}"
            f"  {str(e['gap_exceeds_parent_iqr']):<7}  {verdict(e)}"
        )
    return lines


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """The result of one benchmark run in ``tree``; ``RunError`` unless correct."""
    bench = benchmark()
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunError(f"{tree}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RunError(f"{tree}: correct: false, {result['failed']} failed")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for side in SIDES:
        parser.add_argument(side, type=Path, help=f"checkout of the {side} side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {side: getattr(args, side).resolve() for side in SIDES}
    runs = {side: [] for side in SIDES}
    for r in range(args.rounds):
        for side in round_order(r):
            try:
                result = run_bench(trees[side], args.workload, args.seed)
            except RunError as exc:
                print(f"round {r}, {side}: {exc}", file=sys.stderr)
                return 1
            runs[side].append(result)
            print(f"round {r} {side}: attempted {result['attempted']}",
                  file=sys.stderr)
    summary = summarize(runs, end_to_end_metrics())
    print("\n".join(report(summary)))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "seconds": benchmark()["run_seconds"],
        "trees": {side: str(path) for side, path in trees.items()},
        "orders": [list(round_order(r)) for r in range(args.rounds)],
        "correct_attempted_failed": {
            side: [[run["correct"], run["attempted"], run["failed"]] for run in runs[side]]
            for side in SIDES
        },
        "metrics": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
