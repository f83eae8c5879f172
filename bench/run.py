"""Benchmark of the ranksets package: one workload per invocation.

Usage, from the root of a checkout::

    python3 bench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh child process (``worker.py``), pinned to
one CPU, driving ``ranksets`` from outside the package on seeded,
generated inputs; see ``workloads.py``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics,
from a separate traced child, with ``--trace 1``.  Metric names, units
and directions are listed in ``BENCHMARK.json`` at the repository root.
Op timings leave out each kind's first op and are scaled to a reference
host speed by the calibration kernel the workers run between ops (see
``calibration.py``); set-up time is raw.

Other modes::

    python3 bench/run.py --sweep             # p x n scaling grid, one-shot
    python3 bench/run.py --write-reference   # refresh reference.json

A workload run exits with code 0 only when it printed a result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import sweep
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("survey", "montecarlo", "scale")
DEFAULT_SEED = 0
#: Extra launches that only import the package, for the set-up median.
SETUP_LAUNCHES = 6
#: Seconds a child may run past its measuring time before it is killed.
GRACE_S = 45.0
#: Calibration runs this close to an op, or as close as the op is long,
#: give the host slowdown at the op.  Kernels run only between ops, so a
#: long op would otherwise be scaled by the two runs at its edges alone.
KERNEL_WINDOW_S = 0.5
#: Ops per workload whose output digests reference.json stores.
REFERENCE_OPS = {"survey": 600, "montecarlo": 2500, "scale": 30}

#: Counters reported per op.
PER_OP_COUNTS = (
    "dispatch.rank_cs.calls", "core.family.pairs", "exact.stats.pairs", "sim.reps",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RANKSETS_SEED", None)  # would override the CLI's --seed
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    # One BLAS thread: the program's own thread pool is the only concurrency.
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def launch(args: list[str], timeout: float) -> float:
    """Run ``worker.py`` with ``args`` to the end; return its set-up seconds."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workdir", str(WORKDIR), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        first = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if first.strip() != b"ready":
            raise BenchError(f"worker did not start: {' '.join(args)}")
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 max_ops: int | None = None, check_reference: bool = True) -> dict:
    result_path = WORKDIR / f"result-{workload}-{seed}.json"
    result_path.unlink(missing_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--result", str(result_path)]
    if check_reference:
        args += ["--reference", str(REFERENCE)]
    if trace:
        args.append("--trace")
    if max_ops is not None:
        args += ["--max-ops", str(max_ops)]
    setup = launch(args, seconds + GRACE_S)
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"worker left no result: {exc}") from None
    result["setup_s"] = setup
    for failure in result["failures"]:
        print(f"{workload}: {failure}", file=sys.stderr)
    if result["ops"] < 1:
        raise BenchError("no op completed")
    return result


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def steady(result: dict) -> dict:
    """The result without its first rotation of op kinds.

    The first op of each kind pays one-off costs of the process, such as
    growing the heap to the workload's peak, so timings start after it.
    """
    warmup = len(set(result["kinds"]))
    if result["ops"] <= warmup:
        return result
    trimmed = dict(result, ops=result["ops"] - warmup)
    for key in ("kinds", "latencies_s", "op_starts_s", "slots_s"):
        trimmed[key] = result[key][warmup:]
    return trimmed


def op_factors(result: dict) -> list[float]:
    """Host slowdown at each op, relative to the reference host.

    The median calibration time, over ``calibration.NOMINAL_S``, of the
    kernel runs within ``KERNEL_WINDOW_S`` or the op's own latency of the
    op, whichever is longer, and at least the last run before it and the
    first run after it.
    """
    times = [t for t, _ in result["kernels"]]
    seconds = [s for _, s in result["kernels"]]
    factors = []
    for start, latency in zip(result["op_starts_s"], result["latencies_s"]):
        end = start + latency
        window = max(KERNEL_WINDOW_S, latency)
        before = max(bisect.bisect_left(times, start) - 1, 0)
        after = min(bisect.bisect_right(times, end) + 1, len(times))
        lo = min(bisect.bisect_left(times, start - window), before)
        hi = max(bisect.bisect_right(times, end + window), after)
        factors.append(statistics.median(seconds[lo:hi]) / calibration.NOMINAL_S)
    return factors


def rate(result: dict, factors: list[float]) -> float:
    """Ops per second at the reference host speed."""
    return result["ops"] / sum(s / f for s, f in zip(result["slots_s"], factors))


def kind_percentile(result: dict, factors: list[float], q: int) -> float:
    """Latency percentile ``q`` in ms of each op kind, averaged over the kinds.

    The kinds of a workload take turns and differ in cost, so a
    percentile over all ops would fall between their modes; each kind's
    own percentile is stable.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, seconds, f in zip(result["kinds"], result["latencies_s"], factors):
        by_kind.setdefault(kind, []).append(seconds * 1000.0 / f)
    return statistics.fmean(percentile(v, q) for v in by_kind.values())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [launch(["--setup-only"], GRACE_S) for _ in range(SETUP_LAUNCHES)]
    result = run_workload(workload, seed, seconds, trace=False)
    setups.append(result["setup_s"])
    timed = steady(result)
    factors = op_factors(timed)
    raw = [1.0] * timed["ops"]
    print(f"{workload}  raw: ops_per_s {rate(timed, raw):.4g}"
          f"  op_p50_ms {kind_percentile(timed, raw, 50):.4g}"
          f"  op_p90_ms {kind_percentile(timed, raw, 90):.4g}"
          f"  host slowdown {statistics.fmean(factors):.3f}")
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(rate(timed, factors), "1/s"),
        "op_p50_ms": metric(kind_percentile(timed, factors, 50), "ms"),
        "op_p90_ms": metric(kind_percentile(timed, factors, 90), "ms"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }
    return metrics, result


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # The untraced and the traced child share the run's measuring time.
    base = run_workload(workload, seed, seconds / 2, trace=False)
    traced = run_workload(workload, seed, seconds / 2, trace=True)
    ops, factors = traced["ops"], op_factors(traced)
    factor = statistics.fmean(factors)
    metrics = {}
    for layer in (*tracing.LAYERS, tracing.OP_SPAN):
        self_s = traced["self_s"].get(layer, 0.0) / ops / factor
        metrics[f"{layer}.self_s"] = metric(self_s, "s/op")
    for name in PER_OP_COUNTS:
        metrics[name] = metric(traced["counts"].get(name, 0) / ops, "count/op")
    metrics["boot.stats.matrix_bytes"] = metric(
        traced["counts"].get("boot.stats.matrix_bytes", 0), "bytes_computed")
    for cache, ratio in traced["hit_ratio"].items():
        metrics[f"{cache}.hit_ratio"] = metric(ratio, "ratio")
    metrics["exact.tail_cache.entries"] = metric(traced["tail_cache_entries"], "count")

    base_factors = op_factors(base)
    base_op_s = statistics.fmean(s / f for s, f in zip(base["latencies_s"], base_factors))
    traced_op_s = statistics.fmean(s / f for s, f in zip(traced["latencies_s"], factors))
    layers_self = sum(s for name, s in traced["self_s"].items() if name != tracing.OP_SPAN)
    metrics["trace.ops_per_s_delta"] = metric(
        rate(traced, factors) - rate(base, base_factors), "1/s")
    metrics["trace.overhead_ratio"] = metric(traced_op_s / base_op_s - 1.0, "ratio")
    metrics["trace.self_sum_ratio"] = metric(
        layers_self / ops / factor / base_op_s, "ratio")
    combined = {
        "ops": base["ops"] + ops,
        "failed": base["failed"] + traced["failed"],
    }
    return metrics, combined


def write_reference() -> None:
    digests = {}
    for workload in WORKLOADS:
        count = REFERENCE_OPS[workload]
        result = run_workload(workload, DEFAULT_SEED, 1e6, trace=False,
                              max_ops=count, check_reference=False)
        if result["failed"] or result["ops"] != count:
            raise BenchError(f"{workload}: reference run had failures")
        digests[workload] = result["digests"]
        print(f"{workload}: {count} digests", file=sys.stderr)
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests},
                                    indent=0) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true",
                        help="run the p x n scaling grid instead of a workload")
    parser.add_argument("--write-reference", action="store_true",
                        help="store output digests of the default seed")
    args = parser.parse_args()

    if not (SRC / "ranksets" / "__init__.py").is_file():
        print(f"error: no ranksets package under {SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        if args.sweep:
            sweep.run(child_env(), WORKDIR / "sweep.json")
            return 0
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        measure = per_layer if args.trace else end_to_end
        metrics, result = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{args.workload}  {name:<34} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
