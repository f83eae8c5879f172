"""One benchmark workload in a process of its own.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports
``ranksets``, prints ``ready`` (the end of set-up), then drives the
workload's closed loop for the given number of seconds and writes the
raw measurements as JSON to the ``--result`` file.  With ``--setup-only`` it exits
right after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _reference(path: Path, workload: str, seed: int) -> list[str]:
    """Digests of the first ops of ``workload`` at ``seed``, if stored."""
    if not path.is_file():
        return []
    stored = json.loads(path.read_text(encoding="utf-8"))
    if stored.get("seed") != seed:
        return []
    return stored["digests"].get(workload, [])


def main() -> int:
    # One CPU for the whole workload process, so that the calibration
    # kernel shares the host contention its ops see.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import ranksets  # noqa: F401  - the import is the set-up being timed

    print("ready", flush=True)
    # Anything printed from here on goes to stderr: the parent stops
    # reading stdout after "ready", and results go to --result.
    os.dup2(2, 1)
    import calibration
    from tracing import Tracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--max-ops", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--reference", type=Path, default=None)
    parser.add_argument("--result", type=Path, default=None)
    args = parser.parse_args()
    if args.setup_only:
        return 0

    workload = WORKLOADS[args.workload](args.workdir)
    reference = (_reference(args.reference, args.workload, args.seed)
                 if args.reference else [])
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    latencies: list[float] = []  # timed region of each op
    op_starts: list[float] = []  # start of each op's timed region
    slots: list[float] = []  # whole loop iteration of each op, kernel excluded
    kernels: list[tuple[float, float]] = []  # (time, seconds) of each kernel run
    digests: list[str] = []
    failures: list[str] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    next_kernel = start
    i = 0
    while time.perf_counter() < deadline and (args.max_ops is None or i < args.max_ops):
        if time.perf_counter() >= next_kernel:
            kernels.append((time.perf_counter() - start, calibration.kernel()))
            next_kernel = time.perf_counter() + calibration.INTERVAL_S
        slot_start = time.perf_counter()
        inputs = workload.make(args.seed, i)
        span = tracer.begin_op(i) if tracer else None
        t0 = time.perf_counter()
        try:
            output = workload.run(inputs)
        except Exception as exc:  # a failed op is counted and the loop goes on
            output = exc
        t1 = time.perf_counter()
        if tracer:
            tracer.end_op(span)
        try:
            if isinstance(output, Exception):
                raise output
            problems, digest = workload.check(inputs, output)
        except Exception as exc:
            traceback.print_exc()
            problems, digest = [f"{type(exc).__name__}: {exc}"], "error"
        if i < len(reference) and digest != reference[i]:
            problems.append(f"digest {digest} differs from reference {reference[i]}")
        if problems:
            failures.append(f"op {i} ({workload.kinds[i % len(workload.kinds)]}): "
                            + "; ".join(problems[:3]))
        latencies.append(t1 - t0)
        op_starts.append(t0 - start)
        digests.append(digest)
        i += 1
        slots.append(time.perf_counter() - slot_start)
    kernels.append((time.perf_counter() - start, calibration.kernel()))

    result = {
        "ops": i,
        "failed": len(failures),
        "failures": failures[:20],
        "latencies_s": latencies,
        "op_starts_s": op_starts,
        "slots_s": slots,
        "kernels": kernels,
        "kinds": [workload.kinds[k % len(workload.kinds)] for k in range(i)],
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        result["hit_ratio"] = {
            name: tracer.hit_ratio(name) for name in
            ("exact.pvalue_cache", "cp.box_cache", "boot.resample_cache")
        }
        result["tail_cache_entries"] = tracer.cache_entries("exact.tail_cache")
        tracer.write_spans(args.workdir / f"spans-{args.workload}-{args.seed}.tsv")
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
