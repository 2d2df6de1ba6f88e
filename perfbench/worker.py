"""One pass of a workload, in a fresh interpreter started by ``run.py``.

Prints ``ready`` once hallkit is imported and the op list is built, so
the parent can time set-up.  Then it runs every op, checks the results
after the timed phase and prints the pass's measurements as one JSON
line.  With ``--trace 1`` it wraps hallkit's layers first, reports
per-layer counts and self times, and writes the spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import hallkit  # noqa: E402

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CALIBRATE_EVERY_S = 0.25


def build_ops(workload: str, seed: int, max_ops: int = 0) -> list:
    ops = WORKLOADS[workload].inputs(random.Random(seed))
    return ops[:max_ops] if max_ops else ops


def run_pass(workload: str, ops: list, tracer=None, check=None) -> dict:
    """Times each op, then checks all results; an op that raises or fails
    a check counts as failed.  Between ops, at most every
    CALIBRATE_EVERY_S, it measures the machine's speed."""
    wl = WORKLOADS[workload]
    results, latencies, cpu_times, scales, errors = [], [], [], [], {}
    next_calibration = 0.0
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if time.perf_counter() >= next_calibration:
            scales.append(speed.scale())
            next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
        if tracer is not None:
            tracer.op = i
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            results.append(wl.run(op))
        except Exception as exc:  # counted in error_rate, never skipped
            results.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        cpu_times.append(time.process_time() - cpu_start)
    wall = time.perf_counter() - t0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checks = (check or wl.check)(ops, results)
    failures = [
        f"op {i} {op!r}: {'; '.join([errors[i]] if i in errors else checks[i])}"
        for i, op in enumerate(ops)
        if i in errors or checks[i]
    ]
    return {
        "ops": len(ops),
        "wall_s": wall,
        "latencies_ms": [x * 1e3 for x in latencies],
        "cpu_ms": [x * 1e3 for x in cpu_times],
        "scales": scales,
        "rss_kb": rss_kb,
        "failed": len(failures),
        "failures": failures[:5],
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--max-ops", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if Path(hallkit.__file__).resolve().parent != SRC / "hallkit":
        sys.exit(f"imported hallkit from {hallkit.__file__}, not from {SRC}")
    ops = build_ops(args.workload, args.seed, args.max_ops)
    print("ready", flush=True)
    if args.setup_only:
        return
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out = run_pass(args.workload, ops, tracer)
    if tracer is not None:
        out["layers"] = tracer.layers(out["wall_s"])
        out["missing_layers"] = tracer.missing
        tracer.write(Path(__file__).parent / "out" / f"spans-{args.workload}-seed{args.seed}.tsv")
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
