"""hallkit's benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload hall_sweep --seed 1 --seconds 26 --trace 0

Each pass runs the workload's whole op list in a fresh interpreter
(``worker.py``), one pass at a time, so module caches start empty as
they do for every library or CLI user.  Untraced, it makes as many passes
of the same inputs as ``--seconds`` holds at the pass times in
``PASS_S`` and reports each metric's median over the passes.  Times are
scaled to a reference machine speed (``speed.py``).  ``setup_s`` is the median
time from starting an interpreter to an op list built, over several
set-up-only starts plus every pass.  With ``--trace 1`` it runs one
untraced and one traced pass and prints per-layer metrics, including the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every op of every pass passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CAP_VARIABLES = ("HALLKIT_CAP", "HALLKIT_SUBGROUP_CAP")
SETUP_PROBES = 9
DEADLINE_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Seconds at reference speed (see speed.py) that one pass of the whole op
# list took when the benchmark was defined.  A run makes as many passes as
# fit in --seconds at these times, so every run of a workload takes the
# median of the same number of passes, however fast the code or the
# machine is on the day.
PASS_S = {"hall_sweep": 3.75, "oracle_census": 5.5, "functor_battery": 6.5}


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline()


def percentile(ordered: list[float], pct: float) -> float:
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least ten ops of one pass beyond it."""
    for pct in TAIL_LADDER:
        if ops_per_pass * (100 - pct) / 100 >= 10:
            return pct
    return TAIL_LADDER[-1]


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    """Starts worker interpreters one at a time and collects their output."""

    def __init__(self, workload: str, seed: int, max_ops: int):
        self.base = ["--workload", workload, "--seed", str(seed), "--max-ops", str(max_ops)]
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
        self.proc: subprocess.Popen | None = None

    def spawn(self, *extra: str) -> tuple[float, dict | None]:
        """(set-up seconds at reference speed, the pass's JSON or None for a
        set-up probe)."""
        factor = speed.scale()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-s", str(HERE / "worker.py"), *self.base, *extra],
            stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
        )
        first = self.proc.stdout.readline()
        setup = (time.perf_counter() - start) * factor
        rest = self.proc.stdout.read()
        self.proc.stdout.close()
        code = self.proc.wait()
        self.proc = None
        if first != "ready\n" or code != 0:
            raise RuntimeError(f"worker {' '.join(extra)} exited with code {code}")
        return setup, (json.loads(rest) if rest.strip() else None)

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()


def measure(runner: Runner, count: int, trace: bool):
    setups = [runner.spawn("--setup-only")[0] for _ in range(SETUP_PROBES)]
    results = []
    for flag in ("0", "1") if trace else ("0",) * count:
        setup, result = runner.spawn("--trace", flag)
        setups.append(setup)
        results.append(result)
    return setups, results


def end_to_end(setups, passes) -> tuple[dict, list[str]]:
    # Per pass, in reference-speed time; then the median over passes.
    def median(per_pass) -> float:
        return statistics.median(per_pass(p) for p in passes)

    def scaled(p, key) -> list[float]:
        factor = statistics.median(p["scales"])
        return sorted(x * factor for x in p[key])

    pct = tail_percentile(passes[0]["ops"])
    metrics = {
        "ops_per_s": (median(lambda p: p["ops"] * 1e3 / sum(scaled(p, "latencies_ms"))), "1/s"),
        "op_p50_ms": (median(lambda p: percentile(scaled(p, "latencies_ms"), 50)), "ms"),
        "op_tail_ms": (median(lambda p: percentile(scaled(p, "latencies_ms"), pct)), "ms"),
        "cpu_ms_per_op": (median(lambda p: sum(scaled(p, "cpu_ms")) / p["ops"]), "ms"),
        "peak_rss_mb": (median(lambda p: p["rss_kb"] / 1024), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    unscaled = median(lambda p: p["ops"] * 1e3 / sum(p["latencies_ms"]))
    speed_now = median(lambda p: statistics.median(p["scales"]))
    ops = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    per_pass = passes[0]["ops"]
    notes = {
        "ops_per_s": f"unscaled {unscaled:.6g}",
        "op_tail_ms": f"p{pct:g}: {per_pass * (100 - pct) / 100:g} of {per_pass} ops beyond it",
        "setup_s": f"median of {len(setups)} interpreter starts",
    }
    lines = [
        f"each metric but setup_s: median over {len(passes)} passes of the same "
        f"{per_pass} ops, times scaled to reference speed (median scale {speed_now:.4g})"
    ]
    lines += [
        f"{name:<16} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else "")
        for name, (value, unit) in metrics.items()
    ]
    lines.append(f"{'error_rate':<16} {failed / ops:.6g}  ({failed} of {ops} ops failed)")
    return metrics, lines


def layer_unit(name: str) -> str:
    if name.endswith(("_share", "_ratio", "_per_beta")):
        return "ratio"
    return "count"


def per_layer(passes) -> tuple[dict, list[str]]:
    plain, traced = passes
    layers = dict(traced["layers"])
    layers["trace.overhead_share"] = traced["wall_s"] / plain["wall_s"] - 1
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    lines = [f"traced pass: {traced['wall_s']:.4g} s of timed wall time"]
    for name, (value, unit) in metrics.items():
        seconds = f"  ({value * traced['wall_s']:.4g} s)" if name.endswith("self_share") else ""
        lines.append(f"{name:<40} {value:.6g} {unit}{seconds}")
    if traced["missing_layers"]:
        lines.append("not traced (not found): " + ", ".join(traced["missing_layers"]))
    return metrics, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="sets the number of passes; see PASS_S")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=0,
                    help="ops per pass, for smoke tests (default: the whole op list)")
    args = ap.parse_args()

    caps = [name for name in CAP_VARIABLES if name in os.environ]
    if caps:
        print(f"refusing to run: {', '.join(caps)} set; a cap changes what is measured",
              file=sys.stderr)
        return 2
    if not (SRC / "hallkit" / "__init__.py").is_file():
        print(f"refusing to run: no hallkit sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.max_ops)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    try:
        count = max(1, int(args.seconds // PASS_S[args.workload]))
        setups, passes = measure(runner, count, bool(args.trace))
    except (Deadline, RuntimeError) as exc:
        runner.stop()
        print(f"benchmark failed: {str(exc) or 'deadline passed'}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics, lines = per_layer(passes) if args.trace else end_to_end(setups, passes)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops/pass {passes[0]['ops']}  trace {args.trace}")
    print(f"python {platform.python_version()}  git {git_sha()}  "
          f"nproc {len(os.sched_getaffinity(0))}  PYTHONHASHSEED 0")
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {failure}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
