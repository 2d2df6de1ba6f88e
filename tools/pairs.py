"""Alternating benchmark pairs of this checkout against an earlier revision.

    python3 tools/pairs.py --workload hall_sweep --against HEAD~1 --pairs 10

The revision is extracted with ``git archive`` into a temporary
directory, and the change is a copy, made at the start, of this
checkout's tracked and untracked-unignored files as they stand,
uncommitted edits included; so an edit made during the run reaches
neither side.  Both copies are byte-compiled first (``python -m
compileall -q src perfbench``), so no pass pays for compiling.  Each
pair runs ``perfbench/run.py`` once in each copy, one run at a time;
the side that runs first alternates from pair to pair.

The result goes to ``BENCH_<workload>.json`` at the root of the
checkout (or to ``--out``): for each end-to-end metric of
``BENCHMARK.json``, every run's value, the median and quartiles of each
side, and the number of pairs in which the change did better; the shas
of both sides; and whether every op of every run passed.  The exit code
is 0 only when every run passed.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(rev: str, dest: Path) -> str:
    """Write the tree of rev into dest; return its commit sha."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def snapshot(dest: Path) -> None:
    """Copy this checkout's tracked and untracked-unignored files, as they
    stand, into dest."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if (ROOT / name).is_file():  # a tracked file may be deleted; "" ends the list
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def compile_tree(tree: Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True,
        stdout=subprocess.DEVNULL,
    )


def bench(tree: Path, args) -> dict:
    """One run of the tree's own ``perfbench/run.py``: its last-line JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.max_ops:
        cmd += ["--max-ops", str(args.max_ops)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"no output from {tree}: {out.stderr.strip()}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--against", required=True, help="the git revision to compare with")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--max-ops", type=int, default=0,
                    help="ops per pass, for a dry run (default: the whole op list)")
    ap.add_argument("--out", type=Path, help="default: BENCH_<workload>.json at the root")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        edits = bool(git("status", "--porcelain"))
        change = {"sha": git("rev-parse", "HEAD"), "uncommitted_edits": edits}
        snapshot(trees["change"])
        parent_sha = extract(args.against, trees["parent"])
        for tree in trees.values():
            compile_tree(tree)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(bench(trees[side], args))
                print(f"pair {i + 1}/{args.pairs} {side}: "
                      f"ops_per_s {runs[side][-1]['metrics']['ops_per_s']['value']:.6g}",
                      file=sys.stderr)

    metrics = {}
    for spec in SPEC["end_to_end"]:
        name = spec["name"]
        sides = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": summary(sides["parent"]),
            "change": summary(sides["change"]),
            "change_wins": wins,
        }
    correct = all(r["correct"] for rs in runs.values() for r in rs)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "max_ops": args.max_ops or None,
        "pairs": args.pairs,
        "parent": {"rev": args.against, "sha": parent_sha},
        "change": change,
        "python": platform.python_version(),
        "correct": correct,
        "metrics": metrics,
    }
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name:<14} parent {m['parent']['median']:.6g}  change {m['change']['median']:.6g}  "
              f"{m['unit']}  change better in {m['change_wins']} of {args.pairs}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
