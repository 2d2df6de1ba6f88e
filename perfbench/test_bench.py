"""The benchmark's own tests, a few seconds per workload:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402
import workloads  # noqa: E402


def bench(root: Path, workload: str, trace: int, max_ops: int, env=None):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--max-ops", str(max_ops)],
        capture_output=True, text=True, timeout=170, cwd=root, env=env,
    )


def copy_checkout(dest: Path, with_src: bool = True) -> Path:
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(workload, trace, kind):
    out = bench(ROOT, workload, trace, max_ops=4)
    assert out.returncode == 0, out.stdout + out.stderr
    *text, last = out.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {line.split()[0]: line.split()[2] for line in text if len(line.split()) >= 3}
    for name, unit in want.items():
        assert printed.get(name) == unit, name
    if not trace:
        assert any(line.startswith("error_rate") for line in text)


def test_traced_counts_repeat_exactly():
    runs = [json.loads(bench(ROOT, "hall_sweep", 1, max_ops=40).stdout.splitlines()[-1])
            for _ in range(2)]
    exact = ("s2cat.aut_order.distinct_ratio", "oracle.enumerations_per_beta")
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count" or k in exact}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["hall.hall_polynomial.calls"] == 40


def test_perturbed_golden_digest_is_a_failure():
    ops = worker.build_ops("hall_sweep", 3, max_ops=5)
    golden = workloads.load_golden()
    golden[workloads.sweep_key(ops[0])] = "0" * 12
    out = worker.run_pass(
        "hall_sweep", ops, check=lambda o, r: workloads.sweep_check(o, r, golden)
    )
    assert out["failed"] == 1
    assert "digest differs from golden" in out["failures"][0]


def test_wrong_program_answer_fails_the_run(tmp_path):
    """Per-tableau summands in reversed order are a wrong answer that only
    the golden digests see; the run must count it and not pass."""
    root = copy_checkout(tmp_path)
    hall_py = root / "src" / "hallkit" / "hall.py"
    hall_py.write_text(hall_py.read_text() + """

_right_answer = hall_polynomial


def hall_polynomial(alpha, beta, gamma):
    bd = _right_answer(alpha, beta, gamma)
    return type(bd)(bd.total, tuple(reversed(bd.per_tableau)))
""")
    out = bench(root, "hall_sweep", 0, max_ops=200)
    assert out.returncode == 1
    result = json.loads(out.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    assert "digest differs from golden" in out.stdout


def test_refuses_to_run_under_a_cap():
    env = dict(os.environ, HALLKIT_SUBGROUP_CAP="64")
    out = bench(ROOT, "oracle_census", 0, max_ops=2, env=env)
    assert out.returncode != 0 and out.stdout == ""


def test_fails_without_the_program(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    out = bench(root, "hall_sweep", 0, max_ops=2)
    assert out.returncode != 0 and out.stdout == ""
