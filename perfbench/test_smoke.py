"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload, listed in BENCHMARK.json or not, runs in smoke mode,
untraced and traced, and must be correct and emit every metric
BENCHMARK.json names, with its unit.  The repository's
own test suite does not collect this file.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["pipeline-3d", "diagram-queries", "crosscheck"])
def test_smoke_emits_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for line, m in zip(proc.stdout.splitlines(), wanted):
        name, _, unit, count = line.split()
        assert (name, unit) == (m["name"], m["unit"]) and count.startswith("n=")
    if trace:
        counts = result["metrics"]
        if workload == "pipeline-3d":
            assert counts["geometry.spheres_per_simplex"]["value"] == 2.0
            assert counts["construct.delta_attempts"]["value"] == 1
        if workload == "crosscheck":
            assert counts["verify.claims"]["value"] == 8


def test_refuses_without_package_source():
    """Copied without src/, the benchmark exits non-zero and prints no result."""
    bare = ROOT / ".perfbench_out" / "bare-copy"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline-3d",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
