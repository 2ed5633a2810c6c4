"""The benchmark's outputs are byte-identical for a fixed seed.

Run from the repository root (about a minute and a half):

    python3 -m pytest -p no:cacheprovider bench/test_run.py -q

Each workload runs once untraced and once traced with the same seed, one
pass each; every report, CSV and anchor printout must hash the same in
both runs, so tracing does not change what the program writes either.
Both runs must also print exactly the metrics BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
WORKLOADS = ("extend-1d", "constants", "extend-grid")


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    record = json.loads((ROOT / ".bench_work" / workload / "result.json").read_text())
    return set(result["metrics"]), record["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digests(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced_metrics, untraced = _run(workload, 7, 0)
    traced_metrics, traced = _run(workload, 7, 1)
    assert untraced and untraced == traced
    assert untraced_metrics == {m["name"] for m in spec["end_to_end"]}
    assert traced_metrics == {m["name"] for m in spec["per_layer"]}
