"""The traced benchmark pass runs on the program as it stands.

A traced pass wraps every public function of the program and reports the
per-layer metrics that ``BENCHMARK.json`` names; it stops with no result
when a named function, or a name the benchmark imports, is gone.  One
traced pass per workload, with no timed passes, takes about two seconds in
all."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["cohomology", "operators", "witness"])
def test_traced_benchmark_pass_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
