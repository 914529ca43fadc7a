"""The benchmark's reference replay: each workload's greedy history at seed
0 equals the one stored in ``bench/references.json``, and every check of the
run passes.  ``bench/run.py`` runs in a subprocess, as from the command line;
it writes its reports under ``bench/out`` and changes nothing else."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["sweep-2d", "truth-paper", "validate-1d"])
def test_benchmark_history_matches_reference(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    [checks_line] = [line for line in lines if line.startswith("checks: ")]
    checks, reference = checks_line[len("checks: "):].split("; reference: ")
    assert result["failed"] == 0, checks_line
    assert json.loads(checks)["history_matches_reference"] == [1, 0]
    assert reference.endswith("-> match")
