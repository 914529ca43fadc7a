"""Fast smoke test of the benchmark itself.

Runs every workload at tiny sizes, untraced and traced, and checks the result
line against ``BENCHMARK.json``, the spans against the patch table, and the
refusal to run without the sources.  A broken wrapper or a renamed rbkit
attribute fails here in seconds instead of after a full run::

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import LAYERS, PATCHES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 12345  # not a reference seed, so tiny sizes never meet a stored history
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_args(name):
    train = "6,5" if len(WORKLOADS[name]["train"]) == 2 else "40"
    return ["--nodes", "8", "--train", train, "--val", "16", "--n-max", "4"]


def run_bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(["--workload", name, "--seed", str(SEED),
                              "--seconds", "1", "--trace", str(trace),
                              *tiny_args(name)])
            assert proc.returncode == 0, proc.stderr
            out[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_lines(results, trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in WORKLOADS:
        result = results[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_spans_cover_every_patch(results):
    seen = set()
    for name in WORKLOADS:
        path = BENCH_DIR / "out" / f"{name}-seed{SEED}.spans.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans[0]["name"] == "cli.main" and spans[0]["parent"] == -1
        seen |= {s["name"] for s in spans}
    # no workload uses the classical estimator
    expected = {name for _, _, name, _ in PATCHES} - {"kernels.classical_sweep"}
    assert expected <= seen
    assert {name.split(".")[0] for name in seen} == set(LAYERS)


def test_renamed_attribute_fails_and_install_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from rbkit import harness, kernels
    from rbkit.estimators import StableEstimator

    originals = (harness.greedy, kernels.stable_sweep, StableEstimator.sweep)
    with Tracer().installed():
        assert harness.greedy is not originals[0]
    assert (harness.greedy, kernels.stable_sweep, StableEstimator.sweep) == originals
    assert "alpha_values" not in vars(StableEstimator)
    with pytest.raises(AttributeError):
        with Tracer().installed(PATCHES + [("rbkit.harness", "no_such", "x", None)]):
            pass
    assert harness.greedy is originals[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(["--workload", "sweep-2d", "--seed", "0", "--seconds", "1"],
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
