"""Smoke tests of the scripts under ``tools/``."""

import importlib.util
import math
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_e2e_run_record(tmp_path):
    e2e = _load("e2e")
    record = e2e.run("oned-continuous", "stable", 12, str(tmp_path), "--n-max", "4")
    assert set(record) == {"problem", "estimator", "nodes", "wall_s", "peak_rss_mb",
                           "greedy_s", "sweep_s", "n_final", "saturated",
                           "last_estimate", "blas"}
    assert (record["problem"], record["estimator"], record["nodes"]) == (
        "oned-continuous", "stable", 12)
    assert record["n_final"] == 4 and record["saturated"] is False
    assert record["wall_s"] > record["greedy_s"] >= record["sweep_s"] > 0
    assert record["peak_rss_mb"] > 0 and math.isfinite(record["last_estimate"])
    assert record["blas"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(e2e.machine()) >= {"nproc", "usable_cpus", "cpu_model", "numba_imports"}
