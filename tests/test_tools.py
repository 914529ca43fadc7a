"""Smoke tests of the scripts under ``tools/``."""

import importlib.util
import itertools
import json
import math
import os
import subprocess
from pathlib import Path

import pytest

from rbkit.estimators import ESTIMATOR_KINDS
from rbkit.harness import VALIDATE_MODES
from rbkit.truth import PROBLEM_IDS

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


def test_runner_spans_the_package_lists(tmp_path):
    e2e = _load("e2e")
    assert e2e.lists() == (PROBLEM_IDS, ESTIMATOR_KINDS, VALIDATE_MODES)
    # rbkit is already imported from src/, so another tree cannot be read here
    with pytest.raises(RuntimeError, match="already imported"):
        e2e.lists(str(tmp_path))


def test_artifacts_runs_every_combination_and_drops_timings(tmp_path, monkeypatch):
    e2e = _load("e2e")
    calls = []

    def fake_rbkit(src, cwd, *args):
        calls.append(args)
        if args[0] == "run":
            out = Path(cwd) / args[args.index("--output-dir") + 1]
            out.mkdir()
            (out / "metadata.json").write_text(json.dumps({"timings": {}, "n_final": 8}))
        return 0.0, 0.0

    monkeypatch.setattr(e2e, "_rbkit", fake_rbkit)
    e2e.artifacts(e2e.SRC, str(tmp_path))
    combos = list(itertools.product(PROBLEM_IDS, ESTIMATOR_KINDS, VALIDATE_MODES))
    names = [f"{p}-{k}-{m}" for p, k, m in combos]
    *runs, last = calls
    assert runs[::2] == [("run", "--problem", p, "--estimator", k, "--validate", m,
                          "--output-dir", name, *e2e.MATRIX_FLAGS)
                         for (p, k, m), name in zip(combos, names)]
    assert runs[1::2] == [("validate", name) for name in names]
    assert last == ("float-demo", "--output", "float_demo.csv")
    assert json.loads((tmp_path / names[0] / "metadata.json").read_text()) == {"n_final": 8}


def test_compare_lists_changed_and_one_sided_files(tmp_path, capsys):
    e2e = _load("e2e")
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "run").mkdir(parents=True)
        (root / "run" / "history.csv").write_text("N,estimate\n1,0.5\n")
    assert e2e.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "0 differing files\n"
    (b / "run" / "history.csv").write_text("N,estimate\n1,0.7\n")
    for root in (a, b):  # same size and mtime, so only the bytes tell
        os.utime(root / "run" / "history.csv", (0, 0))
    (a / "run" / "field_N3.csv").write_text("x\n")
    assert e2e.compare(str(a), str(b)) == [os.path.join("run", name)
                                           for name in ("field_N3.csv", "history.csv")]
    assert e2e.main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "2 differing files"


def test_failed_child_raises(tmp_path):
    e2e = _load("e2e")
    with pytest.raises(subprocess.CalledProcessError):
        e2e._rbkit(e2e.SRC, str(tmp_path), "run", "--problem", "no-such-problem")
