"""One repetition of a benchmark workload, in a fresh process.

Usage (normally started by ``run.py``)::

    python3 bench/worker.py '<json spec>'

The spec gives the workload settings, seed, output directory and whether to
trace.  The worker times set-up, runs ``rbkit run`` in-process through
``rbkit.cli.main``, checks the artifacts, and prints one JSON object as the
last line of its standard output.
"""

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: Set-up is repeated this often per repetition; the median is reported.
SETUP_REPS = 3
#: Tolerance between the stable estimate and the truth-space residual-norm
#: oracle: ORACLE_RTOL of the oracle value plus ORACLE_FLOOR of the load's
#: dual norm.  The second term covers the oracle's own cancellation floor: it
#: forms f - A u in the truth space, where operator entries reach 1e6 at 50
#: nodes (measured gap 6e-13 of the load norm on truth-paper, 1e-14 relative
#: on sweep-2d).
ORACLE_RTOL = 1e-8
ORACLE_FLOOR = 1e-11
#: Greedy steps at which the stable estimate is compared to the oracle.
ORACLE_POINTS = 3

#: Per-layer metrics printed with --trace 1, with their units.
PER_LAYER_UNITS = {
    "kernels.sweep.s": "s",
    "kernels.sweep.gflop_computed": "GFLOP",
    "kernels.sweep.gflops": "GFLOP/s",
    "estimators.sweep.us_per_point": "us",
    "estimators.sweep.overhead_s": "s",
    "truth.truth_solve.calls": "count",
    "truth.truth_solve.s": "s",
    "numerics.solve_dense.calls": "count",
    "numerics.solve_dense.s": "s",
    "rbm.extend_basis.s": "s",
    "estimators.build_riesz_data.s": "s",
    "estimators.build_stable_factors.s": "s",
    "numerics.pivoted_qr.s": "s",
    "rbm.greedy.self_s": "s",
    "truth.assemble_affine.s": "s",
    "truth.operator_bytes": "B",
    "harness.batched_truth.points": "count",
    "harness.batched_truth.s": "s",
    "harness.validate.s": "s",
    "rbm.rb_solve.calls": "count",
    "rbm.rb_solve.s": "s",
    "harness.lagrange.s": "s",
    "harness.write.s": "s",
    "harness.write.bytes": "B",
    "estimators.stable.rank_ratio": "ratio",
    "rbm.chol_coeffs.cond": "ratio",
    "harness.validate.nan_points": "count",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
    "trace.spans": "count",
    "layer.cli.self_share": "ratio",
    "layer.harness.self_share": "ratio",
    "layer.rbm.self_share": "ratio",
    "layer.truth.self_share": "ratio",
    "layer.numerics.self_share": "ratio",
    "layer.estimators.self_share": "ratio",
    "layer.kernels.self_share": "ratio",
}


def import_rbkit():
    """Import rbkit from this checkout's ``src`` and nowhere else."""
    if not (SRC_DIR / "rbkit" / "__init__.py").is_file():
        raise SystemExit(f"rbkit sources not found under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import rbkit

    if Path(rbkit.__file__).resolve().parent != (SRC_DIR / "rbkit").resolve():
        raise SystemExit(f"imported rbkit from {rbkit.__file__}, not {SRC_DIR}")


def machine_info():
    import numpy
    import scipy
    from rbkit import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model, cpu_flags = "unknown", set()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and cpu_model == "unknown":
                    cpu_model = value.strip()
                elif key.strip() == "flags" and not cpu_flags:
                    cpu_flags = set(value.split())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cpu_simd": sorted(cpu_flags & {"avx", "avx2", "fma", "avx512f"}),
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_use_jit": bool(kernels.USE_JIT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def time_setup(workload):
    """One set-up as ``rbkit run`` does it: problem, training grid, estimator."""
    from rbkit.estimators import make_estimator
    from rbkit.harness import build_problem, make_training_grid

    t0 = time.perf_counter()
    spec, _, _ = build_problem(workload["problem"], workload["nodes"])
    make_training_grid(spec.param_domain, workload["train"])
    make_estimator(workload["estimator"])
    return time.perf_counter() - t0


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(workload, out_dir, oracle_seed):
    """Artifact checks of one repetition.  Returns ``(checks, nan_points)``
    where ``checks`` maps a check name to ``[attempted, failed]`` operation
    counts."""
    from workloads import checkpoints

    checks = {}

    def record(name, attempted, failed):
        a, f = checks.get(name, [0, 0])
        checks[name] = [a + attempted, f + failed]

    n_max = workload["n_max"]
    with open(os.path.join(out_dir, "metadata.json")) as fh:
        meta = json.load(fh)
    history = _read_csv(os.path.join(out_dir, "history.csv"))
    bad_estimates = sum(
        not math.isfinite(float(row["estimate"])) for row in history if int(row["n"]) > 0
    )
    record("greedy_steps", n_max, max(0, n_max - meta["n_final"]) + bad_estimates)
    record("n_final_is_n_max", 1, int(meta["n_final"] != n_max))
    record("not_saturated", 1, int(bool(meta["saturated"])))

    nan_points = 0
    if workload["val"] is not None:
        expected_rows = math.prod(workload["val"])
        for k in checkpoints(workload):
            path = os.path.join(out_dir, f"field_N{k}.csv")
            rows = _read_csv(path) if os.path.exists(path) else []
            nan = sum(not math.isfinite(float(r["true_error"])) for r in rows)
            nan_points += nan
            record("validation_points", expected_rows,
                   nan + max(0, expected_rows - len(rows)))
        record("no_nan_rows", 1, int(nan_points > 0))

    if oracle_seed is not None:
        record("stable_matches_oracle",
               *_oracle_failures(out_dir, workload, history, oracle_seed))
    return checks, nan_points


def _oracle_failures(out_dir, workload, history, seed):
    """Stable estimates at a few seeded greedy steps against the truth-space
    residual norm.

    Step n is checked at its recorded parameter with the leading n basis
    vectors, as the greedy scored it.  The stable estimate is recomputed from
    scratch; on stable workloads the estimate recorded in ``history.csv`` is
    checked as well.  Points already in the sample set are not used: their
    residual lies below the floor of the stable evaluation (about 1e-9 of the
    load norm at 50 nodes), where the estimate is not meant to be accurate.
    """
    import numpy as np
    from rbkit.estimators import make_estimator, residual_norm_oracle
    from rbkit.harness import _sub_basis, load_run
    from rbkit.rbm import rb_solve

    _, op, basis, model = load_run(out_dir)
    steps = [row for row in history if int(row["n"]) > 0]
    picks = np.random.default_rng(seed).choice(
        len(steps), min(ORACLE_POINTS, len(steps)), replace=False)
    failures = attempted = 0
    for row in (steps[i] for i in sorted(picks)):
        n = int(row["n"])
        mu = np.array([float(v) for k, v in row.items() if k.startswith("mu")])
        sub_b, sub_m = _sub_basis(basis, model, n)
        est = make_estimator("stable")
        est.refresh(op, sub_b, sub_m)
        u_hat = rb_solve(sub_m, op, mu)
        ref = residual_norm_oracle(op, sub_b, mu, u_hat)
        load = residual_norm_oracle(op, sub_b, mu, np.zeros_like(u_hat))
        tol = ORACLE_RTOL * ref + ORACLE_FLOOR * load
        got = [est.value_at(op, mu, u_hat, 1.0).value]
        if workload["estimator"] == "stable":
            got.append(float(row["estimate"]))
        for value in got:
            attempted += 1
            failures += int(not (ref > 0 and abs(value - ref) <= tol))
    return attempted, failures


def per_layer_metrics(summary, traced_total, out_dir, nan_points):
    """Per-layer metrics of one traced repetition (tracing overhead and
    accounted fraction are filled in by the driver, which sees the untraced
    repetitions too)."""
    import numpy as np
    from tracing import layer_self_seconds

    def get(name, key="s"):
        agg = summary.get(name)
        if agg is None:
            return 0
        if key in agg:
            return agg[key]
        return agg["counters"].get(key, 0)

    kernel_names = [n for n in summary if n.startswith("kernels.")]
    kernel_s = sum(get(n) for n in kernel_names)
    kernel_flop = sum(get(n, "flop") for n in kernel_names)
    kernel_points = sum(get(n, "points") for n in kernel_names)
    sweep_s = get("estimators.sweep")
    chol = np.load(os.path.join(out_dir, "basis.npz"))["chol_coeffs"]
    stable_ran = "estimators.build_stable_factors" in summary

    metrics = {
        "kernels.sweep.s": kernel_s,
        "kernels.sweep.gflop_computed": kernel_flop / 1e9,
        "kernels.sweep.gflops": kernel_flop / 1e9 / kernel_s if kernel_s else 0.0,
        "estimators.sweep.us_per_point":
            1e6 * sweep_s / kernel_points if kernel_points else 0.0,
        "estimators.sweep.overhead_s": sweep_s - kernel_s,
        "truth.truth_solve.calls": get("truth.truth_solve", "calls"),
        "truth.truth_solve.s": get("truth.truth_solve"),
        "numerics.solve_dense.calls": get("numerics.solve_dense", "calls"),
        "numerics.solve_dense.s": get("numerics.solve_dense"),
        "rbm.extend_basis.s": get("rbm.extend_basis"),
        "estimators.build_riesz_data.s": get("estimators.build_riesz_data"),
        "estimators.build_stable_factors.s": get("estimators.build_stable_factors"),
        "numerics.pivoted_qr.s": get("numerics.pivoted_qr"),
        "rbm.greedy.self_s": get("rbm.greedy", "self_s"),
        "truth.assemble_affine.s": get("truth.assemble_affine"),
        "truth.operator_bytes": get("truth.assemble_affine", "bytes"),
        "harness.batched_truth.points": get("harness.batched_truth", "points"),
        "harness.batched_truth.s": get("harness.batched_truth"),
        "harness.validate.s": get("harness.validate"),
        "rbm.rb_solve.calls": get("rbm.rb_solve", "calls"),
        "rbm.rb_solve.s": get("rbm.rb_solve"),
        "harness.lagrange.s": get("rbm.lagrange_coefficients"),
        "harness.write.s": get("harness.write_csv"),
        "harness.write.bytes": get("harness.write_csv", "bytes"),
        # 0 when no stable refresh ran (lebesgue workloads)
        "estimators.stable.rank_ratio":
            get("estimators.build_stable_factors", "rank_ratio") if stable_ran else 0.0,
        "rbm.chol_coeffs.cond": float(np.linalg.cond(chol)),
        "harness.validate.nan_points": nan_points,
        "trace.total_s": traced_total,
        "trace.spans": sum(agg["calls"] for agg in summary.values()),
    }
    for layer, seconds in layer_self_seconds(summary).items():
        metrics[f"layer.{layer}.self_share"] = seconds / traced_total
    return metrics


def main(spec):
    import_rbkit()
    from rbkit import cli
    from tracing import Tracer, summarize
    from workloads import cli_args

    workload = spec["workload"]
    out_dir = spec["out_dir"]
    setup = [time_setup(workload) for _ in range(SETUP_REPS)]

    tracer = Tracer() if spec["traced"] else None
    entry = cli.main
    with tracer.installed() if tracer else contextlib.nullcontext():
        if tracer:
            entry = tracer.wrap("cli.main", cli.main)
        argv = cli_args(workload, spec["seed"], out_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = entry(argv)
            total = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rc != 0:
        raise SystemExit(f"rbkit run exited with code {rc}")

    checks, nan_points = check_outputs(workload, out_dir, spec["oracle_seed"])
    with open(os.path.join(out_dir, "metadata.json")) as fh:
        build_s = json.load(fh)["timings"]["greedy_seconds"]
    result = {
        "setup_s": statistics.median(setup),
        "build_s": build_s,
        "total_s": total,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
    }
    if spec["machine"]:
        result["machine"] = machine_info()
    if tracer:
        tracer.dump(os.path.join(out_dir, "spans.jsonl"))
        summary = summarize(tracer.spans)
        result["summary"] = summary
        result["self_sum_s"] = sum(agg["self_s"] for agg in summary.values())
        result["per_layer"] = per_layer_metrics(summary, total, out_dir, nan_points)
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
