"""Workload definitions shared by the benchmark driver and its worker.

Each workload is one ``rbkit run`` invocation.  The sizes are chosen so that
one phase of the offline pipeline dominates the run; the ``why`` text says
which one and which optimisation it is meant to expose or to bypass.
"""

WORKLOADS = {
    "sweep-2d": {
        "problem": "twod-second",
        "nodes": 32,
        "train": [64, 64],
        "estimator": "stable",
        "n_max": 20,
        "eps_tol": 1e-14,
        "val": None,
        "why": "4,096-point training grid at desk scale: the per-point "
               "stable sweep (kernels layer) dominates the greedy build, "
               "truth solves are a small share",
    },
    "truth-paper": {
        "problem": "twod-first",
        "nodes": 50,
        "train": [17, 9],
        "estimator": "stable",
        "n_max": 12,
        "eps_tol": 1e-14,
        "val": None,
        "why": "paper-scale operator (dim 2,304) on a small grid: dense "
               "truth solves, basis extension and the QR refresh dominate, "
               "the sweep is negligible",
    },
    "validate-1d": {
        "problem": "oned-continuous",
        "nodes": 32,
        "train": [512],
        "estimator": "lebesgue",
        "n_max": 20,
        "eps_tol": 1e-12,
        "val": [128],
        "why": "rbkit run with checkpoints and field errors: batched "
               "validation truth solves, reduced solves, Lagrange traces and "
               "artifact writes; no Riesz data or QR at all",
    },
}


def checkpoints(workload):
    """Basis sizes at which field and Lagrange files are written: half and
    full ``n_max`` for workloads with a validation grid, none otherwise."""
    if workload["val"] is None:
        return []
    n_max = workload["n_max"]
    return sorted({max(1, n_max // 2), n_max})


def cli_args(workload, seed, out_dir):
    """The ``rbkit`` command line a user would type for this workload."""
    argv = [
        "run",
        "--problem", workload["problem"],
        "--nodes-per-dim", str(workload["nodes"]),
        "--training-grid", ",".join(str(c) for c in workload["train"]),
        "--estimator", workload["estimator"],
        "--eps-tol", repr(workload["eps_tol"]),
        "--n-max", str(workload["n_max"]),
        "--seed", str(seed),
        "--workers", "1",
        "--output-dir", out_dir,
    ]
    if workload["val"] is not None:
        argv += [
            "--validation-grid", ",".join(str(c) for c in workload["val"]),
            "--checkpoints", ",".join(str(k) for k in checkpoints(workload)),
        ]
    return argv
