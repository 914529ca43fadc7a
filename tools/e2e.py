"""Time the default ``rbkit run`` end to end and write ``BENCH_e2e.json``.

The matrix is 24 runs: the four problems x the three indicators, at 32 and
50 nodes, each with every other setting at its ``rbkit run`` default.  Each
run is a fresh ``python3 -m rbkit`` process with ``OPENBLAS_NUM_THREADS=1``,
and the matrix is run twice, the second pass in reverse order, so a drift
of the host's speed shows as a difference between the passes.

Per run the record holds:
- ``wall_s``: wall time of the process, interpreter start and imports
  included;
- ``peak_rss_mb``: the child's ``ru_maxrss`` from ``os.wait4``, in MiB;
- ``greedy_s``, ``sweep_s``: ``metadata.json``'s ``greedy_seconds`` and the
  sum of its ``sweep_seconds``;
- ``n_final``, ``saturated``, ``last_estimate`` (the last ``history.csv``
  row's) and ``blas``, as ``metadata.json`` gives them.

The file also holds a machine record.  It is a record, not a gate: no run
is checked against a bound.

    python3 tools/e2e.py                       # the package under src/
    python3 tools/e2e.py --src other/src --out BENCH_e2e-other.json
"""

import argparse
import csv
import itertools
import json
import os
import platform
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = ("oned-continuous", "oned-discontinuous", "twod-first", "twod-second")
ESTIMATORS = ("classical", "stable", "lebesgue")
NODES = (32, 50)
PASSES = 2


def run(problem, kind, nodes, workdir, *flags, src=os.path.join(ROOT, "src")):
    """One ``rbkit run`` of ``problem`` with indicator ``kind`` at ``nodes``
    nodes per dimension, plus ``flags``, in a fresh process writing under
    ``workdir``; returns its record."""
    out = os.path.join(workdir, f"{problem}-{kind}-{nodes}")
    argv = [sys.executable, "-m", "rbkit", "run", "--problem", problem,
            "--estimator", kind, "--nodes-per-dim", str(nodes),
            "--output-dir", out, *flags]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited with status {status}")
    with open(os.path.join(out, "metadata.json")) as fh:
        meta = json.load(fh)
    with open(os.path.join(out, "history.csv"), newline="") as fh:
        *_, last = csv.DictReader(fh)
    return {
        "problem": problem,
        "estimator": kind,
        "nodes": nodes,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "greedy_s": meta["timings"]["greedy_seconds"],
        "sweep_s": sum(meta["timings"]["sweep_seconds"]),
        "n_final": meta["n_final"],
        "saturated": meta["saturated"],
        "last_estimate": float(last["estimate"]),
        "blas": meta["blas"],
    }


def machine():
    """The host the runs are timed on."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count()
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.partition(":")[2].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "cpu_model": model,
        "numba_imports": numba_imports,
        "python": platform.python_version(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the rbkit package")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    args = parser.parse_args(argv)
    configs = list(itertools.product(PROBLEMS, ESTIMATORS, NODES))
    runs = []
    with tempfile.TemporaryDirectory() as workdir:
        for p in range(PASSES):
            for problem, kind, nodes in configs if p % 2 == 0 else configs[::-1]:
                record = {"pass": p, **run(problem, kind, nodes, workdir, src=args.src)}
                runs.append(record)
                print(f"pass {p} {problem:18} {kind:9} {nodes:3}  "
                      f"{record['wall_s']:7.2f} s  {record['peak_rss_mb']:6.1f} MB  "
                      f"N={record['n_final']}", flush=True)
    with open(args.out, "w") as fh:
        json.dump({"machine": machine(), "runs": runs}, fh, indent=2)
        fh.write("\n")
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
