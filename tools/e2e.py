"""Time, build and compare run matrices of an rbkit source tree.

    python3 tools/e2e.py [--src S] [--out F]         # timing, BENCH_e2e.json
    python3 tools/e2e.py artifacts --src S --out DIR  # the artifact matrix
    python3 tools/e2e.py compare A B                  # two artifact matrices

Each run is a fresh ``python3 -m rbkit`` process with
``OPENBLAS_NUM_THREADS=1`` and the package under ``--src`` (default
``src/``), whose ``truth.PROBLEM_IDS``, ``estimators.ESTIMATOR_KINDS`` and
``harness.VALIDATE_MODES`` span the matrices, in their order.

Timing: every problem and indicator at 32 and 50 nodes, other settings at
their ``rbkit run`` defaults, in two passes, the second reversed, so a
drift of the host's speed shows between them.  Per run the record holds
``wall_s`` (interpreter start and imports included), ``peak_rss_mb`` (the
child's ``ru_maxrss`` from ``os.wait4``, in MiB), ``metadata.json``'s
``greedy_seconds`` as ``greedy_s`` and summed ``sweep_seconds`` as
``sweep_s``, its ``n_final``, ``saturated`` and ``blas``, and the last
``history.csv`` row's estimate; the file adds a machine record.  No run is
checked against a bound.

Artifact matrix: every problem, indicator and validate mode at 12 nodes,
``N_max`` 8, ``eps_tol`` 1e-300 and checkpoints 3 and 8, each run followed
by ``rbkit validate``; with one BLAS thread the files are reproducible bit
for bit.  ``timings``, the one entry allowed to differ between reruns, is
dropped from each ``metadata.json``.  ``compare`` lists every file that
differs or exists on one side only and exits 1 if there is any.
"""

import argparse
import csv
import filecmp
import itertools
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NODES = (32, 50)
PASSES = 2
MATRIX_FLAGS = ("--nodes-per-dim", "12", "--n-max", "8", "--eps-tol", "1e-300",
                "--checkpoints", "3,8")


def lists(src=SRC):
    """``(PROBLEM_IDS, ESTIMATOR_KINDS, VALIDATE_MODES)`` of the rbkit
    package under ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    try:
        from rbkit import estimators, harness, truth
    finally:
        del sys.path[0]
    here = os.path.dirname(truth.__file__)
    if os.path.realpath(here) != os.path.realpath(os.path.join(src, "rbkit")):
        raise RuntimeError(f"rbkit is already imported from {here}, not from {src}")
    return truth.PROBLEM_IDS, estimators.ESTIMATOR_KINDS, harness.VALIDATE_MODES


def _rbkit(src, cwd, *args):
    """Run ``python3 -m rbkit *args`` in ``cwd`` with the package under
    ``src``, stdout discarded; returns the child's wall time in seconds and
    its peak RSS in MiB."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "rbkit", *args], cwd=cwd,
                             env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    # reaped here, so Popen must be told, or it warns that it still runs
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, child.args)
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def run(problem, kind, nodes, workdir, *flags, src=SRC):
    """One ``rbkit run`` of ``problem`` with indicator ``kind`` at ``nodes``
    nodes per dimension, plus ``flags``, in a fresh process writing under
    ``workdir``; returns its record."""
    name = f"{problem}-{kind}-{nodes}"
    wall, peak_rss = _rbkit(src, workdir, "run", "--problem", problem,
                            "--estimator", kind, "--nodes-per-dim", str(nodes),
                            "--output-dir", name, *flags)
    out = os.path.join(workdir, name)
    with open(os.path.join(out, "metadata.json")) as fh:
        meta = json.load(fh)
    with open(os.path.join(out, "history.csv"), newline="") as fh:
        *_, last = csv.DictReader(fh)
    return {
        "problem": problem,
        "estimator": kind,
        "nodes": nodes,
        "wall_s": wall,
        "peak_rss_mb": peak_rss,
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


def timing(src, out):
    """Time the default runs of the package under ``src`` into ``out``."""
    problems, kinds, _ = lists(src)
    configs = list(itertools.product(problems, kinds, NODES))
    runs = []
    with tempfile.TemporaryDirectory() as workdir:
        for p in range(PASSES):
            for problem, kind, nodes in configs if p % 2 == 0 else configs[::-1]:
                record = {"pass": p, **run(problem, kind, nodes, workdir, src=src)}
                runs.append(record)
                print(f"pass {p} {problem:18} {kind:9} {nodes:3}  "
                      f"{record['wall_s']:7.2f} s  {record['peak_rss_mb']:6.1f} MB  "
                      f"N={record['n_final']}", flush=True)
    with open(out, "w") as fh:
        json.dump({"machine": machine(), "runs": runs}, fh, indent=2)
        fh.write("\n")
    print(f"written: {out}")


def artifacts(src, out):
    """Build the artifact matrix of the package under ``src`` into ``out``,
    one directory per run named ``problem-estimator-mode``."""
    os.makedirs(out, exist_ok=True)
    for problem, kind, mode in itertools.product(*lists(src)):
        name = f"{problem}-{kind}-{mode}"
        # relative output directories keep metadata.json's config equal
        # between matrices built in different places
        _rbkit(src, out, "run", "--problem", problem, "--estimator", kind,
               "--validate", mode, "--output-dir", name, *MATRIX_FLAGS)
        _rbkit(src, out, "validate", name)
        path = os.path.join(out, name, "metadata.json")
        with open(path) as fh:
            meta = json.load(fh)
        meta.pop("timings")
        with open(path, "w") as fh:
            json.dump(meta, fh, indent=2)
        print(name, flush=True)


def _files(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def compare(a, b):
    """The sorted relative paths that differ between ``a`` and ``b``,
    including those present on one side only."""
    files_a, files_b = _files(a), _files(b)
    differ = files_a ^ files_b
    for rel in files_a & files_b:
        if not filecmp.cmp(os.path.join(a, rel), os.path.join(b, rel), shallow=False):
            differ.add(rel)
    return sorted(differ)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=SRC, help="directory holding the rbkit package")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    commands = parser.add_subparsers(dest="command")
    matrix = commands.add_parser("artifacts", help="build the artifact matrix")
    # SUPPRESS keeps a --src given before the command
    matrix.add_argument("--src", default=argparse.SUPPRESS, help="as above")
    matrix.add_argument("--out", required=True, help="directory for the matrix")
    pair = commands.add_parser("compare", help="compare two artifact matrices")
    pair.add_argument("a")
    pair.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        differ = compare(args.a, args.b)
        for rel in differ:
            print(rel)
        print(f"{len(differ)} differing files")
        return 1 if differ else 0
    (artifacts if args.command == "artifacts" else timing)(args.src, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
