"""Build and compare the artifact matrix of an rbkit source tree.

The matrix is 36 runs: the four problems x the three indicators x
``--validate none|argmax|full``, each at 12 nodes, ``N_max`` 8, ``eps_tol``
1e-300 and checkpoints 3 and 8, followed by ``rbkit validate`` on the saved
run.  Every process runs with ``OPENBLAS_NUM_THREADS=1``, so the files are
reproducible bit for bit.  ``timings`` is dropped from each ``metadata.json``
(the one entry allowed to differ between reruns), so two matrices of the
same program compare equal file for file.

    python3 tools/artifact_matrix.py --src src --out matrix-a
    python3 tools/artifact_matrix.py --src other/src --out matrix-b
    python3 tools/artifact_matrix.py --compare matrix-a matrix-b

``--compare`` lists every file that differs or exists on one side only and
exits 1 if there is any, 0 if the two matrices are identical.
"""

import argparse
import filecmp
import itertools
import json
import os
import subprocess
import sys

PROBLEMS = ("oned-continuous", "oned-discontinuous", "twod-first", "twod-second")
ESTIMATORS = ("classical", "stable", "lebesgue")
VALIDATE_MODES = ("none", "argmax", "full")
RUN_FLAGS = ["--nodes-per-dim", "12", "--n-max", "8", "--eps-tol", "1e-300",
             "--checkpoints", "3,8"]


def build(src, out):
    """Run the matrix with the package under ``src`` into ``out``, one
    directory per run named ``problem-estimator-mode``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.abspath(src))
    os.makedirs(out, exist_ok=True)
    for problem, kind, mode in itertools.product(PROBLEMS, ESTIMATORS, VALIDATE_MODES):
        name = f"{problem}-{kind}-{mode}"
        # relative output directories keep metadata.json's config equal
        # between matrices built in different places
        for cmd in (["run", "--problem", problem, "--estimator", kind,
                     "--validate", mode, "--output-dir", name, *RUN_FLAGS],
                    ["validate", name]):
            subprocess.run([sys.executable, "-m", "rbkit", *cmd], cwd=out,
                           env=env, check=True, stdout=subprocess.DEVNULL)
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
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--src", help="directory holding the rbkit package")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"),
                       help="two built matrices")
    parser.add_argument("--out", help="directory for the matrix (with --src)")
    args = parser.parse_args(argv)
    if args.compare:
        differ = compare(*args.compare)
        for rel in differ:
            print(rel)
        print(f"{len(differ)} differing files")
        return 1 if differ else 0
    if not args.out:
        parser.error("--src needs --out")
    build(args.src, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
