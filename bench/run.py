#!/usr/bin/env python3
"""rbkit benchmark driver.

Run from the repository root::

    python3 bench/run.py --workload sweep-2d --seed 0 --seconds 30 --trace 0

Every repetition runs the workload's ``rbkit run`` command in a fresh worker
process (``worker.py``) with BLAS and OpenMP pinned to ``THREADS`` threads.
Repetitions continue while they fit in ``--seconds`` (at least ``MIN_REPS``
of each kind).  With ``--trace 0`` the last line of standard output holds
the medians of the end-to-end metrics.  With ``--trace 1`` untraced and
traced repetitions alternate, and the last line holds the per-layer metrics
of the traced ones plus the tracing overhead (traced minus untraced
``total_s``).

Outputs are checked on every repetition (exit code, basis size, saturation,
NaN validation rows, and on the first repetition the stable estimate against
the truth-space oracle); across repetitions ``history.csv`` must be
byte-identical and must equal the stored reference for the seed, when
``references.json`` has one.  ``--record`` stores the reference instead.
A full report, including the machine, goes to ``bench/out/``.
"""

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PER_LAYER_UNITS
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

#: BLAS/OpenMP threads pinned in every worker (never more than nproc).
THREADS = min(1, os.cpu_count() or 1)
#: Repetitions of each kind (untraced, and traced with --trace 1) a run makes
#: even when they overrun --seconds: two are needed to compare histories.
MIN_REPS = 2
#: No repetition may start, or keep running, past this many seconds.
DEADLINE_S = 165.0
#: Relative tolerance on estimates when the reference was recorded on a
#: different machine, where BLAS kernels may round differently.
FOREIGN_RTOL = 1e-9

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}
#: Settings that define a workload's inputs; a reference applies only when
#: they all match.
SIZE_KEYS = ("problem", "nodes", "train", "estimator", "n_max", "eps_tol", "val")
#: Machine properties under which histories are expected to be bit-identical.
MACHINE_KEYS = ("cpu_model", "cpu_simd", "blas", "blas_threads_pinned",
                "numpy", "scipy", "kernels_use_jit")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--nodes", type=int, help="override nodes per direction")
    p.add_argument("--train", help="override training grid counts, e.g. 80,80")
    p.add_argument("--val", help="override validation grid counts (validate-1d)")
    p.add_argument("--n-max", type=int, help="override the basis size")
    p.add_argument("--record", action="store_true",
                   help="run once and store history.csv as the seed's reference")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def workload_from_args(args):
    workload = dict(WORKLOADS[args.workload])
    if args.nodes is not None:
        workload["nodes"] = args.nodes
    if args.train is not None:
        workload["train"] = [int(c) for c in args.train.split(",")]
    if args.val is not None and workload["val"] is not None:
        workload["val"] = [int(c) for c in args.val.split(",")]
    if args.n_max is not None:
        workload["n_max"] = args.n_max
    return workload


def run_worker(spec, timeout):
    """One repetition in a fresh process; returns its result dict, or one
    with an ``error`` entry when the worker failed or timed out."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env.pop("RBKIT_OUTPUT_DIR", None)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def histories_agree(got, ref, same_machine):
    """Byte equality on the recording machine; elsewhere the same selected
    parameters and estimates within FOREIGN_RTOL."""
    if same_machine:
        return got == ref
    a, b = _rows(got), _rows(ref)
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if ra.keys() != rb.keys():
            return False
        for key in ra:
            if key.startswith("mu") or key == "n":
                if ra[key] != rb[key]:
                    return False
            else:
                x, y = float(ra[key]), float(rb[key])
                if not (math.isnan(x) and math.isnan(y)) and \
                        abs(x - y) > FOREIGN_RTOL * max(abs(x), abs(y)):
                    return False
    return True


def load_references():
    if REFERENCES.exists():
        with open(REFERENCES) as fh:
            return json.load(fh)
    return {}


def run_repetitions(args, workload, work_dir):
    """Alternate untraced (and, with --trace 1, traced) repetitions until
    the next one would overrun --seconds and each kind has MIN_REPS."""
    start = time.perf_counter()
    kinds = (False, True) if args.trace else (False,)
    reps = []
    while True:
        traced = kinds[len(reps) % len(kinds)]
        rep_dir = work_dir / f"rep{len(reps)}"
        spec = {
            "workload": workload,
            "seed": args.seed,
            "out_dir": str(rep_dir),
            "traced": traced,
            "oracle_seed": args.seed if not reps else None,
            "machine": not reps,
        }
        t0 = time.perf_counter()
        rep = run_worker(spec, DEADLINE_S - (t0 - start))
        rep["wall_s"] = time.perf_counter() - t0
        rep["traced"] = traced
        history = rep_dir / "history.csv"
        rep["history"] = history.read_text() if history.exists() else None
        if traced and (rep_dir / "spans.jsonl").exists():
            shutil.copy(rep_dir / "spans.jsonl",
                        OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
        reps.append(rep)

        elapsed = time.perf_counter() - start
        next_wall = max(r["wall_s"] for r in reps[-2:])
        have_min = all(sum(r["traced"] == k for r in reps) >= MIN_REPS for k in kinds)
        if ("error" in rep or args.record
                or (have_min and elapsed + next_wall > args.seconds)
                or elapsed + next_wall > DEADLINE_S):
            return reps, elapsed


def check_histories(args, histories, sizes, machine, checks):
    """Cross-repetition and reference checks of history.csv (or, with
    --record, storing the reference).  Adds to ``checks``; returns a note."""
    if len(histories) >= 2:
        checks["history_identical_across_reps"] = [
            1, int(any(h != histories[0] for h in histories))]
    refs = load_references()
    if args.record:
        if any(f for _, f in checks.values()) or histories[0] is None:
            return "not recorded: checks failed"
        refs.setdefault(args.workload, {})[str(args.seed)] = {
            "sizes": sizes,
            "machine": {k: machine.get(k) for k in MACHINE_KEYS},
            "history": histories[0],
        }
        with open(REFERENCES, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return "recorded"
    entry = refs.get(args.workload, {}).get(str(args.seed))
    if entry is None or entry["sizes"] != sizes:
        return "no stored reference for this seed and these sizes"
    same = all(entry["machine"].get(k) == machine.get(k) for k in MACHINE_KEYS)
    agree = histories[0] is not None and histories_agree(
        histories[0], entry["history"], same)
    checks["history_matches_reference"] = [1, int(not agree)]
    how = ("byte-identical comparison" if same else
           f"other machine: selections exact, estimates within {FOREIGN_RTOL:g}")
    return how + (" -> match" if agree else " -> MISMATCH")


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "rbkit" / "__init__.py").is_file():
        print(f"error: rbkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workload_from_args(args)
    sizes = {k: workload[k] for k in SIZE_KEYS}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"{tag}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        reps, measured_s = run_repetitions(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ok_reps = [r for r in reps if "error" not in r]
    plain = [r for r in ok_reps if not r["traced"]]
    traced_reps = [r for r in ok_reps if r["traced"]]
    if not plain or (args.trace and not traced_reps):
        for r in reps:
            print(r.get("error", ""), file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1
    machine = reps[0].get("machine", {})

    # operations: worker runs, the workers' checks, cross-repetition checks
    checks = {"worker_completed": [len(reps), len(reps) - len(ok_reps)]}
    for r in ok_reps:
        for name, (a, f) in r["checks"].items():
            prev = checks.get(name, [0, 0])
            checks[name] = [prev[0] + a, prev[1] + f]
    reference_note = check_histories(args, [r["history"] for r in ok_reps],
                                     sizes, machine, checks)
    attempted = sum(a for a, _ in checks.values())
    failed = sum(f for _, f in checks.values())

    e2e = {name: statistics.median(r[name] for r in plain) for name in END_TO_END_UNITS}
    per_layer = {}
    if args.trace:
        per_layer = {name: statistics.median(r["per_layer"][name] for r in traced_reps)
                     for name in traced_reps[0]["per_layer"]}
        overhead = statistics.median(r["total_s"] for r in traced_reps) - e2e["total_s"]
        self_sum = statistics.median(r["self_sum_s"] for r in traced_reps)
        per_layer["trace.overhead_s"] = overhead
        per_layer["trace.accounted_frac"] = (self_sum - overhead) / e2e["total_s"]

    print(f"rbkit benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; {len(plain)} untraced and {len(traced_reps)} traced "
          f"repetitions in {measured_s:.1f} s")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    for name, unit in END_TO_END_UNITS.items():
        values = [r[name] for r in plain]
        print(f"  {name:<14} median {e2e[name]:.6g} {unit}  "
              f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})")
    if args.trace:
        summary = traced_reps[-1]["summary"]
        total = traced_reps[-1]["total_s"]
        print("  spans of the last traced repetition, by self time:")
        print(f"    {'span':<32} {'calls':>6} {'incl s':>9} {'self s':>9} {'share':>7}")
        for name, agg in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:<32} {agg['calls']:>6} {agg['s']:>9.4f} "
                  f"{agg['self_s']:>9.4f} {agg['self_s'] / total:>7.1%}")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:<36} {per_layer[name]:.6g} {unit}")
    print(f"checks: {json.dumps(checks)}; reference: {reference_note}")

    values, units = ((per_layer, PER_LAYER_UNITS) if args.trace
                     else (e2e, END_TO_END_UNITS))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "sizes": sizes, "threads": THREADS,
        "machine": machine, "checks": checks, "reference": reference_note,
        "repetitions": [{k: v for k, v in r.items() if k != "history"} for r in reps],
        "result": result,
    }
    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
