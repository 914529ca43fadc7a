"""Out-of-tree span tracing for rbkit.

The traced run swaps the module attributes that rbkit's layers call through
for timing wrappers defined here, so nothing under ``src/`` changes.  Spans
(name, start, end, parent, counters) stay in memory and are written out when
the run ends.  A span's self time is its duration minus that of its children;
calls are synchronous and single-threaded, so children never overlap.

Span names are ``<layer>.<function>``, where the layer is the rbkit module
that defines the function.
"""

import contextlib
import functools
import importlib
import json
import os
import time

def _kernel_counts(kind):
    """Counter for one sweep kernel call: points and a floating-point
    operation count computed from the argument shapes (M points, basis size
    N, Q_a, Q_f and, for the stable kernel, the QR rank)."""

    def count(args, kwargs, result):
        theta_a, theta_f = args[0], args[1]
        M, Qf = theta_f.shape
        a_blocks = args[3] if kind != "lebesgue" else args[2]
        Qa, N = a_blocks.shape[0], a_blocks.shape[1]
        # assemble A and rhs, LU factor and solve, residual coefficients
        per_point = 2 * Qa * N * N + 2 * Qf * N + 2 * N**3 / 3 + 2 * N * N + Qa * N
        if kind == "stable":
            w_coords, rzt = args[5], args[7]
            k, rank = w_coords.shape[0], rzt.shape[0]
            per_point += 2 * k * Qf + 2 * rank * Qf + 2 * rank * N * Qa + 2 * (k + rank)
        elif kind == "classical":
            per_point += 2 * Qf * Qf + 2 * (N * Qa) ** 2 + 2 * Qf * N * Qa + 4 * N * Qa
        else:
            per_point += N * N + N
        return {"points": M, "flop": M * per_point}

    return count


def _operator_bytes(args, kwargs, op):
    return {"bytes": len(op.a_components) * op.dim**2 * 8}


def _rank_ratio(args, kwargs, factors):
    cols = factors.rzt.shape[1]
    return {"rank_ratio": factors.rank / cols if cols else 1.0}


def _points(args, kwargs, result):
    return {"points": len(result)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


#: (module, attribute, span name, counter).  An attribute given as
#: ``Class.method`` is wrapped on the class.  Every entry must resolve; a
#: renamed attribute makes installation fail instead of silently vanishing
#: from the trace.
PATCHES = [
    ("rbkit.cli", "run_experiment", "harness.run_experiment", None),
    ("rbkit.harness", "build_problem", "harness.build_problem", None),
    ("rbkit.harness", "assemble_affine", "truth.assemble_affine", _operator_bytes),
    ("rbkit.harness", "greedy", "rbm.greedy", None),
    ("rbkit.rbm", "truth_solve", "truth.truth_solve", None),
    ("rbkit.truth", "solve_dense", "numerics.solve_dense", None),
    ("rbkit.rbm", "solve_dense", "numerics.solve_dense", None),
    ("rbkit.rbm", "extend_basis", "rbm.extend_basis", None),
    ("rbkit.estimators", "build_riesz_data", "estimators.build_riesz_data", None),
    ("rbkit.estimators", "build_stable_factors", "estimators.build_stable_factors",
     _rank_ratio),
    ("rbkit.estimators", "pivoted_qr", "numerics.pivoted_qr", None),
    ("rbkit.kernels", "stable_sweep", "kernels.stable_sweep", _kernel_counts("stable")),
    ("rbkit.kernels", "classical_sweep", "kernels.classical_sweep",
     _kernel_counts("classical")),
    ("rbkit.kernels", "lebesgue_sweep", "kernels.lebesgue_sweep",
     _kernel_counts("lebesgue")),
    ("rbkit.harness", "validate", "harness.validate", None),
    ("rbkit.harness", "_batched_truth", "harness.batched_truth", _points),
    ("rbkit.harness", "rb_solve", "rbm.rb_solve", None),
    ("rbkit.harness", "lagrange_coefficients", "rbm.lagrange_coefficients", None),
    ("rbkit.harness", "_write_csv", "harness.write_csv", _bytes_written),
] + [
    ("rbkit.estimators", f"{cls}.{method}", f"estimators.{method}", None)
    for cls in ("ClassicalEstimator", "StableEstimator", "LebesgueEstimator")
    for method in ("refresh", "sweep", "alpha_values")
]

LAYERS = ("cli", "harness", "rbm", "truth", "numerics", "estimators", "kernels")


class Tracer:
    """In-memory span recorder.  ``spans`` holds lists
    ``[name, start, end, parent_index, counters]``; the root has parent -1."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, patches=PATCHES):
        """Swap every patched attribute for its wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, count in patches:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                if not callable(original):
                    raise TypeError(f"{module_name}.{attr} is not callable")
                had_own = leaf in vars(owner)
                saved.append((owner, leaf, original, had_own))
                setattr(owner, leaf, self.wrap(name, original, count))
            yield self
        finally:
            for owner, leaf, original, had_own in reversed(saved):
                if had_own:
                    setattr(owner, leaf, original)
                else:
                    delattr(owner, leaf)

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, counters) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "counters": counters}) + "\n")


#: Counters aggregated over calls by a worst case instead of a sum.
WORST = {"rank_ratio": min}


def summarize(spans):
    """Per-name totals: calls, inclusive seconds, self seconds and counters,
    summed or, for the health counters in ``WORST``, the worst value."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent, counters) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "counters": {}})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time[i]
        for key, value in (counters or {}).items():
            if key in WORST:
                agg["counters"][key] = WORST[key](agg["counters"].get(key, value), value)
            else:
                agg["counters"][key] = agg["counters"].get(key, 0) + value
    return out


def layer_self_seconds(summary):
    """Self seconds per layer; every span name starts with a layer in
    ``LAYERS``."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, agg in summary.items():
        totals[name.split(".", 1)[0]] += agg["self_s"]
    return totals
