"""Experiment orchestration: configuration, training grids, greedy runs,
validation sweeps, and delimited-text artifact emission.

All numeric artifact files are comma-separated with a header line and
17-significant-digit floats, so reruns with the same config and seed at a
fixed BLAS thread count are byte-identical.  Timings and environment details
go to the metadata sidecar only, which is the one artifact allowed to differ
between reruns.
"""

import dataclasses
import json
import numbers
import os
import time
import zipfile
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__, kernels
from .estimators import ESTIMATOR_KINDS, make_estimator
from .rbm import (
    greedy,
    lagrange_coefficients,
    rb_solve,
    ReducedBasis,
    ReducedModel,
    validate,
)
from .truth import (
    PROBLEM_IDS,
    build_discretization,
    assemble_affine,
    _truth_solver,
    problem_spec,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunArtifacts",
    "TRAINING_GRIDS",
    "make_training_grid",
    "build_problem",
    "run_experiment",
    "validate",
    "load_run",
]

#: Default training-grid counts per problem: (desk scale, up to 32 nodes per
#: direction; paper scale, above).
TRAINING_GRIDS = {
    "oned-continuous": ([512], [512]),
    "oned-discontinuous": ([512], [512]),
    "twod-first": ([65, 33], [129, 65]),
    "twod-second": ([80, 80], [160, 160]),
}

#: True-error modes of ``history.csv``: none, at each pick, or the training grid.
VALIDATE_MODES = ("none", "argmax", "full")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _int_entries(name, values):
    """A fresh list of the integers in a config entry; strings, floats and
    bools are rejected, not coerced."""
    if not isinstance(values, (list, tuple)) or not all(map(_is_int, values)):
        raise ConfigError(f"{name} must be a list of integers, got {values!r}")
    return [int(v) for v in values]


def _open_input(path, mode="r"):
    """``open(path, mode)`` of an input: a missing one is a ``ConfigError``."""
    try:
        return open(path, mode)
    except FileNotFoundError:
        raise ConfigError(f"{path} does not exist") from None


@dataclass
class ExperimentConfig:
    problem: str
    nodes_per_dim: int = 32
    training_grid: list | None = None  # per-dimension counts; None: TRAINING_GRIDS
    estimator_kind: str = "stable"
    eps_tol: float = 1e-12
    N_max: int = 40
    seed: int = 0
    validation_grid: list | None = None  # None: the training grid
    output_dir: str = "runs/out"
    checkpoints: list = field(default_factory=list)
    validate: str = "none"  # one of VALIDATE_MODES (history true errors)
    workers: int = 1

    def __post_init__(self):
        for name, choices in (("problem", PROBLEM_IDS),
                              ("estimator_kind", ESTIMATOR_KINDS),
                              ("validate", VALIDATE_MODES)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {', '.join(choices)}, "
                                  f"got {getattr(self, name)!r}")
        for name, least in (("nodes_per_dim", 3), ("N_max", 1), ("seed", 0),
                            ("workers", 1)):
            if not _is_int(getattr(self, name)) or getattr(self, name) < least:
                raise ConfigError(f"{name} must be an integer of at least {least}, "
                                  f"got {getattr(self, name)!r}")
        if (isinstance(self.eps_tol, bool) or not isinstance(self.eps_tol, numbers.Real)
                or not self.eps_tol > 0):
            raise ConfigError(f"eps_tol must be a positive number, got {self.eps_tol!r}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError(
                f"output_dir must be a non-empty string, got {self.output_dir!r}")
        pdim = problem_spec(self.problem).param_dim
        if self.training_grid is None:
            desk, paper = TRAINING_GRIDS[self.problem]
            self.training_grid = desk if self.nodes_per_dim <= 32 else paper
        if self.validation_grid is None:
            self.validation_grid = self.training_grid
        for name, least in (("training_grid", 2), ("validation_grid", 1)):
            counts = _int_entries(name, getattr(self, name))
            if len(counts) != pdim:
                raise ConfigError(f"{name} needs {pdim} counts for {self.problem}")
            if any(c < least for c in counts):
                raise ConfigError(f"{name} counts must be at least {least}: {counts}")
            setattr(self, name, counts)
        # a set of sizes: each is refreshed, swept and written once
        self.checkpoints = sorted(set(_int_entries("checkpoints", self.checkpoints)))
        if any(k < 1 for k in self.checkpoints):
            raise ConfigError(f"checkpoints must be at least 1, got {self.checkpoints}")
        if any(k > self.N_max for k in self.checkpoints):
            raise ConfigError(f"checkpoints must be at most N_max {self.N_max}, "
                              f"got {self.checkpoints}")

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            # a caller's keys need not be strings, and mixed types do not compare
            raise ConfigError(f"unknown config keys: {sorted(unknown, key=repr)}")
        if "problem" not in data:
            raise ConfigError("config must name a problem")
        return cls(**data)

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclass
class RunArtifacts:
    directory: str
    history: str  # its first n_final rows are the basis parameters, in order
    metadata: str
    fields: dict  # N -> path
    lagrange: dict  # N -> path
    basis: str
    n_final: int  # the final basis size; a checkpoint above it has no files


def make_training_grid(domain, counts):
    """Tensor-product uniform grid over a box, endpoints included.

    Points are ordered with the first parameter dimension varying fastest,
    which fixes the argmax tie-break order.
    """
    if len(domain) != len(counts):
        raise ValueError("domain and counts dimension mismatch")
    axes = [np.linspace(lo, hi, int(c)) for (lo, hi), c in zip(domain, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel(order="F") for m in mesh])


def build_problem(problem, nodes_per_dim):
    spec = problem_spec(problem)
    disc = build_discretization(nodes_per_dim)
    op = assemble_affine(spec, disc)
    return spec, disc, op


def _write_csv(path, header, rows):
    """The one writer of CSV artifacts: a float (NumPy ``float64`` included)
    as ``.17g``, so a NaN as ``nan``, anything else with ``str``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_grid_csv(path, points, names, *columns):
    """A per-point grid file: the header ``mu1..mup`` and ``names``, then for
    each point its coordinates and its entry of each column."""
    mu_names = [f"mu{d + 1}" for d in range(points.shape[1])]
    _write_csv(path, mu_names + names,
               ([*mu, *values] for mu, *values in zip(points, *columns)))


def _sub_basis(basis, model, k):
    """Leading-k restriction of a hierarchical basis/model pair."""
    sub_basis = ReducedBasis(
        sample_set=basis.sample_set[:k],
        xi=basis.xi[:, :k],
        chol_coeffs=basis.chol_coeffs[:k, :k],
        images=basis.images[:, :k * model.a_blocks.shape[0]],
    )
    sub_model = ReducedModel(
        a_blocks=np.ascontiguousarray(model.a_blocks[:, :k, :k]),
        f_blocks=np.ascontiguousarray(model.f_blocks[:, :k]),
    )
    return sub_basis, sub_model


def _batched_truth(solve, points):
    """One slice's truth rows from a ``_truth_solver`` (the benchmark traces this)."""
    return solve(points)


def _grid_errors(op, points, basis, model, sizes):
    """``{n: true errors on points}`` of the leading-n restriction of the
    basis (the greedy's state at size n) for each n in ``sizes``: one pass in
    ``kernels.CHUNK``-point slices through one ``_truth_solver`` (one Schur-form
    cache), each slice's truth rows solved once for every basis."""
    bases = {n: _sub_basis(basis, model, n) for n in sizes}
    errors = {n: np.empty(points.shape[0]) for n in bases}
    if not bases:  # a grid no basis is validated on is not solved
        return errors
    solve = _truth_solver(op, points)
    for lo in range(0, points.shape[0], kernels.CHUNK):
        rows = slice(lo, lo + kernels.CHUNK)
        truth = _batched_truth(solve, points[rows])
        for n, (sub_b, sub_m) in bases.items():
            errors[n][rows] = validate(sub_b, sub_m, op, points[rows], truth)
    return errors


def _blas():
    """numpy's and scipy's BLAS as ``name version`` and the thread-count
    variables (None when unset): what the bits of a history depend on."""
    record = {}
    for module in (np, scipy):
        lib = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record[module.__name__] = f"{lib['name']} {lib.get('version', '')}".strip()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        record[var] = os.environ.get(var)
    return record


def run_experiment(config):
    """Execute the configured greedy run and emit all artifact files."""
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)

    spec, disc, op = build_problem(config.problem, config.nodes_per_dim)
    train = make_training_grid(spec.param_domain, config.training_grid)
    estimator = make_estimator(config.estimator_kind)
    t_start = time.perf_counter()
    basis, model, history = greedy(op, estimator, train, N_max=config.N_max,
                                   eps_tol=config.eps_tol, seed=config.seed,
                                   workers=config.workers)
    greedy_seconds = time.perf_counter() - t_start

    basis_path = os.path.join(out_dir, "basis.npz")
    np.savez(
        basis_path,
        xi=basis.xi,
        chol_coeffs=basis.chol_coeffs,
        sample_set=basis.sample_set,
        images=basis.images,
        a_blocks=model.a_blocks,
        f_blocks=model.f_blocks,
    )

    t_start = time.perf_counter()
    checkpoints = [k for k in config.checkpoints if k <= basis.size]
    val_points = make_training_grid(spec.param_domain, config.validation_grid)
    # one pass per grid: the training grid's validates --validate full's sizes
    # and default-grid fields, the picks' (after the seed) --validate argmax's
    default_grid = config.validation_grid == config.training_grid
    sizes = {config.validate: [r.n for r in history.records[1:]]}
    picks = np.reshape([r.mu for r in history.records[1:]], (-1, spec.param_dim))
    train_errors = _grid_errors(op, train, basis, model, sizes.get("full", [])
                                + (checkpoints if default_grid else []))
    pick_errors = _grid_errors(op, picks, basis, model, sizes.get("argmax", []))
    field_errors = (train_errors if default_grid else
                    _grid_errors(op, val_points, basis, model, checkpoints))
    rows = []
    for i, r in enumerate(history.records):
        if r.n == 0 or config.validate == "none":  # n = 0: the seeded pick
            errs = (np.nan, np.nan)
        elif config.validate == "argmax":
            errs = (pick_errors[r.n][i - 1], np.nan)
        else:
            grid = train_errors[r.n]
            [at] = np.flatnonzero(np.all(train == r.mu, axis=1))
            errs = (grid[at], np.max(grid))
        rows.append([r.n, *r.mu, r.estimate, *errs])
    history_path = os.path.join(out_dir, "history.csv")
    mu_names = [f"mu{d + 1}" for d in range(spec.param_dim)]
    _write_csv(history_path, ["n"] + mu_names + [
        "estimate", "true_error_argmax", "true_error_max"], rows)

    fields = {}
    lagrange = {}
    if checkpoints:
        # the point-only data serve every checkpoint; the estimator's offline
        # data depend only on the basis it is refreshed on
        val_ta = op.theta_a_values(val_points)
        val_tf = op.theta_f_values(val_points)
        val_alpha = estimator.alpha_values(op, val_points)
    for k in checkpoints:
        sub_b, sub_m = _sub_basis(basis, model, k)
        estimator.refresh(op, sub_b, sub_m)
        est_field = estimator.sweep(sub_m, val_ta, val_tf, val_alpha, config.workers)
        fields[k] = os.path.join(out_dir, f"field_N{k}.csv")
        _write_grid_csv(fields[k], val_points, ["estimate", "true_error"],
                        est_field, field_errors[k])

        if spec.param_dim == 1:
            coeffs = lagrange_coefficients(sub_b, rb_solve(sub_m, op, train))
            lagrange[k] = os.path.join(out_dir, f"lagrange_N{k}.csv")
            _write_grid_csv(lagrange[k], train, [f"c{m + 1}" for m in range(k)],
                            *coeffs.T)
    validation_seconds = time.perf_counter() - t_start

    metadata_path = os.path.join(out_dir, "metadata.json")
    meta = {
        "config": config.to_dict(),
        "versions": {"rbkit": __version__, "numpy": np.__version__},
        "blas": _blas(),
        "n_final": basis.size,
        "saturated": history.saturated,
        "timings": {
            "greedy_seconds": greedy_seconds,
            "sweep_seconds": [seconds for seconds, _ in history.sweeps],
            "validation_seconds": validation_seconds,
        },
        "unresolved": [count for _, count in history.sweeps],
    }
    with open(metadata_path, "w") as fh:
        json.dump(meta, fh, indent=2)

    return RunArtifacts(
        directory=out_dir,
        history=history_path,
        metadata=metadata_path,
        fields=fields,
        lagrange=lagrange,
        basis=basis_path,
        n_final=basis.size,
    )


def load_run(run_dir):
    """Reload config, operator, basis and the greedy's own reduced model from
    a saved run.

    The basis, its operator images and the reduced blocks are read from
    ``basis.npz`` as the greedy left them: nothing is recomputed, so no
    ``dim x dim`` matrix is formed.
    """
    metadata_path = os.path.join(run_dir, "metadata.json")
    with _open_input(metadata_path) as fh:
        try:
            saved = dict(json.load(fh)["config"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"no run config in {metadata_path}: {exc!r}") from None
    config = ExperimentConfig.from_dict(saved)
    spec, disc, op = build_problem(config.problem, config.nodes_per_dim)
    basis_path = os.path.join(run_dir, "basis.npz")
    # np.load leaves a path it opened open when the archive is corrupt
    with _open_input(basis_path, "rb") as fh:
        try:
            with np.load(fh) as npz:
                data = {key: npz[key] for key in npz.files}
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{basis_path} is not a saved basis: {exc!r}") from None
    keys = ("xi", "chol_coeffs", "images", "a_blocks", "f_blocks", "sample_set")
    if not set(keys) <= set(data):
        raise ConfigError(f"{basis_path} lacks one of {', '.join(keys)} (an older "
                          "rbkit saved no images or blocks); rerun the experiment")
    N, Q_a, Q_f = len(data["sample_set"]), len(op.kron_factors), len(op.f_components)
    shapes = [(op.dim, N), (N, N), (op.dim, N * Q_a), (Q_a, N, N), (Q_f, N),
              (N, spec.param_dim)]
    for key, shape in zip(keys, shapes):
        if data[key].shape != shape:
            raise ConfigError(f"{basis_path} does not fit the run's operator: "
                              f"{key} has shape {data[key].shape}, expected {shape}")
    basis = ReducedBasis(
        sample_set=data["sample_set"],
        xi=data["xi"],
        chol_coeffs=data["chol_coeffs"],
        images=data["images"],
    )
    model = ReducedModel(a_blocks=data["a_blocks"], f_blocks=data["f_blocks"])
    return config, op, basis, model

