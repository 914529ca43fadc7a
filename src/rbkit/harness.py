"""Experiment orchestration: configuration, training grids, greedy runs,
validation sweeps, and delimited-text artifact emission.

All numeric artifact files are comma-separated with a header line and
17-significant-digit floats, so reruns with the same config and seed are
byte-identical.  Timings and environment details go to the metadata sidecar
only, which is the one artifact allowed to differ between reruns.
"""

import dataclasses
import json
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .estimators import ALPHA_MODES, ESTIMATOR_KINDS, float_demo, make_estimator
from .rbm import (
    VALIDATE_MODES,
    GreedyConfig,
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
    problem_spec,
    truth_solve_many,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunArtifacts",
    "DESK_SCALE",
    "PAPER_SCALE",
    "make_training_grid",
    "build_problem",
    "run_experiment",
    "validate",
    "run_float_demo",
    "load_run",
]

#: Environment variable that overrides the configured output directory.
OUTPUT_DIR_ENV = "RBKIT_OUTPUT_DIR"

#: Default training grids: desk scale up to 32 nodes per direction, paper
#: scale above.
DESK_SCALE = {
    "training": {
        "oned-continuous": [512],
        "oned-discontinuous": [512],
        "twod-first": [65, 33],
        "twod-second": [80, 80],
    },
}

PAPER_SCALE = {
    "training": {
        "oned-continuous": [512],
        "oned-discontinuous": [512],
        "twod-first": [129, 65],
        "twod-second": [160, 160],
    },
}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _read_yaml(path):
    """The mapping of a YAML config file, before defaults are filled in."""
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    return data


@dataclass
class ExperimentConfig:
    problem: str
    nodes_per_dim: int = 32
    training_grid: list = field(default_factory=list)  # per-dimension counts
    estimator_kind: str = "stable"
    eps_tol: float = 1e-12
    N_max: int = 40
    seed: int = 0
    alpha_mode: str = "unit"
    validation_grid: list | None = None  # defaults to the training grid
    output_dir: str = "runs/out"
    checkpoints: list = field(default_factory=list)
    validate: str = "none"  # one of VALIDATE_MODES (per-sweep true errors)
    workers: int = 1

    def __post_init__(self):
        if self.problem not in PROBLEM_IDS:
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.nodes_per_dim < 3:
            raise ConfigError("nodes_per_dim must be at least 3")
        if not self.eps_tol > 0:
            raise ConfigError("eps_tol must be positive")
        if self.N_max < 1:
            raise ConfigError("N_max must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.estimator_kind not in ESTIMATOR_KINDS:
            raise ConfigError(f"unknown estimator kind {self.estimator_kind!r}")
        if self.alpha_mode not in ALPHA_MODES:
            raise ConfigError(f"unknown alpha mode {self.alpha_mode!r}")
        if self.validate not in VALIDATE_MODES:
            raise ConfigError(f"unknown validate mode {self.validate!r}")
        spec = problem_spec(self.problem)
        if not self.training_grid:
            scale = DESK_SCALE if self.nodes_per_dim <= 32 else PAPER_SCALE
            self.training_grid = list(scale["training"][self.problem])
        self.training_grid = [int(c) for c in self.training_grid]
        if len(self.training_grid) != spec.param_dim:
            raise ConfigError(
                f"training_grid needs {spec.param_dim} counts for {self.problem}"
            )
        if any(c < 2 for c in self.training_grid):
            raise ConfigError("training grid counts must be at least 2")
        if self.validation_grid is not None:
            self.validation_grid = [int(c) for c in self.validation_grid]
            if len(self.validation_grid) != spec.param_dim:
                raise ConfigError(
                    f"validation_grid needs {spec.param_dim} counts"
                )
            if any(c < 1 for c in self.validation_grid):
                raise ConfigError("validation grid counts must be at least 1")
        self.checkpoints = [int(k) for k in self.checkpoints]

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "problem" not in data:
            raise ConfigError("config must name a problem")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_yaml(cls, path):
        return cls.from_dict(_read_yaml(path))

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclass
class RunArtifacts:
    directory: str
    history: str
    snapshots: str
    metadata: str
    fields: dict  # N -> path
    lagrange: dict  # N -> path
    basis: str


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


def _fmt(x):
    if x is None:
        return "nan"
    return f"{x:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) or v is None
                              else str(v) for v in row) + "\n")


def _sub_basis(basis, model, k):
    """Leading-k restriction of a hierarchical basis/model pair."""
    sub_basis = ReducedBasis(
        sample_set=basis.sample_set[:k],
        xi=basis.xi[:, :k],
        chol_coeffs=basis.chol_coeffs[:k, :k],
    )
    sub_model = ReducedModel(
        a_blocks=np.ascontiguousarray(model.a_blocks[:, :k, :k]),
        f_blocks=np.ascontiguousarray(model.f_blocks[:, :k]),
    )
    return sub_basis, sub_model


def _batched_truth(op, points):
    """Validation truth solutions, one row per point, NaN where singular
    (``truth_solve_many``; the benchmark traces this name)."""
    return truth_solve_many(op, points)


def _estimate_field(estimator_kind, op, basis, model, points, alpha_mode):
    """Estimator values over a point set for a (sub-)basis, rebuilding the
    offline data from scratch."""
    est = make_estimator(estimator_kind, alpha_mode=alpha_mode)
    est.refresh(op, basis, model)
    ta = op.theta_a_values(points)
    tf = op.theta_f_values(points)
    alpha = est.alpha_values(op, points)
    return est.sweep(op, basis, model, ta, tf, alpha)


def run_experiment(config):
    """Execute the configured greedy run and emit all artifact files."""
    out_dir = os.environ.get(OUTPUT_DIR_ENV, "") or config.output_dir
    os.makedirs(out_dir, exist_ok=True)

    spec, disc, op = build_problem(config.problem, config.nodes_per_dim)
    train = make_training_grid(spec.param_domain, config.training_grid)
    gcfg = GreedyConfig(
        eps_tol=config.eps_tol,
        N_max=config.N_max,
        training_set=train,
        seed=config.seed,
        validate=config.validate,
    )
    estimator = make_estimator(config.estimator_kind, alpha_mode=config.alpha_mode)
    t_start = time.perf_counter()
    basis, model, history, estimator = greedy(gcfg, op, estimator,
                                              workers=config.workers)
    greedy_seconds = time.perf_counter() - t_start

    pdim = spec.param_dim
    mu_names = [f"mu{d + 1}" for d in range(pdim)]

    history_path = os.path.join(out_dir, "history.csv")
    _write_csv(
        history_path,
        ["n"] + mu_names + ["estimate", "true_error_argmax", "true_error_max"],
        [
            [r.n] + [float(v) for v in r.mu]
            + [float(r.estimate), r.true_error_argmax, r.true_error_max]
            for r in history.records
        ],
    )

    snapshots_path = os.path.join(out_dir, "snapshots.csv")
    _write_csv(
        snapshots_path,
        ["order"] + mu_names,
        [[i] + [float(v) for v in mu] for i, mu in enumerate(basis.sample_set)],
    )

    basis_path = os.path.join(out_dir, "basis.npz")
    np.savez_compressed(
        basis_path,
        xi=basis.xi,
        chol_coeffs=basis.chol_coeffs,
        sample_set=np.array(basis.sample_set),
        a_blocks=model.a_blocks,
        f_blocks=model.f_blocks,
    )

    if config.validation_grid is not None:
        val_points = make_training_grid(spec.param_domain, config.validation_grid)
    else:
        val_points = train

    t_start = time.perf_counter()
    fields = {}
    lagrange = {}
    checkpoints = [k for k in config.checkpoints if 1 <= k <= basis.size]
    truth = _batched_truth(op, val_points) if checkpoints else None
    for k in checkpoints:
        sub_b, sub_m = _sub_basis(basis, model, k)
        est_field = _estimate_field(
            config.estimator_kind, op, sub_b, sub_m, val_points, config.alpha_mode
        )
        errs = validate(sub_b, sub_m, op, val_points, truth_values=truth)
        path = os.path.join(out_dir, f"field_N{k}.csv")
        _write_csv(
            path,
            mu_names + ["estimate", "true_error"],
            [
                [float(v) for v in mu] + [float(est_field[i]), errs[i]]
                for i, mu in enumerate(val_points)
            ],
        )
        fields[k] = path

        if pdim == 1:
            u_hat = rb_solve(sub_m, op, train)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                coeffs = lagrange_coefficients(sub_b, u_hat)
            path = os.path.join(out_dir, f"lagrange_N{k}.csv")
            _write_csv(
                path,
                ["mu1"] + [f"c{m + 1}" for m in range(k)],
                [[float(mu[0])] + [float(v) for v in c]
                 for mu, c in zip(train, coeffs)],
            )
            lagrange[k] = path
    validation_seconds = time.perf_counter() - t_start

    metadata_path = os.path.join(out_dir, "metadata.json")
    meta = {
        "config": config.to_dict(),
        "versions": {"rbkit": __version__, "numpy": np.__version__},
        "n_final": basis.size,
        "saturated": history.saturated,
        "timings": {
            "greedy_seconds": greedy_seconds,
            "sweep_seconds": [r.seconds for r in history.records],
            "validation_seconds": validation_seconds,
        },
    }
    with open(metadata_path, "w") as fh:
        json.dump(meta, fh, indent=2)

    return RunArtifacts(
        directory=out_dir,
        history=history_path,
        snapshots=snapshots_path,
        metadata=metadata_path,
        fields=fields,
        lagrange=lagrange,
        basis=basis_path,
    )


def load_run(run_dir):
    """Reload config, operator, basis and the greedy's own reduced model from
    a saved run."""
    metadata_path = os.path.join(run_dir, "metadata.json")
    with open(metadata_path) as fh:
        meta = json.load(fh)
    # a run saved while field errors could be switched off still loads
    meta["config"].pop("validate_fields", None)
    config = ExperimentConfig.from_dict(meta["config"])
    spec, disc, op = build_problem(config.problem, config.nodes_per_dim)
    basis_path = os.path.join(run_dir, "basis.npz")
    with np.load(basis_path) as data:
        if not {"a_blocks", "f_blocks"} <= set(data.files):
            raise ConfigError(f"{basis_path} holds no reduced blocks (saved by "
                              "an older rbkit); rerun the experiment")
        basis = ReducedBasis(
            sample_set=[np.atleast_1d(mu) for mu in data["sample_set"]],
            xi=data["xi"],
            chol_coeffs=data["chol_coeffs"],
        )
        model = ReducedModel(a_blocks=data["a_blocks"], f_blocks=data["f_blocks"])
    return config, op, basis, model


def run_float_demo(N_range, mu_samples, seed, output_path):
    """Run the scalar cancellation demo and write one row per N."""
    rows = float_demo(N_range, mu_samples, seed)
    _write_csv(
        output_path,
        ["N", "max_stable", "max_expanded"],
        [[n, s, e] for n, s, e in rows],
    )
    return rows
