"""Command-line entry points.

Subcommands:

* ``run``        execute a greedy experiment (one flag per config field)
* ``float-demo`` the scalar loss-of-significance table
* ``validate``   post-hoc true-error sweep of a saved run

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical failures,
4 on filesystem errors.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from .estimators import ESTIMATOR_KINDS, float_demo
from .harness import (
    VALIDATE_MODES,
    ConfigError,
    ExperimentConfig,
    _grid_errors,
    _write_csv,
    _write_grid_csv,
    load_run,
    make_training_grid,
    run_experiment,
)
from .truth import PROBLEM_IDS


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _add_run_parser(sub):
    p = sub.add_parser("run", help="run a greedy experiment")
    p.add_argument("--problem", choices=PROBLEM_IDS, required=True)
    p.add_argument("--nodes-per-dim", type=int)
    p.add_argument("--training-grid", type=_int_list,
                   help="per-dimension counts, e.g. 65,33")
    p.add_argument("--estimator", dest="estimator_kind",
                   choices=ESTIMATOR_KINDS)
    p.add_argument("--eps-tol", type=float)
    p.add_argument("--n-max", dest="N_max", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--validation-grid", type=_int_list)
    p.add_argument("--output-dir")
    p.add_argument("--checkpoints", type=_int_list,
                   help="basis sizes at which to emit field/trace files")
    p.add_argument("--validate", choices=VALIDATE_MODES)
    p.add_argument("--workers", type=int)
    return p


def _config_from_args(args):
    # every run flag's dest is an ExperimentConfig field name; a flag not
    # given keeps the field's default, so --nodes-per-dim 50 alone also
    # picks the paper-scale training grid
    return ExperimentConfig.from_dict({
        f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)
        if getattr(args, f.name) is not None})


def _cmd_run(args):
    config = _config_from_args(args)
    artifacts = run_experiment(config)
    print(f"run complete: {artifacts.directory}")
    print(f"  history:   {artifacts.history}")
    skipped = f"skipped, the run stopped at N={artifacts.n_final}"
    for k in config.checkpoints:
        print(f"  field N={k}: {artifacts.fields.get(k, skipped)}")
    for k, path in artifacts.lagrange.items():
        print(f"  lagrange N={k}: {path}")
    return 0


def _cmd_float_demo(args):
    rows = float_demo()
    _write_csv(args.output, ["N", "max_stable", "max_expanded"], rows)
    print(f"{'N':>4} {'max_stable':>14} {'max_expanded':>14}")
    for n, s, e in rows:
        print(f"{n:>4} {s:>14.6e} {e:>14.6e}")
    print(f"written: {args.output}")
    return 0


def _cmd_validate(args):
    config, op, basis, model = load_run(args.run_dir)
    if args.grid is not None:
        # re-checked by ExperimentConfig like a configured validation grid
        config = dataclasses.replace(config, validation_grid=args.grid)
    points = make_training_grid(op.spec.param_domain, config.validation_grid)
    out_path = args.output or os.path.join(args.run_dir, "validate.csv")
    # an output that cannot become a file fails before the grid's truth solves
    if os.path.isdir(out_path):
        raise IsADirectoryError(f"{out_path} is a directory")
    if not os.path.isdir(os.path.dirname(out_path) or os.curdir):
        raise FileNotFoundError(f"the directory of {out_path} does not exist")
    errors = _grid_errors(op, points, basis, model, [basis.size])[basis.size]
    _write_grid_csv(out_path, points, ["true_error"], errors)
    finite = errors[np.isfinite(errors)]
    print(f"validated {len(errors)} points (N={basis.size})")
    if finite.size:
        print(f"  max true error: {finite.max():.6e}")
    print(f"written: {out_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rbkit",
        description="greedy reduced-basis experiments for affine-parametric "
                    "elliptic PDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)

    p = sub.add_parser("float-demo", help="scalar loss-of-significance table")
    p.add_argument("--output", default="float_demo.csv")

    p = sub.add_parser("validate", help="post-hoc validation of a saved run")
    p.add_argument("run_dir")
    p.add_argument("--grid", type=_int_list,
                   help="per-dimension counts for the validation grid")
    p.add_argument("--output")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "float-demo": _cmd_float_demo,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"filesystem error: {exc}", file=sys.stderr)
        return 4
    except (np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
