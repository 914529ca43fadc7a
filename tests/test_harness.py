"""Tests for configuration handling, training grids, experiment runs and
artifact files, and the command-line interface."""

import json
import os

import numpy as np
import pytest
import yaml

from rbkit.cli import main as cli_main
from rbkit.harness import (
    ConfigError,
    DESK_SCALE,
    ExperimentConfig,
    OUTPUT_DIR_ENV,
    build_problem,
    load_run,
    make_training_grid,
    run_experiment,
    run_float_demo,
    validate,
)
from rbkit.rbm import empty_basis, empty_model, extend_basis
from rbkit.truth import truth_solve


# ---------------------------------------------------------------------------
# training grids


def test_grid_two_points():
    pts = make_training_grid(((0.0, 1.0),), [2])
    assert np.array_equal(pts, [[0.0], [1.0]])


def test_grid_tensor_product_ordering():
    pts = make_training_grid(((0.0, 1.0), (0.0, 2.0)), [2, 3])
    assert pts.shape == (6, 2)
    assert set(pts[:, 1]) == {0.0, 1.0, 2.0}
    # first dimension varies fastest
    assert np.array_equal(pts[:2, 1], [0.0, 0.0])
    assert np.array_equal(pts[:2, 0], [0.0, 1.0])


def test_grid_512_spacing():
    pts = make_training_grid(((-0.995, 0.995),), [512])
    assert pts[0, 0] == -0.995
    assert pts[-1, 0] == 0.995
    spacing = np.diff(pts[:, 0])
    assert np.allclose(spacing, 1.99 / 511, rtol=1e-12)


def test_grid_dimension_mismatch():
    with pytest.raises(ValueError):
        make_training_grid(((0.0, 1.0),), [2, 3])


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_to_desk_scale_training():
    cfg = ExperimentConfig(problem="twod-first")
    assert cfg.training_grid == DESK_SCALE["training"]["twod-first"]


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"problem": "oned-continuous", "nope": 1})


def test_config_missing_problem_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"nodes_per_dim": 16})


def test_config_wrong_grid_dimension():
    with pytest.raises(ConfigError):
        ExperimentConfig(problem="twod-first", training_grid=[64])


def test_config_roundtrip_dict():
    cfg = ExperimentConfig(problem="oned-continuous", nodes_per_dim=16,
                           training_grid=[64], N_max=5, checkpoints=[2, 5])
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_from_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({
        "problem": "oned-continuous",
        "nodes_per_dim": 12,
        "training_grid": [16],
        "N_max": 3,
    }))
    cfg = ExperimentConfig.from_yaml(path)
    assert cfg.nodes_per_dim == 12
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_yaml(bad)


# ---------------------------------------------------------------------------
# experiment runs


def _small_config(tmp_path, **kwargs):
    defaults = dict(
        problem="oned-continuous",
        nodes_per_dim=12,
        training_grid=[24],
        estimator_kind="stable",
        eps_tol=1e-10,
        N_max=4,
        checkpoints=[2, 4],
        output_dir=str(tmp_path / "run"),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_run_experiment_artifacts(tmp_path):
    config = _small_config(tmp_path)
    arts = run_experiment(config)
    for path in [arts.history, arts.snapshots, arts.metadata, arts.basis]:
        assert os.path.exists(path)
    history = np.genfromtxt(arts.history, delimiter=",", names=True)
    assert history.shape[0] == 4  # seed row + 3 sweeps
    snaps = np.genfromtxt(arts.snapshots, delimiter=",", names=True)
    assert snaps.shape[0] == 4
    # field files carry one row per validation-grid point
    for k, path in arts.fields.items():
        field = np.genfromtxt(path, delimiter=",", names=True)
        assert field.shape[0] == 24
        assert np.all(np.isfinite(field["true_error"]))
    # Lagrange traces are emitted for 1-parameter problems
    assert sorted(arts.lagrange) == [2, 4]
    lag = np.genfromtxt(arts.lagrange[4], delimiter=",", names=True)
    assert len(lag.dtype.names) == 5  # mu plus one column per snapshot


def test_run_metadata_roundtrips_config(tmp_path):
    config = _small_config(tmp_path)
    arts = run_experiment(config)
    with open(arts.metadata) as fh:
        meta = json.load(fh)
    assert ExperimentConfig.from_dict(meta["config"]) == config
    assert meta["n_final"] == 4


def test_rerun_history_byte_identical(tmp_path):
    c1 = _small_config(tmp_path, output_dir=str(tmp_path / "a"))
    c2 = _small_config(tmp_path, output_dir=str(tmp_path / "b"))
    a1 = run_experiment(c1)
    a2 = run_experiment(c2)
    with open(a1.history, "rb") as fh:
        h1 = fh.read()
    with open(a2.history, "rb") as fh:
        h2 = fh.read()
    assert h1 == h2


def test_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env-target"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
    arts = run_experiment(_small_config(tmp_path))
    assert arts.directory == str(target)
    assert os.path.exists(target / "history.csv")


def test_load_run_reproduces_reduced_model(tmp_path):
    config = _small_config(tmp_path)
    arts = run_experiment(config)
    loaded_config, op, basis, model = load_run(arts.directory)
    assert loaded_config == config
    assert basis.size == model.size
    errors = validate(basis, model, op, basis.sample_set)
    for mu, err in errors:
        u = truth_solve(op, mu).values
        assert err <= 1e-9 * np.linalg.norm(u)


# ---------------------------------------------------------------------------
# validate


def test_validate_snapshots_and_empty():
    _, _, op = build_problem("oned-continuous", 12)
    basis = empty_basis(op.dim)
    model = empty_model(2, 1)
    for mu in [[-0.5], [0.5]]:
        basis, model = extend_basis(basis, model, truth_solve(op, mu), op)
    results = validate(basis, model, op, basis.sample_set)
    assert len(results) == 2
    for mu, err in results:
        assert err <= 1e-9 * np.linalg.norm(truth_solve(op, mu).values)
    assert validate(basis, model, op, np.zeros((0, 1))) == []


def test_validate_against_manual_recomputation():
    _, _, op = build_problem("oned-continuous", 12)
    basis = empty_basis(op.dim)
    model = empty_model(2, 1)
    for mu in [[-0.5], [0.5]]:
        basis, model = extend_basis(basis, model, truth_solve(op, mu), op)
    mu = np.array([0.123])
    [(_, err)] = validate(basis, model, op, [mu])
    # manual recomputation, script-free: truth solve, 2x2 Galerkin system
    from rbkit.truth import assemble, load_vector

    u = np.linalg.solve(assemble(op, mu), load_vector(op, mu))
    Xi = basis.xi
    u_hat = np.linalg.solve(Xi.T @ assemble(op, mu) @ Xi, Xi.T @ load_vector(op, mu))
    ref = np.linalg.norm(u - Xi @ u_hat)
    assert err == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# float demo file


def test_run_float_demo_rows(tmp_path):
    out = tmp_path / "float_demo.csv"
    rows = run_float_demo(range(1, 9), 100, 0, str(out))
    assert len(rows) == 8
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data.shape[0] == 8


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_and_validate(tmp_path, capsys):
    out_dir = tmp_path / "cli-run"
    rc = cli_main([
        "run", "--problem", "oned-continuous", "--nodes-per-dim", "12",
        "--training-grid", "16", "--n-max", "3", "--eps-tol", "1e-10",
        "--checkpoints", "3", "--output-dir", str(out_dir),
    ])
    assert rc == 0
    assert (out_dir / "history.csv").exists()
    rc = cli_main(["validate", str(out_dir), "--grid", "8"])
    assert rc == 0
    assert (out_dir / "validate.csv").exists()
    data = np.genfromtxt(out_dir / "validate.csv", delimiter=",", names=True)
    assert data.shape[0] == 8


def test_cli_run_with_config_file(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "problem": "oned-continuous",
        "nodes_per_dim": 12,
        "training_grid": [16],
        "N_max": 2,
        "output_dir": str(tmp_path / "out"),
    }))
    assert cli_main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "metadata.json").exists()


def test_cli_float_demo(tmp_path):
    out = tmp_path / "fd.csv"
    rc = cli_main(["float-demo", "--n-max", "6", "--mu-samples", "50",
                   "--output", str(out)])
    assert rc == 0
    assert out.exists()


def test_cli_config_errors_exit_2(tmp_path):
    assert cli_main(["run"]) == 2  # no problem given
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"problem": "oned-continuous", "zzz": 1}))
    assert cli_main(["run", str(bad)]) == 2
    assert cli_main(["validate", str(tmp_path / "missing")]) == 2
    # unknown values are caught with the config, before any solve runs
    for key, value in [("estimator_kind", "nope"), ("alpha_mode", "bogus")]:
        bad.write_text(yaml.safe_dump({
            "problem": "oned-continuous", "nodes_per_dim": 12,
            "training_grid": [16], "N_max": 2,
            "output_dir": str(tmp_path / "out"), key: value,
        }))
        assert cli_main(["run", str(bad)]) == 2, key
    assert not (tmp_path / "out").exists()
