"""Tests for configuration handling, training grids, experiment runs and
artifact files, and the command-line interface."""

import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

import rbkit
from rbkit import cli, harness, kernels, rbm, truth
from rbkit.cli import main as cli_main
from rbkit.estimators import float_demo, make_estimator
from rbkit.harness import (
    ConfigError,
    ExperimentConfig,
    TRAINING_GRIDS,
    _sub_basis,
    build_problem,
    load_run,
    make_training_grid,
    run_experiment,
    validate,
)
from rbkit.rbm import empty_basis, empty_model, extend_basis, rb_solve
from rbkit.truth import (
    PROBLEM_IDS,
    AffineOperator,
    problem_spec,
    truth_solve,
    truth_solve_many,
)

import oracles


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
    assert cfg.training_grid == TRAINING_GRIDS["twod-first"][0]


def test_config_above_32_nodes_uses_paper_scale_training():
    cfg = ExperimentConfig(problem="twod-second", nodes_per_dim=50)
    assert cfg.training_grid == TRAINING_GRIDS["twod-second"][1]
    # the flag is passed before the default grid is picked
    args = cli.build_parser().parse_args(["run", "--problem", "twod-second",
                                          "--nodes-per-dim", "50"])
    assert cli._config_from_args(args) == cfg


def test_every_config_field_has_one_run_flag():
    run = cli._add_run_parser(argparse.ArgumentParser().add_subparsers())
    actions = [a for a in run._actions if a.option_strings and a.dest != "help"]
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(a.dest for a in actions) == sorted(fields)
    # the README's flag table lists exactly the parser's flags, in its order
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("`rbkit run` has one flag per config field")[1]
    rows = [line for line in table.split("\n\n")[1].splitlines()
            if line.startswith("| `--")]
    assert [row.split("`")[1] for row in rows] == [
        option for a in actions for option in a.option_strings]


def test_every_metadata_key_is_documented(tmp_path):
    # the README's run-directory paragraph names every top-level key of
    # metadata.json and every key of its timings
    with open(run_experiment(_small_config(tmp_path, N_max=2, checkpoints=[])
                             ).metadata) as fh:
        meta = json.load(fh)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme.split("A run directory contains")[1].split("\n\n")[0]
    for key in [*meta, *meta["timings"]]:
        assert f"`{key}`" in paragraph, key


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"problem": "oned-continuous", "nope": 1})


def test_config_missing_problem_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"nodes_per_dim": 16})


def test_config_wrong_grid_dimension():
    with pytest.raises(ConfigError):
        ExperimentConfig(problem="twod-first", training_grid=[64])


@pytest.mark.parametrize("workers", [0, -2])
def test_config_rejects_workers_below_one(tmp_path, capsys, workers):
    with pytest.raises(ConfigError, match="workers"):
        ExperimentConfig(problem="oned-continuous", workers=workers)
    assert cli_main(["run", "--problem", "oned-continuous", "--workers",
                     str(workers), "--output-dir", str(tmp_path / "out")]) == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_alpha_mode_option_is_refused(tmp_path, capsys):
    # the stability constant is 1 for every estimator, and there is no
    # option to choose another: the flag is unknown
    out = str(tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--problem", "oned-continuous", "--alpha-mode", "unit",
                  "--output-dir", out])
    assert exc.value.code == 2
    assert "--alpha-mode" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_run_reports_checkpoints_above_the_final_basis(tmp_path, capsys):
    # a 3-point training grid saturates the basis at N = 3: checkpoints 5
    # and 6 get no files, and the run says so with the size it stopped at
    out = tmp_path / "run"
    assert cli_main(["run", "--problem", "oned-continuous", "--nodes-per-dim", "12",
                     "--training-grid", "3", "--n-max", "6", "--eps-tol", "1e-300",
                     "--checkpoints", "6,2,5", "--output-dir", str(out)]) == 0
    with open(out / "metadata.json") as fh:
        assert json.load(fh)["n_final"] == 3
    lines = capsys.readouterr().out.splitlines()
    fields = [line for line in lines if line.startswith("  field N=")]
    assert fields == [f"  field N=2: {out / 'field_N2.csv'}",
                      "  field N=5: skipped, the run stopped at N=3",
                      "  field N=6: skipped, the run stopped at N=3"]
    assert sorted(os.listdir(out)) == [
        "basis.npz", "field_N2.csv", "history.csv", "lagrange_N2.csv",
        "metadata.json"]


@pytest.mark.parametrize("arg, sizes", [("3,3,3", [3]), ("6,3", [3, 6])])
def test_checkpoints_are_a_sorted_set(tmp_path, monkeypatch, arg, sizes):
    # each size is refreshed, swept and written once, and metadata.json
    # records the sorted set
    written, write = [], harness._write_grid_csv
    monkeypatch.setattr(harness, "_write_grid_csv",
                        lambda path, *a: (written.append(path), write(path, *a)))
    out = tmp_path / "run"
    assert cli_main(["run", "--problem", "oned-continuous", "--nodes-per-dim", "12",
                     "--training-grid", "16", "--n-max", "6", "--eps-tol", "1e-300",
                     "--checkpoints", arg, "--output-dir", str(out)]) == 0
    assert written == [str(out / f"{name}_N{k}.csv")
                       for k in sizes for name in ("field", "lagrange")]
    with open(out / "metadata.json") as fh:
        assert json.load(fh)["config"]["checkpoints"] == sizes


def test_config_roundtrip_dict():
    cfg = ExperimentConfig(problem="oned-continuous", nodes_per_dim=16,
                           training_grid=[64], N_max=5, checkpoints=[2, 5])
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


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


def _assert_history_lists_basis(arts):
    # the first n_final rows of history.csv are the basis parameters in
    # order: their n and mu text is basis.npz's sample_set written with .17g
    assert not os.path.exists(os.path.join(arts.directory, "snapshots.csv"))
    with np.load(arts.basis) as npz:
        sample_set = npz["sample_set"]
    assert sample_set.shape[0] == arts.n_final
    with open(arts.history) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    p = sample_set.shape[1]
    assert [row[:1 + p] for row in rows[:arts.n_final]] == [
        [str(i), *(f"{v:.17g}" for v in mu)] for i, mu in enumerate(sample_set)]


def test_run_experiment_artifacts(tmp_path):
    config = _small_config(tmp_path)
    arts = run_experiment(config)
    for path in [arts.history, arts.metadata, arts.basis]:
        assert os.path.exists(path)
    history = np.genfromtxt(arts.history, delimiter=",", names=True)
    assert history.shape[0] == 4  # seed row + 3 sweeps
    assert arts.n_final == 4
    _assert_history_lists_basis(arts)
    _assert_history_lists_basis(run_experiment(_small_config(
        tmp_path / "twod", problem="twod-first", training_grid=[5, 4], checkpoints=[])))
    # field files carry one row per validation-grid point
    for k, path in arts.fields.items():
        field = np.genfromtxt(path, delimiter=",", names=True)
        assert field.shape[0] == 24
        assert np.all(np.isfinite(field["true_error"]))
    # Lagrange traces are emitted for 1-parameter problems
    assert sorted(arts.lagrange) == [2, 4]
    lag = np.genfromtxt(arts.lagrange[4], delimiter=",", names=True)
    assert len(lag.dtype.names) == 5  # mu plus one column per snapshot


def test_grid_writer_layout_and_missing_value(tmp_path):
    # coordinates first, then one entry per column; every float, NumPy's
    # float64 included, as 17 significant digits, and a missing one as nan
    points = make_training_grid(((0.0, 1.0), (0.0, 2.0)), [2, 2])
    path = tmp_path / "grid.csv"
    harness._write_grid_csv(path, points, ["a", "b"],
                            np.array([0.1, np.nan, 1.0 / 3.0, 2.0]), [1, 2, 3, 4])
    assert path.read_text().splitlines() == [
        "mu1,mu2,a,b",
        "0,0,0.10000000000000001,1",
        "1,0,nan,2",
        "0,2,0.33333333333333331,3",
        "1,2,2,4",
    ]


def test_run_metadata_roundtrips_config(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    config = _small_config(tmp_path)
    arts = run_experiment(config)
    with open(arts.metadata) as fh:
        meta = json.load(fh)
    assert ExperimentConfig.from_dict(meta["config"]) == config
    # the recorded output directory is the one the run wrote
    assert meta["config"]["output_dir"] == arts.directory == str(tmp_path / "run")
    assert os.path.exists(os.path.join(arts.directory, "history.csv"))
    assert meta["n_final"] == 4
    assert meta["timings"]["validation_seconds"] > 0.0
    # one entry per sweep: the three that chose the rows after the seeded pick
    sweeps = meta["timings"]["sweep_seconds"]
    assert len(sweeps) == 3 and min(sweeps) > 0.0
    # the history's bits depend on the BLAS libraries and their thread counts
    blas = meta["blas"]
    assert blas["OPENBLAS_NUM_THREADS"] == "1" and blas["MKL_NUM_THREADS"] is None
    assert "OMP_NUM_THREADS" in blas
    for module in (np, scipy):
        lib = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert blas[module.__name__] == f"{lib['name']} {lib['version']}"


def test_lagrange_trace_sums_to_lebesgue_indicator(tmp_path):
    # each lagrange_N*.csv row, |c_m| added in column order, is the Lebesgue
    # indicator the greedy's sweep gives at that parameter, bit for bit: both
    # come from one reduced solve and one back substitution
    config = _small_config(tmp_path, estimator_kind="lebesgue", N_max=6,
                           checkpoints=[3, 6])
    arts = run_experiment(config)
    _, op, basis, model = load_run(arts.directory)
    assert basis.size == 6
    train = make_training_grid(op.spec.param_domain, config.training_grid)
    for k, path in arts.lagrange.items():
        sub_b, sub_m = _sub_basis(basis, model, k)
        lebesgue = make_estimator("lebesgue")
        lebesgue.refresh(op, sub_b, sub_m)
        swept = lebesgue.sweep(sub_m, op.theta_a_values(train),
                               op.theta_f_values(train), np.ones(len(train)))
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape == (24, k + 1)
        assert np.array_equal(rows[:, 0], train[:, 0])
        for row, value in zip(rows, swept):
            acc = 0.0
            for c in row[1:]:
                acc += abs(c)
            assert acc == value


def test_run_reports_ill_conditioned_lagrange_factor(tmp_path, monkeypatch):
    # rbm.lagrange_coefficients decides ill-conditioning; the run passes its
    # warning on instead of filtering it
    k = 3
    config = _small_config(tmp_path, nodes_per_dim=16, N_max=k, checkpoints=[k])

    def ill_conditioned(basis, u_hat):
        bad = dataclasses.replace(basis, chol_coeffs=np.diag(np.logspace(0, -14, k)))
        return rbm.lagrange_coefficients(bad, u_hat)

    monkeypatch.setattr(harness, "lagrange_coefficients", ill_conditioned)
    with pytest.warns(RuntimeWarning, match="ill conditioned"):
        arts = run_experiment(config)
    assert sorted(arts.lagrange) == [k]


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


@pytest.mark.parametrize("kind", ["classical", "stable", "lebesgue"])
@pytest.mark.parametrize("problem, nodes, grid", [
    ("oned-continuous", 24, [64]),
    ("twod-second", 16, [16, 16]),
])
def test_history_estimate_matches_field_file(tmp_path, problem, nodes, grid, kind):
    # the greedy and the field files build the offline data of a basis alike,
    # so history row n and field_N{n}.csv give the same estimate, as text, at
    # that row's mu (the validation grid defaults to the training grid)
    config = ExperimentConfig(
        problem=problem, nodes_per_dim=nodes, training_grid=grid,
        estimator_kind=kind, eps_tol=1e-14, N_max=13, checkpoints=[3, 6, 9, 12],
        output_dir=str(tmp_path / "run"),
    )
    arts = run_experiment(config)
    assert sorted(arts.fields) == [3, 6, 9, 12]

    def read(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    history = read(arts.history)
    mu_names = [name for name in history[0] if name.startswith("mu")]
    for k, path in arts.fields.items():
        row = history[k]
        assert row["n"] == str(k)
        field = {tuple(r[m] for m in mu_names): r["estimate"] for r in read(path)}
        assert field[tuple(row[m] for m in mu_names)] == row["estimate"], k


def test_classical_field_file_writes_unresolved_estimates_as_nan(tmp_path):
    # a field estimate is nan exactly where the quadratic of the checkpoint's
    # refresh is negative, computed here point by point from its tables
    config = ExperimentConfig(
        problem="oned-continuous", nodes_per_dim=16, training_grid=[64],
        estimator_kind="classical", eps_tol=1e-300, N_max=6, checkpoints=[6],
        output_dir=str(tmp_path / "run"),
    )
    arts = run_experiment(config)
    _, op, basis, model = load_run(arts.directory)
    assert basis.size == 6
    est = make_estimator("classical")
    est.refresh(op, basis, model)
    cc, cl, ll = est.tables
    train = make_training_grid(op.spec.param_domain, [64])
    negative = []
    for mu, ta, tf in zip(train, op.theta_a_values(train), op.theta_f_values(train)):
        c = np.outer(rb_solve(model, op, mu), ta).ravel()
        quad = np.dot(np.dot(tf, cc), tf) + np.dot(np.dot(c, ll), c) - 2.0 * np.dot(
            np.dot(tf, cl), c)
        negative.append(quad < 0.0)
    field = np.genfromtxt(arts.fields[6], delimiter=",", names=True)
    assert any(negative)
    assert np.array_equal(np.isnan(field["estimate"]), negative)
    assert np.all(field["estimate"][~np.array(negative)] >= 0.0)


@pytest.mark.parametrize("kind", ["classical", "stable", "lebesgue"])
def test_metadata_counts_unresolved_values_per_sweep(tmp_path, monkeypatch, kind):
    # one count and one time per sweep, as the greedy's history holds them:
    # sweep k chose history row k + 1; only the classical quadratic leaves
    # values unresolved, and a count covers only the points sweep k could
    # pick, not the k + 1 already selected (by N = 20 the classical sweeps
    # have NaN values at unselected points; before that only at selected
    # ones, which count 0)
    histories, swept = [], []

    def recording_greedy(op, estimator, train, **kwargs):
        sweep = estimator.sweep
        estimator.sweep = lambda *a: swept.append(sweep(*a)) or swept[-1]
        result = rbm.greedy(op, estimator, train, **kwargs)
        histories.append(result[2])
        return result

    monkeypatch.setattr(harness, "greedy", recording_greedy)
    config = ExperimentConfig(
        problem="oned-continuous", nodes_per_dim=16, training_grid=[64],
        estimator_kind=kind, eps_tol=1e-300, N_max=20,
        output_dir=str(tmp_path / "run"),
    )
    arts = run_experiment(config)
    with open(arts.metadata) as fh:
        meta = json.load(fh)
    [history] = histories
    counts = meta["unresolved"]
    assert counts == [count for _, count in history.sweeps]
    assert meta["timings"]["sweep_seconds"] == [s for s, _ in history.sweeps]
    rows = np.genfromtxt(arts.history, delimiter=",", names=True).shape[0]
    assert len(counts) in (rows - 1, rows) and len(counts) > 1
    assert all(isinstance(n, int) for n in counts)
    picks = [r.mu[0] for r in history.records]
    train = np.linspace(-0.995, 0.995, 64)
    assert counts == [
        np.count_nonzero(np.isnan(values[~np.isin(train, picks[:k + 1])]))
        for k, values in enumerate(swept)]
    if kind == "classical":
        assert max(counts) > 0
        assert sum(map(np.count_nonzero, map(np.isnan, swept))) > sum(counts)
    else:
        assert not any(counts)


def test_load_run_reproduces_reduced_model(tmp_path):
    config = _small_config(tmp_path)
    arts = run_experiment(config)
    loaded_config, op, basis, model = load_run(arts.directory)
    assert loaded_config == config
    assert basis.size == model.size
    errors = validate(basis, model, op, basis.sample_set,
                      truth_solve_many(op, basis.sample_set))
    for mu, err in zip(basis.sample_set, errors):
        u = truth_solve(op, mu)
        assert err <= 1e-9 * np.linalg.norm(u)


@pytest.mark.parametrize("problem", PROBLEM_IDS)
def test_load_run_rebuilds_the_greedys_images(tmp_path, problem, monkeypatch):
    # the images are read back as the greedy's extend_basis left them, with
    # no operator product and no dense component written; a replay on the
    # saved sample set gives the greedy's bits
    config = _small_config(tmp_path, problem=problem,
                           training_grid=[24] if problem.startswith("oned") else [6, 5])
    directory = run_experiment(config).directory

    def forbidden(*args, **kwargs):
        raise AssertionError("load_run recomputed an operator product")

    monkeypatch.setattr(AffineOperator, "component_products", forbidden)
    monkeypatch.setattr(truth, "_kron_affine_sum", forbidden)
    _, op, basis, model = load_run(directory)
    monkeypatch.undo()
    replay, replay_model = empty_basis(op), empty_model(op)
    for mu in basis.sample_set:
        replay, replay_model = extend_basis(replay, replay_model, mu,
                                            truth_solve(op, mu), op)
    assert np.array_equal(replay.xi, basis.xi)
    assert np.array_equal(replay_model.a_blocks, model.a_blocks)
    assert basis.images.shape == (op.dim, basis.size * len(op.kron_factors))
    assert np.array_equal(replay.images, basis.images)


def test_load_run_forms_no_dense_matrix(tmp_path):
    # at 50 nodes one dense twod-first component is dim^2 doubles (42.5 MB);
    # loading the run allocates a small fraction of that
    config = _small_config(tmp_path, problem="twod-first", nodes_per_dim=50,
                           training_grid=[4, 3], N_max=6, checkpoints=[])
    directory = run_experiment(config).directory
    tracemalloc.start()
    try:
        _, op, basis, _ = load_run(directory)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.size == 6
    assert peak < op.dim**2 * 8 / 10


def _csv_columns(path):
    """Columns of an artifact file as the strings written, keyed by header."""
    with open(path) as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


@pytest.mark.parametrize("kind", ["lebesgue", "stable"])
def test_cli_validate_reproduces_final_field_errors(tmp_path, kind):
    # rbkit validate on a saved run measures the greedy's own reduced model,
    # so it rewrites the final checkpoint's true errors string for string
    out_dir = tmp_path / "run"
    assert cli_main([
        "run", "--problem", "oned-continuous", "--nodes-per-dim", "12",
        "--training-grid", "24", "--estimator", kind, "--n-max", "6",
        "--eps-tol", "1e-14", "--checkpoints", "6", "--output-dir", str(out_dir),
    ]) == 0
    with open(out_dir / "metadata.json") as fh:
        assert json.load(fh)["n_final"] == 6
    assert cli_main(["validate", str(out_dir)]) == 0
    field = _csv_columns(out_dir / "field_N6.csv")
    validated = _csv_columns(out_dir / "validate.csv")
    assert validated["mu1"] == field["mu1"]
    assert validated["true_error"] == field["true_error"]


def test_greedy_argmax_error_matches_field_file(tmp_path):
    # --validate argmax and the field files share one true-error path: the
    # history row at n = k holds the field_Nk.csv error at its parameter
    config = _small_config(tmp_path, N_max=6, checkpoints=[2, 4, 5],
                           validate="argmax")
    arts = run_experiment(config)
    history = _csv_columns(arts.history)
    for k, path in arts.fields.items():
        field = _csv_columns(path)
        row = history["n"].index(str(k))
        mu = history["mu1"][row]
        assert field["mu1"].count(mu) == 1
        assert history["true_error_argmax"][row] == \
            field["true_error"][field["mu1"].index(mu)]


def test_greedy_full_validation_matches_validate(tmp_path):
    # --validate full records, at each step, the maximum of rbm.validate over
    # the training set and its value at the selected point
    out_dir = tmp_path / "run"
    assert cli_main([
        "run", "--problem", "oned-continuous", "--nodes-per-dim", "12",
        "--training-grid", "24", "--estimator", "stable", "--n-max", "5",
        "--eps-tol", "1e-14", "--validate", "full", "--output-dir", str(out_dir),
    ]) == 0
    config, op, basis, model = load_run(out_dir)
    train = make_training_grid(op.spec.param_domain, config.training_grid)
    history = _csv_columns(out_dir / "history.csv")
    assert history["n"] == ["0", "1", "2", "3", "4"]
    rows = truth_solve_many(op, train)
    for row, n in enumerate(history["n"][1:], start=1):
        sub_b, sub_m = _sub_basis(basis, model, int(n))
        errs = validate(sub_b, sub_m, op, train, rows)
        [best] = np.flatnonzero(train[:, 0] == float(history["mu1"][row]))
        assert float(history["true_error_max"][row]) == np.max(errs)
        assert float(history["true_error_argmax"][row]) == errs[best]


#: history.csv text of small --validate runs (stable, 12 nodes, N_max 6,
#: checkpoints 2 and 6), recorded when the greedy still computed its own true
#: errors: the post-pass over the hierarchical basis writes the same bytes.
PINNED_HISTORIES = {
    ("oned-continuous", "argmax"): (
        "n,mu1,estimate,true_error_argmax,true_error_max\n"
        "0,0.73543478260869588,nan,nan,nan\n"
        "1,-0.995,74.040494541396683,2.2136038395358142,nan\n"
        "2,-0.38934782608695651,40.622080623878333,0.5067195714896956,nan\n"
        "3,0.995,20.72908167668454,0.46181643080110912,nan\n"
        "4,-0.82195652173913047,6.7737037190974005,0.061843337511269268,nan\n"
        "5,0.30282608695652191,2.7882729152172105,0.016207605729366501,nan\n"),
    ("oned-continuous", "full"): (
        "n,mu1,estimate,true_error_argmax,true_error_max\n"
        "0,0.73543478260869588,nan,nan,nan\n"
        "1,-0.995,74.040494541396683,2.2136038395358142,2.2136038395358142\n"
        "2,-0.38934782608695651,40.622080623878333,0.5067195714896956,0.69541255765937882\n"
        "3,0.995,20.72908167668454,0.46181643080110912,0.46181643080110912\n"
        "4,-0.82195652173913047,6.7737037190974005,0.061843337511269268,0.062939075933352226\n"
        "5,0.30282608695652191,2.7882729152172105,0.016207605729366501,0.018025854752097059\n"),
    ("twod-second", "argmax"): (
        "n,mu1,mu2,estimate,true_error_argmax,true_error_max\n"
        "0,-0.98999999999999999,0.98999999999999999,nan,nan,nan\n"
        "1,0.98999999999999999,0.98999999999999999,120.63949185549433,6.7287987134466736,nan\n"
        "2,-0.98999999999999999,-0.98999999999999999,136.18113740553173,6.6310440324280275,nan\n"
        "3,0.98999999999999999,-0.98999999999999999,94.152671950862214,1.9864953527317795,nan\n"
        "4,-0.19799999999999995,-0.98999999999999999,70.322096477690607,1.5310989314846173,nan\n"
        "5,-0.98999999999999999,-0.19799999999999995,72.987666276244155,1.432925884403754,nan\n"),
    ("twod-second", "full"): (
        "n,mu1,mu2,estimate,true_error_argmax,true_error_max\n"
        "0,-0.98999999999999999,0.98999999999999999,nan,nan,nan\n"
        "1,0.98999999999999999,0.98999999999999999,120.63949185549433,6.7287987134466736,6.7287987134466736\n"
        "2,-0.98999999999999999,-0.98999999999999999,136.18113740553173,6.6310440324280275,6.6310440324280275\n"
        "3,0.98999999999999999,-0.98999999999999999,94.152671950862214,1.9864953527317795,1.9864953527317795\n"
        "4,-0.19799999999999995,-0.98999999999999999,70.322096477690607,1.5310989314846173,1.6107089645247912\n"
        "5,-0.98999999999999999,-0.19799999999999995,72.987666276244155,1.432925884403754,1.5238480320101722\n"),
}


@pytest.mark.parametrize("problem, mode", sorted(PINNED_HISTORIES))
def test_history_true_errors_pinned(tmp_path, problem, mode):
    grid = [24] if problem.startswith("oned") else [6, 6]
    arts = run_experiment(_small_config(tmp_path, problem=problem, training_grid=grid,
                                        N_max=6, eps_tol=1e-14, checkpoints=[2, 6],
                                        validate=mode))
    with open(arts.history) as fh:
        assert fh.read() == PINNED_HISTORIES[problem, mode]


def _count_truth_rows(monkeypatch):
    """Patch every ``truth._truth_solver`` a run can reach to log its calls:
    returns a list that gets one list of per-call row counts per solver."""
    solvers = []
    make_solver = truth._truth_solver

    def counting_solver(op, points):
        solve, calls = make_solver(op, points), []
        solvers.append(calls)

        def wrapped(mus):
            calls.append(len(mus))
            return solve(mus)
        return wrapped

    monkeypatch.setattr(truth, "_truth_solver", counting_solver)
    monkeypatch.setattr(harness, "_truth_solver", counting_solver)
    return solvers


def test_full_validation_and_fields_solve_training_truth_once(tmp_path, monkeypatch):
    # the training grid's truth rows do not depend on the basis: with the
    # field files on the default grid, one solve serves the history and the
    # checkpoints
    solvers = _count_truth_rows(monkeypatch)
    run_experiment(_small_config(tmp_path, N_max=5, eps_tol=1e-14,
                                 validate="full", checkpoints=[2, 5]))
    assert solvers == [[24]]


@pytest.mark.parametrize("mode, validation_grid, rows", [
    ("none", [40, 20], [800]),
    ("full", None, [2145]),
    ("full", [40, 20], [2145, 800]),
    ("argmax", [40, 20], [800, 5]),
])
def test_each_grid_is_solved_once_in_slices(tmp_path, monkeypatch, mode,
                                            validation_grid, rows):
    # every validation truth row is solved in slices of at most CHUNK rows,
    # through one solver per grid: a grid no basis is validated on (here the
    # 2,145-point training grid under --validate none) is not solved, the
    # default grid is solved once for the history and the fields, and
    # --validate argmax solves its five picks in one pass
    solvers = _count_truth_rows(monkeypatch)
    run_experiment(_small_config(
        tmp_path, problem="twod-first", nodes_per_dim=16, training_grid=[65, 33],
        N_max=6, eps_tol=1e-14, checkpoints=[3, 6], validate=mode,
        validation_grid=validation_grid))
    assert sorted(map(sum, solvers), reverse=True) == rows
    assert max(max(calls) for calls in solvers) <= kernels.CHUNK


def test_full_validation_memory_is_bounded_by_a_few_chunks(tmp_path):
    # --validate full with field files on another grid holds one CHUNK slice
    # of truth rows at a time, never a whole grid's (2,145 and 800 points)
    _, _, op = build_problem("twod-first", 16)
    config = _small_config(tmp_path, problem="twod-first", nodes_per_dim=16,
                           training_grid=[65, 33], N_max=6, eps_tol=1e-14,
                           checkpoints=[3, 6], validate="full",
                           validation_grid=[40, 20])
    tracemalloc.start()
    try:
        run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * kernels.CHUNK * op.dim * 8


def test_full_validation_validates_each_checkpoint_basis_once(tmp_path, monkeypatch):
    # with the field files on the training grid, a checkpoint's field errors
    # are the history pass's grid errors of that basis: 11 history records
    # and the final basis make 12 validate calls, and the field files keep
    # the bits of their own validate call
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return validate(*args, **kwargs)

    monkeypatch.setattr(harness, "validate", counting)
    runs = {}
    for mode in ("full", "none"):
        calls.clear()
        runs[mode] = run_experiment(_small_config(
            tmp_path / mode, problem="twod-second", nodes_per_dim=16,
            training_grid=[12, 12], N_max=12, eps_tol=1e-14, checkpoints=[6, 12],
            validate=mode))
        assert len(calls) == {"full": 12, "none": 2}[mode]
    for k in (6, 12):
        with open(runs["full"].fields[k]) as a, open(runs["none"].fields[k]) as b:
            assert a.read() == b.read()


@pytest.mark.parametrize("mode", ["argmax", "full"])
def test_history_true_errors_timed_as_validation(tmp_path, monkeypatch, mode):
    # the history's true errors are computed after the greedy: they count in
    # validation_seconds, not in greedy_seconds or a record's sweep_seconds
    def slow_validate(*args, **kwargs):
        time.sleep(0.25)
        return validate(*args, **kwargs)

    monkeypatch.setattr(harness, "validate", slow_validate)
    arts = run_experiment(_small_config(tmp_path, N_max=3, checkpoints=[],
                                        validate=mode))
    with open(arts.metadata) as fh:
        timings = json.load(fh)["timings"]
    assert len(timings["sweep_seconds"]) == 2
    assert timings["greedy_seconds"] < 0.25
    assert timings["validation_seconds"] >= 2 * 0.25


def test_metadata_records_resolved_validation_grid(tmp_path):
    arts = run_experiment(_small_config(tmp_path))
    with open(arts.metadata) as fh:
        meta = json.load(fh)
    assert meta["config"]["validation_grid"] == [24]
    # a run saved with the unresolved default still loads
    meta["config"]["validation_grid"] = None
    with open(arts.metadata, "w") as fh:
        json.dump(meta, fh)
    config, _, _, _ = load_run(arts.directory)
    assert config.validation_grid == config.training_grid == [24]


@pytest.mark.parametrize("key, value", [("validate_fields", True),
                                        ("alpha_mode", "unit")],
                         ids=["validate_fields", "alpha_mode"])
def test_cli_validate_rejects_saved_stale_config_key(tmp_path, capsys,
                                                     monkeypatch, key, value):
    # a run saved while field errors could be switched off, or while the
    # stability constant was an option, carries a config key rbkit no longer
    # knows: validate names it and exits 2 before any truth row is solved
    arts = run_experiment(_small_config(tmp_path))
    with open(arts.metadata) as fh:
        meta = json.load(fh)
    meta["config"][key] = value
    with open(arts.metadata, "w") as fh:
        json.dump(meta, fh)

    def forbidden(*args, **kwargs):
        raise AssertionError("validate solved truth rows for a stale config")

    monkeypatch.setattr(harness, "_truth_solver", forbidden)
    assert cli_main(["validate", arts.directory]) == 2
    assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(arts.directory, "validate.csv"))


def test_cli_validate_rejects_run_without_reduced_blocks(tmp_path, capsys):
    # a basis.npz saved before the reduced blocks, or before the operator
    # images, were stored cannot give the greedy's state, nor can one
    # without the basis itself; validate says so and exits 2
    arts = run_experiment(_small_config(tmp_path))
    with np.load(arts.basis) as data:
        saved = {key: data[key] for key in data.files}
    older = ("xi", "chol_coeffs", "sample_set")
    without_xi = tuple(key for key in saved if key != "xi")
    for keys in (older, older + ("a_blocks", "f_blocks"), without_xi):
        np.savez_compressed(arts.basis, **{key: saved[key] for key in keys})
        with pytest.raises(ConfigError):
            load_run(arts.directory)
        assert cli_main(["validate", arts.directory]) == 2
        assert "rerun" in capsys.readouterr().err


def _truncate(path):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:len(data) // 2])


def _overwrite(text):
    def write(path):
        with open(path, "w") as fh:
            fh.write(text)
    return write


@pytest.mark.parametrize("name, damage", [
    ("metadata.json", _overwrite("{not json")),
    ("metadata.json", _overwrite('{"n_final": 4}')),
    ("metadata.json", _overwrite('{"config": 5}')),
    ("basis.npz", _overwrite("not an archive\n")),
    ("basis.npz", _truncate),
], ids=["malformed-metadata", "metadata-without-config", "config-not-a-mapping",
        "text-basis", "truncated-basis"])
def test_cli_validate_unreadable_run_exits_2(tmp_path, capsys, name, damage):
    # a saved run rbkit validate cannot read is a configuration error that
    # names the file, not a numerical error or a traceback
    arts = run_experiment(_small_config(tmp_path))
    damage(os.path.join(arts.directory, name))
    with pytest.raises(ConfigError, match=name):
        load_run(arts.directory)
    assert cli_main(["validate", arts.directory]) == 2
    assert name in capsys.readouterr().err


def test_cli_validate_singular_reduced_system_exits_3(tmp_path, capsys):
    # an exactly singular reduced system is a numerical failure, not a NaN
    arts = run_experiment(_small_config(tmp_path))
    with np.load(arts.basis) as data:
        kept = {key: data[key] for key in data.files}
    kept["a_blocks"] = np.zeros_like(kept["a_blocks"])
    np.savez_compressed(arts.basis, **kept)
    assert cli_main(["validate", arts.directory]) == 3
    assert "numerical error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate


def test_validate_snapshots_and_empty():
    _, _, op = build_problem("oned-continuous", 12)
    basis, model = empty_basis(op), empty_model(op)
    for mu in [[-0.5], [0.5]]:
        basis, model = extend_basis(basis, model, mu, truth_solve(op, mu), op)
    errors = validate(basis, model, op, basis.sample_set,
                      truth_solve_many(op, basis.sample_set))
    assert errors.shape == (2,)
    for mu, err in zip(basis.sample_set, errors):
        assert err <= 1e-9 * np.linalg.norm(truth_solve(op, mu))
    assert validate(basis, model, op, np.zeros((0, 1)),
                    np.zeros((0, op.dim))).shape == (0,)


def test_validate_against_manual_recomputation():
    _, _, op = build_problem("oned-continuous", 12)
    basis, model = empty_basis(op), empty_model(op)
    for mu in [[-0.5], [0.5]]:
        basis, model = extend_basis(basis, model, mu, truth_solve(op, mu), op)
    mu = np.array([0.123])
    [err] = validate(basis, model, op, [mu], truth_solve_many(op, [mu]))
    assert err == pytest.approx(oracles.true_error_reference(op, basis, mu),
                                rel=1e-10)


# ---------------------------------------------------------------------------
# float demo file


def test_run_float_demo_rows(tmp_path):
    # the CSV holds float_demo()'s rows, N = 1..26, at full precision
    out = tmp_path / "float_demo.csv"
    assert cli_main(["float-demo", "--output", str(out)]) == 0
    rows = float_demo()
    assert [n for n, _, _ in rows] == list(range(1, 27))
    assert out.read_text() == "N,max_stable,max_expanded\n" + "".join(
        f"{n},{s:.17g},{e:.17g}\n" for n, s, e in rows)


def test_cli_float_demo(tmp_path, capsys):
    # stdout prints float_demo()'s rows at 7 digits between the header and
    # the written: line
    out = tmp_path / "float_demo.csv"
    assert cli_main(["float-demo", "--output", str(out)]) == 0
    rows = float_demo()
    header, *printed, written = capsys.readouterr().out.splitlines()
    assert header.split() == ["N", "max_stable", "max_expanded"]
    assert written == f"written: {out}"
    assert len(printed) == 26
    for line, (n, s, e) in zip(printed, rows):
        col_n, col_s, col_e = line.split()
        assert int(col_n) == n
        assert float(col_s) == pytest.approx(s, rel=1e-6)
        assert float(col_e) == pytest.approx(e, rel=1e-6)


# ---------------------------------------------------------------------------
# CLI


def test_python_m_rbkit_help():
    src = os.path.dirname(os.path.dirname(rbkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "rbkit", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: rbkit")


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


@pytest.mark.parametrize("argv", [
    ["validate", "{run}", "--grid", "5,5"],
    ["validate", "{run}", "--grid", "-3"],
    ["validate", "{run}", "--grid", "0"],
    ["run", "--problem", "oned-continuous", "--nodes-per-dim", "12",
     "--training-grid", "16", "--n-max", "2", "--validation-grid", "0",
     "--checkpoints", "2", "--output-dir", "{run}-new"],
])
def test_cli_bad_validation_grid_exits_2(tmp_path, capsys, argv):
    # a validation grid with the wrong dimension or a count below 1 is a
    # configuration error, whether configured or given to validate --grid
    run_dir = str(tmp_path / "run")
    assert cli_main([
        "run", "--problem", "oned-continuous", "--nodes-per-dim", "12",
        "--training-grid", "16", "--n-max", "2", "--output-dir", run_dir,
    ]) == 0
    capsys.readouterr()
    assert cli_main([a.format(run=run_dir) for a in argv]) == 2
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(run_dir, "validate.csv"))
    assert not os.path.exists(run_dir + "-new")


@pytest.mark.parametrize("argv, message", [
    (["run", "cfg.yaml", "--problem", "oned-continuous"],
     "unrecognized arguments: cfg.yaml"),
    (["run"], "the following arguments are required: --problem"),
], ids=["config_file", "no_problem"])
def test_cli_run_takes_flags_only(tmp_path, capsys, argv, message):
    # a run is stated by its flags alone: a positional config file and a
    # missing --problem are usage errors, raised before the output
    # directory is made
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + ["--output-dir", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_errors_exit_2(tmp_path, capsys):
    assert cli_main(["validate", str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err.startswith("config error")
    # unknown values are caught with the config, before any solve runs
    for key, value in [("estimator_kind", "nope"), ("alpha_mode", "bogus"),
                       ("validate", "bogus"), ("eps_tol", 0.0), ("N_max", 0),
                       ("nodes_per_dim", 2), ("seed", -1),
                       ("training_grid", ["a"]), ("validation_grid", ["b"]),
                       ("checkpoints", ["x"]), ("checkpoints", [0]),
                       ("checkpoints", [-3]), ("checkpoints", [3]),
                       ("training_grid", []), ("N_max", 2.5),
                       ("nodes_per_dim", 8.7), ("seed", 1.5),
                       ("output_dir", 5), ("output_dir", None),
                       ("estimator_kind", []), ("training_grid", [1]),
                       ("validation_grid", [0]), ("problem", "nosuch"),
                       ("eps_tol", "1e-10")]:
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({
                "problem": "oned-continuous", "nodes_per_dim": 12,
                "training_grid": [16], "N_max": 2,
                "output_dir": str(tmp_path / "out"), key: value,
            })
        assert key in str(exc.value) or repr(value) in str(exc.value), (key, value)
    # a caller's dict can mix key types: they are named, not compared
    with pytest.raises(ConfigError, match=r"unknown config keys: \['nope', 1\]"):
        ExperimentConfig.from_dict({"problem": "oned-continuous", 1: 2, "nope": 3})
    assert not (tmp_path / "out").exists()


def test_cli_filesystem_error_exits_4(tmp_path, capsys):
    # the output directory cannot be made below a regular file
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli_main(["run", "--problem", "oned-continuous",
                     "--output-dir", str(blocker / "x")]) == 4
    assert capsys.readouterr().err.startswith("filesystem error")


def test_cli_float_demo_output_in_missing_directory_exits_4(tmp_path, capsys):
    out = tmp_path / "missing" / "fd.csv"
    assert cli_main(["float-demo", "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith("filesystem error")


def test_cli_validate_output_in_missing_directory_exits_4(tmp_path, capsys,
                                                          monkeypatch):
    # the output directory is checked before any truth row is solved
    arts = run_experiment(_small_config(tmp_path))

    def forbidden(*args, **kwargs):
        raise AssertionError("validate solved truth rows for a missing output")

    monkeypatch.setattr(harness, "_truth_solver", forbidden)
    out = tmp_path / "missing" / "v.csv"
    assert cli_main(["validate", arts.directory, "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith("filesystem error")


def test_cli_validate_output_directory_exits_4(tmp_path, capsys, monkeypatch):
    # an output path that is a directory is refused before any truth row is
    # solved, and nothing is written into it
    arts = run_experiment(_small_config(tmp_path))

    def forbidden(*args, **kwargs):
        raise AssertionError("validate solved truth rows for a directory output")

    monkeypatch.setattr(harness, "_truth_solver", forbidden)
    before = sorted(os.listdir(tmp_path))
    assert cli_main(["validate", arts.directory, "--output", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("filesystem error")
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("problem, nodes, key", [
    ("oned-continuous", 10, "xi"),
    ("twod-first", 8, "images"),
], ids=["oned-10-nodes", "twod-first"])
def test_cli_validate_basis_of_another_operator_exits_2(tmp_path, capsys, problem,
                                                         nodes, key):
    # a basis.npz saved by another run does not fit this run's operator (an
    # 8-node oned one): validate names the file and the first array that
    # does not fit, and exits 2
    arts = run_experiment(_small_config(tmp_path, nodes_per_dim=8))
    other = run_experiment(_small_config(
        tmp_path, problem=problem, nodes_per_dim=nodes,
        training_grid=[4] * problem_spec(problem).param_dim,
        output_dir=str(tmp_path / "other")))
    os.replace(other.basis, arts.basis)
    with pytest.raises(ConfigError, match=f"basis.npz .*{key} has shape"):
        load_run(arts.directory)
    assert cli_main(["validate", arts.directory]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "basis.npz" in err
