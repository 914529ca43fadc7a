"""Tests for reduced-basis assembly, reduced solves, Lagrange coefficients,
and the greedy loop."""

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from rbkit import kernels, rbm, truth
from rbkit.rbm import (
    DependentSnapshotError,
    ReducedBasis,
    empty_basis,
    empty_model,
    extend_basis,
    greedy,
    lagrange_coefficients,
    rb_solve,
    validate,
    ReducedModel,
)
from rbkit.estimators import ClassicalEstimator, make_estimator
from rbkit.harness import _grid_errors, build_problem, make_training_grid
from rbkit.truth import (
    AffineOperator,
    ProblemSpec,
    load_vector,
    truth_solve,
    truth_solve_many,
)

import oracles


@pytest.fixture(scope="module")
def oned():
    _, _, op = build_problem("oned-continuous", 16)
    return op


@pytest.fixture(scope="module")
def oned_basis(oned):
    mus = [[-0.9], [-0.5], [0.0], [0.4], [0.7], [0.95]]
    return oracles.build_basis(oned, mus)


# ---------------------------------------------------------------------------
# rb_solve


def test_rb_solve_reproduces_single_snapshot(oned):
    mu = [0.3]
    u = truth_solve(oned, mu)
    basis, model = oracles.build_basis(oned, [mu])
    u_rb = basis.xi @ rb_solve(model, oned, mu)
    assert np.linalg.norm(u_rb - u) <= 1e-10 * np.linalg.norm(u)


def test_rb_solve_zero_load(oned, oned_basis):
    basis, model = oned_basis
    op0 = AffineOperator(
        spec=oned.spec,
        kron_factors=oned.kron_factors,
        f_components=oned.f_components,
        theta_a=oned.theta_a,
        theta_f=lambda m: np.zeros((len(m), 1)),
    )
    u_hat = rb_solve(model, op0, [0.2])
    assert np.allclose(u_hat, 0.0)


def test_rb_solve_galerkin_orthogonality(oned):
    basis, model = oracles.build_basis(oned, [[-0.8], [-0.3], [0.1], [0.5], [0.9]])
    # more points than one kernel chunk, so the batch spans a chunk boundary
    pts = np.linspace(-0.99, 0.99, 260)[:, None]
    U = rb_solve(model, oned, pts)
    assert U.shape == (260, basis.size)
    for mu, u_hat in zip(pts[::13], U[::13]):
        r = load_vector(oned, mu) - oracles.dense_operator(oned, mu) @ (basis.xi @ u_hat)
        # the residual of the reduced solution is orthogonal to the reduced space
        defect = basis.xi.T @ r
        scale = np.linalg.norm(load_vector(oned, mu))
        assert np.max(np.abs(defect)) <= 1e-10 * scale
    # a point's reduced solution and true error do not depend on its batch
    rows = truth_solve_many(oned, pts)
    errs = validate(basis, model, oned, pts, rows)
    for i, mu in enumerate(pts):
        assert np.array_equal(U[i], rb_solve(model, oned, mu))
        assert errs[i] == validate(basis, model, oned, pts[i:i + 1], rows[i:i + 1])[0]


@pytest.mark.parametrize("chunks", [3, 12])
def test_validate_memory_is_bounded_by_one_chunk(chunks):
    # a grid's true errors are formed one kernels.CHUNK slice at a time, so
    # the temporaries are a few CHUNK x dim arrays whatever the point count;
    # the errors keep the bits of the unchunked validate call
    _, _, op = build_problem("twod-first", 34)
    rng = np.random.default_rng(chunks)
    N = 4
    basis = ReducedBasis([], np.linalg.qr(rng.standard_normal((op.dim, N)))[0],
                         np.eye(N), np.zeros((op.dim, 0)))
    model = ReducedModel(a_blocks=np.stack([np.eye(N)] * len(op.kron_factors)),
                         f_blocks=rng.standard_normal((1, N)))
    # the grid spans `chunks` full slices and a partial one, with few enough
    # axis points that its Schur forms stay small
    points = make_training_grid(op.spec.param_domain, [chunks * 8 + 1, 32])
    expected = validate(basis, model, op, points, truth_solve_many(op, points))
    tracemalloc.start()
    try:
        errors = _grid_errors(op, points, basis, model, [N])[N]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(errors, expected)
    assert peak < 6 * kernels.CHUNK * op.dim * 8


def test_validate_solves_truth_rows_chunk_by_chunk(monkeypatch):
    # a grid's truth rows are solved CHUNK points at a time through one
    # Schur-form cache: the errors keep the bits of the whole grid's
    # truth_solve_many rows, each axis point takes one Schur form (the
    # cache is built for the whole grid, not for a slice), and the whole
    # grid's truth rows are never held at once
    _, _, op = build_problem("twod-first", 16)
    points = make_training_grid(op.spec.param_domain, [65, 33])
    assert points.shape[0] > 8 * kernels.CHUNK
    basis, model = oracles.build_basis(op, points[[0, 700, 1400, 2144]])
    expected = validate(basis, model, op, points, truth_solve_many(op, points))
    calls = []
    schur = sla.schur
    monkeypatch.setattr(sla, "schur",
                        lambda *a, **k: calls.append(1) or schur(*a, **k))
    tracemalloc.start()
    try:
        errors = _grid_errors(op, points, basis, model, [4])[4]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(errors, expected)
    assert len(calls) == 65 + 33
    assert peak < points.shape[0] * op.dim * 8


def test_rb_solve_empty_model_raises(oned):
    with pytest.raises(ValueError):
        rb_solve(empty_model(2, 1), oned, [0.0])


def test_parameter_width_is_checked(oned, oned_basis):
    # three points of a one-parameter problem passed as one row are refused,
    # not read as a single point at the row's first entry
    basis, model = oned_basis
    row = np.array([-0.5, 0.0, 0.5])
    msg = "width 1, got width 3"
    with pytest.raises(ValueError, match=msg):
        validate(basis, model, oned, row, np.zeros((1, oned.dim)))
    with pytest.raises(ValueError, match=msg):
        rb_solve(model, oned, row)
    with pytest.raises(ValueError, match=msg):
        truth_solve_many(oned, row)
    with pytest.raises(ValueError, match=msg):
        truth_solve(oned, [0.1, 5.0, 7.0])
    # as a column the same values are three points
    column = row[:, None]
    assert validate(basis, model, oned, column,
                    truth_solve_many(oned, column)).shape == (3,)
    _, _, twod = build_problem("twod-first", 6)
    with pytest.raises(ValueError, match="width 2, got width 1"):
        twod.theta_f_values([[1.0], [2.0]])


def test_rb_solve_singular_decision(oned, oned_basis):
    # a near-singular reduced system is solved, as the greedy's sweep solves
    # it; an exactly singular one raises in rb_solve and validate
    near = ReducedModel(a_blocks=np.array([np.diag([1.0, 1e-20]), np.zeros((2, 2))]),
                        f_blocks=np.array([[1.0, 1.0]]))
    theta = oned.theta_a_values([0.3])[0]
    u_hat = rb_solve(near, oned, [0.3])
    assert np.array_equal(u_hat, np.linalg.solve(theta[0] * near.a_blocks[0],
                                                 near.f_blocks[0]))
    assert np.all(np.isfinite(u_hat))
    basis, model = oned_basis
    zero = ReducedModel(a_blocks=np.zeros_like(model.a_blocks),
                        f_blocks=model.f_blocks)
    with pytest.raises(np.linalg.LinAlgError):
        rb_solve(zero, oned, [0.3])
    points = [[0.3], [0.5]]
    with pytest.raises(np.linalg.LinAlgError):
        validate(basis, zero, oned, points, truth_solve_many(oned, points))


# ---------------------------------------------------------------------------
# lagrange_coefficients


def test_lagrange_triangular_definition(oned_basis):
    basis, _ = oned_basis
    R = basis.chol_coeffs
    n = basis.size
    for j in [0, n - 1]:
        c = lagrange_coefficients(basis, R[:, j])
        assert np.allclose(c, np.eye(n)[:, j], atol=1e-10)


def test_lagrange_single_snapshot(oned):
    basis, _ = oracles.build_basis(oned, [[0.1]])
    u_hat = np.array([2.5])
    c = lagrange_coefficients(basis, u_hat)
    assert c[0] == pytest.approx(2.5 / basis.chol_coeffs[0, 0], rel=1e-14)


def test_lagrange_matches_snapshot_basis_galerkin_oracle(oned, oned_basis):
    basis, model = oned_basis
    mu = [0.33]
    # oracle: assemble the reduced system directly in the raw snapshot basis
    S = basis.xi @ basis.chol_coeffs  # snapshot columns
    A = oracles.dense_operator(oned, mu)
    f = load_vector(oned, mu)
    c_ref = np.linalg.solve(S.T @ A @ S, S.T @ f)
    c = lagrange_coefficients(basis, rb_solve(model, oned, mu))
    assert np.linalg.norm(c - c_ref) <= 1e-8 * max(np.linalg.norm(c_ref), 1.0)


def test_lagrange_kronecker_at_snapshots(oned, oned_basis):
    basis, model = oned_basis
    for n, mu in enumerate(basis.sample_set):
        c = lagrange_coefficients(basis, rb_solve(model, oned, mu))
        assert np.max(np.abs(c - np.eye(basis.size)[:, n])) <= 1e-8


def test_lagrange_rejects_length_mismatch(oned_basis):
    basis, _ = oned_basis
    with pytest.raises(ValueError, match="does not match basis size"):
        lagrange_coefficients(basis, np.ones(basis.size + 1))


def test_lagrange_warns_when_ill_conditioned(oned_basis):
    basis, _ = oned_basis
    bad = dataclasses.replace(
        basis, chol_coeffs=np.diag(np.logspace(0, -14, basis.size)))
    with pytest.warns(RuntimeWarning):
        lagrange_coefficients(bad, np.ones(basis.size))


# ---------------------------------------------------------------------------
# extend_basis


def test_extend_empty_basis(oned):
    basis, model = extend_basis(
        empty_basis(oned.dim), empty_model(2, 1), [0.2], truth_solve(oned, [0.2]), oned
    )
    assert basis.size == 1
    xi = basis.xi[:, 0]
    assert np.linalg.norm(xi) == pytest.approx(1.0, rel=1e-12)
    for q, Aq in enumerate(oned.a_components):
        assert model.a_blocks[q, 0, 0] == pytest.approx(xi @ Aq @ xi, rel=1e-12)


def test_extend_duplicate_snapshot_rejected(oned):
    basis, model = oracles.build_basis(oned, [[0.2]])
    near = [0.2000000001]
    with pytest.raises(DependentSnapshotError):
        extend_basis(basis, model, near, truth_solve(oned, near), oned)
    with pytest.raises(ValueError):
        extend_basis(basis, model, [0.2], truth_solve(oned, [0.2]), oned)


def test_extend_matches_batch_assembly_oracle(oned):
    basis, model = oracles.build_basis(oned, [[-0.4], [0.6]])
    Xi = basis.xi
    for q, Aq in enumerate(oned.a_components):
        assert np.allclose(model.a_blocks[q], Xi.T @ Aq @ Xi, atol=1e-12)
    for q, fq in enumerate(oned.f_components):
        assert np.allclose(model.f_blocks[q], Xi.T @ fq, atol=1e-12)


def test_extend_nesting_bit_identical(oned):
    basis2, model2 = oracles.build_basis(oned, [[-0.4], [0.6]])
    basis3, model3 = extend_basis(basis2, model2, [0.1], truth_solve(oned, [0.1]),
                                  oned)
    assert np.array_equal(model3.a_blocks[:, :2, :2], model2.a_blocks)
    assert np.array_equal(model3.f_blocks[:, :2], model2.f_blocks)
    assert np.array_equal(basis3.xi[:, :2], basis2.xi)
    assert np.array_equal(basis3.chol_coeffs[:2, :2], basis2.chol_coeffs)


@pytest.mark.parametrize("problem", ["oned-discontinuous", "twod-first",
                                     "twod-second"])
def test_greedy_basis_images_are_the_dense_products(problem):
    # column m*Q_a + q of the images is A^q xi_m, bit for bit the dense
    # oracle matrix times the basis vector
    _, _, op = build_problem(problem, 12)
    train = make_training_grid(op.spec.param_domain, [7] * op.spec.param_dim)
    basis, _, _ = greedy(op, make_estimator("stable"), train, N_max=6,
                         eps_tol=1e-14, seed=1)
    Qa = len(op.kron_factors)
    assert basis.images.shape == (op.dim, basis.size * Qa)
    for q, (Ax, Ay) in enumerate(op.kron_factors):
        K = oracles.kron_sum(Ax, Ay)
        for m in range(basis.size):
            assert np.array_equal(basis.images[:, m * Qa + q],
                                  K @ basis.xi[:, m].copy())


def test_snapshot_reproduction_through_chol_coeffs(oned, oned_basis):
    basis, _ = oned_basis
    S = basis.xi @ basis.chol_coeffs
    for m, mu in enumerate(basis.sample_set):
        u = truth_solve(oned, mu)
        assert np.linalg.norm(S[:, m] - u) <= 1e-10 * np.linalg.norm(u)


# ---------------------------------------------------------------------------
# greedy


def _greedy_setup(op, count=24, kind="stable", **kwargs):
    train = make_training_grid(op.spec.param_domain, [count])
    settings = dict(eps_tol=1e-12, N_max=8, training_set=train)
    settings.update(kwargs)
    return settings, make_estimator(kind)


def test_greedy_immediate_tolerance_hit(oned):
    settings, est = _greedy_setup(oned, eps_tol=1e30)
    basis, model, history = greedy(oned, est, **settings)
    assert basis.size == 1
    assert len(history.records) == 2  # seeded pick plus one recorded sweep
    assert not history.saturated


def test_greedy_nmax_cap(oned):
    settings, est = _greedy_setup(oned, N_max=3)
    basis, _, history = greedy(oned, est, **settings)
    assert basis.size == 3
    assert len(history.records) == 3  # seed + 2 sweeps
    assert history.estimates.shape == (2,)


def test_greedy_estimates_decrease_overall(oned):
    settings, est = _greedy_setup(oned, N_max=8)
    _, _, history = greedy(oned, est, **settings)
    eps = history.estimates
    assert eps[-1] < 1e-2 * eps[0]


def test_greedy_sample_set_distinct(oned):
    settings, est = _greedy_setup(oned, N_max=8)
    basis, _, _ = greedy(oned, est, **settings)
    mus = [tuple(mu) for mu in basis.sample_set]
    assert len(set(mus)) == len(mus)


def test_greedy_seed_determinism(oned):
    runs = []
    for _ in range(2):
        settings, est = _greedy_setup(oned, N_max=6, seed=3)
        _, _, history = greedy(oned, est, **settings)
        runs.append(history.estimates)
    assert np.array_equal(runs[0], runs[1])


def test_greedy_different_seed_changes_first_pick(oned):
    firsts = set()
    for seed in range(6):
        settings, est = _greedy_setup(oned, N_max=2, seed=seed)
        _, _, history = greedy(oned, est, **settings)
        firsts.add(float(history.records[0].mu[0]))
    assert len(firsts) > 1


def test_greedy_saturates_on_tiny_training_set(oned):
    settings, est = _greedy_setup(oned, count=2, N_max=10, eps_tol=1e-30)
    basis, _, history = greedy(oned, est, **settings)
    assert history.saturated
    assert basis.size <= 2


#: Training-set indices picked by the greedy (seeded pick first) and the
#: recorded estimates, for tiny runs at 16 nodes, N_max 8, seed 0.  Recorded
#: from the dense truth layer with the batched kernels; a change that moves
#: an index, or an estimate beyond rounding, changes the greedy itself.
PINNED_SELECTIONS = {
    ("oned-continuous", "classical"): (
        [54, 0, 16, 63, 4, 61, 36, 1],
        [121.09222713027809, 82.71105836176986, 43.3547826269423,
         14.992785486138022, 7.496282295917016, 4.415998696231024,
         1.4534055571148528]),
    ("oned-continuous", "stable"): (
        [54, 0, 16, 63, 4, 61, 36, 1],
        [121.09222713027812, 82.71105836177001, 43.35478262694212,
         14.99278548613856, 7.496282295915398, 4.415998696235366,
         1.4534055572635074]),
    ("oned-continuous", "lebesgue"): (
        [54, 63, 37, 0, 8, 61, 2, 20],
        [1.1674286427623906, 1.1759909728752784, 5.115376430735117,
         2.7891846999612353, 2.568742592521864, 3.312721965625211,
         2.062562506121408]),
    ("twod-second", "classical"): (
        [122, 0, 143, 11, 4, 119, 48, 141],
        [167.53764206130217, 251.7479272565058, 191.54263725499942,
         153.29264746856396, 188.46037324660446, 124.953696922645,
         98.81814276479946]),
    ("twod-second", "stable"): (
        [122, 0, 143, 11, 4, 119, 48, 141],
        [167.53764206130217, 251.74792725650596, 191.54263725499936,
         153.29264746856393, 188.4603732466057, 124.95369692264562,
         98.81814276480124]),
    ("twod-second", "lebesgue"): (
        [122, 132, 143, 0, 139, 24, 131, 1],
        [1.1540590103522086, 1.581499337303759, 1.4509708961817243,
         1.2456078031575222, 3.2357412180504848, 3.062156273249881,
         2.1679456503280963]),
}


@pytest.mark.parametrize("problem, kind", sorted(PINNED_SELECTIONS))
def test_greedy_selections_pinned(problem, kind):
    counts = {"oned-continuous": [64], "twod-second": [12, 12]}[problem]
    spec, _, op = build_problem(problem, 16)
    train = make_training_grid(spec.param_domain, counts)
    _, _, history = greedy(op, make_estimator(kind), train, N_max=8, eps_tol=1e-14)
    picked = [int(np.flatnonzero(np.all(train == r.mu, axis=1))[0])
              for r in history.records]
    want_picked, want_estimates = PINNED_SELECTIONS[problem, kind]
    assert not history.saturated
    assert picked == want_picked
    np.testing.assert_allclose(history.estimates, want_estimates, rtol=1e-10, atol=0)


POD_GRIDS = {"oned-continuous": [64], "oned-discontinuous": [64],
             "twod-first": [12, 8], "twod-second": [10, 10]}


@pytest.mark.parametrize("kind", ["classical", "stable", "lebesgue"])
@pytest.mark.parametrize("problem", sorted(POD_GRIDS))
def test_greedy_worst_error_is_above_the_pod_tail(problem, kind):
    # Eckart-Young: no n-dimensional space projects the M training truth
    # rows with a mean squared error below sum_{k>n} sigma_k^2 / M, and a
    # Galerkin error is at least the projection error, so at every size n
    # the worst training true error is at least that RMS tail.  The
    # smallest ratio to the tail is 3.0 (oned-discontinuous) to 5.9
    # (twod-second)
    spec, _, op = build_problem(problem, 12)
    train = make_training_grid(spec.param_domain, POD_GRIDS[problem])
    basis, model, _ = greedy(op, make_estimator(kind), train, N_max=10,
                             eps_tol=1e-300)
    sigma = np.linalg.svd(truth_solve_many(op, train), compute_uv=False)
    sizes = range(1, basis.size + 1)
    errors = _grid_errors(op, train, basis, model, sizes)
    for n in sizes:
        tail = np.sqrt(np.sum(sigma[n:] ** 2) / train.shape[0])
        assert np.max(errors[n]) >= tail > 0.0, n


def test_greedy_config_validation(oned):
    train = np.array([[0.0], [1.0]])
    est = make_estimator("stable")
    with pytest.raises(ValueError, match="eps_tol must be positive"):
        greedy(oned, est, train, N_max=5, eps_tol=0.0)
    with pytest.raises(ValueError, match="N_max must be at least 1"):
        greedy(oned, est, train, N_max=0, eps_tol=1e-6)
    with pytest.raises(ValueError, match="training set must be nonempty"):
        greedy(oned, est, np.zeros((0, 1)), N_max=5, eps_tol=1e-6)


def test_greedy_lebesgue_builds_usable_basis(oned):
    settings, est = _greedy_setup(oned, N_max=6, kind="lebesgue")
    basis, model, history = greedy(oned, est, **settings)
    assert basis.size == 6
    # the built space approximates an unseen parameter reasonably well
    mu = [0.37]
    u = truth_solve(oned, mu)
    u_rb = basis.xi @ rb_solve(model, oned, mu)
    assert np.linalg.norm(u - u_rb) <= 1e-2 * np.linalg.norm(u)


class _ClampsFromSize(ClassicalEstimator):
    """Classical estimator whose sweeps, once the basis has ``size``
    columns, report every point unresolved (NaN): what the kernel reports
    when the expanded quadratic is negative everywhere."""

    def __init__(self, size):
        super().__init__()
        self.size = size

    def sweep(self, model, theta_a, theta_f, alpha, workers=1):
        values = super().sweep(model, theta_a, theta_f, alpha, workers)
        if model.size >= self.size:
            values = np.full_like(values, np.nan)
        self.last_values = values
        return values


def test_greedy_stops_saturated_on_fully_clamped_sweep(oned):
    # the unresolved values must neither be recorded nor satisfy eps_tol;
    # the NaN sweep is the history's last sweep, with no pick after it, and
    # it counts the points it could pick: all 20 unselected, not all 24
    settings, _ = _greedy_setup(oned, N_max=30, eps_tol=1e-16)
    est = _ClampsFromSize(4)
    basis, _, history = greedy(oned, est, **settings)
    assert history.saturated
    assert basis.size == 4
    assert len(history.records) == len(history.sweeps) == basis.size
    assert np.all(history.estimates > 0.0)
    selected = np.isin(settings["training_set"][:, 0],
                       [mu[0] for mu in basis.sample_set])
    assert np.all(np.isnan(est.last_values[~selected]))
    counts = [count for _, count in history.sweeps]
    assert counts[-1] == np.count_nonzero(~selected) < est.last_values.size
    assert max(counts[:-1]) < counts[-1]


def test_greedy_holds_no_validation_mode(oned, monkeypatch):
    # the greedy only selects: it takes no validate mode, its records no
    # true errors, and it solves no truth but the snapshot's
    assert "validate" not in inspect.signature(greedy).parameters
    assert {f.name for f in dataclasses.fields(rbm.GreedyRecord)} == {
        "n", "mu", "estimate"}
    assert not hasattr(rbm, "VALIDATE_MODES")

    def forbidden(*args, **kwargs):
        raise AssertionError("the greedy solved a validation truth")

    monkeypatch.setattr(truth, "_truth_solver", forbidden)
    monkeypatch.setattr(rbm, "validate", forbidden)
    settings, est = _greedy_setup(oned, N_max=4)
    basis, _, _ = greedy(oned, est, **settings)
    assert basis.size == 4


def test_greedy_seed_record_runs_no_sweep(oned):
    # the seeded pick is recorded before any sweep: no estimate, and the
    # sweeps are the two that chose the later picks
    settings, est = _greedy_setup(oned, N_max=3)
    _, _, history = greedy(oned, est, **settings)
    seed = history.records[0]
    assert seed.n == 0 and np.isnan(seed.estimate)
    assert [r.n for r in history.records] == [0, 1, 2]
    assert len(history.sweeps) == 2
    assert all(seconds > 0.0 and count == 0 for seconds, count in history.sweeps)


@pytest.mark.parametrize("stop", ["eps_tol", "N_max", "saturated", "dependent"])
def test_greedy_solves_and_refreshes_once_per_basis_vector(oned, monkeypatch, stop):
    # one step per pick: each accepted snapshot is solved once and the
    # estimator refreshed once on its basis; a dependent pick (here the
    # third, given twice the seed's snapshot) is solved but refreshes nothing
    settings, est = _greedy_setup(oned, N_max=30 if stop == "saturated" else 4,
                             eps_tol=1e30 if stop == "eps_tol" else 1e-16,
                             kind="classical")
    if stop == "saturated":
        est = _ClampsFromSize(3)
    solves, refreshes = [], []

    def solve(op, mu):
        solves.append(truth_solve(op, mu))
        dependent = stop == "dependent" and len(solves) == 3
        return 2.0 * solves[0] if dependent else solves[-1]

    refresh = est.refresh
    monkeypatch.setattr(rbm, "truth_solve", solve)
    monkeypatch.setattr(est, "refresh",
                        lambda *args: refreshes.append(1) or refresh(*args))
    basis, _, history = greedy(oned, est, **settings)
    sizes = {"eps_tol": 1, "N_max": 4, "saturated": 3, "dependent": 2}
    assert basis.size == sizes[stop]
    assert history.saturated == (stop in ("saturated", "dependent"))
    assert len(refreshes) == basis.size
    assert len(solves) == basis.size + (stop == "dependent")
    # one sweep per pick after the seed, and the saturating one chose none
    assert len(history.sweeps) == len(history.records) - (stop != "saturated")


def test_greedy_raises_on_dependent_seed_snapshot():
    # a zero load gives a zero snapshot at the seeded pick: there is no
    # basis to saturate, so the error propagates
    op = AffineOperator(
        spec=ProblemSpec("toy", ((-1.0, 1.0),)),
        kron_factors=[(np.eye(6), np.zeros((1, 1)))],
        f_components=[np.zeros(6)],
        theta_a=lambda m: np.ones((len(m), 1)),
        theta_f=lambda m: np.ones((len(m), 1)),
    )
    with pytest.raises(DependentSnapshotError):
        greedy(op, make_estimator("stable"), [[-0.5], [0.5]], N_max=4, eps_tol=1e-8)
