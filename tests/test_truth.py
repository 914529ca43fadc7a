"""Tests for the Chebyshev collocation discretization and the affine
assembly of the four built-in problems."""

import numpy as np
import pytest

from rbkit.rbm import empty_basis, empty_model, extend_basis, validate
from rbkit.truth import (
    PROBLEM_IDS,
    SIGN_AT_ZERO,
    AffineOperator,
    ProblemSpec,
    assemble,
    assemble_affine,
    build_discretization,
    chebyshev_grid,
    kron_sum,
    load_vector,
    problem_spec,
    truth_solve,
    truth_solve_many,
)

import oracles


# ---------------------------------------------------------------------------
# chebyshev_grid


def test_grid_n2_nodes():
    x, _ = chebyshev_grid(2)
    assert np.allclose(x, [1.0, 0.0, -1.0], atol=1e-15)


def test_grid_n1_differentiates_x():
    _, D = chebyshev_grid(1)
    assert np.allclose(D @ np.array([1.0, -1.0]), [1.0, 1.0])


def test_grid_differentiates_quintic():
    x, D = chebyshev_grid(16)
    assert np.max(np.abs(D @ x**5 - 5.0 * x**4)) <= 1e-10


def test_grid_monomial_exactness_sweep():
    n = 31
    x, D = chebyshev_grid(n)
    for k in range(n + 1):
        p = x**k
        dp = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
        scale = max(np.max(np.abs(dp)), 1.0)
        assert np.max(np.abs(D @ p - dp)) <= 1e-10 * scale, f"degree {k}"


def test_grid_rejects_zero():
    with pytest.raises(ValueError):
        chebyshev_grid(0)


# ---------------------------------------------------------------------------
# discretization and problem specs


def test_interior_dimension():
    disc = build_discretization(10)
    assert disc.interior_dim == 64
    assert np.all(np.abs(disc.x_int) < 1.0)
    assert np.all(np.abs(disc.y_int) < 1.0)


def test_parameter_domains():
    assert problem_spec("oned-continuous").param_domain == ((-0.995, 0.995),)
    assert problem_spec("oned-discontinuous").param_domain == ((-0.995, 0.995),)
    assert problem_spec("twod-first").param_domain == ((0.1, 4.0), (0.0, 2.0))
    assert problem_spec("twod-second").param_domain == ((-0.99, 0.99), (-0.99, 0.99))
    assert problem_spec("twod-first").Q_a == 3
    assert problem_spec("oned-continuous").Q_a == 2


def test_unknown_problem_id():
    with pytest.raises(ValueError):
        problem_spec("no-such-problem")


# ---------------------------------------------------------------------------
# affine consistency against direct PDE application

# smooth test functions vanishing on the boundary of [-1,1]^2, with their
# exact second derivatives
def _bump(X, Y):
    return (1.0 - X**2) ** 2 * (1.0 - Y**2) ** 2


def _bump_xx(X, Y):
    return (12.0 * X**2 - 4.0) * (1.0 - Y**2) ** 2


def _bump_yy(X, Y):
    return (1.0 - X**2) ** 2 * (12.0 * Y**2 - 4.0)


def _pde_apply(pid, mu, X, Y):
    """The PDE operator applied analytically to the bump test function."""
    uxx = _bump_xx(X, Y)
    uyy = _bump_yy(X, Y)
    u = _bump(X, Y)
    if pid == "oned-continuous":
        return (1.0 + mu[0] * X) * uxx + uyy
    if pid == "oned-discontinuous":
        s = SIGN_AT_ZERO if mu[0] == 0 else np.sign(mu[0])
        ell = np.sin((mu[0] - s) * np.pi / 2.0)
        return (1.0 + ell * X) * uxx + uyy
    if pid == "twod-first":
        return -uxx - mu[0] * uyy - mu[1] * u
    if pid == "twod-second":
        return (1.0 + mu[0] * X) * uxx + (1.0 + mu[1] * Y) * uyy
    raise AssertionError(pid)


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_affine_consistency_with_pde(pid):
    spec = problem_spec(pid)
    disc = build_discretization(24)
    op = assemble_affine(spec, disc)
    X, Y = disc.x_int, disc.y_int
    u = _bump(X, Y)
    rng = np.random.default_rng(11)
    for _ in range(20):
        mu = np.array([rng.uniform(lo, hi) for lo, hi in spec.param_domain])
        got = assemble(op, mu) @ u
        want = _pde_apply(pid, mu, X, Y)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_load_vectors():
    disc = build_discretization(16)
    op1 = assemble_affine(problem_spec("oned-continuous"), disc)
    f1 = load_vector(op1, [0.3])
    assert np.allclose(f1, np.exp(4.0 * disc.x_int * disc.y_int))
    op2 = assemble_affine(problem_spec("twod-first"), disc)
    f2 = load_vector(op2, [1.0, 0.5])
    assert np.allclose(f2, -10.0 * np.sin(8.0 * disc.x_int * (disc.y_int - 1.0)))


def test_discontinuous_theta_jump_at_zero():
    disc = build_discretization(8)
    op = assemble_affine(problem_spec("oned-discontinuous"), disc)
    theta2 = op.theta_a[1]
    # ell(mu) jumps by 2 across mu = 0 and nearly vanishes at the domain ends
    assert theta2(np.array([1e-9])) == pytest.approx(-1.0, abs=1e-6)
    assert theta2(np.array([-1e-9])) == pytest.approx(1.0, abs=1e-6)
    assert theta2(np.array([0.0])) == pytest.approx(-1.0, abs=1e-12)
    assert abs(theta2(np.array([0.995]))) < 0.01


# ---------------------------------------------------------------------------
# truth_solve


def test_truth_solve_residual():
    spec = problem_spec("twod-first")
    op = assemble_affine(spec, build_discretization(20))
    mu = np.array([1.0, 0.0])
    snap = truth_solve(op, mu)
    A = assemble(op, mu)
    f = load_vector(op, mu)
    res = np.linalg.norm(A @ snap.values - f)
    assert res <= 1e-9 * (np.linalg.norm(A) * np.linalg.norm(snap.values)
                          + np.linalg.norm(f))


def test_truth_solution_symmetry_at_mu_zero():
    # at mu = 0 the operator is the Laplacian and e^{4xy} is invariant under
    # (x, y) -> (-x, -y), so the solution must share that symmetry
    spec = problem_spec("oned-continuous")
    disc = build_discretization(20)
    op = assemble_affine(spec, disc)
    u = truth_solve(op, [0.0]).values
    # joint sign flip reverses the interior ordering in both directions
    assert np.linalg.norm(u - u[::-1]) <= 1e-8 * np.linalg.norm(u)


def test_truth_solve_deterministic():
    op = assemble_affine(problem_spec("oned-continuous"), build_discretization(16))
    u1 = truth_solve(op, [0.4]).values
    u2 = truth_solve(op, [0.4]).values
    assert np.array_equal(u1, u2)


# ---------------------------------------------------------------------------
# Kronecker factors and truth_solve_many


@pytest.mark.parametrize("nodes", [12, 32])
@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_components_match_dense_construction(pid, nodes):
    disc = build_discretization(nodes)
    op = assemble_affine(problem_spec(pid), disc)
    ref = oracles.dense_components(pid, disc)
    assert len(op.kron_factors) == len(ref) == op.spec.Q_a
    for Aq, Rq in zip(op.a_components, ref):
        assert np.array_equal(Aq, Rq)


def _sample_points(spec, count, seed):
    rng = np.random.default_rng(seed)
    return np.array([[rng.uniform(lo, hi) for lo, hi in spec.param_domain]
                     for _ in range(count)])


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_truth_solve_many_matches_dense_lu(pid):
    spec = problem_spec(pid)
    op = assemble_affine(spec, build_discretization(16))
    mus = _sample_points(spec, 4, 13)
    U = truth_solve_many(op, mus)
    assert U.shape == (4, op.dim)
    eps = np.finfo(float).eps
    for mu, u in zip(mus, U):
        u_lu = truth_solve(op, mu).values
        assert np.linalg.norm(u - u_lu) <= 1e-12 * np.linalg.norm(u_lu)
        # normwise backward residual on the scale of the solve's rounding
        A = assemble(op, mu)
        res = np.linalg.norm(load_vector(op, mu) - A @ u)
        assert res <= 1e2 * eps * np.linalg.norm(A, 2) * np.linalg.norm(u)


def test_kron_sum_with_zero_one_by_one_factor_is_the_matrix():
    # a dense component without Kronecker structure is the pair (A, 0_{1x1})
    A = np.random.default_rng(5).standard_normal((6, 6))
    assert np.array_equal(kron_sum(A, np.zeros((1, 1))), A)


def _singular_kron_operator():
    """Kronecker operator ``kron_sum(diag(1, 2) + mu I, diag(-1, 3))``: the
    eigenvalue sums are 0 + mu, 4 + mu, 1 + mu and 5 + mu, so on [-1/2, 1] it
    is exactly singular at mu = 0 and only there."""
    pairs = [(np.diag([1.0, 2.0]), np.diag([-1.0, 3.0])),
             (np.eye(2), np.zeros((2, 2)))]
    return AffineOperator(
        spec=ProblemSpec("kron-toy", 1, ((-0.5, 1.0),), Q_a=2, Q_f=1),
        kron_factors=pairs,
        f_components=[np.array([1.0, 2.0, 3.0, 4.0])],
        theta_a=[lambda mu: 1.0, lambda mu: float(mu[0])],
        theta_f=[lambda mu: 1.0],
    )


def test_singular_point_gives_nan_rows_and_errors():
    op = _singular_kron_operator()
    mus = np.array([[0.0], [0.5]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(assemble(op, mus[0]), load_vector(op, mus[0]))
    u_lu = np.linalg.solve(assemble(op, mus[1]), load_vector(op, mus[1]))

    U = truth_solve_many(op, mus)
    assert np.all(np.isnan(U[0]))
    assert np.all(np.isfinite(U[1]))
    assert np.linalg.norm(U[1] - u_lu) <= 1e-14 * np.linalg.norm(u_lu)

    basis, model = empty_basis(op.dim), empty_model(2, 1)
    for mu in ([0.25], [1.0]):
        basis, model = extend_basis(basis, model, truth_solve(op, mu), op)
    errs = validate(basis, model, op, mus)
    assert np.isnan(errs[0])
    assert errs[1] == pytest.approx(
        oracles.true_error_reference(op, basis, mus[1]), rel=1e-12)
