"""Tests for the Chebyshev collocation discretization and the affine
assembly of the four built-in problems."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from rbkit.harness import TRAINING_GRIDS, make_training_grid
from rbkit.rbm import empty_basis, empty_model, extend_basis, validate
from rbkit.truth import (
    PROBLEM_IDS,
    SIGN_AT_ZERO,
    AffineOperator,
    ProblemSpec,
    _kron_affine_sum,
    assemble,
    assemble_affine,
    build_discretization,
    chebyshev_grid,
    load_vector,
    problem_spec,
    truth_solve,
    truth_solve_many,
)

import oracles


def _ones(m):
    """One unit weight per parameter row."""
    return np.ones((len(m), 1))


def _one_and_mu(m):
    """The weights (1, mu_1) of each parameter row."""
    return np.column_stack([np.ones(len(m)), m[:, 0]])


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
    assert disc.x_int.size == 64
    assert np.all(np.abs(disc.x_int) < 1.0)
    assert np.all(np.abs(disc.y_int) < 1.0)


def test_parameter_domains():
    assert problem_spec("oned-continuous").param_domain == ((-0.995, 0.995),)
    assert problem_spec("oned-discontinuous").param_domain == ((-0.995, 0.995),)
    assert problem_spec("twod-first").param_domain == ((0.1, 4.0), (0.0, 2.0))
    assert problem_spec("twod-second").param_domain == ((-0.99, 0.99), (-0.99, 0.99))
    assert [problem_spec(pid).param_dim for pid in PROBLEM_IDS] == [1, 1, 2, 2]


def test_affine_component_counts():
    disc = build_discretization(8)
    ops = [assemble_affine(problem_spec(pid), disc) for pid in PROBLEM_IDS]
    assert [len(op.kron_factors) for op in ops] == [2, 2, 3, 3]
    assert [len(op.f_components) for op in ops] == [1, 1, 1, 1]


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
    theta2 = op.theta_a_values([[1e-9], [-1e-9], [0.0], [0.995]])[:, 1]
    # ell(mu) jumps by 2 across mu = 0 and nearly vanishes at the domain ends
    assert theta2[0] == pytest.approx(-1.0, abs=1e-6)
    assert theta2[1] == pytest.approx(1.0, abs=1e-6)
    assert theta2[2] == pytest.approx(-1.0, abs=1e-12)
    assert abs(theta2[3]) < 0.01


def _sign(t):
    return SIGN_AT_ZERO if t == 0 else float(np.sign(t))


#: the per-point weight formulas that the array tables replace
_SCALAR_THETA_A = {
    "oned-continuous": [lambda mu: 1.0, lambda mu: float(mu[0])],
    "oned-discontinuous": [
        lambda mu: 1.0,
        lambda mu: float(np.sin((mu[0] - _sign(mu[0])) * np.pi / 2.0))],
    "twod-first": [lambda mu: 1.0, lambda mu: float(mu[0]), lambda mu: float(mu[1])],
    "twod-second": [lambda mu: 1.0, lambda mu: float(mu[0]), lambda mu: float(mu[1])],
}


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_theta_tables_match_per_point_formulas(pid):
    # bit for bit on the paper-scale default grid plus mu = 0, where
    # oned-discontinuous takes SIGN_AT_ZERO
    spec = problem_spec(pid)
    op = assemble_affine(spec, build_discretization(8))
    grid = make_training_grid(spec.param_domain, TRAINING_GRIDS[pid][1])
    mus = np.vstack([grid, np.zeros(spec.param_dim)])
    want = np.array([[th(mu) for th in _SCALAR_THETA_A[pid]] for mu in mus])
    got = op.theta_a_values(mus)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert op.theta_f_values(mus).tobytes() == np.ones((len(mus), 1)).tobytes()


def test_theta_table_must_have_one_weight_per_component():
    # a table one weight short or long is an error, not a truncated sum
    op = AffineOperator(
        spec=ProblemSpec("toy", ((0.0, 1.0),)),
        kron_factors=[(np.eye(2), np.zeros((1, 1))), (2.0 * np.eye(2), np.zeros((1, 1)))],
        f_components=[np.ones(2)],
        theta_a=_ones,
        theta_f=_one_and_mu,
    )
    with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
        assemble(op, [0.5])
    with pytest.raises(ValueError, match=r"shape \(1, 1\)"):
        load_vector(op, [0.5])
    with pytest.raises(ValueError, match=r"shape \(3, 2\)"):
        op.theta_a_values([[0.1], [0.2], [0.3]])


# ---------------------------------------------------------------------------
# truth_solve


def test_truth_solve_residual():
    spec = problem_spec("twod-first")
    op = assemble_affine(spec, build_discretization(20))
    mu = np.array([1.0, 0.0])
    u = truth_solve(op, mu)
    A = assemble(op, mu)
    f = load_vector(op, mu)
    res = np.linalg.norm(A @ u - f)
    assert res <= 1e-9 * (np.linalg.norm(A) * np.linalg.norm(u)
                          + np.linalg.norm(f))


def test_truth_solution_symmetry_at_mu_zero():
    # at mu = 0 the operator is the Laplacian and e^{4xy} is invariant under
    # (x, y) -> (-x, -y), so the solution must share that symmetry
    spec = problem_spec("oned-continuous")
    disc = build_discretization(20)
    op = assemble_affine(spec, disc)
    u = truth_solve(op, [0.0])
    # joint sign flip reverses the interior ordering in both directions
    assert np.linalg.norm(u - u[::-1]) <= 1e-8 * np.linalg.norm(u)


def test_truth_solve_deterministic():
    op = assemble_affine(problem_spec("oned-continuous"), build_discretization(16))
    u1 = truth_solve(op, [0.4])
    u2 = truth_solve(op, [0.4])
    assert np.array_equal(u1, u2)


# ---------------------------------------------------------------------------
# Kronecker factors and truth_solve_many


@pytest.mark.parametrize("nodes", [12, 32, 50])
@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_components_match_dense_construction(pid, nodes):
    # component_products gives the bits of the two-np.kron matrix times a
    # vector and times blocks, whichever form keeps the component
    disc = build_discretization(nodes)
    op = assemble_affine(problem_spec(pid), disc)
    ref = oracles.dense_components(pid, disc)
    assert len(op.kron_factors) == len(ref)
    rng = np.random.default_rng(nodes)
    v = rng.standard_normal(op.dim)
    dense = [oracles.kron_sum(Ax, Ay) for Ax, Ay in op.kron_factors]
    for K, Rq, Aq in zip(dense, ref, op.a_components):
        assert np.array_equal(K, Rq)
        assert np.array_equal(Aq, Rq if Aq.ndim == 2 else Rq.diagonal())
    for n in (1, 2, 7, 20):
        V = rng.standard_normal((op.dim, n))
        for K, (Kv, KV) in zip(dense, op.component_products(v, V)):
            assert np.array_equal(Kv, K @ v)
            assert np.array_equal(KV, K @ V)


def test_diagonal_component_is_stored_as_its_diagonal():
    # twod-first's reaction term (-I, 0) has two diagonal factors
    op = assemble_affine(problem_spec("twod-first"), build_discretization(12))
    assert [d is None for d in op.diagonals] == [True, True, False]
    assert op.diagonals[2].nbytes == op.dim * 8
    assert np.array_equal(op.diagonals[2], -np.ones(op.dim))
    assert [Aq.shape for Aq in op.a_components] == [
        (op.dim, op.dim), (op.dim, op.dim), (op.dim,)]
    # a hand-built pair with distinct diagonals on a 3 x 2 grid
    Ax, Ay = np.diag([1.0, -2.0, 3.5]), np.diag([0.25, 7.0])
    toy = AffineOperator(spec=ProblemSpec("diag-toy", ((0.0, 1.0),)),
                         kron_factors=[(Ax, Ay)], f_components=[np.ones(6)],
                         theta_a=_ones, theta_f=_ones)
    assert toy.dim == 6 and toy.diagonals[0].shape == (6,)
    V = np.random.default_rng(3).standard_normal((6, 4))
    [(Kv, KV)] = toy.component_products(V[:, 0], V)
    K = oracles.kron_sum(Ax, Ay)
    assert np.array_equal(Kv, K @ V[:, 0]) and np.array_equal(KV, K @ V)


def _traced_peak(fn):
    """The ``tracemalloc`` peak of one call, in bytes, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_assemble_affine_allocates_no_dense_component():
    # twod-first at 50 nodes keeps its 1-D factors (nx^2 = dim doubles each
    # on a square grid), the load and the diagonal component: O(dim), not
    # dim^2 (measured 8.2 dim doubles; 2.07 dim^2 while dense components
    # were kept)
    spec = problem_spec("twod-first")
    disc = build_discretization(50)
    peak, op = _traced_peak(lambda: assemble_affine(spec, disc))
    assert peak <= 16 * op.dim * 8


def test_greedy_step_holds_one_dense_matrix():
    # a snapshot solve writes A(mu) and factors it in place; extend_basis
    # then writes the dense components in turn into one array; the stable
    # refresh multiplies no component.  Writing a dense matrix from the
    # factors also holds one (nx, ny, ny) term buffer, 0.033 dim^2 at
    # nx = ny = 30.  Measured 1.065 dim^2 for the step, set by extend_basis;
    # the snapshot solve alone peaks at 1.055 dim^2 (1.168 dim^2 for the step
    # while the finiteness check allocated an array-sized mask and the
    # writer held several block arrays).
    from rbkit.estimators import make_estimator

    op = assemble_affine(problem_spec("twod-first"), build_discretization(32))
    basis, model = empty_basis(op.dim), empty_model(3, 1)
    for mu in ([0.5, 1.5], [3.0, 0.2]):
        basis, model = extend_basis(basis, model, mu, truth_solve(op, mu), op)
    est = make_estimator("stable")
    est.refresh(op, basis, model)

    def step():
        b, m = extend_basis(basis, model, [1.7, 1.0], truth_solve(op, [1.7, 1.0]),
                            op)
        est.refresh(op, b, m)

    peak, _ = _traced_peak(step)
    nx = 30
    assert peak <= (op.dim**2 + 3 * nx**3) * 8


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
        u_lu = truth_solve(op, mu)
        assert np.linalg.norm(u - u_lu) <= 1e-12 * np.linalg.norm(u_lu)
        # normwise backward residual on the scale of the solve's rounding
        A = assemble(op, mu)
        res = np.linalg.norm(load_vector(op, mu) - A @ u)
        assert res <= 1e2 * eps * np.linalg.norm(A, 2) * np.linalg.norm(u)


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_truth_solve_many_caches_schur_forms_bit_exactly(pid, monkeypatch):
    # a 4 x 3 tensor grid (a 5-point line for the oned problems): each factor
    # takes one Schur form per value of the weights of its nonzero terms
    spec = problem_spec(pid)
    op = assemble_affine(spec, build_discretization(12))
    counts = (4, 3) if spec.param_dim == 2 else (5,)
    axes = [np.linspace(lo, hi, n)
            for (lo, hi), n in zip(spec.param_domain, counts)]
    mus = np.array(list(itertools.product(*axes)))
    per_point = np.vstack([truth_solve_many(op, mu[None]) for mu in mus])
    calls = []
    schur = sla.schur
    monkeypatch.setattr(sla, "schur",
                        lambda *a, **k: calls.append(1) or schur(*a, **k))
    U = truth_solve_many(op, mus)
    assert np.array_equal(U, per_point)
    # oned: Ay is the same matrix at every point
    assert len(calls) == (7 if spec.param_dim == 2 else 6)


def test_kron_sum_with_zero_one_by_one_factor_is_the_matrix():
    # a dense component without Kronecker structure is the pair (A, 0_{1x1})
    A = np.random.default_rng(5).standard_normal((6, 6))
    assert np.array_equal(_kron_affine_sum([1.0], [(A, np.zeros((1, 1)))]), A)


@pytest.mark.parametrize("nx, ny", [(1, 1), (3, 5), (6, 1), (7, 7)])
def test_kron_sum_matches_two_kron_construction(nx, ny):
    rng = np.random.default_rng(nx * 10 + ny)
    Ax = rng.standard_normal((nx, nx))
    Ay = rng.standard_normal((ny, ny))
    Ax[0, -1] = Ay[-1, 0] = -0.0
    A = _kron_affine_sum([1.0], [(Ax, Ay)])
    assert np.array_equal(A, oracles.kron_sum(Ax, Ay))
    assert A.flags.c_contiguous
    assert not np.any(np.signbit(A[A == 0.0]))


def _dense_affine_sum(op, mu):
    """``sum(th(mu) * A^q)`` over components from the two-``np.kron``
    construction, C-ordered."""
    return sum(th * oracles.kron_sum(Ax, Ay)
               for th, (Ax, Ay) in zip(op.theta_a_values([mu])[0], op.kron_factors))


def _assert_is_dense_affine_sum(op, mu):
    A = assemble(op, mu)
    assert np.array_equal(A, _dense_affine_sum(op, mu))
    assert A.flags.f_contiguous
    assert not np.any(np.signbit(A[A == 0.0]))


@pytest.mark.parametrize("nodes", [12, 32, 50])
@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_assemble_is_the_dense_affine_sum(pid, nodes):
    # the domain's lower corner gives twod-first a zero weight (mu2 = 0)
    spec = problem_spec(pid)
    op = assemble_affine(spec, build_discretization(nodes))
    corner = np.array([lo for lo, _ in spec.param_domain])
    for mu in [corner, *_sample_points(spec, 1, nodes)]:
        _assert_is_dense_affine_sum(op, mu)


def test_assemble_hand_built_dense_operator():
    rng = np.random.default_rng(9)
    comps = [rng.standard_normal((6, 6)) for _ in range(2)]
    comps[0][0, 1] = comps[1][0, 1] = -0.0
    op = AffineOperator(
        spec=ProblemSpec("dense-toy", ((0.0, 1.0),)),
        kron_factors=[(A, np.zeros((1, 1))) for A in comps],
        f_components=[np.ones(6)],
        theta_a=_one_and_mu,
        theta_f=_ones,
    )
    for mu in ([0.0], [0.3]):
        _assert_is_dense_affine_sum(op, mu)


@pytest.mark.parametrize("nodes", [12, 32])
@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_truth_solve_matches_lu_of_c_ordered_operator(pid, nodes):
    spec = problem_spec(pid)
    op = assemble_affine(spec, build_discretization(nodes))
    for mu in _sample_points(spec, 2, nodes):
        A = np.ascontiguousarray(_dense_affine_sum(op, mu))
        want = sla.lu_solve(sla.lu_factor(A), load_vector(op, mu))
        assert np.array_equal(truth_solve(op, mu), want)


def test_truth_solve_allocates_one_operator():
    # assemble writes A(mu) into one column-major buffer through strided
    # views, with one (nx, ny, ny) term buffer, the finiteness check reads it
    # block by block and the LU factors it in place, so the peak stays within
    # one dim x dim matrix plus 3 nx ny^2 doubles (1.1 dim^2 at nx = ny = 30).
    # Measured 1.055 dim^2 (1.168 with an array-sized mask and several block
    # arrays in the writer)
    spec = problem_spec("twod-second")
    op = assemble_affine(spec, build_discretization(32))
    mu = _sample_points(spec, 1, 4)[0]
    peak, _ = _traced_peak(lambda: truth_solve(op, mu))
    nx = ny = 30
    assert peak <= (op.dim**2 + 3 * nx * ny**2) * 8


def test_paper_scale_truth_solve_allocates_one_operator():
    # the same at 50 nodes, dim 2,304: measured 1.024 dim^2 (1.125 with an
    # array-sized mask and several block arrays in the writer)
    spec = problem_spec("twod-first")
    op = assemble_affine(spec, build_discretization(50))
    mu = _sample_points(spec, 1, 4)[0]
    peak, _ = _traced_peak(lambda: truth_solve(op, mu))
    assert peak <= 1.06 * op.dim**2 * 8


def _singular_kron_operator():
    """Kronecker sum of ``(diag(1, 2) + mu I, diag(-1, 3))``: the
    eigenvalue sums are 0 + mu, 4 + mu, 1 + mu and 5 + mu, so on [-1/2, 1] it
    is exactly singular at mu = 0 and only there."""
    pairs = [(np.diag([1.0, 2.0]), np.diag([-1.0, 3.0])),
             (np.eye(2), np.zeros((2, 2)))]
    return AffineOperator(
        spec=ProblemSpec("kron-toy", ((-0.5, 1.0),)),
        kron_factors=pairs,
        f_components=[np.array([1.0, 2.0, 3.0, 4.0])],
        theta_a=_one_and_mu,
        theta_f=_ones,
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
        basis, model = extend_basis(basis, model, mu, truth_solve(op, mu), op)
    errs = validate(basis, model, op, mus, U)
    assert np.isnan(errs[0])
    assert errs[1] == pytest.approx(
        oracles.true_error_reference(op, basis, mus[1]), rel=1e-12)
