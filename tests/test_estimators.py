"""Tests for the three greedy objectives, their offline data, the coercivity
plug-in, the truth-space residual oracle, and the scalar cancellation demo."""

import numpy as np
import pytest

from rbkit import kernels
from rbkit.cli import build_parser
from rbkit.estimators import (
    ALPHA_FLOOR,
    ESTIMATOR_KINDS,
    ClassicalEstimator,
    build_riesz_data,
    build_stable_factors,
    coercivity_lower_bound,
    float_demo,
    make_estimator,
    residual_norm_oracle,
)
from rbkit.numerics import complement_project, pivoted_qr
from rbkit.rbm import (
    GreedyConfig,
    empty_basis,
    empty_model,
    extend_basis,
    greedy,
    lagrange_coefficients,
    rb_solve,
)
from rbkit.harness import build_problem
from rbkit.truth import (
    AffineOperator,
    ProblemSpec,
    assemble,
    assemble_affine,
    build_discretization,
    load_vector,
    problem_spec,
    truth_solve,
)

import oracles


def _build_basis(op, mus):
    basis = empty_basis(op.dim)
    model = empty_model(len(op.kron_factors), len(op.f_components))
    for mu in mus:
        basis, model = extend_basis(basis, model, truth_solve(op, mu), op)
    return basis, model


def _refreshed(kind, op, basis, model=None):
    """An estimator of ``kind`` holding the offline data for ``basis``."""
    est = make_estimator(kind)
    est.refresh(op, basis, model)
    return est


def _stable_row(factors, theta_f, c):
    """``kernels.stable_values`` for one explicit coefficient row."""
    return kernels.stable_values(theta_f[None], c[None], np.ones(1),
                                 factors.w_coords, factors.qtc, factors.rzt)[0]


def _toy_operator(dim=30, Q_a=1, Q_f=1, seed=0):
    """Small synthetic affine operator with well-conditioned components."""
    rng = np.random.default_rng(seed)
    spec = ProblemSpec("toy", ((-1.0, 1.0),))
    a_components = [
        rng.standard_normal((dim, dim)) + (3.0 + q) * dim ** 0.5 * np.eye(dim)
        for q in range(Q_a)
    ]
    f_components = [rng.standard_normal(dim) for _ in range(Q_f)]
    theta_a = [lambda mu: 1.0] + [
        (lambda k: (lambda mu: float(mu[0]) ** k))(q) for q in range(1, Q_a)
    ]
    theta_f = [(lambda k: (lambda mu: 1.0 / (1.0 + k + float(mu[0]) ** 2)))(q)
               for q in range(Q_f)]
    return AffineOperator(
        spec=spec,
        kron_factors=[(A, np.zeros((1, 1))) for A in a_components],
        f_components=f_components,
        theta_a=theta_a,
        theta_f=theta_f,
    )


@pytest.fixture(scope="module")
def oned():
    _, _, op = build_problem("oned-continuous", 24)
    return op


@pytest.fixture(scope="module")
def oned_basis(oned):
    mus = [[-0.9], [-0.6], [-0.2], [0.1], [0.45], [0.7], [0.85], [0.95]]
    return _build_basis(oned, mus)


# ---------------------------------------------------------------------------
# Riesz data


def test_riesz_identity_gram_is_plain_load(oned, oned_basis):
    basis, _ = oned_basis
    C, L = build_riesz_data(oned, basis)
    assert np.array_equal(C[:, 0], oned.f_components[0])
    assert L.shape == (oned.dim, basis.size * 2)


def test_riesz_single_component_table():
    op = _toy_operator(dim=20, Q_a=1)
    basis, _ = _build_basis(op, [[0.3]])
    _, _, ll = _refreshed("classical", op, basis).tables
    L1 = op.a_components[0] @ basis.xi[:, 0]
    assert ll.shape == (1, 1)
    assert ll[0, 0] == pytest.approx(np.linalg.norm(L1) ** 2, rel=1e-13)


def test_riesz_tables_match_direct_recomputation(oned, oned_basis):
    basis, _ = oned_basis
    C, L = build_riesz_data(oned, basis)
    cc, cl, ll = _refreshed("classical", oned, basis).tables
    assert np.allclose(cc, C.T @ C, atol=1e-13)
    assert np.allclose(cl, C.T @ L, atol=1e-13)
    assert np.allclose(ll, L.T @ L, atol=1e-13)
    # column m*Q_a + q carries a^q(xi_m, .)
    for m in [0, 3]:
        for q in range(2):
            want = oned.a_components[q] @ basis.xi[:, m]
            assert np.array_equal(L[:, m * 2 + q], want)


def test_diagonal_component_gives_the_dense_bits():
    # twod-first's reaction term is kept as its diagonal and no dense
    # component stays in memory; the reduced blocks and Riesz columns equal
    # the products of the dense oracle matrices, in the layouts the greedy
    # multiplies (each new vector on its own, the basis as a stacked block)
    _, _, op = build_problem("twod-first", 16)
    assert op.diagonals[2] is not None
    mus = [[0.5, 1.5], [3.0, 0.2], [1.7, 1.0], [0.1, 2.0]]
    basis, model = _build_basis(op, mus)
    dense = [oracles.kron_sum(Ax, Ay) for Ax, Ay in op.kron_factors]
    L = []
    for n in range(basis.size):
        xi_n = basis.xi[:, n].copy()
        before = np.ascontiguousarray(basis.xi[:, :n])
        upto = np.ascontiguousarray(basis.xi[:, :n + 1])
        for q, K in enumerate(dense):
            L.append(K @ xi_n)
            assert np.array_equal(model.a_blocks[q, :n + 1, n], upto.T @ L[-1])
            assert np.array_equal(model.a_blocks[q, n, :n], xi_n @ (K @ before))
    L = np.column_stack(L)
    assert np.array_equal(build_riesz_data(op, basis)[1], L)
    assert np.array_equal(_refreshed("classical", op, basis).tables[2], L.T @ L)


# ---------------------------------------------------------------------------
# classical estimator


def test_classical_zero_load_zero_solution(oned, oned_basis):
    basis, _ = oned_basis
    op0 = AffineOperator(
        spec=oned.spec,
        kron_factors=oned.kron_factors,
        f_components=[np.zeros(oned.dim)],
        theta_a=oned.theta_a,
        theta_f=[lambda mu: 0.0],
    )
    est = _refreshed("classical", op0, basis)
    assert est.value_at(op0, [0.3], np.zeros(basis.size), 1.0).value == 0.0


def test_classical_matches_oracle_above_floor(oned, oned_basis):
    basis, _ = oned_basis
    classical = _refreshed("classical", oned, basis)
    rng = np.random.default_rng(14)
    f_scale = np.linalg.norm(oned.f_components[0])
    for _ in range(20):
        mu = [rng.uniform(-0.995, 0.995)]
        u_hat = rng.standard_normal(basis.size)
        ref = residual_norm_oracle(oned, basis, mu, u_hat)
        assert ref >= 1e-4 * f_scale  # random coefficients sit far from the floor
        est = classical.value_at(oned, mu, u_hat, 1.0)
        assert est.value == pytest.approx(ref, rel=1e-8)
        assert not est.clamped


def test_classical_rejects_bad_alpha(oned, oned_basis):
    basis, _ = oned_basis
    classical = _refreshed("classical", oned, basis)
    with pytest.raises(ValueError):
        classical.value_at(oned, [0.0], np.zeros(basis.size), 0.0)


def test_classical_clamp_only_in_cancellation_regime():
    # a residual that is exactly zero in real arithmetic: the expanded
    # quadratic evaluates to floating-point noise of either sign
    rng = np.random.default_rng(15)
    op = _toy_operator(dim=25, Q_a=2, seed=7)
    clamp_seen = False
    for trial in range(30):
        mus = [[rng.uniform(-1, 1)], [rng.uniform(-1, 1)]]
        basis, model = _build_basis(op, mus)
        classical = _refreshed("classical", op, basis, model)
        # at snapshot parameters the residual vanishes in real arithmetic,
        # leaving the expanded quadratic at floating-point noise of either
        # sign; away from them the quadratic is safely positive
        pts = np.array(mus + [[rng.uniform(-1, 1)] for _ in range(10)])
        for mu, u_hat in zip(pts, rb_solve(model, op, pts)):
            est = classical.value_at(op, mu, u_hat, 1.0)
            if est.clamped:
                clamp_seen = True
                # clamps must only happen when the true residual is tiny
                ref = residual_norm_oracle(op, basis, mu, u_hat)
                assert ref <= 1e-6 * np.linalg.norm(load_vector(op, mu))
        if clamp_seen:
            break
    assert clamp_seen, "no clamp event observed in the cancellation regime"


# ---------------------------------------------------------------------------
# stable estimator


def test_stable_empty_basis_reduces_to_load_norm():
    rng = np.random.default_rng(16)
    C = rng.standard_normal((40, 1))
    factors = build_stable_factors(np.zeros((40, 0)), C)
    value = _stable_row(factors, np.array([1.0]), np.zeros(0))
    assert value == pytest.approx(np.linalg.norm(C[:, 0]), rel=1e-12)


def test_stable_zero_coefficients_full_load(oned, oned_basis):
    basis, _ = oned_basis
    stable = _refreshed("stable", oned, basis)
    est = stable.value_at(oned, [0.3], np.zeros(basis.size), 1.0)
    assert est.value == pytest.approx(np.linalg.norm(oned.f_components[0]), rel=1e-10)


def test_stable_matches_oracle_random_pairs(oned, oned_basis):
    basis, _ = oned_basis
    stable = _refreshed("stable", oned, basis)
    rng = np.random.default_rng(17)
    for _ in range(20):
        mu = [rng.uniform(-0.995, 0.995)]
        u_hat = rng.standard_normal(basis.size)
        ref = residual_norm_oracle(oned, basis, mu, u_hat)
        est = stable.value_at(oned, mu, u_hat, 1.0)
        if ref >= 1e-8:
            assert est.value == pytest.approx(ref, rel=1e-10)
        else:
            assert est.value == pytest.approx(ref, abs=1e-13)


def test_stable_at_snapshot_parameters_no_floor(oned):
    basis, model = _build_basis(oned, [[-0.7], [-0.2], [0.3], [0.8]])
    stable = _refreshed("stable", oned, basis, model)
    f_scale = np.linalg.norm(oned.f_components[0])
    U = rb_solve(model, oned, np.array(basis.sample_set))
    for mu, u_hat in zip(basis.sample_set, U):
        est = stable.value_at(oned, mu, u_hat, 1.0)
        assert est.value <= 1e-12 * f_scale
        assert not est.clamped


def test_stable_pythagorean_split_against_truth_space(oned, oned_basis):
    basis, _ = oned_basis
    stable = _refreshed("stable", oned, basis)
    factors = stable.factors
    rng = np.random.default_rng(18)
    mu = [0.41]
    u_hat = rng.standard_normal(basis.size)
    value = stable.value_at(oned, mu, u_hat, 1.0).value
    theta_f = oned.theta_f_values([mu])[0]
    c = np.outer(u_hat, oned.theta_a_values([mu])[0]).ravel()
    term_perp = np.linalg.norm(factors.w_coords @ theta_f)
    term_par = np.linalg.norm(factors.qtc @ theta_f - factors.rzt @ c)
    r = load_vector(oned, mu) - assemble(oned, mu) @ (basis.xi @ u_hat)
    Q = pivoted_qr(build_riesz_data(oned, basis)[1])[0]
    r_par = Q @ (Q.T @ r)
    r_perp = r - r_par
    assert value**2 == pytest.approx(term_perp**2 + term_par**2, rel=1e-12)
    # the two terms match the truth-space projection split up to projection
    # noise at the level of the residual norm
    r_scale = np.linalg.norm(r)
    assert term_par == pytest.approx(np.linalg.norm(r_par), rel=1e-10)
    assert term_perp == pytest.approx(
        np.linalg.norm(r_perp), rel=1e-10, abs=1e-9 * r_scale
    )


def test_stable_isometry_steps(oned, oned_basis):
    basis, _ = oned_basis
    C, L = build_riesz_data(oned, basis)
    factors = build_stable_factors(L, C)
    Q = pivoted_qr(L)[0]
    rng = np.random.default_rng(19)
    v = rng.standard_normal(oned.dim)
    # projection onto range(Q) preserves the norm of the projected part
    p_v = Q @ (Q.T @ v)
    assert np.linalg.norm(Q.T @ v) == pytest.approx(
        np.linalg.norm(p_v), rel=1e-12
    )
    # the complement parts of the load representers are isometrically
    # represented by their coordinates
    c_perp = complement_project(Q, C[:, 0])
    coord_norm = np.linalg.norm(factors.w_coords[:, 0])
    c_scale = np.linalg.norm(C[:, 0])
    assert coord_norm == pytest.approx(
        np.linalg.norm(c_perp), rel=1e-10, abs=1e-9 * c_scale
    )


def test_stable_rank_deficiency_duplicate_columns(oned, oned_basis):
    # duplicating a snapshot's Riesz columns (and splitting its coefficient
    # weight) must not change the estimate, while the rank drops below the
    # column count
    basis, model = oned_basis
    C, L = build_riesz_data(oned, basis)
    N, Qa = basis.size, 2
    clean = build_stable_factors(L, C)
    dup_cols = L[:, (N - 1) * Qa:]
    L_dup = np.column_stack([L, dup_cols])
    dup = build_stable_factors(L_dup, C)
    assert dup.rank < L_dup.shape[1]
    assert dup.rank == oracles.svd_rank(L_dup)
    rng = np.random.default_rng(20)
    theta_a = oned.theta_a_values([[0.27]])[0]
    theta_f = oned.theta_f_values([[0.27]])[0]
    for _ in range(5):
        u_hat = rng.standard_normal(N)
        c = np.outer(u_hat, theta_a).ravel()
        split = rng.uniform(0.1, 0.9)
        c_dup = np.concatenate([c, split * c[(N - 1) * Qa:]])
        c_dup[(N - 1) * Qa:N * Qa] *= 1.0 - split
        v_clean = _stable_row(clean, theta_f, c)
        v_dup = _stable_row(dup, theta_f, c_dup)
        assert v_dup == pytest.approx(v_clean, rel=1e-12)


def test_stable_refresh_matches_factors_from_full_riesz_data(oned, oned_basis):
    # one estimator refreshed on each leading sub-basis in turn, as the greedy
    # and the field files do; its factors must equal those built from scratch
    # from the sub-basis's representers
    basis, model = oned_basis
    from rbkit.harness import _sub_basis

    stable = make_estimator("stable")
    for k in range(1, basis.size + 1):
        sub_b, sub_m = _sub_basis(basis, model, k)
        stable.refresh(oned, sub_b, sub_m)
        C, L = build_riesz_data(oned, sub_b)
        full = build_stable_factors(L, C)
        for name in ("w_coords", "qtc", "rzt"):
            assert np.array_equal(getattr(stable.factors, name),
                                  getattr(full, name)), (k, name)
        assert stable.factors.rank == full.rank


def test_stable_all_loads_in_range_gives_empty_complement():
    rng = np.random.default_rng(21)
    L = rng.standard_normal((30, 6))
    C = L @ rng.standard_normal((6, 2))  # loads inside range(L)
    factors = build_stable_factors(L, C)
    assert np.allclose(factors.w_coords, 0.0)


def test_stable_online_data_is_small(oned, oned_basis):
    basis, _ = oned_basis
    factors = _refreshed("stable", oned, basis).factors
    N, Qa, Qf = basis.size, 2, 1
    assert factors.w_coords.shape[0] <= Qf
    assert factors.qtc.shape == (factors.rank, Qf)
    assert factors.rzt.shape == (factors.rank, N * Qa)


# ---------------------------------------------------------------------------
# equivalence and scaling properties


def test_classical_stable_agree_above_floor(oned, oned_basis):
    basis, _ = oned_basis
    classical = _refreshed("classical", oned, basis)
    stable = _refreshed("stable", oned, basis)
    rng = np.random.default_rng(22)
    for _ in range(20):
        mu = [rng.uniform(-0.995, 0.995)]
        u_hat = rng.standard_normal(basis.size)
        v1 = classical.value_at(oned, mu, u_hat, 1.0).value
        v2 = stable.value_at(oned, mu, u_hat, 1.0).value
        # both values are far above the cancellation floor here
        assert v2 >= 1e-2
        assert v1 == pytest.approx(v2, rel=1e-8)


def test_scale_equivariance(oned, oned_basis):
    basis, model = oned_basis
    s = 37.5
    op_s = AffineOperator(
        spec=oned.spec,
        kron_factors=oned.kron_factors,
        f_components=[s * fq for fq in oned.f_components],
        theta_a=oned.theta_a,
        theta_f=oned.theta_f,
    )
    rng = np.random.default_rng(23)
    mu = [0.52]
    u_hat = rng.standard_normal(basis.size)
    for kind in ("classical", "stable"):
        v = _refreshed(kind, oned, basis).value_at(oned, mu, u_hat, 1.0).value
        vs = _refreshed(kind, op_s, basis).value_at(op_s, mu, s * u_hat, 1.0).value
        assert vs == pytest.approx(s * v, rel=1e-12), kind
    # the Lebesgue indicator sees the jointly scaled solution and snapshots
    # (u_hat and R both times s) as unchanged
    rs = basis.chol_coeffs
    v3 = kernels.lebesgue_values(u_hat[None], rs)[0]
    v3s = kernels.lebesgue_values(s * u_hat[None], s * rs)[0]
    assert v3s == pytest.approx(v3, rel=1e-12)


# ---------------------------------------------------------------------------
# Lebesgue indicator


def test_lebesgue_trivial_values():
    # with an identity change of basis the Lagrange coefficients are u itself
    def value(u):
        return kernels.lebesgue_values(u[None], np.eye(u.size))[0]

    assert value(np.eye(4)[:, 2]) == 1.0
    assert value(np.zeros(3)) == 0.0
    assert value(np.array([0.5, -0.5, 2.0])) == 3.0


def test_lebesgue_is_one_at_snapshots(oned, oned_basis):
    basis, model = oned_basis
    lebesgue = _refreshed("lebesgue", oned, basis, model)
    U = rb_solve(model, oned, np.array(basis.sample_set))
    for mu, u_hat in zip(basis.sample_set, U):
        est = lebesgue.value_at(oned, mu, u_hat, 1.0)
        assert est.value == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# coercivity lower bound


def test_coercivity_unit_mode(oned):
    # the unit mode takes 1 at every point and computes no bound
    est = make_estimator("stable")
    assert np.array_equal(est.alpha_values(oned, np.array([[0.4], [-0.2]])), [1.0, 1.0])


def test_coercivity_exact_eig_identity_operator():
    spec = ProblemSpec("toy", ((-1.0, 1.0),))
    op = AffineOperator(
        spec=spec,
        kron_factors=[(np.eye(8), np.zeros((1, 1)))],
        f_components=[np.ones(8)],
        theta_a=[lambda mu: 1.0],
        theta_f=[lambda mu: 1.0],
    )
    assert coercivity_lower_bound(op, [0.0]) == pytest.approx(1.0)


def test_coercivity_floor_and_flag():
    spec = ProblemSpec("toy", ((-1.0, 1.0),))
    op = AffineOperator(
        spec=spec,
        kron_factors=[(-np.eye(5), np.zeros((1, 1)))],
        f_components=[np.ones(5)],
        theta_a=[lambda mu: 1.0],
        theta_f=[lambda mu: 1.0],
    )
    # a degenerate bound is the floor itself
    assert coercivity_lower_bound(op, [0.0]) == ALPHA_FLOOR == 1e-12


def test_coercivity_smaller_toward_degenerate_corner():
    # the stability constant is that of the coercive orientation of the
    # operator (the equation multiplied by -1); as assembled, the symmetrized
    # collocation matrix is negative and the bound floors
    _, _, op = build_problem("twod-second", 12)
    assert coercivity_lower_bound(op, [0.0, 0.0]) == ALPHA_FLOOR
    op_c = AffineOperator(
        spec=op.spec,
        kron_factors=[(-Ax, -Ay) for Ax, Ay in op.kron_factors],
        f_components=[-fq for fq in op.f_components],
        theta_a=op.theta_a,
        theta_f=op.theta_f,
    )
    corner = coercivity_lower_bound(op_c, [0.99, 0.99])
    center = coercivity_lower_bound(op_c, [0.0, 0.0])
    assert 0.0 < corner < center
    # cross-check both points with the eigenvalue bisection oracle
    for mu, got in [([0.99, 0.99], corner), ([0.0, 0.0], center)]:
        ref = oracles.smallest_eig_bisection(assemble(op_c, mu))
        assert got == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_coercivity_unknown_mode(oned):
    # the estimator owns the mode, and rejects an unknown one when built
    with pytest.raises(ValueError, match="alpha mode"):
        ClassicalEstimator("nope")


# ---------------------------------------------------------------------------
# residual oracle


def test_oracle_zero_for_truth_solution(oned):
    mu = [0.3]
    u = truth_solve(oned, mu).values
    basis = empty_basis(oned.dim)
    basis.xi = (u / np.linalg.norm(u))[:, None]
    ref = residual_norm_oracle(oned, basis, mu, np.array([np.linalg.norm(u)]))
    assert ref <= 1e-12 * np.linalg.norm(load_vector(oned, mu)) * 1e3


def test_oracle_full_load_for_zero_coefficients(oned, oned_basis):
    basis, _ = oned_basis
    mu = [0.6]
    ref = residual_norm_oracle(oned, basis, mu, np.zeros(basis.size))
    assert ref == pytest.approx(np.linalg.norm(load_vector(oned, mu)), rel=1e-12)


# ---------------------------------------------------------------------------
# float demo


def test_float_demo_small_n_agreement():
    rows = float_demo(range(1, 7), mu_samples=200, seed=0)
    for _, max_stable, max_expanded in rows:
        assert max_expanded == pytest.approx(max_stable, rel=1e-8)


def test_float_demo_stagnation():
    rows = float_demo(range(21, 27), mu_samples=1000, seed=0)
    mu_max = 1000.0 / 1001.0
    for n, max_stable, max_expanded in rows:
        assert 4.0 ** (-n) <= 1e-12
        assert max_stable == pytest.approx(mu_max * 4.0 ** (-n), rel=1e-3)
        assert 1e-9 <= max_expanded <= 1e-7


def test_float_demo_rejects_empty_samples():
    with pytest.raises(ValueError):
        float_demo([1], mu_samples=0)


# ---------------------------------------------------------------------------
# greedy-facing drivers


def test_sweep_values_match_pointwise_estimates(oned, oned_basis):
    # value_at evaluates the sweep's own formula, and rb_solve is the sweep's
    # reduced solve: value_at at rb_solve's solution is the sweep's value
    basis, model = oned_basis
    train = np.linspace(-0.995, 0.995, 33)[:, None]
    ta, tf = oned.theta_a_values(train), oned.theta_f_values(train)
    U = rb_solve(model, oned, train)
    assert np.array_equal(U, kernels.reduced_solve(ta, tf, model.a_blocks,
                                                   model.f_blocks))
    for kind in ("classical", "stable", "lebesgue"):
        est = _refreshed(kind, oned, basis, model)
        values, clamped = est.sweep(model, ta, tf, np.ones(train.shape[0]))
        for mu, u_hat, value, flag in zip(train, U, values, clamped):
            point = est.value_at(oned, mu, u_hat, 1.0)
            assert point.value == value, kind
            assert point.clamped == flag, kind


def test_classical_greedy_tables_match_fresh_refresh(oned):
    # a refresh reads nothing of the earlier ones: the tables the greedy ends
    # with are the bits of one refresh on the returned basis
    train = np.linspace(-0.995, 0.995, 41)[:, None]
    cfg = GreedyConfig(training_set=train, N_max=10, eps_tol=1e-14)
    basis, model, _, est = greedy(cfg, oned, make_estimator("classical"))
    assert basis.size == 10
    fresh = _refreshed("classical", oned, basis, model)
    for name, got, want in zip(("cc", "cl", "ll"), est.tables, fresh.tables):
        assert np.array_equal(got, want), name


def test_lebesgue_sweep_matches_pointwise(oned, oned_basis):
    # the sweep's value is sum |c_n|, added in column order, of the Lagrange
    # coefficients of rb_solve's solution
    basis, model = oned_basis
    train = np.linspace(-0.995, 0.995, 17)[:, None]
    est = _refreshed("lebesgue", oned, basis, model)
    values, _ = est.sweep(
        model, oned.theta_a_values(train), oned.theta_f_values(train),
        np.ones(train.shape[0]),
    )
    coeffs = lagrange_coefficients(basis, rb_solve(model, oned, train))
    for c, value in zip(coeffs, values):
        acc = 0.0
        for v in c:
            acc += abs(v)
        assert acc == value


def test_make_estimator_unknown_kind():
    with pytest.raises(ValueError):
        make_estimator("nope")


def test_estimator_kinds_agree_with_cli_and_factory(capsys):
    # each kind is named once, by its class; the CLI choices and the factory
    # derive from that name
    assert ESTIMATOR_KINDS == ("classical", "stable", "lebesgue")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--help"])
    assert "--estimator {classical,stable,lebesgue}" in capsys.readouterr().out
    for kind in ESTIMATOR_KINDS:
        assert make_estimator(kind).kind == kind


@pytest.mark.parametrize("kind", ["classical", "stable", "lebesgue"])
def test_make_estimator_unknown_alpha_mode(kind):
    with pytest.raises(ValueError, match="alpha mode"):
        make_estimator(kind, alpha_mode="bogus")
