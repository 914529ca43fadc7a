"""Tests for the three greedy objectives, their offline data, the stability
constant, the truth-space residual oracle, and the scalar cancellation demo."""

import tracemalloc

import numpy as np
import pytest

from rbkit import kernels
from rbkit.cli import build_parser
from rbkit.estimators import (
    ESTIMATOR_KINDS,
    StableEstimator,
    build_riesz_data,
    build_stable_factors,
    float_demo,
    make_estimator,
    residual_norm_oracle,
)
from rbkit.numerics import _mgs_coeffs, pivoted_qr
from rbkit.rbm import (
    empty_basis,
    greedy,
    lagrange_coefficients,
    rb_solve,
)
from rbkit.harness import (
    TRAINING_GRIDS,
    _sub_basis,
    build_problem,
    make_training_grid,
)
from rbkit.truth import (
    AffineOperator,
    ProblemSpec,
    assemble_affine,
    build_discretization,
    load_vector,
    problem_spec,
    truth_solve,
)

import oracles


def _refreshed(kind, op, basis, model=None):
    """An estimator of ``kind`` holding the offline data for ``basis``."""
    est = make_estimator(kind)
    est.refresh(op, basis, model)
    return est


def _stable_row(factors, theta_f, c):
    """``kernels.stable_values`` for one explicit coefficient row."""
    [value] = kernels.stable_values(theta_f[None], c[None], np.ones(1),
                                    factors.w_coords, factors.qtc, factors.rzt)
    return value


def _toy_operator(dim=30, Q_a=1, Q_f=1, seed=0):
    """Small synthetic affine operator with well-conditioned components."""
    rng = np.random.default_rng(seed)
    spec = ProblemSpec("toy", ((-1.0, 1.0),))
    a_components = [
        rng.standard_normal((dim, dim)) + (3.0 + q) * dim ** 0.5 * np.eye(dim)
        for q in range(Q_a)
    ]
    f_components = [rng.standard_normal(dim) for _ in range(Q_f)]
    return AffineOperator(
        spec=spec,
        kron_factors=[(A, np.zeros((1, 1))) for A in a_components],
        f_components=f_components,
        # weights mu^q for q < Q_a and 1 / (1 + q + mu^2) for q < Q_f
        theta_a=lambda m: m[:, :1] ** np.arange(Q_a),
        theta_f=lambda m: 1.0 / (1.0 + np.arange(Q_f) + m[:, :1] ** 2),
    )


@pytest.fixture(scope="module")
def oned():
    _, _, op = build_problem("oned-continuous", 24)
    return op


@pytest.fixture(scope="module")
def oned_basis(oned):
    mus = [[-0.9], [-0.6], [-0.2], [0.1], [0.45], [0.7], [0.85], [0.95]]
    return oracles.build_basis(oned, mus)


# ---------------------------------------------------------------------------
# Riesz data


def test_riesz_identity_gram_is_plain_load(oned, oned_basis):
    basis, _ = oned_basis
    C, L = build_riesz_data(oned, basis)
    assert np.array_equal(C[:, 0], oned.f_components[0])
    assert L.shape == (oned.dim, basis.size * 2)


def test_riesz_data_rejects_empty_basis(oned):
    with pytest.raises(ValueError, match="basis must be nonempty"):
        build_riesz_data(oned, empty_basis(oned))


def test_riesz_single_component_table():
    op = _toy_operator(dim=20, Q_a=1)
    basis, _ = oracles.build_basis(op, [[0.3]])
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
    basis, model = oracles.build_basis(op, mus)
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
        theta_f=lambda m: np.zeros((len(m), 1)),
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


def test_classical_rejects_bad_alpha(oned, oned_basis):
    basis, _ = oned_basis
    classical = _refreshed("classical", oned, basis)
    with pytest.raises(ValueError):
        classical.value_at(oned, [0.0], np.zeros(basis.size), 0.0)


def test_classical_clamp_only_in_cancellation_regime():
    # a residual that is exactly zero in real arithmetic: the expanded
    # quadratic evaluates to floating-point noise of either sign, and a
    # negative one gives an unresolved (NaN) value
    rng = np.random.default_rng(15)
    op = _toy_operator(dim=25, Q_a=2, seed=7)
    nan_seen = False
    for trial in range(30):
        mus = [[rng.uniform(-1, 1)], [rng.uniform(-1, 1)]]
        basis, model = oracles.build_basis(op, mus)
        classical = _refreshed("classical", op, basis, model)
        # at snapshot parameters the residual vanishes in real arithmetic,
        # leaving the expanded quadratic at floating-point noise of either
        # sign; away from them the quadratic is safely positive
        pts = np.array(mus + [[rng.uniform(-1, 1)] for _ in range(10)])
        for mu, u_hat in zip(pts, rb_solve(model, op, pts)):
            est = classical.value_at(op, mu, u_hat, 1.0)
            if np.isnan(est.value):
                nan_seen = True
                # NaN must only come when the true residual is tiny
                ref = residual_norm_oracle(op, basis, mu, u_hat)
                assert ref <= 1e-6 * np.linalg.norm(load_vector(op, mu))
        if nan_seen:
            break
    assert nan_seen, "no NaN value observed in the cancellation regime"


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
    basis, model = oracles.build_basis(oned, [[-0.7], [-0.2], [0.3], [0.8]])
    stable = _refreshed("stable", oned, basis, model)
    f_scale = np.linalg.norm(oned.f_components[0])
    U = rb_solve(model, oned, np.array(basis.sample_set))
    for mu, u_hat in zip(basis.sample_set, U):
        est = stable.value_at(oned, mu, u_hat, 1.0)
        assert est.value <= 1e-12 * f_scale


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
    r = load_vector(oned, mu) - oracles.dense_operator(oned, mu) @ (basis.xi @ u_hat)
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
    _, c_perp = _mgs_coeffs(Q, C[:, 0])
    coord_norm = np.linalg.norm(factors.w_coords[:, 0])
    c_scale = np.linalg.norm(C[:, 0])
    assert coord_norm == pytest.approx(
        np.linalg.norm(c_perp), rel=1e-10, abs=1e-9 * c_scale
    )


def test_stable_loads_outside_representer_span_match_oracle():
    # three random loads and one snapshot: f(mu_1) lies in the span of the
    # snapshot's two images, the other two load directions stick out of it,
    # so W has two columns and the stable value reads w_coords
    op = _toy_operator(dim=30, Q_a=2, Q_f=3, seed=3)
    basis, model = oracles.build_basis(op, [[0.3]])
    stable = _refreshed("stable", op, basis, model)
    assert stable.factors.w_coords.shape == (2, 3)
    rng = np.random.default_rng(20)
    for mu in np.linspace(-1.0, 1.0, 11)[:, None]:
        u_hat = rng.standard_normal(basis.size)
        ref = residual_norm_oracle(op, basis, mu, u_hat)
        assert stable.value_at(op, mu, u_hat, 1.0).value == pytest.approx(ref, rel=1e-12)


class _LoadDirectionsSeen(StableEstimator):
    """A stable estimator that records the load directions W of each refresh."""

    def __init__(self):
        super().__init__()
        self.w_rows = []

    def refresh(self, op, basis, model):
        super().refresh(op, basis, model)
        self.w_rows.append(self.factors.w_coords.shape[0])


@pytest.mark.parametrize("nodes", [16, 32])
@pytest.mark.parametrize("pid", ["oned-continuous", "oned-discontinuous",
                                 "twod-first", "twod-second"])
def test_stable_refresh_keeps_no_load_direction_on_builtin_problems(pid, nodes):
    # with one load, f(mu_1) = A(mu_1) u_1 lies in the span of the first
    # snapshot's images, so each load remainder is rounding noise (at most
    # 6e-12 of the load norm on the desk grids) and is dropped: W stays
    # empty, and the stable values do not read the Gram-Schmidt remainder's
    # last bits.  Beyond N = 16 this can end: on twod-first at 24 and 32
    # nodes the rank decision drops directions from N = 18 or 19, and one
    # load direction is kept
    _, _, op = build_problem(pid, nodes)
    train = make_training_grid(op.spec.param_domain, TRAINING_GRIDS[pid][0])
    est = _LoadDirectionsSeen()
    basis, _, _ = greedy(op, est, train, N_max=16, eps_tol=1e-14)
    assert len(est.w_rows) == basis.size
    assert est.w_rows == [0] * basis.size


#: Training grids of the oracle-tracking greedies, at 12 nodes.
_TRACKING_GRIDS = {"oned-continuous": [64], "oned-discontinuous": [64],
                   "twod-first": [12, 8], "twod-second": [10, 10]}


@pytest.mark.parametrize("pid", list(_TRACKING_GRIDS))
def test_stable_greedy_tracks_oracle_at_every_step(pid):
    # each recorded estimate, at its own mu with the leading-n basis the
    # greedy scored it on, is the truth-space residual norm to the bound of
    # the benchmark's oracle check: 1e-8 of the oracle plus 1e-11 of the
    # load norm, the oracle's own cancellation floor
    _, _, op = build_problem(pid, 12)
    train = make_training_grid(op.spec.param_domain, _TRACKING_GRIDS[pid])
    basis, model, history = greedy(op, make_estimator("stable"), train,
                                   N_max=40, eps_tol=1e-14, seed=0)
    for r in history.records[1:]:
        sub_b, sub_m = _sub_basis(basis, model, r.n)
        ref = residual_norm_oracle(op, sub_b, r.mu, rb_solve(sub_m, op, r.mu))
        load = np.linalg.norm(load_vector(op, r.mu))
        assert abs(r.estimate - ref) <= 1e-8 * ref + 1e-11 * load, r.n


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
    [v3] = kernels.lebesgue_values(u_hat[None], rs)
    [v3s] = kernels.lebesgue_values(s * u_hat[None], s * rs)
    assert v3s == pytest.approx(v3, rel=1e-12)


# ---------------------------------------------------------------------------
# Lebesgue indicator


def test_lebesgue_trivial_values():
    # with an identity change of basis the Lagrange coefficients are u itself
    def value(u):
        [v] = kernels.lebesgue_values(u[None], np.eye(u.size))
        return v

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
# stability constant


def test_coercivity_unit_mode(oned):
    # every kind takes the stability constant 1 at every point
    points = np.array([[0.4], [-0.2], [0.0]])
    for kind in ESTIMATOR_KINDS:
        alpha = make_estimator(kind).alpha_values(oned, points)
        assert alpha.dtype == float
        assert np.array_equal(alpha, np.ones(3))


# ---------------------------------------------------------------------------
# residual oracle


def test_oracle_zero_for_truth_solution(oned):
    mu = [0.3]
    u = truth_solve(oned, mu)
    basis = empty_basis(oned)
    basis.xi = (u / np.linalg.norm(u))[:, None]
    ref = residual_norm_oracle(oned, basis, mu, np.array([np.linalg.norm(u)]))
    assert ref <= 1e-12 * np.linalg.norm(load_vector(oned, mu)) * 1e3


def test_oracle_full_load_for_zero_coefficients(oned, oned_basis):
    basis, _ = oned_basis
    mu = [0.6]
    ref = residual_norm_oracle(oned, basis, mu, np.zeros(basis.size))
    assert ref == pytest.approx(np.linalg.norm(load_vector(oned, mu)), rel=1e-12)


@pytest.mark.parametrize("pid", ["oned-continuous", "oned-discontinuous",
                                 "twod-first", "twod-second"])
def test_oracle_matches_dense_operator(pid):
    # the Kronecker form against f - A u with A summed from the full-grid
    # dense components: each side's rounding is at most (nx + ny + Q_a) eps
    # times |f| + sum_q |theta_q| |A^q| |u|, entry by entry
    _, disc, op = build_problem(pid, 12)
    components = oracles.dense_components(pid, disc)
    rng = np.random.default_rng(3)
    basis = empty_basis(op)
    basis.xi = np.linalg.qr(rng.standard_normal((op.dim, 4)))[0]
    nx = disc.nodes_per_dim - 2
    lo, hi = np.array(op.spec.param_domain).T
    for mu in lo + (hi - lo) * rng.random((6, len(lo))):
        u_hat = rng.standard_normal(4)
        u = basis.xi @ u_hat
        theta = op.theta_a_values([mu])[0]
        f = load_vector(op, mu)
        A = sum(t * Aq for t, Aq in zip(theta, components))
        ref = np.linalg.norm(f - A @ u)
        absA = sum(abs(t) * np.abs(Aq) for t, Aq in zip(theta, components))
        scale = np.abs(f) + absA @ np.abs(u)
        bound = 2 * (2 * nx + len(theta)) * np.finfo(float).eps * np.linalg.norm(scale)
        assert abs(residual_norm_oracle(op, basis, mu, u_hat) - ref) <= bound


def test_oracle_forms_no_dense_matrix():
    # at 50 nodes a dense A(mu) would take 42.5 MB; the Kronecker form reads
    # only the 48 x 48 factors and dim vectors
    _, _, op = build_problem("twod-first", 50)
    basis = empty_basis(op)
    basis.xi = np.random.default_rng(0).standard_normal((op.dim, 3))
    tracemalloc.start()
    try:
        residual_norm_oracle(op, basis, [1.0, 0.5], np.ones(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# ---------------------------------------------------------------------------
# float demo


def test_float_demo_small_n_agreement():
    rows = float_demo()[:6]
    for _, max_stable, max_expanded in rows:
        assert max_expanded == pytest.approx(max_stable, rel=1e-8)


def test_float_demo_stagnation():
    rows = float_demo()[20:]
    mu_max = 1000.0 / 1001.0
    for n, max_stable, max_expanded in rows:
        assert 4.0 ** (-n) <= 1e-12
        assert max_stable == pytest.approx(mu_max * 4.0 ** (-n), rel=1e-3)
        assert 1e-9 <= max_expanded <= 1e-7


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
        values = est.sweep(model, ta, tf, np.ones(train.shape[0]))
        for mu, u_hat, value in zip(train, U, values):
            point = est.value_at(oned, mu, u_hat, 1.0)
            assert np.array_equal(point.value, value, equal_nan=True), kind


def _kernel_calls(kind, est, model, ta, tf, alpha, u):
    """The ``kernels`` formula and sweep of an estimator of ``kind``, each
    called on the offline data of its last refresh."""
    c = kernels.residual_coefficients(ta, u)
    blocks = (model.a_blocks, model.f_blocks)
    if kind == "classical":
        return (kernels.classical_values(tf, c, alpha, *est.tables),
                kernels.classical_sweep(ta, tf, alpha, *blocks, *est.tables))
    if kind == "stable":
        online = (est.factors.w_coords, est.factors.qtc, est.factors.rzt)
        return (kernels.stable_values(tf, c, alpha, *online),
                kernels.stable_sweep(ta, tf, alpha, *blocks, *online))
    return (kernels.lebesgue_values(u, est.chol_coeffs),
            kernels.lebesgue_sweep(ta, tf, *blocks, est.chol_coeffs))


@pytest.mark.parametrize("kind", ["classical", "stable", "lebesgue"])
def test_every_formula_and_sweep_returns_one_float_array(oned, oned_basis, kind):
    # the one indicator contract: each formula and sweep returns one (M,)
    # float64 array, NaN nowhere but in the classical quadratic, and
    # value_at at rb_solve's solution is the one-row sweep, NaN where NaN;
    # the snapshot parameters, where the residual is rounding noise, are
    # among the points
    basis, model = oned_basis
    est = _refreshed(kind, oned, basis, model)
    train = np.vstack([np.linspace(-0.995, 0.995, 33)[:, None], basis.sample_set])
    ta, tf = oned.theta_a_values(train), oned.theta_f_values(train)
    alpha = np.ones(train.shape[0])
    u = rb_solve(model, oned, train)
    results = _kernel_calls(kind, est, model, ta, tf, alpha, u)
    for values in results + (est.sweep(model, ta, tf, alpha),):
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.shape == (train.shape[0],)
        assert kind == "classical" or not np.isnan(values).any()
    for i, mu in enumerate(train):
        point = est.value_at(oned, mu, u[i], 1.0)
        [value] = est.sweep(model, ta[i:i + 1], tf[i:i + 1], alpha[i:i + 1])
        assert np.array_equal(point.value, value, equal_nan=True), mu


def test_classical_greedy_tables_match_fresh_refresh(oned):
    # a refresh reads nothing of the earlier ones: the tables the greedy ends
    # with are the bits of one refresh on the returned basis
    train = np.linspace(-0.995, 0.995, 41)[:, None]
    est = make_estimator("classical")
    basis, model, _ = greedy(oned, est, train, N_max=10, eps_tol=1e-14)
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
    values = est.sweep(
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
    # a list, None or a number is an unknown kind too, not a lookup error
    for kind in ("nope", [], None, 1):
        with pytest.raises(ValueError, match="unknown estimator kind"):
            make_estimator(kind)


def test_estimator_kinds_agree_with_cli_and_factory(capsys):
    # each kind is named once, by its class; the CLI choices and the factory
    # derive from that name
    assert ESTIMATOR_KINDS == ("classical", "stable", "lebesgue")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--help"])
    assert "--estimator {classical,stable,lebesgue}" in capsys.readouterr().out
    for kind in ESTIMATOR_KINDS:
        assert make_estimator(kind).kind == kind

