"""End-to-end acceptance tests.

Each test prints one PASS/FAIL line with the measured quantities so the suite
doubles as a summary report.  Expensive greedy runs are shared through
module-scoped fixtures.
"""

import time
import warnings

import numpy as np
import pytest

from rbkit import kernels
from rbkit.estimators import (
    build_riesz_data,
    build_stable_factors,
    float_demo,
    make_estimator,
    residual_norm_oracle,
)
from rbkit.harness import (
    ExperimentConfig,
    _sub_basis,
    build_problem,
    make_training_grid,
    run_experiment,
    validate,
)
from rbkit.rbm import (
    extend_basis,
    greedy,
    lagrange_coefficients,
    rb_solve,
)
from rbkit.truth import truth_solve, truth_solve_many

import oracles


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def _greedy_run(problem, nodes, training_counts, kind, N_max,
                eps_tol=1e-16, seed=0):
    spec, _, op = build_problem(problem, nodes)
    train = make_training_grid(spec.param_domain, training_counts)
    est = make_estimator(kind)
    basis, model, history = greedy(op, est, train, N_max=N_max, eps_tol=eps_tol,
                                   seed=seed)
    return op, train, basis, model, history


@pytest.fixture(scope="module")
def oned32_stable():
    return _greedy_run("oned-continuous", 32, [128], "stable", 30)


@pytest.fixture(scope="module")
def oned32_classical():
    return _greedy_run("oned-continuous", 32, [128], "classical", 30)


@pytest.fixture(scope="module")
def problem_bases_n10():
    """Greedy stable bases at N = 10 on all four problems."""
    grids = {
        "oned-continuous": [128],
        "oned-discontinuous": [128],
        "twod-first": [33, 17],
        "twod-second": [25, 25],
    }
    out = {}
    for pid, counts in grids.items():
        out[pid] = _greedy_run(pid, 32, counts, "stable", 10)
    return out


def test_criterion_1_float_demo_stagnation():
    t0 = time.perf_counter()
    rows = float_demo(range(1, 27), mu_samples=1000, seed=0)
    elapsed = time.perf_counter() - t0
    mu_max = 1000.0 / 1001.0
    ok = elapsed < 1.0
    worst = None
    for n, max_stable, max_expanded in rows:
        if 4.0 ** (-n) > 1e-12:
            continue
        in_band = 1e-9 <= max_expanded <= 1e-7
        tracks = abs(max_stable - mu_max * 4.0 ** (-n)) <= 1e-3 * mu_max * 4.0 ** (-n)
        if not (in_band and tracks):
            ok = False
            worst = (n, max_stable, max_expanded)
    _report(1, ok, f"expanded max stays in [1e-9,1e-7] past the cancellation "
                   f"point, stable max tracks mu*4^-N ({elapsed:.2f} s)"
                   + (f"; first violation {worst}" if worst else ""))
    assert ok


def _classical_rounding_bound(tables, op, mu, u_hat, value):
    """Relative rounding bound gamma * S / (2 v^2) of the classical estimate.

    The expanded quadratic sums terms whose absolute values add up to
    S = |th_f|'|cc||th_f| + |c|'|ll||c| + 2 |th_f|'|cl||c|, so it carries a
    rounding error of up to gamma * S with gamma = (N Q_a + Q_f) eps; its
    square root v is then resolved to a relative gamma * S / (2 v^2).
    """
    cc, cl, ll = tables
    theta_f = np.abs(op.theta_f_values([mu])[0])
    c = np.abs(np.outer(u_hat, op.theta_a_values([mu])[0]).ravel())
    scale = (theta_f @ np.abs(cc) @ theta_f + c @ np.abs(ll) @ c
             + 2.0 * (theta_f @ np.abs(cl) @ c))
    gamma = (c.size + theta_f.size) * np.finfo(float).eps
    return gamma * scale / (2.0 * value * value)


def test_criterion_2_estimator_equivalence_above_floor(oned32_stable):
    # "above floor": the classical form can only agree with the stable one
    # to 1e-6 where its own rounding bound at that point is within 1e-6
    op, train, basis, model, history = oned32_stable
    t0 = time.perf_counter()
    classical = make_estimator("classical")
    worst_rel = 0.0
    checked = []
    for rec in history.records[1:]:
        k = rec.n
        sub_b, sub_m = _sub_basis(basis, model, k)
        classical.refresh(op, sub_b, sub_m)  # tables of this sub-basis alone
        u_hat = rb_solve(sub_m, op, rec.mu)
        if _classical_rounding_bound(classical.tables, op, rec.mu, u_hat,
                                     rec.estimate) > 1e-6:
            continue
        v1 = classical.value_at(op, rec.mu, u_hat, 1.0).value
        rel = abs(v1 - rec.estimate) / rec.estimate
        worst_rel = max(worst_rel, rel)
        checked.append(rec.estimate)
    elapsed = time.perf_counter() - t0
    ok = len(checked) >= 5 and worst_rel <= 1e-6 and elapsed < 60.0
    detail = (
        f"classical vs stable at {len(checked)} of "
        f"{len(history.records) - 1} argmax points whose rounding bound "
        f"gamma*S/(2v^2) <= 1e-6 (>= 5 required; smallest stable value "
        f"checked {min(checked, default=float('nan')):.3e}): worst relative "
        f"gap {worst_rel:.3e} (target <= 1e-6, {elapsed:.1f} s)"
    )
    _report(2, ok, detail)
    assert ok, detail


def test_criterion_3_stagnation_vs_robustness(oned32_stable, oned32_classical):
    op, _, basis_s, model_s, hist_stable = oned32_stable
    _, _, basis_c, _, hist_classical = oned32_classical
    classical_min = float(np.min(hist_classical.estimates))
    stable_min = float(np.min(hist_stable.estimates))
    classical_ok = classical_min >= 1e-10
    stable_ok = stable_min <= 1e-11
    ok = classical_ok and stable_ok
    # how far the stable value at the last argmax is from the residual
    # formed directly in the truth space
    last = hist_stable.records[-1]
    sub_b, sub_m = _sub_basis(basis_s, model_s, last.n)
    oracle = residual_norm_oracle(op, sub_b, last.mu, rb_solve(sub_m, op, last.mu))
    oracle_gap = abs(last.estimate - oracle) / oracle
    detail = (
        f"classical history min {classical_min:.3e} (>= 1e-10: "
        f"{classical_ok}; N {basis_c.size}, saturated "
        f"{hist_classical.saturated}); stable history min {stable_min:.3e} "
        f"(<= 1e-11 by N <= 30: {stable_ok}; N {basis_s.size}, saturated "
        f"{hist_stable.saturated}, relative gap to the truth-space residual "
        f"at the last argmax {oracle_gap:.1e})"
    )
    _report(3, ok, detail)
    assert ok, detail


def test_criterion_4_stable_matches_truth_space_oracle(oned32_stable,
                                                       problem_bases_n10):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_rel = 0.0
    worst_abs = 0.0
    for pid in ("oned-continuous", "twod-first"):
        op, _, basis, model, _ = problem_bases_n10[pid]
        domain = op.spec.param_domain
        draws = []
        for _ in range(50):
            mu = np.array([rng.uniform(lo, hi) for lo, hi in domain])
            draws.append((int(rng.integers(1, 11)), mu))
        # per-size offline data, built from each sub-basis, then the random
        # draws of that size
        stable = make_estimator("stable")
        for k in range(1, 11):
            sub_b, sub_m = _sub_basis(basis, model, k)
            stable.refresh(op, sub_b, sub_m)
            pts = np.array([mu for size, mu in draws if size == k])
            if not pts.size:
                continue
            for mu, u_hat in zip(pts, rb_solve(sub_m, op, pts)):
                got = stable.value_at(op, mu, u_hat, 1.0).value
                ref = residual_norm_oracle(op, sub_b, mu, u_hat)
                if ref >= 1e-8:
                    worst_rel = max(worst_rel, abs(got - ref) / ref)
                else:
                    worst_abs = max(worst_abs, abs(got - ref))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-10 and worst_abs <= 1e-13 and elapsed < 120.0
    _report(4, ok, f"100 random (mu, N) pairs on two problems: worst rel "
                   f"{worst_rel:.3e} (<= 1e-10), worst abs below floor "
                   f"{worst_abs:.3e} (<= 1e-13), {elapsed:.1f} s")
    assert ok


def test_criterion_5_rank_deficiency_robustness(oned32_stable):
    op, _, basis, model, _ = oned32_stable
    N, Qa = 8, 2
    sub_b, sub_m = _sub_basis(basis, model, N)
    C, L = build_riesz_data(op, sub_b)
    clean = build_stable_factors(L, C)
    # inject a duplicate snapshot's Riesz columns
    dup_cols = L[:, (N - 1) * Qa:]
    L_dup = np.column_stack([L, dup_cols])
    dup = build_stable_factors(L_dup, C)
    rank_ok = dup.rank < L_dup.shape[1] and dup.rank == oracles.svd_rank(L_dup)
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for _ in range(10):
        mu = [rng.uniform(-0.995, 0.995)]
        theta_a = op.theta_a_values([mu])[0]
        theta_f = op.theta_f_values([mu])[0]
        u_hat = rb_solve(sub_m, op, mu)
        c = np.outer(u_hat, theta_a).ravel()
        split = rng.uniform(0.2, 0.8)
        c_dup = np.concatenate([c, split * c[(N - 1) * Qa:]])
        c_dup[(N - 1) * Qa:N * Qa] *= 1.0 - split
        v_clean = kernels.stable_values(theta_f[None], c[None], np.ones(1),
                                        clean.w_coords, clean.qtc, clean.rzt)[0]
        v_dup = kernels.stable_values(theta_f[None], c_dup[None], np.ones(1),
                                      dup.w_coords, dup.qtc, dup.rzt)[0]
        worst_rel = max(worst_rel, abs(v_dup - v_clean) / v_clean)
    ok = rank_ok and worst_rel <= 1e-12
    _report(5, ok, f"duplicated columns: rank {dup.rank} < {L_dup.shape[1]} "
                   f"columns (matches SVD oracle), values unchanged to "
                   f"{worst_rel:.3e} (<= 1e-12)")
    assert ok


def test_criterion_6_kronecker_cardinality(oned32_stable, oned32_classical,
                                           problem_bases_n10):
    # c = R^-1 u_hat is exact only in exact arithmetic: the reduced solve's
    # rounding (~N eps) is amplified by cond(R), and the Lebesgue value sums
    # N such entries.  Each basis is held to 1e-8 where that allows it.
    eps = np.finfo(float).eps
    cases = dict(problem_bases_n10)
    cases["oned-continuous stable N_max=30"] = oned32_stable
    cases["oned-continuous classical N_max=30"] = oned32_classical
    ok = True
    checked = 0
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for label, (op, _, basis, model, _) in cases.items():
            N = basis.size
            if N > 25:
                continue
            cond = np.linalg.cond(basis.chol_coeffs)
            bound_c = max(1e-8, N * eps * cond)
            bound_leb = max(1e-8, N * N * eps * cond)
            dev_c = dev_leb = 0.0
            lebesgue = make_estimator("lebesgue")
            lebesgue.refresh(op, basis, model)
            U = rb_solve(model, op, np.array(basis.sample_set))
            for n, (mu, u_hat) in enumerate(zip(basis.sample_set, U)):
                c = lagrange_coefficients(basis, u_hat)
                dev_c = max(dev_c, np.max(np.abs(c - np.eye(N)[:, n])))
                leb = lebesgue.value_at(op, mu, u_hat, 1.0).value
                dev_leb = max(dev_leb, abs(leb - 1.0))
                checked += 1
            ok &= bool(dev_c <= bound_c and dev_leb <= bound_leb)
            lines.append(
                f"{label} N={N} cond(R) {cond:.2e}: |c - e_n| {dev_c:.2e} "
                f"= {dev_c / bound_c:.2e} x {bound_c:.1e}, |Lebesgue - 1| "
                f"{dev_leb:.2e} = {dev_leb / bound_leb:.2e} x {bound_leb:.1e}"
            )
    detail = (
        f"{checked} snapshot evaluations over the built bases with N <= 25, "
        "bounds max(1e-8, N eps cond(R)) for |c - e_n| and "
        "max(1e-8, N^2 eps cond(R)) for |Lebesgue - 1|; "
        + "; ".join(lines)
    )
    _report(6, ok, detail)
    assert ok, detail


@pytest.fixture(scope="module")
def twod_desk_runs():
    t0 = time.perf_counter()
    runs = {}
    for kind in ("stable", "lebesgue"):
        op, train, basis, model, history = _greedy_run(
            "twod-first", 32, [65, 33], kind, 30
        )
        runs[kind] = (op, train, basis, model, history)
    op, train = runs["stable"][0], runs["stable"][1]
    truth_rows = truth_solve_many(op, train)
    errors = {}
    for kind in ("stable", "lebesgue"):
        _, _, basis, model, _ = runs[kind]
        errs = validate(basis, model, op, train, truth_rows)
        errors[kind] = float(np.nanmax(errs))
    return runs, errors, time.perf_counter() - t0


def test_criterion_7_residual_free_competitiveness(twod_desk_runs):
    runs, errors, elapsed = twod_desk_runs
    ratio = errors["lebesgue"] / errors["stable"]
    ok = ratio <= 100.0 and elapsed < 900.0
    _report(7, ok, f"max validated true error: residual-free "
                   f"{errors['lebesgue']:.3e} vs robust {errors['stable']:.3e} "
                   f"(ratio {ratio:.2f} <= 100), {elapsed:.0f} s")
    assert ok


def test_criterion_8_reproduction_and_nesting(problem_bases_n10):
    worst = 0.0
    nesting_ok = True
    for pid, (op, train, basis, model, _) in problem_bases_n10.items():
        U = rb_solve(model, op, np.array(basis.sample_set))
        for mu, u_hat in zip(basis.sample_set, U):
            u = truth_solve(op, mu)
            u_rb = basis.xi @ u_hat
            worst = max(worst, np.linalg.norm(u - u_rb) / np.linalg.norm(u))
        # one further extension must leave the leading blocks untouched
        selected = {tuple(mu) for mu in basis.sample_set}
        fresh = next(mu for mu in train if tuple(mu) not in selected)
        basis2, model2 = extend_basis(basis, model, fresh, truth_solve(op, fresh),
                                      op)
        nesting_ok &= np.array_equal(model2.a_blocks[:, :10, :10], model.a_blocks)
        nesting_ok &= np.array_equal(model2.f_blocks[:, :10], model.f_blocks)
    ok = worst <= 1e-9 and nesting_ok
    _report(8, ok, f"four problems at N = 10: worst snapshot reproduction "
                   f"{worst:.3e} (<= 1e-9 relative); nesting bit-identical: "
                   f"{nesting_ok}")
    assert ok


def test_criterion_9_discontinuous_lagrange_jump():
    op, train, basis, model, _ = _greedy_run(
        "oned-discontinuous", 32, [512], "stable", 10
    )
    mus = train[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        coeffs = lagrange_coefficients(basis, rb_solve(model, op, train))
    cross = int(np.searchsorted(mus, 0.0))  # first index with mu > 0
    best = 0.0
    for m in range(basis.size):
        diffs = np.abs(np.diff(coeffs[:, m]))
        jump = diffs[cross - 1]
        elsewhere = np.max(np.delete(diffs, cross - 1))
        best = max(best, jump / elsewhere)
    ok = best > 10.0
    _report(9, ok, f"Lagrange trace jump across mu = 0 is {best:.1f}x the "
                   f"largest variation elsewhere (> 10x required)")
    assert ok


def test_criterion_10_worker_count_determinism(tmp_path):
    histories = []
    for workers in (1, 8):
        config = ExperimentConfig(
            problem="oned-continuous",
            nodes_per_dim=16,
            training_grid=[64],
            estimator_kind="stable",
            eps_tol=1e-12,
            N_max=6,
            workers=workers,
            output_dir=str(tmp_path / f"w{workers}"),
        )
        arts = run_experiment(config)
        with open(arts.history, "rb") as fh:
            histories.append(fh.read())
    ok = histories[0] == histories[1]
    _report(10, ok, f"history files at 1 and 8 workers are byte-identical: {ok}")
    assert ok
