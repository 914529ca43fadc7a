"""Tests for the batched sweep kernels: they reproduce the per-point reference
in ``oracles`` bit for bit, on either side of every chunk boundary and on a
real greedy state, and chunked parallel evaluation reproduces the serial
result exactly."""

import os
import threading
import time

import numpy as np
import pytest
import scipy.linalg as sla

from rbkit import kernels
from rbkit.estimators import build_riesz_data, build_stable_factors, make_estimator
from rbkit.harness import (
    ExperimentConfig,
    build_problem,
    make_training_grid,
    run_experiment,
)
from rbkit.rbm import GreedyConfig, empty_basis, empty_model, extend_basis, greedy
from rbkit.truth import truth_solve

import oracles

#: Batch sizes on both sides of one and two chunk boundaries (0, 1, 255,
#: 256, 257 and 515 points for chunks of 256), plus empty.
SIZES = [0, 1, kernels.CHUNK - 1, kernels.CHUNK, kernels.CHUNK + 1,
         2 * kernels.CHUNK + 3]

#: (N, Q_a, Q_f): the worked problems' Q_f = 1, and Q_f = 2, where the load
#: products become gemv calls instead of scalar products.  N = 12 is long
#: enough that a reordered sum (numpy's unrolled ``sum``) changes the bits.
SHAPES = [(6, 2, 1), (12, 3, 2)]


def _random_inputs(seed=0, M=64, N=6, Qa=2, Qf=1):
    rng = np.random.default_rng(seed)
    theta_a = rng.uniform(0.5, 2.0, (M, Qa))
    theta_f = rng.uniform(0.5, 2.0, (M, Qf))
    alpha = rng.uniform(0.5, 1.5, M)
    a_blocks = np.stack([np.eye(N) + 0.05 * rng.standard_normal((N, N))
                         for _ in range(Qa)])
    f_blocks = rng.standard_normal((Qf, N))
    L = rng.standard_normal((40, N * Qa))
    C = rng.standard_normal((40, Qf))
    cc = C.T @ C
    cl = C.T @ L
    ll = L.T @ L
    rs = np.triu(rng.standard_normal((N, N))) + 3.0 * np.eye(N)
    return theta_a, theta_f, alpha, a_blocks, f_blocks, cc, cl, ll, rs


def _assert_classical_identical(args):
    values, clamped = kernels.classical_sweep(*args)
    ref_values, ref_clamped = oracles.classical_sweep_loop(*args)
    assert values.shape == ref_values.shape
    assert np.array_equal(values, ref_values)
    assert np.array_equal(clamped, ref_clamped)
    return clamped


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("M", SIZES)
def test_classical_matches_per_point(M, shape):
    N, Qa, Qf = shape
    ta, tf, al, ab, fb, cc, cl, ll, _ = _random_inputs(M, M, N, Qa, Qf)
    _assert_classical_identical((ta, tf, al, ab, fb, cc, cl, ll))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("M", SIZES)
def test_stable_matches_per_point(M, shape):
    N, Qa, Qf = shape
    ta, tf, al, ab, fb, _, _, _, _ = _random_inputs(M + 1, M, N, Qa, Qf)
    rng = np.random.default_rng(M)
    rank = N * Qa - 1
    for k in range(Qf + 1):  # complement dimension 0 .. Q_f
        w = rng.standard_normal((k, Qf))
        qtc = rng.standard_normal((rank, Qf))
        rzt = rng.standard_normal((rank, N * Qa))
        args = (ta, tf, al, ab, fb, w, qtc, rzt)
        values = kernels.stable_sweep(*args)
        assert values.shape == (M,)
        assert np.array_equal(values, oracles.stable_sweep_loop(*args)), k


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("M", SIZES)
def test_lebesgue_matches_per_point(M, shape):
    N, Qa, Qf = shape
    ta, tf, _, ab, fb, _, _, _, rs = _random_inputs(M + 2, M, N, Qa, Qf)
    values = kernels.lebesgue_sweep(ta, tf, ab, fb, rs)
    assert values.shape == (M,)
    assert np.array_equal(values, oracles.lebesgue_sweep_loop(ta, tf, ab, fb, rs))


def test_classical_clamp_mask_matches_per_point_in_cancellation_regime():
    # the load representers lie in the span of the operator columns and the
    # reduced solve reproduces the exact coefficients, so every residual is
    # rounding noise and roughly half of the quadratics go negative
    rng = np.random.default_rng(6)
    M, N, Qf = 515, 6, 2
    theta_a = rng.uniform(0.5, 2.0, (M, 1))
    theta_f = rng.uniform(0.5, 2.0, (M, Qf))
    a_blocks = (np.eye(N) + 0.05 * rng.standard_normal((N, N)))[None]
    f_blocks = rng.standard_normal((Qf, N))
    L = 1e3 * rng.standard_normal((40, N))
    C = L @ np.linalg.solve(a_blocks[0], f_blocks.T)
    args = (theta_a, theta_f, np.ones(M), a_blocks, f_blocks,
            C.T @ C, C.T @ L, L.T @ L)
    clamped = _assert_classical_identical(args)
    assert 0 < clamped.sum() < M


@pytest.fixture(scope="module")
def saturated_state():
    """A classical greedy on oned-continuous (32 nodes, 128 points) run until
    its sweep clamps at every unselected point (N = 21 with one BLAS thread,
    22 with two), with the theta tables of a 515-point grid."""
    _, _, op = build_problem("oned-continuous", 32)
    train = make_training_grid(op.spec.param_domain, [128])
    cfg = GreedyConfig(training_set=train, N_max=30, eps_tol=1e-16)
    basis, model, history, est = greedy(cfg, op, make_estimator("classical"))
    assert history.saturated
    grid = make_training_grid(op.spec.param_domain, [515])
    return (basis, model, est.tables, build_riesz_data(op, basis),
            op.theta_a_values(grid), op.theta_f_values(grid))


def test_kernels_match_per_point_on_greedy_state(saturated_state):
    basis, model, tables, (C, L), ta, tf = saturated_state
    alpha = np.ones(ta.shape[0])
    blocks = (model.a_blocks, model.f_blocks)
    clamped = _assert_classical_identical((ta, tf, alpha, *blocks, *tables))
    assert 0 < clamped.sum() < ta.shape[0]

    fc = build_stable_factors(L, C)
    args = (ta, tf, alpha, *blocks, fc.w_coords, fc.qtc, fc.rzt)
    assert np.array_equal(kernels.stable_sweep(*args), oracles.stable_sweep_loop(*args))

    args = (ta, tf, *blocks, basis.chol_coeffs)
    assert np.array_equal(kernels.lebesgue_sweep(*args),
                          oracles.lebesgue_sweep_loop(*args))


def test_lebesgue_back_substitution_matches_solve_triangular():
    ta, tf, _, ab, fb, _, _, _, rs = _random_inputs(4, M=8)
    values = kernels.lebesgue_sweep(ta, tf, ab, fb, rs)
    for i in range(ta.shape[0]):
        A = np.tensordot(ta[i], ab, axes=1)
        u = np.linalg.solve(A, tf[i] @ fb)
        c = sla.solve_triangular(rs, u, lower=False)
        assert values[i] == pytest.approx(np.sum(np.abs(c)), rel=1e-12)


def test_clamp_flags_from_negative_quadratic():
    # hand-built tables where the quadratic cancels exactly to rounding noise
    rng = np.random.default_rng(5)
    N, Qa, Qf = 1, 1, 1
    v = rng.standard_normal(30)
    L = v[:, None]
    C = v[:, None] * (1.0 + 1e-16)
    theta_a = np.ones((1, Qa))
    theta_f = np.ones((1, Qf))
    ab = np.ones((Qa, N, N))
    fb = np.ones((Qf, N))  # reduced solve yields u = 1, so c = 1
    values, clamped = kernels.classical_sweep(
        theta_a, theta_f, np.ones(1), ab, fb, C.T @ C, C.T @ L, L.T @ L
    )
    assert values[0] <= 1e-6 * np.linalg.norm(v)
    assert clamped.dtype == np.bool_


@pytest.fixture(scope="module")
def four_snapshot_state():
    _, _, op = build_problem("oned-continuous", 16)
    basis = empty_basis(op.dim)
    model = empty_model(2, 1)
    for mu in [[-0.8], [-0.1], [0.5], [0.9]]:
        basis, model = extend_basis(basis, model, truth_solve(op, mu), op)
    return op, basis, model


#: Grids of one chunk and of three, the last one holding a single point.
PARALLEL_SIZES = [kernels.CHUNK - 1, 2 * kernels.CHUNK + 1]


def _theta_tables(op, M):
    train = make_training_grid(op.spec.param_domain, [M])
    return op.theta_a_values(train), op.theta_f_values(train), np.ones(M)


def test_parallel_sweep_bit_identical_to_serial(four_snapshot_state):
    op, basis, model = four_snapshot_state
    for M in PARALLEL_SIZES:
        ta, tf, alpha = _theta_tables(op, M)
        for kind in ("classical", "stable", "lebesgue"):
            est = make_estimator(kind)
            est.refresh(op, basis, model)
            values, clamped = est.sweep(model, ta, tf, alpha, workers=1)
            assert values.shape == clamped.shape == (M,)
            for workers in (2, 3, 8):
                par_values, par_clamped = est.sweep(model, ta, tf, alpha,
                                                    workers=workers)
                assert np.array_equal(values, par_values), (M, kind, workers)
                assert np.array_equal(clamped, par_clamped), (M, kind, workers)


def test_chunked_threads_bounded_by_usable_cpus(four_snapshot_state, monkeypatch):
    # a sweep uses at most min(workers, usable CPUs, chunks) threads; each
    # chunk records its thread and sleeps so that the chunks overlap, and a
    # grid of one chunk runs on the calling thread whatever workers asks
    op, basis, model = four_snapshot_state
    est = make_estimator("stable")
    est.refresh(op, basis, model)
    formula = kernels.stable_values
    threads = []

    def recording(*args):
        threads.append(threading.get_ident())
        time.sleep(0.01)
        return formula(*args)

    monkeypatch.setattr(kernels, "stable_values", recording)
    for M in PARALLEL_SIZES:
        ta, tf, alpha = _theta_tables(op, M)
        chunks = -(-M // kernels.CHUNK)
        for workers in (1, 2, 3, 8):
            threads.clear()
            est.sweep(model, ta, tf, alpha, workers=workers)
            assert len(threads) == chunks
            bound = min(workers, len(os.sched_getaffinity(0)), chunks)
            assert len(set(threads)) <= bound, (M, workers)
            if bound == 1:
                assert set(threads) == {threading.get_ident()}, (M, workers)


@pytest.mark.parametrize("kind", ["classical", "stable", "lebesgue"])
def test_history_byte_identical_with_per_point_kernels(tmp_path, monkeypatch, kind):
    def history_bytes(name):
        config = ExperimentConfig(
            problem="twod-second", nodes_per_dim=16, training_grid=[24, 24],
            estimator_kind=kind, eps_tol=1e-14, N_max=15,
            output_dir=str(tmp_path / name),
        )
        with open(run_experiment(config).history, "rb") as fh:
            return fh.read()

    batched = history_bytes("batched")
    monkeypatch.setattr(kernels, "classical_sweep", oracles.classical_sweep_loop)
    monkeypatch.setattr(kernels, "stable_sweep", oracles.stable_sweep_loop)
    monkeypatch.setattr(kernels, "lebesgue_sweep", oracles.lebesgue_sweep_loop)
    assert history_bytes("per-point") == batched
