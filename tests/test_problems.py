import math

import numpy as np
import pytest

from eigsmooth.optimize import ExactEigOracle, StochasticOracle
from eigsmooth.problems import (
    BallProblem,
    BoxProblem,
    ball_reference,
    box_reference,
    dspca_problem,
    load_covariance,
    maxcut_problem,
    synthetic_covariance,
    synthetic_samples,
)
from eigsmooth.smoothing import SmoothingParams
from eigsmooth.spectral import save_matrix


# ----------------------------------------------------------------- loading


def test_load_identity_covariance(tmp_path):
    path = tmp_path / "cov.txt"
    save_matrix(path, np.eye(5))
    A = load_covariance(path, 5)
    assert np.allclose(A, np.eye(5))
    assert abs(np.linalg.eigvalsh(A)[-1] - 1.0) <= 1e-10


def test_load_normalizes_spectral_norm(tmp_path):
    rng = np.random.default_rng(0)
    B = rng.standard_normal((6, 6))
    path = tmp_path / "cov.txt"
    save_matrix(path, B @ B.T)
    A = load_covariance(path, 6)
    assert abs(np.max(np.abs(np.linalg.eigvalsh(A))) - 1.0) <= 1e-10


def test_load_samples_selects_top_variance(tmp_path):
    rng = np.random.default_rng(1)
    data = synthetic_samples(400, 30, rng)
    path = tmp_path / "samples.txt"
    with open(path, "w") as fh:
        fh.write("400 30\n")
        for row in data:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    n_sel = 20
    A = load_covariance(path, n_sel)
    assert A.shape == (n_sel, n_sel)
    # brute-force variance ranking
    variances = data.var(axis=0, ddof=1)
    idx = np.sort(np.argsort(-variances, kind="stable")[:n_sel])
    ref = np.cov(data[:, idx], rowvar=False)
    ref /= np.max(np.abs(np.linalg.eigvalsh(ref)))
    assert np.allclose(A, ref, atol=1e-12)


def test_load_rejects_excess_selection(tmp_path):
    path = tmp_path / "cov.txt"
    save_matrix(path, np.eye(3))
    with pytest.raises(ValueError):
        load_covariance(path, 4)


# ------------------------------------------------------------------- DSPCA


def test_dspca_rho_rule():
    prob = dspca_problem(np.eye(4))
    assert prob.rho == 0.5


def test_dspca_projection_clamps_entrywise():
    prob = dspca_problem(np.eye(3))
    X = np.array([[2.0, -3.0, 0.1], [-3.0, 0.0, 0.2], [0.1, 0.2, 0.4]])
    P = prob.project(X)
    assert np.array_equal(P, np.clip(X, -0.5, 0.5))
    assert np.array_equal(P, P.T)


def test_dspca_identity_optimum_by_grid():
    prob = dspca_problem(np.eye(2))
    X, val = box_reference(prob, levels=20, points=11)
    assert val == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(X, -0.5 * np.eye(2), atol=1e-6)


def test_dspca_diameter_matches_direct_maximization():
    rng = np.random.default_rng(2)
    A = synthetic_covariance(3, rng)
    prob = dspca_problem(A)
    # max of ||X||_F over the box is attained at a corner
    corner = np.full((3, 3), prob.rho)
    direct = math.sqrt(0.5) * np.linalg.norm(corner, "fro")
    assert prob.diameter == pytest.approx(direct, rel=1e-12)


def test_dspca_rejects_unnormalized():
    with pytest.raises(ValueError):
        dspca_problem(2.0 * np.eye(3))


def test_dspca_permutation_invariance():
    rng = np.random.default_rng(3)
    A = synthetic_covariance(5, rng)
    prob = dspca_problem(A)
    X = prob.project(rng.standard_normal((5, 5)))
    X = 0.5 * (X + X.T)
    perm = rng.permutation(5)
    P = np.eye(5)[perm]
    prob_p = BoxProblem(A=P @ A @ P.T, rho=prob.rho)
    assert prob_p.true_objective(P @ X @ P.T) == pytest.approx(prob.true_objective(X), abs=1e-12)


# ------------------------------------------------------------------ MaxCut


def test_maxcut_spectrum_normalized():
    rng = np.random.default_rng(4)
    prob = maxcut_problem(8, rng)
    vals = np.linalg.eigvalsh(prob.C)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)
    assert vals[0] >= -1e-12
    assert prob.radius == 8.0


def test_maxcut_projection():
    rng = np.random.default_rng(5)
    prob = maxcut_problem(4, rng, radius=5.0)
    w = np.array([1.0, 2.0, 0.0, -1.0])
    assert np.array_equal(prob.project(w), w)
    big = np.array([30.0, 40.0, 0.0, 0.0])
    proj = prob.project(big)
    assert np.linalg.norm(proj) == pytest.approx(5.0)
    assert np.allclose(proj, [3.0, 4.0, 0.0, 0.0])


def test_projections_idempotent_nonexpansive():
    rng = np.random.default_rng(6)
    box = dspca_problem(np.eye(4))
    ball = maxcut_problem(6, rng, radius=2.0)
    for _ in range(50):
        X, Y = rng.standard_normal((2, 4, 4))
        assert np.array_equal(box.project(box.project(X)), box.project(X))
        assert np.linalg.norm(box.project(X) - box.project(Y)) <= np.linalg.norm(X - Y) + 1e-12
        u, v = rng.standard_normal((2, 6)) * 3.0
        assert np.allclose(ball.project(ball.project(u)), ball.project(u))
        assert np.linalg.norm(ball.project(u) - ball.project(v)) <= np.linalg.norm(u - v) + 1e-12


def test_maxcut_reference_solves_small_instance():
    rng = np.random.default_rng(7)
    prob = maxcut_problem(2, rng, radius=3.0)
    w, val = ball_reference(prob, levels=22, points=13)
    # the reference must beat or match a fine random search over the ball
    best = min(
        prob.true_objective(prob.project(4.0 * rng.standard_normal(2)))
        for _ in range(5000)
    )
    assert val <= best + 1e-6
    # the objective decreases along +1, so the constraint binds
    assert np.linalg.norm(w) == pytest.approx(prob.radius, rel=1e-3)


@pytest.mark.parametrize("cls, field, scalar", [(BoxProblem, "A", {"rho": 0.1}),
                                                (BallProblem, "C", {"radius": 1.0})])
def test_problems_keep_a_copy_of_their_matrix(cls, field, scalar):
    # the one validator hands an exactly symmetric input back uncopied, so the
    # problems, which keep it, copy it
    M = synthetic_covariance(6, np.random.default_rng(3))
    problem = cls(M, **scalar)
    before = problem.matrix(problem.center())
    M[0, 0] = M[1, 2] = M[2, 1] = 99.0
    assert np.array_equal(problem.matrix(problem.center()), before)
    assert not np.shares_memory(getattr(problem, field), M)


# ------------------------------------------------------------- composite


def test_maxcut_solver_matches_grid_reference():
    # n = 4, radius 5: the dense grid reference and the stochastic solver
    # agree to 5 eps
    from eigsmooth.optimize import SolverConfig, acsa_linesearch_run

    rng = np.random.default_rng(555)
    prob = maxcut_problem(4, rng, radius=5.0)
    _, ref = ball_reference(prob, levels=50, points=13)
    eps = 0.05
    cfg = SolverConfig(N=800, eps=eps, q=5, seed=6, oracle_path="secular", true_obj_every=10)
    res = acsa_linesearch_run(prob, None, prob.prox_setup(), cfg)
    assert res.best_objective - ref <= 5 * eps
    assert res.best_objective >= ref - 1e-9


def test_composite_exact_maxcut_at_zero():
    rng = np.random.default_rng(8)
    prob = maxcut_problem(6, rng)
    ev = ExactEigOracle(prob, seed=9).evaluate(np.zeros(6), (0,))
    assert ev.value == pytest.approx(1.0, abs=1e-8)  # lambda_max(C) = 1, linear term 0
    assert ev.cost == 1.0
    # subgradient = diag(phi phi^T) - 1 sums to 1 - n for a unit eigenvector
    assert np.sum(ev.grad) == pytest.approx(1.0 - 6.0, abs=1e-10)


def test_composite_exact_dspca_at_zero():
    rng = np.random.default_rng(10)
    A = synthetic_covariance(8, rng)
    prob = dspca_problem(A)
    ev = ExactEigOracle(prob, seed=11).evaluate(np.zeros((8, 8)), (0,))
    assert ev.value == pytest.approx(1.0, abs=1e-8)
    assert np.trace(ev.grad) == pytest.approx(1.0, abs=1e-10)


def test_composite_sampled_gradient_sums():
    rng = np.random.default_rng(12)
    prob = maxcut_problem(5, rng)
    params = SmoothingParams(eps=0.1, n=5)
    w = prob.project(rng.standard_normal(5))
    ev = StochasticOracle(prob, params, q=4, seed=13, path="secular").evaluate(w, (0,))
    # 1^T (grad_w + 1) = trace of the averaged estimate = 1
    assert np.sum(ev.grad + 1.0) == pytest.approx(1.0, abs=1e-12)
    assert ev.cost == 4 * params.k + 5  # q*k samples plus the internal decomposition


def test_composite_sampled_envelope():
    rng = np.random.default_rng(14)
    n = 50
    A = synthetic_covariance(n, rng)
    prob = dspca_problem(A)
    params = SmoothingParams(eps=0.05, n=n)
    X = prob.project(0.1 * rng.standard_normal((n, n)))
    X = 0.5 * (X + X.T)
    exact = prob.true_objective(X)
    oracle = StochasticOracle(prob, params, q=1, seed=1000, path="secular")
    vals = [oracle.evaluate(X, (rep,)).value for rep in range(300)]
    mean = np.mean(vals)
    serr = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert mean - 3 * serr >= exact + params.eps / n
    assert mean + 3 * serr <= exact + params.k * params.eps


def test_composite_gradient_skips_a_zero_linear_term():
    from eigsmooth.optimize import _gradient

    rng = np.random.default_rng(15)
    box = dspca_problem(synthetic_covariance(6, rng))
    G = rng.standard_normal((6, 6))
    assert _gradient(box, G, np.zeros((6, 6))) is G  # no n x n copy for the box
    ball = maxcut_problem(6, rng)
    assert np.array_equal(_gradient(ball, G, np.zeros(6)), np.diag(G) - 1.0)


def test_synthetic_covariance_separated_spectrum():
    rng = np.random.default_rng(15)
    A = synthetic_covariance(60, rng)
    vals = np.linalg.eigvalsh(A)[::-1]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert vals[0] - vals[1] > 0.2  # well-separated leading eigenvalues
