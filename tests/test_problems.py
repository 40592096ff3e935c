import math
import re
import tracemalloc

import numpy as np
import pytest

from eigsmooth.optimize import ExactEigOracle, StochasticOracle, softmax_smoothed
from eigsmooth.phase import equal_gap_model, tile_model
from eigsmooth.problems import (
    BallProblem,
    BoxProblem,
    dspca_problem,
    load_covariance,
    maxcut_problem,
    synthetic_covariance,
)
from eigsmooth.smoothing import SmoothingParams, gradient_oracle, sample_rng
from eigsmooth.spectral import full_eig, lanczos_leading, symmetrize

from paper_checks import ball_reference, box_reference, synthetic_samples


# ----------------------------------------------------------------- loading


def write_matrix(path, X):
    """The square matrix format: the dimension n, then n rows of round-trip decimals."""
    path.write_text(f"{len(X)}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in X.tolist()))


def test_load_identity_covariance(tmp_path):
    path = tmp_path / "cov.txt"
    write_matrix(path, np.eye(5))
    A = load_covariance(path, 5)
    assert np.allclose(A, np.eye(5))
    assert abs(np.linalg.eigvalsh(A)[-1] - 1.0) <= 1e-10


def test_load_normalizes_spectral_norm(tmp_path):
    rng = np.random.default_rng(0)
    B = rng.standard_normal((6, 6))
    path = tmp_path / "cov.txt"
    write_matrix(path, B @ B.T)
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


def test_load_samples_bit_identical_to_loadtxt(tmp_path):
    # every decimal rendering parses to the floats np.loadtxt gives
    data = synthetic_samples(60, 12, np.random.default_rng(8))
    for fmt in ("{!r}", "{:.17g}", "{:.6e}", "{:.25f}"):
        path = tmp_path / "samples.txt"
        path.write_text("60 12\n" + "".join(" ".join(fmt.format(v) for v in row) + "\n"
                                             for row in data.tolist()))
        ref_data = np.loadtxt(path, skiprows=1)
        variances = ref_data.var(axis=0, ddof=1)
        idx = np.sort(np.argsort(-variances, kind="stable")[:7])
        ref = symmetrize(np.cov(ref_data[:, idx], rowvar=False))
        ref /= float(np.max(np.abs(np.linalg.eigvalsh(ref))))
        assert np.array_equal(load_covariance(path, 7), ref)


def test_load_rejects_excess_selection(tmp_path):
    path = tmp_path / "cov.txt"
    write_matrix(path, np.eye(3))
    with pytest.raises(ValueError):
        load_covariance(path, 4)


def test_load_rejects_nonpositive_selection(tmp_path):
    matrix, samples = tmp_path / "cov.txt", tmp_path / "samples.txt"
    write_matrix(matrix, np.eye(6))
    data = synthetic_samples(10, 6, np.random.default_rng(5))
    samples.write_text("10 6\n" + "".join(" ".join(map(repr, row)) + "\n" for row in data.tolist()))
    for path in (matrix, samples):
        assert load_covariance(path, 1).shape == (1, 1)
        for n_select in (0, -1, -6):
            with pytest.raises(ValueError, match=f"n_select must be at least 1, got {n_select}"):
                load_covariance(path, n_select)


@pytest.mark.parametrize("call, message", [
    (lambda path: equal_gap_model(10.5), "n must be an integer, got 10.5"),
    (lambda path: equal_gap_model(10, multiplicity=1.5), "multiplicity must be an integer, got 1.5"),
    (lambda path: tile_model(equal_gap_model(5), 9.5), "n must be an integer, got 9.5"),
    (lambda path: synthetic_covariance(10.5, np.random.default_rng(0)),
     "n must be an integer, got 10.5"),
    (lambda path: maxcut_problem(6.5, np.random.default_rng(0)), "n must be an integer, got 6.5"),
    (lambda path: load_covariance(path, 2.5), "n_select must be an integer, got 2.5"),
], ids=["equal_gap_n", "equal_gap_multiplicity", "tile_n", "synthetic_n", "maxcut_n",
        "load_n_select"])
def test_float_counts_are_named(tmp_path, call, message):
    # a count is never truncated, nor does it reach numpy as a float
    path = tmp_path / "cov.txt"
    write_matrix(path, np.eye(4))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(path)


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


def test_dspca_problem_checks_its_matrix_once(monkeypatch):
    from eigsmooth import problems

    calls = []
    check = problems.check_symmetric
    monkeypatch.setattr(problems, "check_symmetric", lambda *a, **kw: calls.append(1) or check(*a, **kw))
    dspca_problem(synthetic_covariance(6, np.random.default_rng(4)))
    assert len(calls) == 1
    # an input with one fault is rejected in that fault's words
    asym, nonfinite = np.eye(3), np.eye(3)
    asym[0, 1] = 1e-3
    nonfinite[1, 1] = np.nan
    for A, message in ((asym, "matrix is not symmetric"), (nonfinite, "matrix entries must be finite"),
                       (2.0 * np.eye(3), "A must have unit spectral norm, got 2.0")):
        with pytest.raises(ValueError, match=message):
            dspca_problem(A)


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
    cfg = SolverConfig(N=800, eps=eps, q=5, seed=6, true_obj_every=10)
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
    ev = StochasticOracle(prob, params, q=4, seed=13, lanczos_tol=1e-6).evaluate(w, (0,))
    # 1^T (grad_w + 1) = trace of the averaged estimate = 1
    assert np.sum(ev.grad + 1.0) == pytest.approx(1.0, abs=1e-12)
    assert ev.cost == 4 * params.k  # q*k samples
    # the kernel's estimate on the mapped matrix, plus the linear term -1^T w
    est = gradient_oracle(prob.matrix(w), params, 4, seed=13, key=(0,), lanczos_tol=1e-6)
    assert ev.value == est.value - float(np.sum(w))
    assert np.array_equal(ev.grad, prob.pull_back(est.vectors) / 4 - 1.0)


def test_composite_sampled_envelope():
    rng = np.random.default_rng(14)
    n = 50
    A = synthetic_covariance(n, rng)
    prob = dspca_problem(A)
    params = SmoothingParams(eps=0.05, n=n)
    X = prob.project(0.1 * rng.standard_normal((n, n)))
    X = 0.5 * (X + X.T)
    exact = prob.true_objective(X)
    oracle = StochasticOracle(prob, params, q=1, seed=1000, lanczos_tol=1e-6)
    vals = [oracle.evaluate(X, (rep,)).value for rep in range(300)]
    mean = np.mean(vals)
    serr = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert mean - 3 * serr >= exact + params.eps / n
    assert mean + 3 * serr <= exact + params.k * params.eps


def test_composite_gradient_skips_a_zero_linear_term():
    rng = np.random.default_rng(15)
    box = dspca_problem(synthetic_covariance(6, rng))
    F = rng.standard_normal((2, 6))
    sums = []

    def pull_back(*args, _pull_back=box.pull_back):
        sums.append(_pull_back(*args))
        return sums[-1]

    box.pull_back = pull_back
    value, grad = box.composite(np.zeros((6, 6)), 0.5, F, q=2)
    assert grad is sums[0]  # no n x n copy for the box
    assert value == 0.5 and np.array_equal(grad, (F.T @ F) / 2)
    ball = maxcut_problem(6, rng)
    value, grad = ball.composite(np.zeros(6), 0.5, F, q=2)
    assert value == 0.5 and np.array_equal(grad, np.sum(F * F, axis=0) / 2 - 1.0)


# ------------------------------------------------- gradients as rank-one factors


def _dense_sample_average(V):
    """Reference: the q-sample gradient as a dense matrix, (V^T V) / q."""
    return (V.T @ V) / V.shape[0]


def _dense_softmax_gradient(M, mu):
    """Reference: the soft-max gradient as a dense matrix, V diag(p) V^T."""
    dec = full_eig(M)
    shifted = np.exp((dec.values - dec.values[0]) / mu)
    total = float(shifted.sum())
    return (dec.vectors * (shifted / total)) @ dec.vectors.T


@pytest.mark.parametrize("n", [5, 37, 400])
def test_box_gradient_from_sample_factors_is_the_dense_average_bit_for_bit(n):
    # Unit weights take numpy's symmetric product, whose bits a general
    # product need not match (at n = 37 it does not); 1/q is divided after.
    rng = np.random.default_rng(n)
    box = dspca_problem(synthetic_covariance(n, rng))
    X = np.zeros((n, n))
    for q in range(1, 7):
        V = rng.standard_normal((q, n))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        assert np.array_equal(box.composite(X, 0.0, V, q=q)[1], _dense_sample_average(V))


@pytest.mark.parametrize("q", range(1, 7))
def test_box_oracle_gradient_is_the_dense_average_bit_for_bit(q):
    n = 37
    box = dspca_problem(synthetic_covariance(n, np.random.default_rng(4)))
    X = box.project(0.05 * symmetrize(np.random.default_rng(5).standard_normal((n, n))))
    params = SmoothingParams(eps=0.05, n=n)
    ev = StochasticOracle(box, params, q, seed=6, lanczos_tol=1e-6).evaluate(X, (3,))
    est = gradient_oracle(box.matrix(X), params, q, seed=6, key=(3,), lanczos_tol=1e-6)
    assert np.array_equal(ev.grad, _dense_sample_average(est.vectors))


def _relative_frobenius(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("n", [5, 37, 400])
def test_box_gradient_from_softmax_factors_is_the_dense_gradient_to_rounding(n):
    # The weighted pull-back is numpy's symmetric product over the kept
    # factors: exactly symmetric, and the dense general product's to rounding.
    box = dspca_problem(synthetic_covariance(n, np.random.default_rng(n)))
    X = box.project(0.05 * symmetrize(np.random.default_rng(n + 1).standard_normal((n, n))))
    mu = 0.05 / math.log(n)
    value, F, p, _ = softmax_smoothed(box.matrix(X), mu)
    grad = box.composite(X, value, F, p)[1]
    assert np.array_equal(grad, grad.T)
    assert _relative_frobenius(grad, _dense_softmax_gradient(box.matrix(X), mu)) <= 1e-14


@pytest.mark.parametrize("kind", ["box", "ball"])
def test_softmax_pull_back_over_kept_rows_matches_the_full_product(monkeypatch, kind):
    # At every iteration of a det_smooth run the kept factors are a prefix of
    # the decomposition's vectors (a view), the weights a prefix of all n, the
    # dropped weights below 2^-60 of the largest, the charge n units, and the
    # pull-back the full n-row product (the ball: its diagonal) to 1e-14.
    from eigsmooth import optimize

    n, rng = 30, np.random.default_rng(3)
    prob = dspca_problem(synthetic_covariance(n, rng)) if kind == "box" else maxcut_problem(n, rng)
    decomps, kept = [], []

    def spy_full_eig(M):
        decomps.append(full_eig(M))
        return decomps[-1]

    def spy_softmax(M, mu):
        value, F, w, cost = softmax_smoothed(M, mu)
        dec = decomps[-1]
        shifted = np.exp((dec.values - dec.values[0]) / mu)
        p = shifted / shifted.sum()
        m = len(w)
        assert F.shape == (m, n) and np.shares_memory(F, dec.vectors)
        assert np.array_equal(F, dec.vectors.T[:m]) and np.array_equal(w, p[:m])
        assert np.all(shifted[:m] >= 2.0**-60) and np.all(shifted[m:] < 2.0**-60)
        assert cost == n
        full = (dec.vectors * p) @ dec.vectors.T
        full = full if kind == "box" else np.diag(full)
        assert _relative_frobenius(prob.pull_back(F, w), full) <= 1e-14
        kept.append(m)
        return value, F, w, cost

    monkeypatch.setattr(optimize, "full_eig", spy_full_eig)
    monkeypatch.setattr(optimize, "softmax_smoothed", spy_softmax)
    res = optimize.nesterov_smooth_baseline(prob, prob.prox_setup(), 0.05, 40)
    assert res.iterations == len(kept) == len(decomps) == 40 and res.total_eigvecs == 40 * n
    assert min(kept) < n  # some iterations truncate
    if kind == "box":
        assert max(kept) == n  # and, late in the run, every row counts


def test_ball_gradient_is_the_dense_diagonal_to_rounding():
    # A sum of k positive terms rounds apart from a BLAS diagonal, which may
    # fuse its multiply-adds, by at most k roundoffs; one factor rounds once.
    n, eps = 37, np.finfo(float).eps
    rng = np.random.default_rng(7)
    ball = maxcut_problem(n, rng)
    w = np.zeros(n)
    for q in range(1, 7):
        V = rng.standard_normal((q, n))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        dense = np.diag(_dense_sample_average(V))
        if q == 1:  # the dense diagonal plus the linear term's gradient
            assert np.array_equal(ball.composite(w, 0.0, V)[1], dense - 1.0)
        assert np.allclose(ball.pull_back(V) / q, dense, rtol=q * eps, atol=0)
    mu = 0.05 / math.log(n)
    _, F, p, _ = softmax_smoothed(ball.matrix(w), mu)
    dense = np.diag(_dense_softmax_gradient(ball.matrix(w), mu))
    assert np.allclose(ball.pull_back(F, p), dense, rtol=n * eps, atol=0)


@pytest.mark.parametrize("kind", ["stochastic", "exact"])
def test_ball_evaluation_allocates_no_n_by_n_gradient(kind):
    # Past the problem's matrix build, a ball evaluation allocates what its
    # spectral kernel allocates plus O(qn) for the gradient.
    n, q, key = 400, 2, (7,)
    ball = maxcut_problem(n, np.random.default_rng(8))
    w = ball.project(np.random.default_rng(9).standard_normal(n))
    params = SmoothingParams(eps=0.05, n=n)
    if kind == "stochastic":
        oracle = StochasticOracle(ball, params, q, seed=1, lanczos_tol=1e-6)
        kernel = lambda M: gradient_oracle(M, params, q, seed=1, key=key, lanczos_tol=1e-6)
    else:
        oracle = ExactEigOracle(ball, seed=1)
        kernel = lambda M: lanczos_leading(M, rel_tol=1e-9, rng=sample_rng(1, *key, 0))
    oracle.evaluate(w, key)  # warm numpy's caches
    build, base = ball.matrix, {}

    def matrix(point):
        M = build(point)
        base["bytes"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return M

    ball.matrix = matrix
    tracemalloc.start()
    try:
        oracle.evaluate(w, key)
        evaluation = tracemalloc.get_traced_memory()[1] - base["bytes"]
        M = matrix(w)
        kernel(M)
        spectral = tracemalloc.get_traced_memory()[1] - base["bytes"]
    finally:
        tracemalloc.stop()
    assert evaluation - spectral <= 8 * (4 * q + 4) * n  # a dense gradient takes n * n


def test_synthetic_covariance_separated_spectrum():
    rng = np.random.default_rng(15)
    A = synthetic_covariance(60, rng)
    vals = np.linalg.eigvalsh(A)[::-1]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert vals[0] - vals[1] > 0.2  # well-separated leading eigenvalues
