import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigsmooth.optimize import (
    TRACE_HEADER,
    ExactEigOracle,
    ProxSetup,
    SolverConfig,
    StochasticOracle,
    acsa_linesearch_run,
    acsa_run,
    coarse_gap_bound,
    expected_gap_bound,
    line_search_exit,
    nesterov_smooth_baseline,
    prox_map_euclidean,
    read_trace,
    softmax_smoothed,
    subgradient_baseline,
    write_trace,
)
from eigsmooth.problems import BallProblem, dspca_problem, maxcut_problem, synthetic_covariance
from eigsmooth.smoothing import SmoothingParams, sample_rng
from eigsmooth.spectral import lanczos_leading, symmetrize

from paper_checks import FunctionOracle, ball_reference


def box_setup(n, half):
    return ProxSetup(
        project=lambda x: np.clip(x, -half, half),
        diameter=half * math.sqrt(n) / math.sqrt(2.0),
        center=np.zeros(n),
    )


# ------------------------------------------------------------------ prox


def test_prox_box_clamps():
    setup = box_setup(3, 1.0)
    x = np.zeros(3)
    y = np.array([2.0, 0.0, 0.0])
    assert np.array_equal(prox_map_euclidean(setup, x, y), [-1.0, 0.0, 0.0])


def test_prox_ball_interior_unchanged():
    r = 2.0
    setup = ProxSetup(
        project=lambda w: w * min(1.0, r / max(np.linalg.norm(w), 1e-300)),
        diameter=r / math.sqrt(2.0),
        center=np.zeros(4),
    )
    x = np.array([0.3, -0.2, 0.1, 0.0])
    y = np.array([0.1, 0.1, -0.1, 0.2])
    assert np.allclose(prox_map_euclidean(setup, x, y), x - y)


def test_prox_argmin_property():
    rng = np.random.default_rng(0)
    setup = box_setup(5, 1.0)
    for _ in range(100):
        x = setup.project(rng.uniform(-1, 1, 5))
        y = rng.standard_normal(5)
        z = prox_map_euclidean(setup, x, y)
        obj = lambda p: float(y @ (p - x) + 0.5 * np.sum((p - x) ** 2))
        best = obj(z)
        for _ in range(50):
            cand = setup.project(rng.uniform(-1, 1, 5))
            assert best <= obj(cand) + 1e-12


# ------------------------------------------------------------- schedules


def test_expected_gap_bound_formula():
    for N in (10, 100, 1000):
        val = expected_gap_bound(100, 0.05, 3, 1.0, N, 2)
        ref = 8 * 100 * 3 * 1.0 / (0.05 * N * (N + 2)) + 4 * math.sqrt(2) / math.sqrt(2 * N)
        assert val == pytest.approx(ref)
    bounds = [expected_gap_bound(100, 0.05, 3, 1.0, N, 2) for N in (10, 30, 100, 300, 1000)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


# ------------------------------------------------------------ line search


def test_line_search_exit_affine_always_true():
    rng = np.random.default_rng(1)
    g = rng.standard_normal(4)
    x = rng.standard_normal(4)
    z = rng.standard_normal(4)
    f = lambda p: float(g @ p + 1.3)
    for gamma in (1e-3, 1.0, 1e3):
        assert line_search_exit(f(x), g, f(z), z - x, gamma)


def test_line_search_exit_quadratic_threshold():
    L_true = 4.0
    gamma_d = 0.5
    f = lambda p: 0.5 * L_true * float(p @ p)
    x = np.array([1.0])
    grad = L_true * x
    threshold = gamma_d / (2.0 * L_true)
    for gamma in (threshold, 0.5 * threshold):
        z = x - gamma * grad
        assert line_search_exit(f(x), grad, f(z), z - x, gamma)
    for gamma in (10.0 * threshold, 100.0 * threshold):
        z = x - gamma * grad
        assert not line_search_exit(f(x), grad, f(z), z - x, gamma)


# ------------------------------------------------------------- singleton


def test_singleton_feasible_set_is_fixed_point():
    rng = np.random.default_rng(2)
    X0 = symmetrize(rng.standard_normal((4, 4)))
    top = float(np.linalg.eigvalsh(X0)[-1])

    class Singleton:
        dim = 4
        diameter = 1.0

        def matrix(self, X):
            return X

        def project(self, X):
            return X0.copy()

        def composite(self, X, value, F, w=None, q=1):
            return value, (F.T @ F if w is None else (F.T * w) @ F) / q

        def prox_setup(self):
            return ProxSetup(project=self.project, diameter=1.0, center=X0.copy())

        def true_objective(self, X):
            return float(np.linalg.eigvalsh(X)[-1])

    prob = Singleton()
    config = SolverConfig(N=5, eps=0.1, k=3, q=1, seed=3)
    res = acsa_run(prob, None, prob.prox_setup(), config)
    assert np.array_equal(res.solution, X0)
    assert res.trace[-1].obj_true == pytest.approx(top, abs=1e-12)


# ------------------------------------------------------ engine invariants


def _small_maxcut(n=6, seed=4, radius=None):
    rng = np.random.default_rng(seed)
    return maxcut_problem(n, rng, radius=radius)


def test_iterates_feasible_and_md_combination_exact(monkeypatch):
    # spies log the engine's calls in order; with a row per iteration, each
    # monitor call closes an iteration and sees its aggregate x_ag
    from eigsmooth import optimize

    prob = _small_maxcut()
    calls = []
    prox, evaluate = optimize.prox_map_euclidean, optimize.StochasticOracle.evaluate

    def prox_spy(setup, x, y):
        out = prox(setup, x, y)
        calls.append(("prox", x.copy(), out.copy()))
        return out

    def evaluate_spy(self, point, key):
        calls.append(("eval", key, point.copy()))
        return evaluate(self, point, key)

    def monitor_spy(point):
        calls.append(("row", point.copy()))
        return type(prob).true_objective(prob, point)

    monkeypatch.setattr(optimize, "prox_map_euclidean", prox_spy)
    monkeypatch.setattr(optimize.StochasticOracle, "evaluate", evaluate_spy)
    monkeypatch.setattr(prob, "true_objective", monitor_spy)
    config = SolverConfig(N=30, eps=0.1, q=2, seed=5, true_obj_every=1)
    res = acsa_linesearch_run(prob, None, prob.prox_setup(), config)
    assert not res.aborted
    x = x_ag = prob.prox_setup().center
    t, md_checked = 1, 0
    for call in calls:
        if call[0] == "prox":
            assert np.array_equal(call[1], x)  # every prox step of t starts at x_{t-1}
            x_next = call[2]  # the last one is accepted
        elif call[0] == "eval" and call[1] == (t,):
            md = 2.0 / (t + 1.0) * x + (t - 1.0) / (t + 1.0) * x_ag
            assert np.array_equal(call[2], md)
            md_checked += 1
        elif call[0] == "row":
            x, x_ag = x_next, call[1]
            assert np.linalg.norm(x) <= prob.radius + 1e-12
            assert np.linalg.norm(x_ag) <= prob.radius + 1e-12
            t += 1
    assert t - 1 == 30 and md_checked == 30
    gammas = [r.gamma for r in res.trace]
    assert len(gammas) == 30
    assert all(a >= b - 1e-15 for a, b in zip(gammas, gammas[1:]))


def test_every_evaluation_is_charged_at_its_own_key(monkeypatch):
    # acceptance criterion 6's adaptive run: iteration t evaluates its midpoint
    # at key (t,) and each exit test its candidate at (t+1,); no evaluation is
    # reused, and each is charged q*k = 6 units. With a row per iteration,
    # each monitor call closes an iteration.
    from eigsmooth import optimize

    prob = maxcut_problem(6, np.random.default_rng(42))
    calls = []
    evaluate = optimize.StochasticOracle.evaluate

    def evaluate_spy(self, point, key):
        calls.append(key)
        return evaluate(self, point, key)

    def monitor_spy(point):
        calls.append("row")
        return type(prob).true_objective(prob, point)

    monkeypatch.setattr(optimize.StochasticOracle, "evaluate", evaluate_spy)
    monkeypatch.setattr(prob, "true_objective", monitor_spy)
    config = SolverConfig(N=40, eps=0.1, q=2, seed=5, true_obj_every=1)
    res = acsa_linesearch_run(prob, None, prob.prox_setup(), config)
    blocks, block = [], []
    for call in calls:
        if call == "row":
            blocks.append(block)
            block = []
        else:
            block.append(call)
    assert block == [] and len(blocks) == 40
    for t, block in enumerate(blocks, start=1):
        assert block[0] == (t,) and block[1:] == [(t + 1,)] * (len(block) - 1)
    assert all(len(block) == 1 for block in blocks[res.t_gamma + 1:])  # the search has stopped
    assert sum(map(len, blocks)) == 46 and res.total_eigvecs == 276.0
    assert [r.eigvecs for r in res.trace] == [6.0 * c for c in np.cumsum(list(map(len, blocks)))]
    assert res.trace[-1].obj_true == -11.326581370817678


def test_seed_determinism():
    prob = _small_maxcut()
    config = SolverConfig(N=20, eps=0.1, q=2, seed=7, true_obj_every=1)
    r1 = acsa_linesearch_run(prob, None, prob.prox_setup(), config)
    r2 = acsa_linesearch_run(prob, None, prob.prox_setup(), config)
    assert np.array_equal(r1.solution, r2.solution)
    assert [(a.t, a.obj_true, a.obj_sampled, a.gamma, a.eigvecs) for a in r1.trace] == [
        (b.t, b.obj_true, b.obj_sampled, b.gamma, b.eigvecs) for b in r2.trace
    ]


def test_collapsed_ladder_matches_plain_run():
    prob = _small_maxcut()
    gamma = 0.05
    config = SolverConfig(
        N=25, eps=0.1, q=2, seed=8, gamma_max=gamma, gamma_min=gamma, true_obj_every=1
    )
    plain = acsa_run(prob, None, prob.prox_setup(), config)
    adaptive = acsa_linesearch_run(prob, None, prob.prox_setup(), config)
    assert np.array_equal(plain.solution, adaptive.solution)
    assert [(a.t, a.obj_true, a.obj_sampled, a.gamma, a.eigvecs) for a in plain.trace] == [
        (b.t, b.obj_true, b.obj_sampled, b.gamma, b.eigvecs) for b in adaptive.trace
    ]


_PROBLEMS = {
    "dspca": lambda: dspca_problem(synthetic_covariance(12, np.random.default_rng(6))),
    "maxcut": lambda: _small_maxcut(n=10, seed=9),
}


def _rows(result):
    return [(r.t, r.obj_true, r.obj_sampled, r.gamma, r.eigvecs) for r in result.trace]


# the ids name the oracle path, which every solver evaluation takes
_KINDS = dict(argnames="kind", argvalues=sorted(_PROBLEMS), ids=lambda kind: f"{kind}-lanczos")


@pytest.mark.parametrize(**_KINDS)
def test_linesearch_run_is_truncation_invariant(kind):
    # N is only the loop length (and enters the reported bound), so a run cut
    # at t* repeats the first t* rows of a longer run: the time-to-target
    # measurements rest on this.
    prob = _PROBLEMS[kind]()
    config = dict(eps=0.1, q=2, seed=11, true_obj_every=1)
    full = _rows(acsa_linesearch_run(prob, None, prob.prox_setup(), SolverConfig(N=60, **config)))
    assert len(full) == 60
    for t_star in (1, 7, 23, 59):
        cut = acsa_linesearch_run(prob, None, prob.prox_setup(), SolverConfig(N=t_star, **config))
        assert _rows(cut) == full[:t_star]


@pytest.mark.parametrize(**_KINDS)
@settings(max_examples=20, derandomize=True, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_oracle_input_is_exactly_symmetric(kind, n, seed):
    # No oracle checks symmetry: the problems build A + X and C + diag(w)
    # exactly symmetric, and clip, the ball's scaling and the engine's affine
    # steps act entrywise, so every matrix that stoch_ls, acsa and subgrad
    # hand to Lanczos equals its transpose. The soft-max gradient is a
    # symmetric product, so the matrices det_smooth hands to full_eig do too,
    # and its check never symmetrizes.
    from eigsmooth import optimize

    seen = {"gradient_oracle": [], "lanczos_leading": [], "full_eig": []}

    def spy(name):
        fn = getattr(optimize, name)

        def wrapper(M, *args, **kwargs):
            seen[name].append(M)
            return fn(M, *args, **kwargs)
        return wrapper

    rng = np.random.default_rng(seed)
    prob = dspca_problem(synthetic_covariance(n, rng)) if kind == "dspca" else maxcut_problem(n, rng)
    config = SolverConfig(N=6, eps=0.1, q=2, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        for name in seen:
            mp.setattr(optimize, name, spy(name))
        acsa_linesearch_run(prob, None, prob.prox_setup(), config)
        acsa_run(prob, None, prob.prox_setup(), config)
        subgradient_baseline(prob, prob.prox_setup(), config.N, seed=seed)
        nesterov_smooth_baseline(prob, prob.prox_setup(), config.eps, config.N)
    assert len(seen["gradient_oracle"]) >= 2 * config.N
    assert len(seen["lanczos_leading"]) == config.N  # subgrad's exact oracle
    assert len(seen["full_eig"]) == config.N  # det_smooth's soft-max
    assert all(np.array_equal(M, M.T) for Ms in seen.values() for M in Ms)


def test_noiseless_quadratic_accelerated_rate():
    # exact oracle, sigma = 0: doubling N cuts the gap by at least 3x
    n = 8
    rng = np.random.default_rng(9)
    target = rng.standard_normal(n)
    target /= 2.0 * np.linalg.norm(target)  # keep the optimum inside the box
    L_true = 5.0

    def fn(x):
        return 0.5 * L_true * float(np.sum((x - target) ** 2)), L_true * (x - target)

    setup = box_setup(n, 1.0)
    gaps = {}
    for N in (50, 100):
        config = SolverConfig(N=N, eps=0.0, q=1, seed=0, gamma_min=1.0 / (2.0 * L_true))
        res = acsa_run(None, FunctionOracle(fn), setup, config)
        gaps[N] = fn(res.solution)[0]
    assert gaps[100] <= gaps[50] / 3.0


def test_linesearch_floor_on_noiseless_quadratic():
    # the gamma floor lands within one gamma_d factor of gamma_d/(2 L_true)
    n = 5
    L_true = 7.0
    rng = np.random.default_rng(10)
    target = rng.standard_normal(n)
    target /= 2.0 * np.linalg.norm(target)

    def fn(x):
        return 0.5 * L_true * float(np.sum((x - target) ** 2)), L_true * (x - target)

    setup = box_setup(n, 1.0)
    gamma_d = 0.5
    threshold = gamma_d / (2.0 * L_true)
    config = SolverConfig(
        N=60, eps=0.0, q=1, seed=0, gamma_max=100.0 * threshold,
        gamma_min=1e-9, true_obj_every=1,
    )
    res = acsa_linesearch_run(None, FunctionOracle(fn), setup, config)
    assert res.gamma_final <= threshold + 1e-15
    assert res.gamma_final >= gamma_d * threshold - 1e-15
    gammas = [r.gamma for r in res.trace]
    assert all(a >= b - 1e-15 for a, b in zip(gammas, gammas[1:]))


def test_line_search_never_steps_below_its_floor(monkeypatch):
    # gamma_max / gamma_min = 1 / 0.3 is no power of 2, so the shrink that
    # crosses the floor must land on it. Spies recover each step's scale from
    # its prox argument gamma_t * G, gamma_t = (t + 1) gamma / 2, where G is
    # the latest gradient at key (t,); with a row per iteration, each monitor
    # call closes an iteration.
    from eigsmooth import optimize

    prob = _small_maxcut(n=8)
    grads, steps, t = {}, [], [1]
    prox, evaluate = optimize.prox_map_euclidean, optimize.StochasticOracle.evaluate

    def evaluate_spy(self, point, key):
        ev = evaluate(self, point, key)
        grads[key] = ev.grad
        return ev

    def prox_spy(setup, x, y):
        g = grads[(t[0],)]
        steps.append((t[0], 2.0 * float(np.vdot(y, g) / np.vdot(g, g)) / (t[0] + 1.0)))
        return prox(setup, x, y)

    def monitor_spy(point):
        t[0] += 1
        return type(prob).true_objective(prob, point)

    monkeypatch.setattr(optimize, "prox_map_euclidean", prox_spy)
    monkeypatch.setattr(optimize.StochasticOracle, "evaluate", evaluate_spy)
    monkeypatch.setattr(prob, "true_objective", monitor_spy)
    config = SolverConfig(N=10, eps=0.1, q=2, seed=5, gamma_max=1.0, gamma_min=0.3,
                          true_obj_every=1)
    res = acsa_linesearch_run(prob, None, prob.prox_setup(), config)
    assert not res.aborted and res.gamma_final == 0.3
    assert min(gamma for _, gamma in steps) == pytest.approx(0.3, rel=1e-12)
    assert all(gamma >= 0.3 * (1.0 - 1e-12) for _, gamma in steps)
    # each row's gamma is the scale of the step its iteration took
    accepted = dict(steps)  # the last step of an iteration is the one it keeps
    assert [r.gamma for r in res.trace] == pytest.approx([accepted[r.t] for r in res.trace],
                                                         rel=1e-12)


def _det_continuation_reference(prob, per_stage=3000):
    stages = (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6)
    setup = prob.prox_setup()
    x = setup.center
    best = float("inf")
    for eps_s in stages:
        warm = ProxSetup(project=setup.project, diameter=setup.diameter, center=x)
        res = nesterov_smooth_baseline(prob, warm, eps_s, per_stage, true_obj_every=per_stage)
        x = res.solution
        best = min(best, prob.true_objective(x))
    return best


def test_plain_acsa_reaches_reference_on_ball_dual():
    # 2000-iteration plain run lands within 5 eps of a tightly solved reference
    rng = np.random.default_rng(314)
    prob = maxcut_problem(10, rng)
    ref = _det_continuation_reference(prob)
    eps = 0.05
    config = SolverConfig(N=2000, eps=eps, q=8, seed=3, true_obj_every=20)
    res = acsa_run(prob, None, prob.prox_setup(), config)
    assert not res.aborted
    assert res.best_objective - ref <= 5 * eps
    assert res.best_objective >= ref - 1e-9  # the reference really is a lower envelope


def test_acsa_reaches_reference_on_small_ball_problem():
    prob = _small_maxcut(n=6, seed=11, radius=6.0)
    setup = prob.prox_setup()
    eps = 0.05
    N, q = 600, 10
    config = SolverConfig(N=N, eps=eps, q=q, seed=12, oracle_tol=1e-7)
    res = acsa_run(prob, None, setup, config)
    assert not res.aborted
    # coordinate-grid reference is impractical at n = 6; compare against a
    # long line-search run instead, which tracks the optimum tightly
    ref_config = SolverConfig(N=2000, eps=0.02, q=10, seed=13, oracle_tol=1e-7)
    ref = acsa_linesearch_run(prob, None, setup, ref_config)
    assert res.best_objective <= ref.best_objective + 5 * eps


def test_oracle_failure_aborts_with_partial_trace():
    from eigsmooth.optimize import OracleEval
    from eigsmooth.spectral import LanczosConvergenceError

    class FlakyOracle:
        def __init__(self, fail_at):
            self.fail_at = fail_at

        def evaluate(self, point, key):
            if key[0] >= self.fail_at:
                raise LanczosConvergenceError("injected failure")
            return OracleEval(value=float(np.sum(point**2)), grad=2.0 * point, cost=1.0)

    setup = box_setup(3, 1.0)
    config = SolverConfig(N=20, eps=0.0, q=1, seed=0, gamma_min=0.05, true_obj_every=1)
    res = acsa_run(None, FlakyOracle(fail_at=6), setup, config)
    assert res.aborted
    assert "injected failure" in res.abort_reason
    assert res.iterations == 5
    assert res.trace and res.trace[-1].t == 5


@pytest.mark.parametrize("failure", ["nonfinite", "linalg", "spectral", "bug"])
def test_numerical_oracle_failure_aborts(monkeypatch, failure):
    from eigsmooth import optimize
    from eigsmooth.spectral import LanczosConvergenceError

    evaluate = optimize.StochasticOracle.evaluate

    def failing(self, point, key):
        if key[0] == 3:
            if failure == "nonfinite":
                point = np.full_like(point, np.nan)  # its first Lanczos alpha is NaN
            elif failure == "linalg":
                raise np.linalg.LinAlgError("injected eigh failure")
            elif failure == "spectral":
                raise LanczosConvergenceError("injected failure")
            else:
                raise TypeError("injected bug")
        return evaluate(self, point, key)

    monkeypatch.setattr(optimize.StochasticOracle, "evaluate", failing)
    prob = _small_maxcut()
    config = SolverConfig(N=10, eps=0.1, q=2, seed=5, true_obj_every=1)
    if failure == "bug":
        with pytest.raises(TypeError):
            acsa_run(prob, None, prob.prox_setup(), config)
        return
    res = acsa_run(prob, None, prob.prox_setup(), config)
    assert res.aborted
    assert res.iterations == 2
    assert [r.t for r in res.trace] == [1, 2]
    reason = {"nonfinite": "ValueError: matrix entries must be finite",
              "linalg": "LinAlgError: injected", "spectral": "injected failure"}[failure]
    assert reason in res.abort_reason
    if failure == "nonfinite":  # the exact oracle's Lanczos run rejects it the same way
        exact = optimize.ExactEigOracle.evaluate

        def nan_at_3(self, point, key):
            return exact(self, np.full_like(point, np.nan) if key[0] == 3 else point, key)

        monkeypatch.setattr(optimize.ExactEigOracle, "evaluate", nan_at_3)
        res = subgradient_baseline(prob, prob.prox_setup(), 10, seed=5, true_obj_every=1)
        assert res.aborted and res.iterations == 2
        assert [r.t for r in res.trace] == [1, 2]
        assert reason in res.abort_reason


@pytest.mark.parametrize("place", ["oracle", "pull_back", "project", "monitor"])
@pytest.mark.parametrize("algorithm", ["acsa", "subgrad", "det_smooth"])
def test_interrupt_ends_the_run_with_its_trace(monkeypatch, algorithm, place):
    # an interrupt at the third call of the oracle, the gradient's pull-back,
    # the projection or the trace's objective monitor ends each solver loop as
    # a numerical failure does, keeping rows t = 1 and 2 and the solution of
    # the last completed iteration, and names itself
    from eigsmooth import optimize

    prob = _small_maxcut()
    setup = prob.prox_setup()
    run = {
        "acsa": lambda N: acsa_run(prob, None, setup,
                                   SolverConfig(N=N, eps=0.1, q=2, seed=5, true_obj_every=1)),
        "subgrad": lambda N: subgradient_baseline(prob, setup, N, seed=5, true_obj_every=1),
        "det_smooth": lambda N: nesterov_smooth_baseline(prob, setup, 0.1, N, true_obj_every=1),
    }[algorithm]
    completed = run(2)  # before the spies go in
    calls = []

    def interrupting(fn):
        def spy(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return fn(*args, **kwargs)
        return spy

    if place == "oracle":
        monkeypatch.setattr(optimize, "gradient_oracle", interrupting(optimize.gradient_oracle))
        monkeypatch.setattr(optimize.ExactEigOracle, "evaluate",
                            interrupting(optimize.ExactEigOracle.evaluate))
        monkeypatch.setattr(optimize, "softmax_smoothed", interrupting(optimize.softmax_smoothed))
    else:
        owner, name = {"pull_back": (prob, "pull_back"), "project": (setup, "project"),
                       "monitor": (prob, "true_objective")}[place]
        monkeypatch.setattr(owner, name, interrupting(getattr(owner, name)))
    try:
        res = run(10)
    except KeyboardInterrupt:  # escaped, it would end the whole test session
        pytest.fail("the interrupt escaped the solver loop")
    assert res.aborted and res.abort_reason == "KeyboardInterrupt"
    assert res.iterations == 2
    assert [r.t for r in res.trace] == [1, 2]
    assert np.array_equal(res.solution, completed.solution)


def test_aborted_line_search_reports_its_committed_scale(monkeypatch):
    # the line search shrinks the scale inside iteration 2 (4.44 -> 2.22); an
    # interrupt at that iteration's monitor reports the scale and t_gamma of
    # iteration 1, with its solution, not the shrunk trial scale
    prob = _small_maxcut()
    setup = prob.prox_setup()

    def run(N):
        config = SolverConfig(N=N, eps=0.1, q=2, seed=5, true_obj_every=1)
        return acsa_linesearch_run(prob, None, setup, config)

    completed = {N: run(N) for N in (1, 2, 3, 10)}
    top, half, floor = 4.444444444444445, 2.2222222222222223, 0.2777777777777778
    ladders = {1: [top], 2: [top, half], 3: [top, half, floor], 10: [top, half] + [floor] * 8}
    for N, res in completed.items():
        assert [r.gamma for r in res.trace] == ladders[N]
        assert (res.gamma_final, res.t_gamma) == (ladders[N][-1], min(N, 2))
    monitor, calls = prob.true_objective, []

    def interrupting(point):
        calls.append(None)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return monitor(point)

    monkeypatch.setattr(prob, "true_objective", interrupting)
    res = run(10)
    assert res.aborted and res.iterations == 1
    assert (res.gamma_final, res.t_gamma) == (completed[1].gamma_final, completed[1].t_gamma)
    assert np.array_equal(res.solution, completed[1].solution)


def test_det_smooth_failure_aborts(monkeypatch):
    from eigsmooth import optimize

    softmax = optimize.softmax_smoothed
    calls = {"n": 0}

    def failing(M, mu):
        calls["n"] += 1
        if calls["n"] == 3:
            raise np.linalg.LinAlgError("injected eigh failure")
        return softmax(M, mu)

    monkeypatch.setattr(optimize, "softmax_smoothed", failing)
    rng = np.random.default_rng(21)
    prob = dspca_problem(synthetic_covariance(10, rng))
    res = nesterov_smooth_baseline(prob, prob.prox_setup(), eps=0.1, budget=7, true_obj_every=1)
    assert res.aborted
    assert "LinAlgError" in res.abort_reason
    assert res.iterations == 2
    assert [r.t for r in res.trace] == [1, 2]
    assert res.total_eigvecs == 2 * 10


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(N=0, eps=0.1)
    with pytest.raises(ValueError):
        SolverConfig(N=5, eps=0.1, gamma_max=0.1, gamma_min=0.2)
    # the other field checks run in test_cli.py's config-mistake cases
    for field, value in [("gamma_max", -1.0), ("eps", math.nan), ("eps", -1.0), ("eps", math.inf),
                         ("oracle_tol", 0.0), ("true_obj_every", 0), ("seed", -1),
                         ("eps", 5e-324),  # 0.1/eps overflows: no q to derive
                         # counts are integers: none is rounded, or fails later in range()
                         ("N", 5.0), ("k", 3.5), ("q", 2.5), ("seed", 1.5), ("seed", 2.0),
                         ("true_obj_every", 2.0)]:
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{"N": 5, "eps": 0.1, field: value})
    assert SolverConfig(N=5, eps=0.0, k=1).k == 1  # k >= 3 only where the smoothing needs it
    assert SolverConfig(N=np.int64(5), eps=0.1, seed=np.uint32(2)).N == 5  # numpy integers count


def test_solver_config_derives_q_from_eps():
    # unset, q = max(1, ceil(0.1 / eps)) samples per oracle call, and 1 unsmoothed
    assert SolverConfig(N=5, eps=0.05).q == 2
    assert SolverConfig(N=5, eps=0.03).q == 4
    assert SolverConfig(N=5, eps=0.5).q == 1
    assert SolverConfig(N=5, eps=0.0).q == 1
    assert SolverConfig(N=5, eps=0.05, q=7).q == 7
    # where 0.1/eps overflows, q must be set, and any q at least 1 is valid
    with pytest.raises(ValueError, match=re.escape(
            "eps=5e-324 is too small to derive q = ceil(0.1/eps); set q")):
        SolverConfig(N=5, eps=5e-324)
    assert SolverConfig(N=5, eps=5e-324, q=3).q == 3
    assert SolverConfig(N=5, eps=1e-300).q == math.ceil(0.1 / 1e-300)


@pytest.mark.parametrize("build", [
    lambda prob: StochasticOracle(prob, SmoothingParams(eps=0.1, n=prob.dim), 2, -1, 1e-6),
    lambda prob: ExactEigOracle(prob, -1),
], ids=["stochastic", "exact"])
def test_oracles_reject_a_negative_seed(build):
    # at construction, as SolverConfig does, not as an abort of the first evaluation
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
        build(_small_maxcut())


def test_exact_oracle_stream_is_disjoint_from_the_data_stream(monkeypatch):
    # the CLI draws its problem data from sample_rng(seed, 9001); a subgrad
    # run's evaluation at key (9001,) must not start Lanczos from that stream
    from eigsmooth import optimize

    starts = []

    def spy(M, rel_tol, *, rng):
        starts.append(copy.deepcopy(rng).standard_normal(M.shape[0]))
        return lanczos_leading(M, rel_tol, rng=rng)

    monkeypatch.setattr(optimize, "lanczos_leading", spy)
    prob = _small_maxcut()
    ExactEigOracle(prob, seed=5).evaluate(prob.center(), (9001,))
    assert not np.array_equal(starts[0], sample_rng(5, 9001).standard_normal(prob.dim))
    assert np.array_equal(starts[0], sample_rng(5, 9001, 0).standard_normal(prob.dim))


def test_generic_runs_need_explicit_gammas():
    # problem None: no smoothing derives the step scale, so the caller sets it
    oracle, setup = FunctionOracle(lambda x: (float(x @ x), 2.0 * x)), box_setup(3, 1.0)
    config = SolverConfig(N=3, eps=0.0)
    with pytest.raises(ValueError, match="'gamma_max' and 'gamma_min' are required"):
        acsa_linesearch_run(None, oracle, setup, config)
    with pytest.raises(ValueError, match="set 'gamma_min' explicitly"):
        acsa_run(None, oracle, setup, config)


@pytest.mark.parametrize("run", [acsa_run, acsa_linesearch_run])
def test_runs_take_exactly_one_source(monkeypatch, run):
    # a problem brings its smoothed oracle and a generic run the caller's:
    # both, or neither, is rejected before any evaluation
    from eigsmooth import optimize

    calls = []
    evaluate = optimize.StochasticOracle.evaluate
    monkeypatch.setattr(optimize.StochasticOracle, "evaluate",
                        lambda self, point, key: calls.append(key) or evaluate(self, point, key))
    prob = _small_maxcut()
    config = SolverConfig(N=3, eps=0.1, q=2, gamma_max=1.0, gamma_min=0.5)
    for problem, oracle in ((prob, FunctionOracle(calls.append)), (None, None)):
        with pytest.raises(ValueError, match="^a run takes exactly one of 'problem' and 'oracle'$"):
            run(problem, oracle, prob.prox_setup(), config)
    assert calls == []


@pytest.mark.parametrize("run", [acsa_run, acsa_linesearch_run])
def test_problem_runs_reject_eps_zero(run):
    # a problem is always smoothed: eps = 0 is rejected even with both gammas set
    prob = _small_maxcut()
    config = SolverConfig(N=3, eps=0.0, gamma_max=1.0, gamma_min=0.5)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        run(prob, None, prob.prox_setup(), config)


@pytest.mark.parametrize("run, kwargs, field", [
    (nesterov_smooth_baseline, {"eps": 0.0, "budget": 5}, "eps"),
    (nesterov_smooth_baseline, {"eps": 0.1, "budget": 0}, "N"),
    (nesterov_smooth_baseline, {"eps": 0.1, "budget": 5, "true_obj_every": 0}, "true_obj_every"),
    (subgradient_baseline, {"budget": 0}, "N"),
    (subgradient_baseline, {"budget": 5, "true_obj_every": 0}, "true_obj_every"),
    # a run seed keys every noise draw: a negative one is a setting, not an abort
    (subgradient_baseline, {"budget": 5, "seed": -1}, "seed"),
    # counts are integers, as SolverConfig's are: not a TypeError from range()
    (nesterov_smooth_baseline, {"eps": 0.1, "budget": 5.0}, "N"),
    (nesterov_smooth_baseline, {"eps": 0.1, "budget": 5, "true_obj_every": 1.0}, "true_obj_every"),
    (subgradient_baseline, {"budget": 5.0}, "N"),
    (subgradient_baseline, {"budget": 5, "true_obj_every": 1.0}, "true_obj_every"),
])
def test_baselines_reject_settings_before_any_oracle_call(monkeypatch, run, kwargs, field):
    from eigsmooth import optimize

    calls = []

    def spying(name, fn):
        def spy(*args):
            calls.append(name)
            return fn(*args)
        return spy

    monkeypatch.setattr(optimize, "softmax_smoothed", spying("softmax", optimize.softmax_smoothed))
    monkeypatch.setattr(optimize.ExactEigOracle, "evaluate",
                        spying("exact", optimize.ExactEigOracle.evaluate))
    prob = dspca_problem(synthetic_covariance(6, np.random.default_rng(5)))
    with pytest.raises(ValueError, match=f"^{field} must"):
        run(prob, prob.prox_setup(), **kwargs)
    assert calls == []


def test_gap_bound_logged():
    prob = _small_maxcut()
    config = SolverConfig(N=10, eps=0.1, q=2, seed=14)
    res = acsa_run(prob, None, prob.prox_setup(), config)
    manual = expected_gap_bound(prob.dim, 0.1, 3, prob.diameter, 10, 2)
    assert res.gap_bound == pytest.approx(manual)
    assert res.t_gamma == 0  # a one-rung ladder starts at its floor
    res_ls = acsa_linesearch_run(prob, None, prob.prox_setup(), config)
    assert res_ls.gap_bound is not None and res_ls.t_gamma is not None


def test_coarse_bound_rho_term():
    val = coarse_gap_bound(
        L=10.0, diameter=1.0, N=100, sigma2=0.5, gamma_max=0.1, gamma_min=0.01,
        t_gamma=20, mu=0.15,
    )
    rho = (22.0**3) / (102.0**3)
    ref = (
        8 * 10 / 100**2
        + 8 * math.sqrt(0.5) / 10.0 * (10.0 * rho + 1 - rho)
        + 22.0**2 * 0.1 * 0.15 / (100**2 * 2 * 0.01)
    )
    assert val == pytest.approx(ref)


# ------------------------------------------------------------- baselines


def test_subgradient_singleton_fixed_point():
    prob = BallProblem(C=np.eye(3), radius=1e-12)
    setup = prob.prox_setup()
    res = subgradient_baseline(prob, setup, budget=10, seed=15)
    assert np.linalg.norm(res.solution) <= 1e-11


def test_subgradient_best_iterate_monotone():
    prob = _small_maxcut(n=10, seed=16)
    res = subgradient_baseline(prob, prob.prox_setup(), budget=200, seed=17, true_obj_every=1)
    best = [r.obj_true for r in res.trace]
    assert all(a >= b - 1e-12 for a, b in zip(best, best[1:]))


def test_subgradient_monitors_best_only_when_it_moves(monkeypatch):
    # the dense monitor runs once per row whose best iterate changed; rows
    # that hand back the same best iterate reuse its value
    from eigsmooth import optimize

    prob = _small_maxcut(n=30, seed=3)
    rows, monitored = [], []
    row = optimize._Recorder.row

    def row_spy(self, t, point, sampled, gamma=float("nan")):
        if not (t % self.every and t != self.budget):
            rows.append(point.copy())
        return row(self, t, point, sampled, gamma)

    def monitor_spy(point):
        monitored.append(point.copy())
        return type(prob).true_objective(prob, point)

    monkeypatch.setattr(optimize._Recorder, "row", row_spy)
    monkeypatch.setattr(prob, "true_objective", monitor_spy)
    res = subgradient_baseline(prob, prob.prox_setup(), budget=400, seed=3)
    moved = [x for i, x in enumerate(rows) if i == 0 or not np.array_equal(x, rows[i - 1])]
    assert len(rows) == len(res.trace) == 200
    assert len(monitored) == len(moved) < len(rows) // 2
    assert all(np.array_equal(a, b) for a, b in zip(monitored, moved))
    for record, x in zip(res.trace, rows):
        assert record.obj_true == type(prob).true_objective(prob, x)


def test_subgradient_rate_order():
    # reaches gap <= eps within 10x of (D / eps)^2 iterations on a 2-d problem
    prob = _small_maxcut(n=2, seed=18, radius=2.0)
    setup = prob.prox_setup()
    _, ref = ball_reference(prob, levels=20, points=15)
    eps = 0.05
    budget = int(10 * (setup.diameter / eps) ** 2)
    res = subgradient_baseline(prob, setup, budget=budget, seed=19, true_obj_every=1)
    hit = [r.t for r in res.trace if r.obj_true <= ref + eps]
    assert hit, "subgradient never reached the target gap"
    assert hit[0] <= budget


def test_softmax_envelope_and_gradient():
    rng = np.random.default_rng(20)
    n = 12
    X = symmetrize(rng.standard_normal((n, n)))
    eps = 0.3
    mu = eps / math.log(n)
    value, F, p, cost = softmax_smoothed(X, mu)
    grad = (F.T * p) @ F  # the gradient sum_i p_i f_i f_i^T of the factors
    top = float(np.linalg.eigvalsh(X)[-1])
    assert top - eps <= value <= top
    assert cost == n
    assert np.trace(grad) == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(grad)) >= -1e-14
    # central finite differences along random directions
    for _ in range(5):
        Y = symmetrize(rng.standard_normal((n, n)))
        Y /= np.linalg.norm(Y, "fro")
        h = 1e-6
        up = softmax_smoothed(X + h * Y, mu)[0]
        dn = softmax_smoothed(X - h * Y, mu)[0]
        fd = (up - dn) / (2 * h)
        an = float(np.sum(grad * Y))
        assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))


def test_softmax_matches_exponential_series():
    # At ||X/mu||_2 = 0.9 the 50-term Taylor series E of exp(X/mu) is exact
    # to rounding: the gradient is E / tr E and the value mu log(tr E / n).
    rng = np.random.default_rng(14)
    n, mu = 20, 0.5
    X = symmetrize(rng.standard_normal((n, n)))
    X *= 0.9 * mu / np.linalg.norm(X, 2)
    series = np.eye(n)
    term = np.eye(n)
    for k in range(1, 51):
        term = term @ (X / mu) / k
        series = series + term
    value, F, p, _ = softmax_smoothed(X, mu)
    grad = (F.T * p) @ F
    trace = float(np.trace(series))
    assert np.max(np.abs(grad - series / trace)) <= 1e-12
    assert value == pytest.approx(mu * math.log(trace) - mu * math.log(n), rel=1e-12, abs=1e-14)


def test_softmax_at_zero():
    n = 5
    value, F, p, _ = softmax_smoothed(np.zeros((n, n)), 0.3)
    grad = (F.T * p) @ F
    assert value == 0.0
    assert np.max(np.abs(grad - np.eye(n) / n)) <= 1e-15


def test_softmax_far_apart_eigenvalues_do_not_overflow():
    # exp(1e4) overflows, but the shifted exponentials never see it
    with np.errstate(over="raise"):
        value, F, p, _ = softmax_smoothed(np.diag([1e4, 0.0]), 1.0)
        grad = (F.T * p) @ F
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    assert np.array_equal(grad, np.diag([1.0, 0.0]))


def test_det_baseline_cost_is_n_per_iteration():
    rng = np.random.default_rng(21)
    A = synthetic_covariance(10, rng)
    prob = dspca_problem(A)
    res = nesterov_smooth_baseline(prob, prob.prox_setup(), eps=0.1, budget=7)
    assert res.total_eigvecs == 7 * 10
    assert res.iterations == 7


def test_det_baseline_descends():
    rng = np.random.default_rng(22)
    A = synthetic_covariance(12, rng)
    prob = dspca_problem(A)
    res = nesterov_smooth_baseline(prob, prob.prox_setup(), eps=0.05, budget=60, true_obj_every=1)
    assert res.trace[-1].obj_true < res.trace[0].obj_true
    assert res.best_objective < 1.0  # below the unperturbed top eigenvalue


# ------------------------------------------------------------- trace I/O


def test_trace_roundtrip(tmp_path):
    prob = _small_maxcut()
    config = SolverConfig(N=12, eps=0.1, q=1, seed=23, true_obj_every=1)
    res = acsa_linesearch_run(prob, None, prob.prox_setup(), config)
    path = tmp_path / "trace.csv"
    write_trace(path, res.trace)
    back = read_trace(path)
    assert [(r.t, r.obj_true, r.obj_sampled, r.gamma, r.eigvecs) for r in back] == [
        (r.t, r.obj_true, r.obj_sampled, r.gamma, r.eigvecs) for r in res.trace
    ]
    assert all(r.wall_ms == 0.0 for r in back)


def test_trace_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2,3,4,5,6\n")
    with pytest.raises(ValueError):
        read_trace(path)


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_read_trace_rejects_an_empty_file(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty trace$"):
        read_trace(path)


_GOOD_ROW = "1,nan,0.5,nan,6.0,0.0\n"  # obj_true and gamma may be NaN


@pytest.mark.parametrize("row, message", [
    ("2,0.4,0.5,0.1,8.0", "expected 6 values, got 5"),
    ("2,0.4,0.5,0.1,8.0,0.0,1", "expected 6 values, got 7"),
    ("x,0.4,0.5,0.1,8.0,0.0", "non-numeric entry"),
    ("2.0,0.4,0.5,0.1,8.0,0.0", "non-numeric entry"),
    ("2,0.4,abc,0.1,8.0,0.0", "non-numeric entry"),
    ("1,0.4,0.5,0.1,8.0,0.0", "t must rise, got 1 after 1"),
    ("0,0.4,0.5,0.1,8.0,0.0", "t must rise, got 0 after 1"),
    ("2,0.4,0.5,0.1,3.0,0.0", "eigvecs must be finite and nondecreasing, got 3.0 after 6.0"),
    ("2,0.4,0.5,0.1,nan,0.0", "eigvecs must be finite and nondecreasing, got nan"),
    ("2,0.4,0.5,0.1,inf,0.0", "eigvecs must be finite and nondecreasing, got inf"),
])
def test_read_trace_names_path_and_line(tmp_path, row, message):
    path = tmp_path / "t.csv"
    path.write_text(f"{TRACE_HEADER}\n{_GOOD_ROW}\n{row}\n")  # the blank line counts
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: {message}")):
        read_trace(path)
    path.write_text(f"{TRACE_HEADER}\n{_GOOD_ROW}")
    assert [r.eigvecs for r in read_trace(path)] == [6.0]
