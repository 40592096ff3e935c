"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line with the measured quantities (run with -s to see them on
success). Tolerances are fixed here, not tuned at run time."""
import math
import time

import numpy as np
import pytest

from eigsmooth.optimize import (
    ProxSetup,
    SolverConfig,
    acsa_linesearch_run,
    acsa_run,
    nesterov_smooth_baseline,
)
from eigsmooth.phase import (
    classify_regime,
    eps_critical,
    equal_gap_model,
    monte_carlo_gap,
    sample_shifts,
)
from eigsmooth.problems import dspca_problem, maxcut_problem, synthetic_covariance
from eigsmooth.smoothing import SmoothingParams, lipschitz_bound, smoothing_constant
from eigsmooth.spectral import full_eig, symmetrize

from paper_checks import (
    DET_STAGES,
    FunctionOracle,
    ball_reference,
    box_reference,
    det_reference,
    extremal_direction,
    fk_value,
    fk_values_batch,
    gradient_variance_probe,
    local_lip_constant,
    rank_one_leading,
)


def announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------- 1


def test_criterion_1_secular_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(31415)
    worst_val, worst_vec = 0.0, 0.0
    for n in (4, 20, 100):
        for _ in range(100):
            X = symmetrize(rng.standard_normal((n, n)))
            v = rng.standard_normal(n)
            eps = float(rng.uniform(0.2, 2.0))
            dec = full_eig(X)
            pair = rank_one_leading(dec, v, eps / n)
            ref = full_eig(X + (eps / n) * np.outer(v, v))
            worst_val = max(
                worst_val,
                abs(pair.value - ref.values[0]) / (1.0 + abs(ref.values[0])),
            )
            worst_vec = max(
                worst_vec,
                min(
                    np.max(np.abs(pair.vector - ref.vectors[:, 0])),
                    np.max(np.abs(pair.vector + ref.vectors[:, 0])),
                ),
            )
    elapsed = time.time() - start
    ok = worst_val <= 1e-10 and worst_vec <= 1e-8 and elapsed < 30.0
    announce(1, ok, f"300 instances: value err {worst_val:.2e} <= 1e-10, "
                    f"vector err {worst_vec:.2e} <= 1e-8, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------- 2


def test_criterion_2_envelope():
    start = time.time()
    rng = np.random.default_rng(271828)
    eps, n, draws = 0.05, 50, 10**4
    params = SmoothingParams(eps=eps, n=n)
    margins = []
    for _ in range(5):
        X = symmetrize(rng.standard_normal((n, n)))
        dec = full_eig(X)
        vals = fk_values_batch(dec, params, draws, rng)
        mean = float(vals.mean())
        serr = float(vals.std(ddof=1)) / math.sqrt(draws)
        margins.append((
            (mean - 3 * serr) - (dec.values[0] + eps / n),
            (dec.values[0] + params.k * eps) - (mean + 3 * serr),
        ))
    lo = min(m[0] for m in margins)
    hi = min(m[1] for m in margins)
    elapsed = time.time() - start
    ok = lo >= 0.0 and hi >= 0.0 and elapsed < 120.0
    announce(2, ok, f"mean of F_3 inside [top+eps/n, top+3eps] with 3-sigma slack "
                    f"(margins {lo:.4f}, {hi:.4f}), {elapsed:.1f}s < 2min")


# ---------------------------------------------------------------------- 3


def test_criterion_3_variance_bounds():
    start = time.time()
    rng = np.random.default_rng(777)
    cases = [
        (np.zeros((20, 20)), SmoothingParams(eps=0.5, n=20), 3000),
        (np.diag(np.r_[1.0, np.zeros(19)]), SmoothingParams(eps=1e-3, n=20), 2000),
        (symmetrize(rng.standard_normal((30, 30))), SmoothingParams(eps=0.2, n=30), 2000),
    ]
    worst_var_excess = -np.inf
    worst_dev = 0.0
    for X, params, trials in cases:
        probe = gradient_variance_probe(X, params, trials, rng)
        worst_var_excess = max(
            worst_var_excess, probe.empirical_variance - (1.0 + 3.0 * probe.stderr)
        )
        worst_dev = max(worst_dev, probe.max_sq_deviation)
    elapsed = time.time() - start
    ok = worst_var_excess <= 0.0 and worst_dev <= 4.0 and elapsed < 60.0
    announce(3, ok, f"variance <= 1 + 3se at every X (max excess {worst_var_excess:.2e}), "
                    f"per-sample sq deviation max {worst_dev:.3f} <= 4, {elapsed:.1f}s < 1min")


# ---------------------------------------------------------------------- 4


def test_criterion_4_lipschitz_constants():
    start = time.time()
    c3 = smoothing_constant(3)
    assert c3 == 3.0
    assert lipschitz_bound(SmoothingParams(eps=0.05, n=1000, k=3)) == pytest.approx(60000.0)

    rng = np.random.default_rng(1234)
    z = rng.standard_normal((10**6, 3))
    est = float(np.mean(1.0 / np.max(z**2, axis=1)))

    X = np.diag([2.0, 1.0, 0.0])
    dec = full_eig(X)
    bound = local_lip_constant(dec)
    assert bound == 1.0
    h = 1e-3
    top = lambda M: float(np.linalg.eigvalsh(M)[-1])
    second = lambda Y: (top(X + h * Y) - 2.0 * top(X) + top(X - h * Y)) / h**2
    yc = extremal_direction(dec)
    sup = second(yc)
    for _ in range(50):
        Y = symmetrize(rng.standard_normal((3, 3)))
        Y /= np.linalg.norm(Y, "fro")
        sup = max(sup, second(Y))
    elapsed = time.time() - start
    ok = (
        abs(est - 1.5) <= 0.05
        and est < c3
        and abs(sup - 1.0) <= 0.1
        and second(yc) >= 0.99 * sup
        and elapsed < 60.0
    )
    announce(4, ok, f"C_3 = 3; MC E[1/max z^2] = {est:.4f} in 1.5+-0.05; "
                    f"fd sup second derivative {sup:.4f} ~ 1 within 10%, "
                    f"extremal direction attains {second(yc) / sup:.4f} >= 0.99, {elapsed:.1f}s < 1min")


# ---------------------------------------------------------------------- 5


def test_criterion_5_phase_transition_slopes():
    start = time.time()
    family = lambda n: equal_gap_model(n, gamma=1.0)
    sizes = [100, 400, 1600]
    sub = monte_carlo_gap(family, sizes, lambda e0, n: 0.5 * e0, trials=500, seed=7)
    crit = monte_carlo_gap(family, sizes, lambda e0, n: e0, trials=500, seed=7)
    sup = monte_carlo_gap(family, sizes, lambda e0, n: 2.0 * e0, trials=500, seed=7)

    m = equal_gap_model(1600)
    pred = classify_regime(m, 2.0 * eps_critical(m))
    shifts, _ = sample_shifts(m, pred.eps, 500, np.random.default_rng(99))
    iqr = float(np.subtract(*np.percentile(shifts, [75, 25])))
    t0_dev = abs(float(np.median(shifts)) - pred.t0)
    t0_tol = 3.0 * iqr / math.sqrt(500)
    elapsed = time.time() - start
    ok = (
        -1.15 <= sub.slope <= -0.85
        and -0.65 <= crit.slope <= -0.35
        and -0.65 <= sup.slope <= -0.35
        and t0_dev <= t0_tol
        and elapsed < 300.0
    )
    announce(5, ok, f"slopes sub {sub.slope:.3f} in [-1.15,-0.85], "
                    f"critical {crit.slope:.3f} and super {sup.slope:.3f} in [-0.65,-0.35], "
                    f"median(T)-t0 {t0_dev:.2e} <= {t0_tol:.2e}, {elapsed:.1f}s < 5min")


# ---------------------------------------------------------------------- 6


def test_criterion_6_line_search_behavior():
    start = time.time()
    rng = np.random.default_rng(42)
    prob = maxcut_problem(6, rng)
    setup = prob.prox_setup()

    config = SolverConfig(N=40, eps=0.1, q=2, seed=5, true_obj_every=1)
    adaptive = acsa_linesearch_run(prob, None, setup, config)
    gammas = [r.gamma for r in adaptive.trace]
    monotone = all(a >= b for a, b in zip(gammas, gammas[1:]))

    gamma = 0.05
    both = SolverConfig(N=25, eps=0.1, q=2, seed=8, gamma_max=gamma, gamma_min=gamma,
                        true_obj_every=1)
    plain = acsa_run(prob, None, setup, both)
    collapsed = acsa_linesearch_run(prob, None, setup, both)
    bit_identical = np.array_equal(plain.solution, collapsed.solution) and [
        (r.t, r.obj_true, r.obj_sampled, r.gamma, r.eigvecs) for r in plain.trace
    ] == [(r.t, r.obj_true, r.obj_sampled, r.gamma, r.eigvecs) for r in collapsed.trace]

    n, L_true, gamma_d = 5, 7.0, 0.5
    target = np.random.default_rng(10).standard_normal(n)
    target /= 2.0 * np.linalg.norm(target)
    fn = lambda x: (0.5 * L_true * float(np.sum((x - target) ** 2)), L_true * (x - target))
    quad_setup = ProxSetup(
        project=lambda x: np.clip(x, -1.0, 1.0),
        diameter=math.sqrt(n) / math.sqrt(2.0),
        center=np.zeros(n),
    )
    threshold = gamma_d / (2.0 * L_true)
    quad_cfg = SolverConfig(N=60, eps=0.0, q=1, seed=0, gamma_max=100.0 * threshold,
                            gamma_min=1e-9)
    quad = acsa_linesearch_run(None, FunctionOracle(fn), quad_setup, quad_cfg)
    floor_ok = gamma_d * threshold - 1e-15 <= quad.gamma_final <= threshold + 1e-15

    elapsed = time.time() - start
    ok = monotone and bit_identical and floor_ok and elapsed < 60.0
    announce(6, ok, f"gamma trace non-increasing: {monotone}; collapsed ladder bit-identical "
                    f"to plain run: {bit_identical}; noiseless floor {quad.gamma_final:.5f} within "
                    f"one gamma_d of {threshold:.5f}: {floor_ok}; {elapsed:.1f}s < 1min")


# ---------------------------------------------------------------------- 7


def test_criterion_7_solver_correctness_desk_scale():
    start = time.time()
    # the deterministic reference protocol is validated against a dense grid
    # refinement at n = 4 first
    rng = np.random.default_rng(1000)
    prob4 = maxcut_problem(4, rng)
    _, grid4 = ball_reference(prob4, levels=60, points=13)
    _, det4, _ = det_reference(prob4, DET_STAGES, 2000)
    validation = abs(det4 - grid4)

    prob10 = maxcut_problem(10, rng)
    _, ref10, _ = det_reference(prob10, DET_STAGES, 3000)
    eps = 0.05
    cfg = SolverConfig(N=1200, eps=eps, q=8, seed=7, oracle_tol=1e-6, true_obj_every=10)
    stoch = acsa_linesearch_run(prob10, None, prob10.prox_setup(), cfg)
    maxcut_gap = stoch.best_objective - ref10

    prob2 = dspca_problem(np.eye(2))
    _, grid2 = box_reference(prob2, levels=40, points=11)
    cfg2 = SolverConfig(N=1500, eps=eps, q=5, seed=11, oracle_tol=1e-8, true_obj_every=10)
    dspca = acsa_linesearch_run(prob2, None, prob2.prox_setup(), cfg2)
    dspca_dev = abs(dspca.best_objective - 0.5)

    elapsed = time.time() - start
    ok = (
        validation <= 1e-5
        and -1e-9 <= maxcut_gap <= 5 * eps
        and abs(grid2 - 0.5) <= 1e-9
        and dspca_dev <= eps
        and not stoch.aborted
        and elapsed < 180.0
    )
    announce(7, ok, f"det reference vs grid at n=4: {validation:.2e} <= 1e-5; "
                    f"ball dual n=10 stochastic gap {maxcut_gap:.4f} <= 5eps={5 * eps}; "
                    f"box identity n=2 objective within {dspca_dev:.4f} <= eps={eps}; "
                    f"{elapsed:.1f}s < 3min")


# ---------------------------------------------------------------------- 8


def test_criterion_8_cost_model_comparison():
    start = time.time()
    n = 100
    rng = np.random.default_rng(2024)
    prob = dspca_problem(synthetic_covariance(n, rng))
    setup = prob.prox_setup()

    # experiment preset: eps = 0.05, q = ceil(0.1/eps) = 2, k = 3, N capped at
    # O(sqrt(n)) iterations
    eps = 0.05
    cfg = SolverConfig(N=int(math.ceil(10 * math.sqrt(n))), eps=eps,
                       q=int(math.ceil(0.1 / eps)), k=3, seed=5,
                       oracle_tol=1e-6, true_obj_every=1)
    stoch = acsa_linesearch_run(prob, None, setup, cfg)

    det = nesterov_smooth_baseline(prob, setup, eps=eps, budget=400, true_obj_every=1)
    exact_accounting = det.total_eigvecs == det.iterations * n

    # deterministic cost to reach the stochastic method's best objective
    det_match = None
    best = np.inf
    for r in det.trace:
        best = min(best, r.obj_true)
        if best <= stoch.best_objective:
            det_match = r.eigvecs
            break
    elapsed = time.time() - start
    ok = (
        exact_accounting
        and det_match is not None
        and stoch.total_eigvecs < det_match
        and elapsed < 600.0
    )
    announce(8, ok, f"det charges n per exponential exactly: {exact_accounting}; "
                    f"stochastic total {stoch.total_eigvecs:.0f} eigvec-units < "
                    f"deterministic-to-match {det_match if det_match is not None else float('nan'):.0f} "
                    f"(objective {stoch.best_objective:.6f}); {elapsed:.1f}s < 10min")


# ---------------------------------------------------------------------- 9


def test_criterion_9_finite_difference_audits():
    start = time.time()
    rng = np.random.default_rng(888)
    n = 10
    X = symmetrize(rng.standard_normal((n, n)))
    params = SmoothingParams(eps=0.4, n=n)
    Z = rng.standard_normal((params.k, n))
    h = 1e-6
    worst_fk = 0.0
    checked = 0
    attempts = 0
    while checked < 10 and attempts < 40:
        attempts += 1
        Y = symmetrize(rng.standard_normal((n, n)))
        Y /= np.linalg.norm(Y, "fro")
        _, i0, phi, _ = fk_value(X, Z, params)
        up, iu, _, _ = fk_value(X + h * Y, Z, params)
        dn, idn, _, _ = fk_value(X - h * Y, Z, params)
        if not (i0 == iu == idn):
            continue  # winning index changed under +-h: not a stable point
        fd = (up - dn) / (2.0 * h)
        an = float(phi @ Y @ phi)
        worst_fk = max(worst_fk, abs(fd - an) / max(1.0, abs(an)))
        checked += 1

    from eigsmooth.optimize import softmax_smoothed

    n2 = 20
    X2 = symmetrize(rng.standard_normal((n2, n2)))
    mu = 0.5 / math.log(n2)
    _, F, p, _ = softmax_smoothed(X2, mu)
    worst_soft = 0.0
    for _ in range(10):
        Y = symmetrize(rng.standard_normal((n2, n2)))
        Y /= np.linalg.norm(Y, "fro")
        up = softmax_smoothed(X2 + h * Y, mu)[0]
        dn = softmax_smoothed(X2 - h * Y, mu)[0]
        fd = (up - dn) / (2.0 * h)
        an = float(p @ np.einsum("ki,ij,kj->k", F, Y, F))  # <sum_i p_i f_i f_i^T, Y>
        worst_soft = max(worst_soft, abs(fd - an) / max(1.0, abs(an)))
    elapsed = time.time() - start
    ok = checked == 10 and worst_fk <= 1e-5 and worst_soft <= 1e-5 and elapsed < 60.0
    announce(9, ok, f"fixed-noise directional derivatives: {checked} directions, "
                    f"max rel err {worst_fk:.2e} <= 1e-5; soft-max gradient max rel err "
                    f"{worst_soft:.2e} <= 1e-5; {elapsed:.1f}s < 1min")
