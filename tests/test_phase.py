import math
import re
import tracemalloc

import numpy as np
import pytest

from eigsmooth.phase import (
    SpectrumModel,
    classify_regime,
    eps_critical,
    equal_gap_model,
    load_spectrum,
    monte_carlo_gap,
    sample_shifts,
    t0_solve,
    tile_model,
    write_phase_report,
)
from eigsmooth import spectral
from eigsmooth.smoothing import sample_rng
from eigsmooth.spectral import SpectralError, secular_shifts_batch

FIG_SPECTRUM = np.array([1.0, 0.0, -2.0, -2.0])

# median of a chi-square with one degree of freedom
CHI2_1_MEDIAN = 0.4549364231195724


# ---------------------------------------------------------------- models


def test_model_detects_multiplicity():
    m = SpectrumModel.from_lambdas(np.array([2.0, 2.0, 1.0, 0.5]))
    assert m.multiplicity == 2
    assert m.gamma_gap == 1.0
    assert np.allclose(m.deltas, [0.0, 0.5])


def test_model_rejects_flat_spectrum():
    with pytest.raises(ValueError):
        SpectrumModel.from_lambdas(np.array([1.0, 1.0, 1.0]))


def test_model_rejects_nonfinite_eigenvalues():
    # checked first: NaN or inf would otherwise reach the gap rule or the secular solver
    for lam in ([np.nan, 1.0], [np.inf, 1.0], [2.0, 1.0, -np.inf], [np.inf, np.inf, 1.0]):
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            SpectrumModel.from_lambdas(np.array(lam))
    with pytest.raises(ValueError, match="gamma must be finite and positive, got nan"):
        equal_gap_model(10, gamma=np.nan)


@pytest.mark.parametrize("kwargs, message", [
    ({"multiplicity": 0}, "multiplicity must be at least 1, got 0"),
    ({"multiplicity": -1}, "multiplicity must be at least 1, got -1"),
    ({"multiplicity": -9}, "multiplicity must be at least 1, got -9"),
    ({"gamma": 0.0}, "gamma must be finite and positive, got 0.0"),
    ({"gamma": -1.0}, "gamma must be finite and positive, got -1.0"),
    ({"gamma": np.inf}, "gamma must be finite and positive, got inf"),
])
def test_equal_gap_model_names_its_settings(kwargs, message):
    # a negative multiplicity must not index the spectrum from its end
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        equal_gap_model(10, **kwargs)


@pytest.mark.parametrize("call, error, message", [
    (lambda: tile_model(equal_gap_model(5, multiplicity=2), 2), ValueError,
     "n must exceed the top multiplicity 2"),
    (lambda: classify_regime(equal_gap_model(10), 0.0), ValueError,
     "eps must be finite and positive, got 0.0"),
    (lambda: classify_regime(equal_gap_model(10), -1.0), ValueError,
     "eps must be finite and positive, got -1.0"),
    # before t0_solve, not after 120 evaluations or as a RuntimeWarning
    (lambda: classify_regime(equal_gap_model(10), math.nan), ValueError,
     "eps must be finite and positive, got nan"),
    (lambda: classify_regime(equal_gap_model(10), math.inf), ValueError,
     "eps must be finite and positive, got inf"),
    # counts are integers: none is truncated
    (lambda: monte_carlo_gap(equal_gap_model, [100.6], lambda eps0, n: eps0, 200), ValueError,
     "n must be an integer, got 100.6"),
    (lambda: monte_carlo_gap(equal_gap_model, [100], lambda eps0, n: eps0, 200.9), ValueError,
     "trials must be an integer, got 200.9"),
    # a spectrum holds two eigenvalues at least; a draw count is never negative
    (lambda: monte_carlo_gap(equal_gap_model, [1, 100], lambda eps0, n: eps0, 200), ValueError,
     "n must be at least 2, got 1"),
    (lambda: sample_shifts(equal_gap_model(10), 1.0, -1, np.random.default_rng(0)), ValueError,
     "trials must be at least 0, got -1"),
    (lambda: SpectrumModel.from_lambdas([1.0, 2.0, 0.5]), ValueError,
     "eigenvalues must be in decreasing order"),
    # the caller's eps by its own name, not the secular scale eps / n
    (lambda: sample_shifts(equal_gap_model(10), 0.0, 5, np.random.default_rng(0)), ValueError,
     "eps must be finite and positive, got 0.0"),
    (lambda: sample_shifts(equal_gap_model(10), -1.0, 5, np.random.default_rng(0)), ValueError,
     "eps must be finite and positive, got -1.0"),
    (lambda: sample_shifts(equal_gap_model(10), math.nan, 5, np.random.default_rng(0)), ValueError,
     "eps must be finite and positive, got nan"),
], ids=["tile_n", "regime_eps_0", "regime_eps_negative", "regime_eps_nan", "regime_eps_inf",
        "sweep_n_float", "sweep_trials_float", "sweep_n_one", "shifts_trials_negative",
        "from_lambdas_increasing", "shifts_eps_0", "shifts_eps_negative", "shifts_eps_nan"])
def test_phase_checks_name_the_fault(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_monte_carlo_rejects_repeated_size():
    def family(n):
        raise AssertionError("no model is built before the sizes are checked")

    with pytest.raises(ValueError, match=r"n_list repeats a size: \[100, 400, 100\]"):
        monte_carlo_gap(family, [100, 400, 100], lambda eps0, n: eps0, 200)


def test_equal_gap_model_shape():
    m = equal_gap_model(10, gamma=0.5, multiplicity=2)
    assert m.n == 10 and m.multiplicity == 2
    assert np.all(m.deltas == 0.0)


def test_duplication_moves_eps0_by_order_one_over_n():
    # duplicating every non-leading eigenvalue (n -> 2n - 1) keeps the gap
    # profile density; eps0 moves by O(1/n)
    base = SpectrumModel.from_lambdas(FIG_SPECTRUM)
    doubled = tile_model(base, 2 * base.n - 1)
    assert abs(eps_critical(doubled) - eps_critical(base)) <= 2.0 / base.n
    rng = np.random.default_rng(8)
    lam = np.concatenate(([1.0], np.sort(rng.uniform(-1.0, 0.0, 99))[::-1]))
    big = SpectrumModel.from_lambdas(lam)
    doubled_big = tile_model(big, 2 * big.n - 1)
    assert abs(eps_critical(doubled_big) - eps_critical(big)) <= 2.0 / big.n


# ---------------------------------------------------------------- eps0


def test_eps0_equal_gaps_closed_form():
    for n in (5, 50, 500):
        m = equal_gap_model(n, gamma=1.0)
        assert eps_critical(m) == pytest.approx(n / (n - 1.0), rel=1e-14)


def test_eps0_fixed_spectrum():
    m = SpectrumModel.from_lambdas(FIG_SPECTRUM)
    # 1/eps0 = (1/4)(1/1 + 1/3 + 1/3) = 5/12
    assert eps_critical(m) == pytest.approx(2.4, rel=1e-14)


# ---------------------------------------------------------------- t0


def test_t0_equal_gaps_closed_form():
    n, gamma = 40, 1.0
    m = equal_gap_model(n, gamma=gamma)
    for eps in (1.5, 2.0, 4.0):
        if eps <= eps_critical(m):
            continue
        t0 = t0_solve(m, eps)
        assert t0 == pytest.approx(eps * (n - 1.0) / n - gamma, rel=1e-12)


def test_t0_residual_and_bound():
    m = SpectrumModel.from_lambdas(FIG_SPECTRUM)
    eps = 4.0
    t0 = t0_solve(m, eps)
    base = m.gamma_gap + m.deltas
    residual = abs(1.0 / eps - np.sum(1.0 / (t0 + base)) / m.n)
    assert residual <= 1e-12
    assert t0 <= (1.0 - m.multiplicity / m.n) * eps


def test_t0_rejects_subcritical():
    m = SpectrumModel.from_lambdas(FIG_SPECTRUM)
    for eps in (1.0, math.nan, math.inf):  # no solve runs on a non-finite eps
        with pytest.raises(ValueError):
            t0_solve(m, eps)


def test_t0_monotone_in_eps():
    m = equal_gap_model(30)
    eps0 = eps_critical(m)
    grid = np.linspace(1.1 * eps0, 5.0 * eps0, 12)
    roots = [t0_solve(m, e) for e in grid]
    assert all(a < b for a, b in zip(roots, roots[1:]))


# ---------------------------------------------------------------- regimes


def test_classify_fig_spectrum():
    m = SpectrumModel.from_lambdas(FIG_SPECTRUM)
    assert classify_regime(m, 1.0).regime == "sub"
    assert classify_regime(m, eps_critical(m)).regime == "critical"
    pred = classify_regime(m, 4.0)
    assert pred.regime == "super" and pred.t0 > 0.0
    assert classify_regime(m, 1.0).predicted_order == -1.0
    assert classify_regime(m, 4.0).predicted_order == 0.0


def test_prediction_statistics_match_definitions():
    rng = np.random.default_rng(0)
    m = equal_gap_model(50, gamma=1.0)
    pred = classify_regime(m, 2.0 * eps_critical(m))
    z = rng.standard_normal(50)
    assert pred.chi2_top(z) == pytest.approx(z[0] ** 2)
    base = pred.t0 + 1.0
    xi = np.sum((z[1:] ** 2 - 1.0) / base) / math.sqrt(50)
    assert pred.xi_at_t0(z) == pytest.approx(xi)
    assert pred.zeta_at_t0() == pytest.approx((49 / 50) / base**2)


@pytest.mark.parametrize("factor, bounds", [(1.0, (0.03, 0.01)), (2.0, (0.15, 0.04)),
                                            (0.5, (0.03, 0.007))])
def test_w1_is_the_leading_term_per_draw(factor, bounds):
    # Critical: sqrt(n) T -> W1. Super-critical: sqrt(n) (T - t0) -> W1.
    # Sub-critical: n T -> W1. The median gap falls with n (about 4x from
    # n = 400 to 6400, with median |W1| about 0.8, 1.9 and 0.45); the bounds
    # are about twice the gaps measured here.
    gaps = []
    for n, bound in zip((400, 6400), bounds):
        m = equal_gap_model(n)
        pred = classify_regime(m, factor * eps_critical(m))
        Z = np.random.default_rng(0).standard_normal((200, n))
        T = secular_shifts_batch(m.lambdas, Z**2, pred.eps / n)
        lead = n * T if pred.regime == "sub" else math.sqrt(n) * (T - (pred.t0 or 0.0))
        gaps.append(np.median(np.abs(lead - [pred.w1(z) for z in Z])))
        assert gaps[-1] <= bound
    assert gaps[1] <= 0.5 * gaps[0]


# ---------------------------------------------------------------- sampling


def test_sample_shift_lower_bound_every_draw():
    rng = np.random.default_rng(1)
    m = SpectrumModel.from_lambdas(FIG_SPECTRUM)
    eps = 1.0
    shifts, top = sample_shifts(m, eps, 500, rng)
    assert np.all(shifts >= (eps / m.n) * top - 1e-12)
    assert np.all(shifts > 0.0)


def test_sample_shifts_no_trials():
    shifts, top = sample_shifts(SpectrumModel.from_lambdas(FIG_SPECTRUM), 1.0, 0,
                                np.random.default_rng(1))
    assert shifts.shape == top.shape == (0,)


def test_sample_shifts_holds_one_draw():
    # The draw is squared in place: the weight batch is the only 200 x 1600 array.
    m = equal_gap_model(1600)
    eps0 = eps_critical(m)
    sample_shifts(m, eps0, 200, np.random.default_rng(3))
    tracemalloc.start()
    try:
        shifts, top = sample_shifts(m, eps0, 200, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    Z = np.random.default_rng(3).standard_normal((200, m.n))
    assert peak < 1.2 * Z.nbytes
    assert np.array_equal(shifts, secular_shifts_batch(m.lambdas, Z**2, eps0 / m.n))
    assert np.array_equal(top, Z[:, 0] ** 2)


def test_secular_path_matches_dense_path():
    rng = np.random.default_rng(2)
    n = 120
    m = equal_gap_model(n, gamma=1.0)
    eps = 1.3
    X = np.diag(m.lambdas)
    for _ in range(10):
        z = rng.standard_normal(n)
        t_sec = secular_shifts_batch(m.lambdas, z**2, eps / n)[0]
        t_dense = np.linalg.eigvalsh(X + (eps / n) * np.outer(z, z))[-1] - m.lambdas[0]
        assert abs(t_sec - t_dense) <= 1e-10 * max(1.0, abs(t_dense))


def test_secular_row_at_rounding_floor_converges(monkeypatch):
    # Critical n=1600 row whose residual near the root cannot drop below
    # about 2 ulp(1/scale): Newton's steps hop at the rounding level without
    # meeting rel_tol, so a step-size test alone never stops it.
    m = equal_gap_model(1600)
    eps = eps_critical(m)
    scale = eps / m.n
    shifts, _ = sample_shifts(m, eps, 200, sample_rng(40, 2))
    z = sample_rng(40, 2).standard_normal((200, m.n))[18]
    root, _, iterations = spectral._secular_shifts(m.lambdas, z[None] ** 2, scale)
    assert iterations[0] < 200
    top = np.linalg.eigvalsh(np.diag(m.lambdas) + scale * np.outer(z, z))[-1]
    assert abs(root[0] - (top - m.lambdas[0])) <= 1e-10 * max(1.0, abs(top))
    assert abs(shifts[18] - root[0]) <= 1e-12 * root[0]
    monkeypatch.setattr(spectral, "_SECULAR_MAX_ITER", 1)
    with pytest.raises(SpectralError):
        secular_shifts_batch(m.lambdas, z[None, :] ** 2, scale)


REGIME_FACTORS = (0.5, 1.0, 2.0)  # eps / eps0: sub-critical, critical, super-critical


@pytest.mark.parametrize("n", [2, 100, 1600])
def test_secular_batch_equal_gap_closed_form(n):
    # with one top eigenvalue and all others gamma below it, the secular
    # equation is the quadratic t^2/scale + t (gamma/scale - W0 - R) - W0 gamma = 0
    gamma = 1.0
    m = equal_gap_model(n, gamma=gamma)
    for factor in REGIME_FACTORS:
        scale = factor * eps_critical(m) / n
        for seed in range(3):
            W = sample_rng(seed, n).standard_normal((200, n)) ** 2
            w0, rest = W[:, 0], W[:, 1:].sum(axis=1)
            b = gamma / scale - w0 - rest
            root = np.sqrt(b * b + 4.0 * w0 * gamma / scale)
            exact = np.where(b > 0.0, 2.0 * w0 * gamma / (b + root), scale * (root - b) / 2.0)
            shifts = secular_shifts_batch(m.lambdas, W, scale)
            assert np.max(np.abs(shifts - exact) / exact) <= 1e-12


def _evaluations(m, W, scale):
    return max(spectral._secular_shifts(m.lambdas, w[None], scale)[2][0] for w in W)


def test_secular_evaluation_counts():
    # The rational step is exact on an equal-gap spectrum (one far pole), and
    # keeps the nearest pole exact on any other; the count bounds every row.
    rng = np.random.default_rng(12)
    for n in (100, 400, 1600):
        flat = equal_gap_model(n)
        lam = np.concatenate(([1.0], np.sort(rng.uniform(-1.0, 0.0, n - 1))[::-1]))
        spread = SpectrumModel.from_lambdas(lam)
        for factor in REGIME_FACTORS:
            W = sample_rng(7, n, int(2 * factor)).standard_normal((200, n)) ** 2
            assert _evaluations(flat, W, factor * eps_critical(flat) / n) <= 4
            assert _evaluations(spread, W, factor * eps_critical(spread) / n) <= 14


def _tied_spectra(n, rng):
    """Spectra with runs of equal eigenvalues: equal-gap with a simple and a
    triple top, a tiled profile, and random levels with a repeated top."""
    levels = np.sort(rng.uniform(-1.0, 0.0, 6))[::-1]
    lam = np.concatenate(([1.0, 1.0], np.sort(rng.choice(levels, n - 2))[::-1]))
    return [equal_gap_model(n), equal_gap_model(n, multiplicity=3),
            tile_model(SpectrumModel.from_lambdas(FIG_SPECTRUM), n),
            SpectrumModel.from_lambdas(lam)]


def _unmerged_shifts(lam, W, scale):
    # One pole term per eigenvalue, ties included; rows with weight on the top.
    D = lam[0] - lam
    lo = scale * W[:, D == 0.0].sum(axis=1)
    return spectral._secular_newton(D, W, scale, lo, scale * W.sum(axis=1))


def test_merged_poles_match_unmerged_reference():
    rng = np.random.default_rng(5)
    for n in (100, 400, 1600):
        for m in _tied_spectra(n, rng):
            for factor in REGIME_FACTORS:
                scale = factor * eps_critical(m) / n
                W = rng.standard_normal((200, n)) ** 2
                shifts, degenerate, iterations = spectral._secular_shifts(m.lambdas, W, scale)
                ref, ref_iterations = _unmerged_shifts(m.lambdas, W, scale)
                assert not degenerate.any()
                assert np.max(np.abs(shifts - ref) / ref) <= 1e-13
                # The merged sums round differently, so a row at the rounding
                # floor may stop one evaluation apart; no batch needs more.
                assert iterations.max() <= ref_iterations.max()
                assert np.max(np.abs(iterations - ref_iterations)) <= 1


def test_equal_gap_solve_sees_two_poles(monkeypatch):
    m = equal_gap_model(1600)
    widths = []
    solve = spectral._secular_newton

    def spy(D, W, *args):
        widths.append(W.shape[1])
        return solve(D, W, *args)

    monkeypatch.setattr(spectral, "_secular_newton", spy)
    W = sample_rng(3, 1600).standard_normal((200, 1600)) ** 2
    shifts = secular_shifts_batch(m.lambdas, W, eps_critical(m) / m.n)
    assert widths == [2]
    assert np.all(shifts > 0.0)


# ------------------------------------------------------------- scaling MC


FAMILY = staticmethod(lambda n: equal_gap_model(n, gamma=1.0))
SIZES = [100, 400, 1600]


def test_subcritical_slope_and_chi2_constant():
    rep = monte_carlo_gap(lambda n: equal_gap_model(n), SIZES, lambda e0, n: 0.5 * e0,
                          trials=500, seed=7)
    assert rep.regime == "sub"
    assert -1.15 <= rep.slope <= -0.85
    row = {r.n: r for r in rep.rows}[1600]
    assert abs(row.normalized_median - CHI2_1_MEDIAN) <= 0.15 * CHI2_1_MEDIAN
    assert all(r.witness_violations == 0 for r in rep.rows)


def test_critical_slope():
    rep = monte_carlo_gap(lambda n: equal_gap_model(n), SIZES, lambda e0, n: e0,
                          trials=500, seed=7)
    assert rep.regime == "critical"
    assert -0.65 <= rep.slope <= -0.35


def test_supercritical_slope_and_t0():
    rep = monte_carlo_gap(lambda n: equal_gap_model(n), SIZES, lambda e0, n: 2.0 * e0,
                          trials=500, seed=7)
    assert rep.regime == "super"
    assert -0.65 <= rep.slope <= -0.35
    # median(T) settles on t0 within 3 IQR / sqrt(trials)
    rng = np.random.default_rng(99)
    m = equal_gap_model(1600)
    pred = classify_regime(m, 2.0 * eps_critical(m))
    shifts, _ = sample_shifts(m, pred.eps, 500, rng)
    iqr = float(np.subtract(*np.percentile(shifts, [75, 25])))
    assert abs(np.median(shifts) - pred.t0) <= 3.0 * iqr / math.sqrt(500)


def test_monte_carlo_rejects_tiny_trials():
    with pytest.raises(ValueError):
        monte_carlo_gap(lambda n: equal_gap_model(n), [100], lambda e0, n: e0, trials=10)


# ---------------------------------------------------------------- report


def test_report_files(tmp_path):
    rep = monte_carlo_gap(lambda n: equal_gap_model(n), [100, 200], lambda e0, n: 0.5 * e0,
                          trials=200, seed=3)
    csv = tmp_path / "phase.csv"
    js = tmp_path / "phase.json"
    write_phase_report(rep, csv, js)
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,eps,regime,median_T,predicted_order,slope"
    assert len(lines) == 3
    import json

    payload = json.loads(js.read_text())
    assert payload["regime"] == "sub"
    assert len(payload["rows"]) == 2


def test_load_spectrum_errors_name_line(tmp_path):
    good = tmp_path / "eigenvalues.txt"
    good.write_text("2.0\n1.0\n0.5\n")
    m = load_spectrum(good)
    assert m.n == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("2.0\nxyz\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        load_spectrum(bad)
    unordered = tmp_path / "unordered.txt"
    unordered.write_text("1.0\n2.0\n0.5\n")
    with pytest.raises(ValueError, match="unordered.txt:2"):
        load_spectrum(unordered)
    unordered.write_text("1.0\n\n2.0\n0.5\n")  # the blank line counts
    with pytest.raises(ValueError, match="unordered.txt:3: eigenvalues must be in decreasing"):
        load_spectrum(unordered)
    # faults of the whole spectrum name the file
    flat = tmp_path / "flat.txt"
    flat.write_text("1.0\n1.0\n1.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(flat))}: the top eigenvalue must have"):
        load_spectrum(flat)
    flat.write_text("1.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(flat))}: a spectrum needs at least two"):
        load_spectrum(flat)
