"""Phase-transition lab for rank-one Gaussian perturbations.

For a fixed symmetric matrix with top eigenvalue of multiplicity l, gap
gamma to the next eigenvalue, and residual gaps delta_j, the increase

    T = lambda_max(X + (eps/n) z z^T) - lambda_max(X),   z ~ N(0, I_n),

changes scale at the critical level eps0 defined by
1/eps0 = (1/n) sum_{j>l} 1/(gamma + delta_j):

  * eps < eps0 (sub-critical):   T ~ W1 / n,  W1 = chi^2_l / (1/eps - 1/eps0)
  * eps = eps0 (critical):       T ~ W1 / sqrt(n)
  * eps > eps0 (super-critical): T ~ t0 + W1 / sqrt(n), with t0 > 0 solving
        1/eps = (1/n) sum_{j>l} 1/(t0 + gamma + delta_j)

The lab computes eps0 and t0, classifies the regime with its predicted
scaling exponent of the leading term, and verifies the scaling empirically:
T is sampled through the secular equation (no dense eigensolves), medians
are regressed on log n, and per-draw statistics are exposed for
distribution-level checks. Medians rather than means: the sub-critical
constant involves a chi-square with few degrees of freedom, whose heavy
tail destabilizes mean-based slope estimates at desk-scale trial counts.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .smoothing import sample_rng
from .spectral import (
    _check_count, _read_rows, _secular_newton, _table, check_finite_positive, secular_shifts_batch,
)

__all__ = [
    "SpectrumModel",
    "PhasePrediction",
    "PhaseRow",
    "ScalingReport",
    "equal_gap_model",
    "tile_model",
    "load_spectrum",
    "eps_critical",
    "t0_solve",
    "classify_regime",
    "sample_shifts",
    "monte_carlo_gap",
    "write_phase_report",
]

PHASE_HEADER = "n,eps,regime,median_T,predicted_order,slope"
MIN_TRIALS = 200  # draws per size that monte_carlo_gap requires


@dataclass
class SpectrumModel:
    """Decreasing spectrum with its top-eigenvalue structure made explicit.

    `multiplicity` counts the exact copies of lambda_1, `gamma_gap` is
    lambda_1 - lambda_{l+1} (> 0 required), and `deltas` holds the residual
    gaps lambda_1 - lambda_j - gamma_gap >= 0 for j > l.
    """

    lambdas: np.ndarray
    multiplicity: int
    gamma_gap: float
    deltas: np.ndarray

    @property
    def n(self):
        return self.lambdas.shape[0]

    @classmethod
    def from_lambdas(cls, lambdas):
        lam = np.asarray(lambdas, dtype=float)
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("a spectrum needs at least two eigenvalues")
        if np.any(np.diff(lam) > 0.0):
            raise ValueError("eigenvalues must be in decreasing order")
        mult = int(np.sum(lam >= lam[0]))
        if mult >= lam.size:
            raise ValueError("the top eigenvalue must have a positive gap")
        gamma = float(lam[0] - lam[mult])  # > 0: lam is finite and decreasing
        deltas = lam[0] - lam[mult:] - gamma
        return cls(lambdas=lam, multiplicity=mult, gamma_gap=gamma, deltas=deltas)


def equal_gap_model(n, gamma=1.0, multiplicity=1):
    """Top eigenvalue 1 and all non-leading eigenvalues exactly gamma below
    it: `gamma` finite and positive, 1 <= `multiplicity` < n."""
    _check_count("n", n, 2)
    check_finite_positive("gamma", gamma)
    if _check_count("multiplicity", multiplicity, 1) >= n:
        raise ValueError("multiplicity must leave room below the top eigenvalue")
    lam = np.full(n, 1.0 - gamma)
    lam[:multiplicity] = 1.0
    return SpectrumModel.from_lambdas(lam)


def tile_model(base, n):
    """Scale a spectrum to size n keeping the top block and cycling the
    non-leading gap profile, which preserves eps0 up to O(1/n)."""
    l = base.multiplicity
    if _check_count("n", n, 2) <= l:
        raise ValueError(f"n must exceed the top multiplicity {l}")
    reps = np.tile(base.deltas, int(math.ceil((n - l) / base.deltas.size)))[: n - l]
    lam = np.concatenate((np.full(l, base.lambdas[0]),
                          base.lambdas[0] - base.gamma_gap - np.sort(reps)))
    return SpectrumModel.from_lambdas(lam)


def load_spectrum(path):
    """Read a spectrum file: one finite eigenvalue per line, at least two, in
    decreasing order, with a gap below the top. Every fault names the file."""
    rows = _read_rows(path, header=False)
    lam = _table(path, rows, len(rows), 1)[:, 0]
    rises = np.nonzero(np.diff(lam) > 0.0)[0]
    if rises.size:
        raise ValueError(f"{path}:{rows[rises[0] + 1][0]}: eigenvalues must be in decreasing order")
    try:
        return SpectrumModel.from_lambdas(lam)
    except ValueError as exc:  # too few eigenvalues, or no gap below the top
        raise ValueError(f"{path}: {exc}") from None


def eps_critical(model):
    """Critical perturbation level: 1/eps0 = (1/n) sum_{j>l} 1/(gamma+delta_j)."""
    return model.n / float(np.sum(1.0 / (model.gamma_gap + model.deltas)))


def t0_solve(model, eps):
    """Unique positive t0 with (1/n) sum_{j>l} 1/(t0+gamma+delta_j) = 1/eps.

    Exists only above the critical level; solved by the secular solver's
    rational steps inside [0, (1 - l/n) eps], so t0 <= (1 - l/n) eps on
    return, under the kernel's limits: relative precision 1e-13, and a
    SpectralError if t0 is not fixed after 120 evaluations.
    """
    eps0 = eps_critical(model)
    if not eps0 < eps < math.inf:
        raise ValueError(f"eps must be finite and above the critical level {eps0!r}, got {eps!r}")
    n = model.n
    base = model.gamma_gap + model.deltas
    # The secular equation with pole offsets `base`, weights 1/n and scale
    # eps; its bracket [0, eps * sum of weights] is [0, (1 - l/n) eps].
    t, _ = _secular_newton(base, np.full((1, base.size), 1.0 / n), eps, np.zeros(1),
                           np.array([(1.0 - model.multiplicity / n) * eps]))
    return float(t[0])


@dataclass
class PhasePrediction:
    """Regime label with the theorem-level scaling ingredients.

    `predicted_order` is the exponent of n in the leading term of T: -1
    (sub-critical), -1/2 (critical), or 0 (super-critical, where T tends to
    the constant t0). The per-draw statistics evaluate the constants on a
    concrete Gaussian vector z.
    """

    regime: str
    eps: float
    eps0: float
    t0: float | None
    predicted_order: float
    model: SpectrumModel

    def chi2_top(self, z):
        """Squared norm of z on the leading eigenspace coordinates."""
        return float(np.sum(np.asarray(z)[: self.model.multiplicity] ** 2))

    def _tail(self, z):
        return np.asarray(z)[self.model.multiplicity :]

    def _xi(self, z, base):
        return float(np.sum((self._tail(z) ** 2 - 1.0) / base)) / math.sqrt(self.model.n)

    def xi1(self, z):
        return self._xi(z, self.model.gamma_gap + self.model.deltas)

    def zeta1(self, z):
        base = self.model.gamma_gap + self.model.deltas
        return float(np.sum(self._tail(z) ** 2 / base**2)) / self.model.n

    def xi_at_t0(self, z):
        return self._xi(z, self.t0 + self.model.gamma_gap + self.model.deltas)

    def zeta_at_t0(self):
        base = self.t0 + self.model.gamma_gap + self.model.deltas
        return float(np.sum(1.0 / base**2)) / self.model.n

    def w1(self, z):
        if self.regime == "sub":
            return self.chi2_top(z) / (1.0 / self.eps - 1.0 / self.eps0)
        if self.regime == "critical":
            xi, zeta = self.xi1(z), self.zeta1(z)
            return (xi + math.sqrt(xi**2 + 4.0 * self.chi2_top(z) * zeta)) / (2.0 * zeta)
        return self.xi_at_t0(z) / self.zeta_at_t0()


def classify_regime(model, eps):
    """Classify eps against the critical level (critical within 1e-9 * eps0)
    and package the predicted scaling."""
    check_finite_positive("eps", eps)  # NaN and inf too: no solve survives them
    eps0 = eps_critical(model)
    if abs(eps - eps0) <= 1e-9 * eps0:
        return PhasePrediction("critical", eps, eps0, None, -0.5, model)
    if eps < eps0:
        return PhasePrediction("sub", eps, eps0, None, -1.0, model)
    t0 = t0_solve(model, eps)
    return PhasePrediction("super", eps, eps0, t0, 0.0, model)


def sample_shifts(model, eps, trials, rng):
    """Sample T through the secular equation, in one trials x n array: the draw, squared in place.

    Returns (shifts, top_weights): the per-draw top-eigenvalue increases and
    the squared Gaussian mass on the leading eigenspace (whose (eps/n)
    multiple is an almost-sure lower bound on T).
    """
    check_finite_positive("eps", eps)
    W = rng.standard_normal((_check_count("trials", trials, 0), model.n))
    np.square(W, out=W)
    shifts = secular_shifts_batch(model.lambdas, W, eps / model.n)
    top = W[:, : model.multiplicity].sum(axis=1)
    return shifts, top


@dataclass
class PhaseRow:
    n: int
    eps: float
    eps0: float
    regime: str
    median_T: float
    predicted_order: float
    scaling_stat: float
    t0: float
    normalized_median: float
    witness_violations: int


@dataclass
class ScalingReport:
    regime: str
    rows: list
    slope: float
    intercept: float
    r2: float
    trials: int
    seed: int


def _regression(xs, ys):
    x = np.asarray(xs)
    y = np.asarray(ys)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def monte_carlo_gap(model_family, n_list, eps_rule, trials, seed=0):
    """Empirical scaling of T across sizes.

    `model_family(n)` builds the spectrum at size n; `eps_rule(eps0, n)`
    chooses the perturbation level (so regimes can track the per-n critical
    value). For each n the median of the scaling statistic is recorded:
    median(T) in the sub-critical and critical regimes, median(|T - t0|) in
    the super-critical one, where the signed deviation is centered and the
    absolute deviation carries the sqrt(n) scale. The slope of
    log(statistic) against log(n), over distinct sizes, estimates the
    predicted order. Sizes and every size's model and regime are settled
    before the first draw.
    """
    _check_count("trials", trials, MIN_TRIALS)
    if not len(n_list):
        raise ValueError("n_list must not be empty")
    for n in n_list:
        _check_count("n", n, 2)
    if len(set(map(int, n_list))) < len(n_list):
        raise ValueError(f"n_list repeats a size: {[int(n) for n in n_list]}")
    preds = []
    for n in n_list:
        model = model_family(int(n))
        preds.append(classify_regime(model, float(eps_rule(eps_critical(model), int(n)))))
    regime = preds[0].regime
    for pred in preds:
        if pred.regime != regime:
            raise ValueError(f"eps_rule changes regime across sizes: {regime} vs {pred.regime}")
    rows = []
    for idx, (n, pred) in enumerate(zip(n_list, preds)):
        model, eps, eps0 = pred.model, pred.eps, pred.eps0
        rng = sample_rng(seed, idx)
        shifts, top = sample_shifts(model, eps, trials, rng)
        violations = int(np.sum(shifts < (eps / model.n) * top - 1e-12))
        median_T = float(np.median(shifts))
        if pred.regime == "super":
            stat = float(np.median(np.abs(shifts - pred.t0)))
            normalized = float(np.median(shifts - pred.t0) * math.sqrt(n))
            t0 = pred.t0
        else:
            stat = median_T
            t0 = float("nan")
            if pred.regime == "sub":
                normalized = median_T * n * (1.0 / eps - 1.0 / eps0)
            else:
                normalized = median_T * math.sqrt(n)
        rows.append(PhaseRow(
            n=int(n), eps=eps, eps0=eps0, regime=pred.regime, median_T=median_T,
            predicted_order=pred.predicted_order, scaling_stat=stat, t0=t0,
            normalized_median=normalized, witness_violations=violations,
        ))
    if len(rows) >= 2:
        slope, intercept, r2 = _regression(
            [math.log(r.n) for r in rows], [math.log(r.scaling_stat) for r in rows]
        )
    else:
        slope = intercept = r2 = float("nan")
    return ScalingReport(
        regime=regime, rows=rows, slope=slope, intercept=intercept, r2=r2,
        trials=int(trials), seed=int(seed),
    )


def write_phase_report(report, csv_path, json_path):
    """Emit the scaling report: one CSV row per size plus a JSON summary of
    the regression diagnostics. JSON has no NaN or infinity, so
    a non-finite number (say the t0 of a sub- or critical-regime row) is
    written as null."""
    with open(csv_path, "w") as fh:
        fh.write(PHASE_HEADER + "\n")
        for r in report.rows:
            fh.write(
                f"{r.n},{r.eps!r},{r.regime},{r.median_T!r},{r.predicted_order!r},{report.slope!r}\n"
            )
    payload = {key: _finite_or_none(getattr(report, key))
               for key in ("regime", "slope", "intercept", "r2", "trials", "seed")}
    payload["rows"] = [{key: _finite_or_none(v) for key, v in asdict(r).items()}
                       for r in report.rows]
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _finite_or_none(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value
