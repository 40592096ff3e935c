"""Smoothed top-eigenvalue objective and its stochastic oracle.

The nonsmooth map X -> lambda_max(X) is replaced by the expectation of
    max_{i=1..k} lambda_max(X + (eps/n) z_i z_i^T),   z_i iid N(0, I_n),
which is differentiable with a gradient that is an expected rank-one
projector. One realization costs k leading eigenpairs; averaging q
independent realizations gives a gradient estimate with variance 1/q.

The solver's sampler, `gradient_oracle`, runs Lanczos on the operator
q -> X q + (eps/n) z (z^T q), never formed. `fk_value` and the Monte Carlo
probes solve on a decomposition of X by the secular (rank-one update) kernel.

Reproducibility: per-sample generators are derived from counter-based keys
(run seed, iteration, sample index), so parallel sample evaluation is
order-independent; the q-average reduction always follows sample-index
order so results are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralDecomp, _rank_one_top, full_eig, lanczos_leading

__all__ = [
    "SmoothingParams",
    "GradientEstimate",
    "VarianceProbe",
    "sample_rng",
    "gradient_oracle",
    "fk_value",
    "fk_values_batch",
    "approximation_bounds",
    "smoothing_constant",
    "lipschitz_bound",
    "gradient_variance_probe",
]


@dataclass
class SmoothingParams:
    """Smoothing level 0 < eps < inf, number of perturbations k >= 1, dimension n.

    The gradient Lipschitz bound is only finite for k >= 3.
    """

    eps: float
    n: int
    k: int = 3

    def __post_init__(self):
        if not 0.0 < self.eps < np.inf:
            raise ValueError("eps must be finite and positive")
        if int(self.k) < 1:
            raise ValueError("k must be a positive integer")
        if int(self.n) < 1:
            raise ValueError("n must be a positive integer")
        self.k = int(self.k)
        self.n = int(self.n)

    @property
    def scale(self):
        """Perturbation scale eps / n."""
        return self.eps / self.n


@dataclass
class GradientEstimate:
    """Average of q rank-one gradient samples, kept as its factors.

    The gradient (1/q) sum_l v_l v_l^T over the rows of `vectors` is never
    formed here: a problem's `pull_back(vectors)` sums it in the variable
    space, divided by q after. `value` averages the sampled objective values.
    """

    vectors: np.ndarray  # (q, n), one unit eigenvector per sample
    value: float
    cost_eigvecs: float

    @property
    def q(self):
        return self.vectors.shape[0]


def sample_rng(seed, *key):
    """Counter-based generator for (run seed, iteration, sample index, ...) keys."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key)))


def fk_value(X, Z, params):
    """Deterministic realization of the smoothed objective at fixed noise.

    `Z` holds the k perturbation vectors as rows. Evaluates through the
    secular path on a decomposition of X (made here if X is a matrix), so
    the result is an exact function of (X, Z): suitable for
    common-random-number derivative checks. Returns (value, i0, vector,
    per_draw_values).
    """
    dec = _decomposed(X, params)
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    values, _, i0, vecs = _rank_one_top(dec, Z[None], params.scale)
    i0 = int(i0[0])
    return float(values[0, i0]), i0, vecs[0], values[0]


def _decomposed(X, params):
    """X's decomposition, made here (by the validating `full_eig`) for a matrix."""
    dec = X if isinstance(X, SpectralDecomp) else full_eig(X)
    if dec.n != params.n:
        raise ValueError(f"params.n={params.n} does not match matrix dimension {dec.n}")
    return dec


def _secular_samples(X, params, draws, rng):
    """`draws` realizations on the secular path, at a matrix or a decomposition.

    All noise comes from `rng` in one (draws, k, n) call, and all draws are
    solved in one kernel call. A realization is the largest perturbed top
    eigenvalue (ties to the lowest index) and its unit vector. Returns
    values (draws,) and vectors (draws, n).
    """
    dec = _decomposed(X, params)
    Z = rng.standard_normal((draws, params.k, params.n))
    values, _, i0, vectors = _rank_one_top(dec, Z, params.scale)
    return values[np.arange(draws), i0], vectors


def gradient_oracle(X, params, q, seed, key, lanczos_tol):
    """Average of q independent rank-one gradient samples at the matrix X.

    Sample l draws from ``sample_rng(seed, *key, l)`` its k noise vectors,
    then the start vectors of its k Lanczos runs, the run for z on
    X + (eps/n) z z^T to relative precision `lanczos_tol`; it keeps the
    largest top eigenvalue (ties to the lowest index) and its unit vector.
    The reduction runs in sample index order; the runs trust X's symmetry
    and check its shape and finiteness. Cost: k eigenpair units per sample.
    """
    q = int(q)
    if q < 1:
        raise ValueError("q must be a positive integer")
    if len(X) != params.n:
        raise ValueError(f"params.n={params.n} does not match matrix dimension {len(X)}")
    values, vectors = np.empty(q), np.empty((q, params.n))
    for l in range(q):
        gen = sample_rng(seed, *key, l)
        Z = gen.standard_normal((params.k, params.n))
        pairs = [lanczos_leading(X, rel_tol=lanczos_tol, rng=gen, update=(params.scale, z))
                 for z in Z]
        best = pairs[int(np.argmax([p.value for p in pairs]))]
        values[l], vectors[l] = best.value, best.vector
    return GradientEstimate(vectors=vectors, value=float(values.mean()),
                            cost_eigvecs=float(q * params.k))


def fk_values_batch(decomp, params, draws, rng):
    """Monte Carlo realizations of the smoothed objective, vectorized.

    Returns `draws` values of max_i lambda_max(X + (eps/n) z_i z_i^T) through
    the batched secular path (on a decomposition made here if `decomp` is a
    matrix); meant for estimator diagnostics and envelope checks, not for
    the per-sample cost-accounted oracle.
    """
    if int(draws) < 0:
        raise ValueError("draws must be a nonnegative integer")
    return _secular_samples(decomp, params, int(draws), rng)[0]


def approximation_bounds(params):
    """Two-sided envelope of (smoothed objective - lambda_max): [eps/n, k*eps]."""
    return params.eps / params.n, params.k * params.eps


def smoothing_constant(k):
    """Gradient-smoothness constant k / (k - 2); finite only for k >= 3."""
    if k < 3:
        raise ValueError("the smoothness constant requires k >= 3")
    return k / (k - 2.0)


def lipschitz_bound(params):
    """Uniform Lipschitz constant of the smoothed gradient: (k/(k-2)) * n / eps."""
    return smoothing_constant(params.k) * params.n / params.eps


@dataclass
class VarianceProbe:
    """Empirical second-moment diagnostics of the rank-one gradient samples."""

    empirical_variance: float
    stderr: float
    max_sq_deviation: float
    mean_trace: float
    bound_ok: bool


def gradient_variance_probe(X, params, trials, rng):
    """Monte Carlo check of the gradient-sample variance bounds.

    Estimates E || phi phi^T - mean ||_F^2 over `trials` samples and asserts
    the analytic bounds: variance <= 1 within three standard errors, and the
    per-sample squared deviation <= 4 on every single draw.
    """
    trials = int(trials)
    if trials < 100:
        raise ValueError("trials must be at least 100")
    phis = _secular_samples(X, params, trials, rng)[1]
    mean = (phis.T @ phis) / trials
    # ||phi phi^T - M||_F^2 = 1 - 2 phi^T M phi + ||M||_F^2 for unit phi
    mnorm2 = float(np.sum(mean**2))
    quad = np.einsum("ij,jk,ik->i", phis, mean, phis)
    devs = 1.0 - 2.0 * quad + mnorm2
    var = float(devs.mean())
    stderr = float(devs.std(ddof=1) / np.sqrt(trials))
    max_dev = float(devs.max())
    ok = var <= 1.0 + 3.0 * stderr and max_dev <= 4.0
    return VarianceProbe(
        empirical_variance=var,
        stderr=stderr,
        max_sq_deviation=max_dev,
        mean_trace=float(np.trace(mean)),
        bound_ok=ok,
    )
