"""Smoothed top-eigenvalue objective and its stochastic oracle.

The nonsmooth map X -> lambda_max(X) is replaced by the expectation of
    max_{i=1..k} lambda_max(X + (eps/n) z_i z_i^T),   z_i iid N(0, I_n),
which is differentiable with a gradient that is an expected rank-one
projector. One realization costs k leading eigenpairs; averaging q
independent realizations gives a gradient estimate with variance 1/q.

Two evaluation paths compute the perturbed top eigenvalues: the secular
path (analytic rank-one update, needs a decomposition of X) and the
Lanczos path (iterative, on the operator q -> X q + (eps/n) z (z^T q), never formed).
The entry points take X as a symmetric matrix or as its `SpectralDecomp`.

Reproducibility: per-sample generators are derived from counter-based keys
(run seed, iteration, sample index), so parallel sample evaluation is
order-independent; the q-average reduction always follows sample-index
order so results are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    SpectralDecomp,
    _rank_one_top,
    check_symmetric,
    full_eig,
    lanczos_leading,
)

__all__ = [
    "SmoothingParams",
    "OracleSample",
    "GradientEstimate",
    "VarianceProbe",
    "sample_rng",
    "sample_fk",
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
    """Smoothing level eps >= 0, number of perturbations k >= 1, dimension n.

    eps == 0 degenerates to the exact top-eigenvalue oracle. The gradient
    Lipschitz bound is only finite for k >= 3.
    """

    eps: float
    n: int
    k: int = 3

    def __post_init__(self):
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")
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
class OracleSample:
    """One realization of the smoothed objective and its rank-one gradient.

    `vector` is the unit leading eigenvector of the winning perturbed matrix,
    so the realized gradient is the projector vector vector^T (unit trace by
    construction). `gap_witness` records value - lambda_max(X) when the top
    eigenvalue of X is known (secular path; NaN otherwise) and `witness_bound`
    the analytic lower bound (eps/n) * max_i (leading coordinate of z_i)^2.
    """

    value: float
    i0: int
    vector: np.ndarray
    gap_witness: float
    witness_bound: float
    cost_eigvecs: float


@dataclass
class GradientEstimate:
    """Average of q rank-one gradient samples.

    The factors are kept as a list of eigenvectors; the dense q-average is
    materialized on first access of `matrix`. `value` is the matching average
    of the sampled objective realizations.
    """

    vectors: np.ndarray  # (q, n), one unit eigenvector per sample
    value: float
    cost_eigvecs: float
    _matrix: np.ndarray | None = field(default=None, repr=False)

    @property
    def q(self):
        return self.vectors.shape[0]

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = (self.vectors.T @ self.vectors) / self.q
        return self._matrix

    @property
    def trace(self):
        return float(np.trace(self.matrix))


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
    dec = X if isinstance(X, SpectralDecomp) else full_eig(X)
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if params.eps == 0.0:
        values = np.full(Z.shape[0], dec.values[0])
        return float(dec.values[0]), 0, dec.vectors[:, 0].copy(), values
    values, _, i0, vecs = _rank_one_top(dec, Z[None], params.scale)
    i0 = int(i0[0])
    return float(values[0, i0]), i0, vecs[0], values[0]


def sample_fk(X, params, rng, path="auto", lanczos_tol=1e-9, lanczos_fail_prob=0.01):
    """Draw one realization of the smoothed objective and its gradient factor.

    Draws k iid standard Gaussian vectors from `rng`, computes each perturbed
    top eigenvalue through the selected path ("secular", "lanczos", or "auto"
    which takes the secular path whenever X is a decomposition), and
    returns the max, the winning index (ties broken by lowest index), and the
    winning eigenvector. Cost: k eigenpair units (+ n when the secular path
    must first decompose X). X is validated here, by `check_symmetric` (its k
    Lanczos runs take it unchecked) or by `full_eig` when it is decomposed.
    """
    return _sample(*_prepare(X, params, path), params, rng, lanczos_tol, lanczos_fail_prob)


def _prepare(X, params, path):
    """Resolve the path and validate X: (X, decomposition, path, cost of a decomposition)."""
    dec = X if isinstance(X, SpectralDecomp) else None
    if path == "auto":
        path = "lanczos" if dec is None else "secular"
    extra_cost = 0.0
    if path == "secular":
        if dec is None:
            dec = full_eig(X)
            extra_cost = dec.cost_eigvecs
        n = dec.n
    elif path == "lanczos":
        X = check_symmetric(X.reconstruct() if isinstance(X, SpectralDecomp) else X)
        n = X.shape[0]
    else:
        raise ValueError(f"unknown path {path!r}")
    if n != params.n:
        raise ValueError(f"params.n={params.n} does not match matrix dimension {n}")
    return X, dec, path, extra_cost


def _sample(X, dec, path, extra_cost, params, rng, lanczos_tol=1e-9, lanczos_fail_prob=0.01):
    """One realization on inputs resolved and validated by `_prepare`."""
    Z = rng.standard_normal((params.k, params.n))
    if params.eps == 0.0:
        if dec is None:
            pair = lanczos_leading(X, rel_tol=lanczos_tol, fail_prob=lanczos_fail_prob, rng=rng)
            return OracleSample(
                value=pair.value, i0=0, vector=pair.vector,
                gap_witness=float("nan"), witness_bound=0.0,
                cost_eigvecs=pair.cost_eigvecs + extra_cost,
            )
        return OracleSample(
            value=float(dec.values[0]), i0=0, vector=dec.vectors[:, 0].copy(),
            gap_witness=0.0, witness_bound=0.0, cost_eigvecs=extra_cost,
        )

    if path == "secular":
        value, i0, vector, values = fk_value(dec, Z, params)
        top_coords = dec.vectors[:, 0] @ Z.T
        witness_bound = params.scale * float(np.max(top_coords**2))
        gap_witness = value - float(dec.values[0])
        cost = float(params.k) + extra_cost
    else:
        pairs = [
            lanczos_leading(
                X, rel_tol=lanczos_tol, fail_prob=lanczos_fail_prob, rng=rng,
                update=(params.scale, z),
            )
            for z in Z
        ]
        values = np.array([p.value for p in pairs])
        i0 = int(np.argmax(values))
        value = float(values[i0])
        vector = pairs[i0].vector
        gap_witness = witness_bound = float("nan")
        cost = float(sum(p.cost_eigvecs for p in pairs))
    return OracleSample(
        value=value, i0=i0, vector=vector,
        gap_witness=gap_witness, witness_bound=witness_bound, cost_eigvecs=cost,
    )


def gradient_oracle(X, params, q, rng, path="auto", seed_key=(), **path_opts):
    """Average of q independent rank-one gradient samples.

    `rng` may be a Generator (samples drawn sequentially from one stream) or
    an integer seed, in which case each sample l uses the counter-derived
    generator for key ``seed_key + (l,)`` so q-parallel evaluation would be
    reproducible and order-independent. The reduction always runs in sample
    index order. X is validated or decomposed once for all q samples.
    Cost: q * (per-sample cost), plus n for a decomposition made here.
    """
    q = int(q)
    if q < 1:
        raise ValueError("q must be a positive integer")
    X, dec, path, cost = _prepare(X, params, path)
    vectors = np.empty((q, params.n))
    values = np.empty(q)
    for l in range(q):
        gen = rng if isinstance(rng, np.random.Generator) else sample_rng(rng, *seed_key, l)
        sample = _sample(X, dec, path, 0.0, params, gen, **path_opts)
        vectors[l] = sample.vector
        values[l] = sample.value
        cost += sample.cost_eigvecs
    return GradientEstimate(vectors=vectors, value=float(values.mean()), cost_eigvecs=cost)


def fk_values_batch(decomp, params, draws, rng):
    """Monte Carlo realizations of the smoothed objective, vectorized.

    Returns `draws` values of max_i lambda_max(X + (eps/n) z_i z_i^T) through
    the batched secular path; meant for estimator diagnostics and envelope
    checks, not for the per-sample cost-accounted oracle.
    """
    Z = rng.standard_normal((draws, params.k, decomp.n))
    values, _, _, _ = _rank_one_top(decomp, Z, params.scale, vectors=False)
    return values.max(axis=1)


def _phi_batch(decomp, params, trials, rng):
    """Winning unit eigenvectors for `trials` oracle samples, vectorized.

    Returns (vectors, values) with vectors of shape (trials, n). Matches the
    secular path of `sample_fk` draw for draw.
    """
    Z = rng.standard_normal((trials, params.k, decomp.n))
    values, _, _, vectors = _rank_one_top(decomp, Z, params.scale)
    return vectors, values.max(axis=1)


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
    if params.eps <= 0.0:
        raise ValueError("the Lipschitz bound requires eps > 0")
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
    dec = X if isinstance(X, SpectralDecomp) else full_eig(X)
    phis, _ = _phi_batch(dec, params, trials, rng)
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
