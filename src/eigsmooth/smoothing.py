"""Smoothed top-eigenvalue objective and its stochastic oracle.

The nonsmooth map X -> lambda_max(X) is replaced by the expectation of
    max_{i=1..k} lambda_max(X + (eps/n) z_i z_i^T),   z_i iid N(0, I_n),
which is differentiable with a gradient that is an expected rank-one
projector. One realization costs k leading eigenpairs; averaging q
independent realizations gives a gradient estimate with variance 1/q.

Two evaluation paths compute the perturbed top eigenvalues, and the type of
X picks one: X given as a `SpectralDecomp` takes the secular path (analytic
rank-one update), X given as a symmetric matrix the Lanczos path (iterative,
on the operator q -> X q + (eps/n) z (z^T q), never formed).

Reproducibility: per-sample generators are derived from counter-based keys
(run seed, iteration, sample index), so parallel sample evaluation is
order-independent; the q-average reduction always follows sample-index
order so results are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

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
        if not 0.0 <= self.eps < np.inf:
            raise ValueError("eps must be finite and nonnegative")
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
    construction). `gap_witness` records value - lambda_max(X) and
    `witness_bound` the analytic lower bound (eps/n) * max_i (leading
    coordinate of z_i)^2; both need a decomposition of X and are NaN without.
    """

    value: float
    i0: int
    vector: np.ndarray
    gap_witness: float
    witness_bound: float
    cost_eigvecs: float


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
    if params.eps == 0.0:
        values = np.full(Z.shape[0], dec.values[0])
        return float(dec.values[0]), 0, dec.vectors[:, 0].copy(), values
    values, _, i0, vecs = _rank_one_top(dec, Z[None], params.scale)
    i0 = int(i0[0])
    return float(values[0, i0]), i0, vecs[0], values[0]


def sample_fk(X, params, rng, lanczos_tol=1e-9):
    """Draw one realization of the smoothed objective and its gradient factor.

    Draws k iid standard Gaussian vectors from `rng`, computes each perturbed
    top eigenvalue, and returns the max, the winning index (ties broken by
    lowest index), and the winning eigenvector. X's type picks the path: a
    `SpectralDecomp` takes the secular path, a matrix the Lanczos path, whose
    k runs take X unchecked after one `check_symmetric` here. Cost: k
    eigenpair units. The two witness fields need the decomposition, so they
    are NaN on the Lanczos path.
    """
    X = _prepare(X, params)
    values, i0, vectors, Z, units = _draw(X, params, [rng], lanczos_tol)
    value = float(values[0])
    if isinstance(X, SpectralDecomp):
        gap_witness = value - float(X.values[0])
        witness_bound = params.scale * float(np.max((X.vectors[:, 0] @ Z[0].T) ** 2))
    else:
        gap_witness = witness_bound = float("nan")
    return OracleSample(
        value=value, i0=int(i0[0]), vector=vectors[0],
        gap_witness=gap_witness, witness_bound=witness_bound, cost_eigvecs=units,
    )


def _prepare(X, params):
    """X checked once per call, uncopied: a matrix by `check_symmetric`, either form against params.n."""
    if not isinstance(X, SpectralDecomp):
        X = check_symmetric(X)
    n = X.n if isinstance(X, SpectralDecomp) else X.shape[0]
    if n != params.n:
        raise ValueError(f"params.n={params.n} does not match matrix dimension {n}")
    return X


def _decomposed(X, params):
    """X's decomposition, made here (by the validating `full_eig`) for a matrix."""
    return _prepare(X if isinstance(X, SpectralDecomp) else full_eig(X), params)


def _draw(X, params, gens, lanczos_tol):
    """One realization per generator in `gens`, on X checked by `_prepare`.

    On the secular path (X a decomposition) all noise is drawn first (one
    call for a shared generator) and all samples are solved in one kernel
    call; at eps = 0 a sample is then the top pair of X. On the Lanczos path
    each generator draws its sample's k noise vectors, then the start vectors
    of its k runs, each run given update (eps/n, z). Returns values, winning
    indices and unit vectors (q, n), noise Z (q, k, n) and units.
    """
    q, k, n = len(gens), params.k, params.n
    Z = np.empty((q, k, n))
    if isinstance(X, SpectralDecomp):
        shared = len({id(gen) for gen in gens}) == 1
        for gen, noise in [(gens[0], Z)] if shared else zip(gens, Z):
            gen.standard_normal(noise.shape, out=noise)
        if params.eps == 0.0:
            return (np.full(q, X.values[0]), np.zeros(q, dtype=int),
                    np.tile(X.vectors[:, 0], (q, 1)), Z, 0.0)
        values, _, i0, vectors = _rank_one_top(X, Z, params.scale)
        return values[np.arange(q), i0], i0, vectors, Z, float(q * k)
    values, i0, vectors, units = np.empty(q), np.zeros(q, dtype=int), np.empty((q, n)), 0.0
    for l, gen in enumerate(gens):
        gen.standard_normal((k, n), out=Z[l])
        if params.eps == 0.0:
            pairs = [lanczos_leading(X, rel_tol=lanczos_tol, rng=gen)]
        else:
            pairs = [lanczos_leading(X, rel_tol=lanczos_tol, rng=gen, update=(params.scale, z))
                     for z in Z[l]]
        i0[l] = np.argmax([p.value for p in pairs])
        values[l], vectors[l] = pairs[i0[l]].value, pairs[i0[l]].vector
        units += sum(p.cost_eigvecs for p in pairs)
    return values, i0, vectors, Z, units


def gradient_oracle(X, params, q, rng, seed_key=(), lanczos_tol=1e-9):
    """Average of q independent rank-one gradient samples.

    `rng` may be a Generator (samples drawn sequentially from one stream) or
    an integer seed, in which case each sample l uses the counter-derived
    generator for key ``seed_key + (l,)`` so q-parallel evaluation would be
    reproducible and order-independent. The reduction always runs in sample
    index order. X's type picks the path as in `sample_fk`; X is checked
    once for all q samples, and on the secular path all q samples are
    solved in one batched kernel call. Cost: q * (per-sample cost).
    """
    q = int(q)
    if q < 1:
        raise ValueError("q must be a positive integer")
    X = _prepare(X, params)
    shared = isinstance(rng, np.random.Generator)
    gens = [rng if shared else sample_rng(rng, *seed_key, l) for l in range(q)]
    values, _, vectors, _, units = _draw(X, params, gens, lanczos_tol)
    return GradientEstimate(vectors=vectors, value=float(values.mean()), cost_eigvecs=units)


def fk_values_batch(decomp, params, draws, rng):
    """Monte Carlo realizations of the smoothed objective, vectorized.

    Returns `draws` values of max_i lambda_max(X + (eps/n) z_i z_i^T) through
    the batched secular path (on a decomposition made here if `decomp` is a
    matrix); meant for estimator diagnostics and envelope checks, not for
    the per-sample cost-accounted oracle.
    """
    if int(draws) < 0:
        raise ValueError("draws must be a nonnegative integer")
    return _draw(_decomposed(decomp, params), params, [rng] * int(draws), None)[0]


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
    phis = _draw(_decomposed(X, params), params, [rng] * trials, None)[2]
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
