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


def sample_fk(X, params, rng, path="auto", lanczos_tol=1e-9):
    """Draw one realization of the smoothed objective and its gradient factor.

    Draws k iid standard Gaussian vectors from `rng`, computes each perturbed
    top eigenvalue through the selected path ("secular", "lanczos", or "auto"
    which takes the secular path whenever X is a decomposition), and
    returns the max, the winning index (ties broken by lowest index), and the
    winning eigenvector. Cost: k eigenpair units (+ n when the secular path
    must first decompose X). X is validated here, by `check_symmetric` (its k
    Lanczos runs take it unchecked) or by `full_eig` when it is decomposed.
    The two witness fields are computed whenever a decomposition of X is at
    hand (the secular path, or X given as a `SpectralDecomp`), NaN otherwise.
    """
    X, dec, path, cost = _prepare(X, params, path)
    values, i0, vectors, Z, units = _draw(X, dec, path, params, [rng], lanczos_tol)
    value = float(values[0])
    if dec is None:
        gap_witness = witness_bound = float("nan")
    else:
        gap_witness = value - float(dec.values[0])
        witness_bound = params.scale * float(np.max((dec.vectors[:, 0] @ Z[0].T) ** 2))
    return OracleSample(
        value=value, i0=int(i0[0]), vector=vectors[0],
        gap_witness=gap_witness, witness_bound=witness_bound, cost_eigvecs=cost + units,
    )


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


def _draw(X, dec, path, params, gens, lanczos_tol):
    """One realization per generator in `gens`, on inputs resolved by `_prepare`.

    The secular path draws all noise first (one call for a shared generator)
    and solves all samples in one kernel call; at eps = 0 a sample is then
    the top pair of X. On the Lanczos path each generator draws its sample's
    k noise vectors, then the start vectors of its k runs, each run given
    update (eps/n, z). Returns values, winning indices and unit vectors
    (q, n), noise Z (q, k, n) and units.
    """
    q, k, n = len(gens), params.k, params.n
    Z = np.empty((q, k, n))
    if path == "secular" or (dec is not None and params.eps == 0.0):
        shared = len({id(gen) for gen in gens}) == 1
        for gen, noise in [(gens[0], Z)] if shared else zip(gens, Z):
            gen.standard_normal(noise.shape, out=noise)
        if params.eps == 0.0:
            return (np.full(q, dec.values[0]), np.zeros(q, dtype=int),
                    np.tile(dec.vectors[:, 0], (q, 1)), Z, 0.0)
        values, _, i0, vectors = _rank_one_top(dec, Z, params.scale)
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


def gradient_oracle(X, params, q, rng, path="auto", seed_key=(), lanczos_tol=1e-9):
    """Average of q independent rank-one gradient samples.

    `rng` may be a Generator (samples drawn sequentially from one stream) or
    an integer seed, in which case each sample l uses the counter-derived
    generator for key ``seed_key + (l,)`` so q-parallel evaluation would be
    reproducible and order-independent. The reduction always runs in sample
    index order. X is validated or decomposed once for all q samples, and on
    the secular path all q samples are solved in one batched kernel call.
    Cost: q * (per-sample cost), plus n for a decomposition made here.
    """
    q = int(q)
    if q < 1:
        raise ValueError("q must be a positive integer")
    X, dec, path, cost = _prepare(X, params, path)
    shared = isinstance(rng, np.random.Generator)
    gens = [rng if shared else sample_rng(rng, *seed_key, l) for l in range(q)]
    values, _, vectors, _, units = _draw(X, dec, path, params, gens, lanczos_tol)
    return GradientEstimate(vectors=vectors, value=float(values.mean()), cost_eigvecs=cost + units)


def fk_values_batch(decomp, params, draws, rng):
    """Monte Carlo realizations of the smoothed objective, vectorized.

    Returns `draws` values of max_i lambda_max(X + (eps/n) z_i z_i^T) through
    the batched secular path; meant for estimator diagnostics and envelope
    checks, not for the per-sample cost-accounted oracle.
    """
    if int(draws) < 0:
        raise ValueError("draws must be a nonnegative integer")
    X, dec, path, _ = _prepare(decomp, params, "secular")
    return _draw(X, dec, path, params, [rng] * int(draws), None)[0]


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
    X, dec, path, _ = _prepare(X, params, "secular")
    phis = _draw(X, dec, path, params, [rng] * trials, None)[2]
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
