"""Smoothed top-eigenvalue objective and its stochastic oracle.

The nonsmooth map X -> lambda_max(X) is replaced by the expectation of
    max_{i=1..k} lambda_max(X + (eps/n) z_i z_i^T),   z_i iid N(0, I_n),
which is differentiable with a gradient that is an expected rank-one
projector. One realization costs k leading eigenpairs; averaging q
independent realizations gives a gradient estimate with variance 1/q.

The sampler, `gradient_oracle`, runs Lanczos on this module's operator
q -> X q + (eps/n) z (z^T q), never formed, the library's one path to
the perturbed eigenpairs; the Krylov kernel sees only its product.

Reproducibility: per-sample generators are derived from counter-based keys
(run seed, iteration, sample index), so parallel sample evaluation is
order-independent; the q-average reduction always follows sample-index
order so results are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _check_count, check_finite_positive, lanczos_leading

__all__ = [
    "SmoothingParams",
    "GradientEstimate",
    "sample_rng",
    "gradient_oracle",
    "smoothing_constant",
    "lipschitz_bound",
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
        check_finite_positive("eps", self.eps)
        self.k = int(_check_count("k", self.k, 1))
        self.n = int(_check_count("n", self.n, 1))

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


class _RankOneUpdate:
    """X + scale * z z^T for `lanczos_leading`, applied as X q + scale * z (z^T q)."""

    def __init__(self, X, scale, z):
        self.shape, self.X, self.scale, self.z = X.shape, X, scale, z

    def __matmul__(self, q):
        w = self.X @ q
        w += (self.scale * float(self.z @ q)) * self.z
        return w


def sample_rng(seed, *key):
    """Counter-based generator for (run seed, iteration, sample index, ...) keys."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key)))


def gradient_oracle(X, params, q, seed, key, lanczos_tol):
    """Average of q independent rank-one gradient samples at the matrix X.

    Sample l draws from ``sample_rng(seed, *key, l)`` its k noise vectors,
    then the start vectors of its k Lanczos runs, the run for z on this
    module's `_RankOneUpdate` X + (eps/n) z z^T to relative precision
    `lanczos_tol`; it keeps the largest top eigenvalue (ties to the lowest
    index) and its unit vector. The reduction runs in sample index order;
    the runs trust X's symmetry and check its shape and finiteness. Cost: k
    eigenpair units per sample.
    """
    _check_count("q", q, 1)
    if len(X) != params.n:
        raise ValueError(f"params.n={params.n} does not match matrix dimension {len(X)}")
    X, values, vectors = np.asarray(X, dtype=float), np.empty(q), np.empty((q, params.n))
    for l in range(q):
        gen = sample_rng(seed, *key, l)
        Z = gen.standard_normal((params.k, params.n))
        pairs = [lanczos_leading(_RankOneUpdate(X, params.scale, z), lanczos_tol, rng=gen) for z in Z]
        best = pairs[int(np.argmax([p.value for p in pairs]))]
        values[l], vectors[l] = best.value, best.vector
    return GradientEstimate(vectors=vectors, value=float(values.mean()),
                            cost_eigvecs=float(q * params.k))


def smoothing_constant(k):
    """Gradient-smoothness constant k / (k - 2); finite only for k >= 3."""
    if k < 3:
        raise ValueError("the smoothness constant requires k >= 3")
    return k / (k - 2.0)


def lipschitz_bound(params):
    """Uniform Lipschitz constant of the smoothed gradient: (k/(k-2)) * n / eps."""
    return smoothing_constant(params.k) * params.n / params.eps
