"""The paper's checks, kept as test fixtures: the library never calls them.

The library samples the eigenpairs of X + (eps/n) z z^T by Lanczos on the
implicit operator (`smoothing.gradient_oracle`). The fixtures here solve
them by the secular equation on a full decomposition of X instead, with the
eigenvector rebuilt analytically (Bunch, Nielsen & Sorensen 1978).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from eigsmooth.optimize import OracleEval
from eigsmooth.spectral import EigPair, SpectralDecomp, _canonical_sign, full_eig, secular_shifts_batch


def _rank_one_top(decomp, Z, scale):
    """Top eigenpairs of ``X + scale * z z^T`` from a decomposition of X, for
    m groups of k update vectors z (`Z` has shape (m, k, n)).

    Returns the top eigenvalues (m, k), each group's argmax (ties to the
    lowest index) and the winners' unit eigenvectors (m, n) with canonical
    sign. Their eigenbasis coordinates are coords_j / ((lambda_1 -
    lambda_j) + shift), free of cancellation; a root at the pole (shift 0)
    leaves the top eigenvector of X in place.
    """
    lam, V = decomp.values, decomp.vectors
    coords = Z @ V
    shifts = secular_shifts_batch(lam, coords.reshape(-1, lam.size) ** 2, scale)
    shifts = shifts.reshape(coords.shape[:2])
    values = lam[0] + shifts
    i0 = np.argmax(values, axis=1)
    groups = np.arange(Z.shape[0])
    shift = shifts[groups, i0][:, None]
    pole = shift == 0.0
    comps = coords[groups, i0] / np.where(pole, 1.0, (lam[0] - lam) + shift)
    vecs = comps @ V.T
    vecs = np.where(pole, V[:, 0], vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
    return values, i0, _canonical_sign(vecs)


def rank_one_leading(decomp, v, eps_over_n):
    """Leading eigenpair of ``X + eps_over_n * v v^T`` from a decomposition of X.

    The eigenvalue is lambda_1 + t* with t* from the secular equation (to
    `_SECULAR_TOL`); eigenvector coordinates in the eigenbasis are
    (coords of v)_j / (value - lambda_j), normalized and rotated back.
    One eigenvector unit. Raises ValueError unless eps_over_n > 0 and v is nonzero.
    The one-vector reference of acceptance criterion 1 (secular oracle equivalence).
    """
    values, _, vecs = _rank_one_top(decomp, np.asarray(v, dtype=float)[None, None, :], eps_over_n)
    return EigPair(value=float(values[0, 0]), vector=vecs[0])


def _decomposed(X):
    """X's decomposition, made here (by the validating `full_eig`) for a matrix."""
    return X if isinstance(X, SpectralDecomp) else full_eig(X)


def fk_value(X, Z, params):
    """Deterministic realization of the smoothed objective at fixed noise.

    `Z` holds the k perturbation vectors as rows. Evaluates through the
    secular path on a decomposition of X (made here if X is a matrix), so
    the result is an exact function of (X, Z): suitable for
    common-random-number derivative checks. Returns (value, i0, vector,
    per_draw_values).
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    values, i0, vecs = _rank_one_top(_decomposed(X), Z[None], params.scale)
    i0 = int(i0[0])
    return float(values[0, i0]), i0, vecs[0], values[0]


def _secular_samples(X, params, draws, rng):
    """`draws` realizations on the secular path, at a matrix or a decomposition.

    All noise comes from `rng` in one (draws, k, n) call, and all draws are
    solved in one kernel call. A realization is the largest perturbed top
    eigenvalue (ties to the lowest index) and its unit vector. Returns
    values (draws,) and vectors (draws, n).
    """
    Z = rng.standard_normal((draws, params.k, params.n))
    values, i0, vectors = _rank_one_top(_decomposed(X), Z, params.scale)
    return values[np.arange(draws), i0], vectors


def fk_values_batch(decomp, params, draws, rng):
    """Monte Carlo realizations of the smoothed objective, vectorized.

    Returns `draws` values of max_i lambda_max(X + (eps/n) z_i z_i^T) through
    the batched secular path (on a decomposition made here if `decomp` is a
    matrix); meant for estimator diagnostics and envelope checks.
    """
    return _secular_samples(decomp, params, draws, rng)[0]


def approximation_bounds(params):
    """Two-sided envelope of (smoothed objective - lambda_max): [eps/n, k*eps]."""
    return params.eps / params.n, params.k * params.eps


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

    Estimates E || phi phi^T - mean ||_F^2 over `trials` samples and checks
    the analytic bounds: variance <= 1 within three standard errors, and the
    per-sample squared deviation <= 4 on every single draw.
    """
    phis = _secular_samples(X, params, trials, rng)[1]
    mean = (phis.T @ phis) / trials
    # ||phi phi^T - M||_F^2 = 1 - 2 phi^T M phi + ||M||_F^2 for unit phi
    mnorm2 = float(np.sum(mean**2))
    quad = np.einsum("ij,jk,ik->i", phis, mean, phis)
    devs = 1.0 - 2.0 * quad + mnorm2
    var = float(devs.mean())
    stderr = float(devs.std(ddof=1) / np.sqrt(trials))
    max_dev = float(devs.max())
    return VarianceProbe(
        empirical_variance=var,
        stderr=stderr,
        max_sq_deviation=max_dev,
        mean_trace=float(np.trace(mean)),
        bound_ok=var <= 1.0 + 3.0 * stderr and max_dev <= 4.0,
    )


def local_lip_constant(decomp):
    """1 / (lambda_1 - lambda_2), the local Lipschitz constant of the gradient
    of the top-eigenvalue map where the top eigenvalue is simple. Checked by
    acceptance criterion 4 (Lipschitz constants)."""
    return 1.0 / float(decomp.values[0] - decomp.values[1])


def extremal_direction(decomp):
    """Unit-Frobenius symmetric direction attaining the supremum of the second
    directional derivative of the top-eigenvalue map where the top eigenvalue
    is simple: the normalized swap of the two leading eigenvectors. Attains
    the bound of acceptance criterion 4 (Lipschitz constants)."""
    p1 = decomp.vectors[:, 0]
    p2 = decomp.vectors[:, 1]
    return (np.outer(p1, p2) + np.outer(p2, p1)) / math.sqrt(2.0)


class FunctionOracle:
    """Deterministic oracle from a plain (value, grad) function; zero cost.
    Drives the noiseless quadratic of acceptance criterion 6 (line search)."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, point, key):
        value, grad = self.fn(point)
        return OracleEval(value=float(value), grad=np.asarray(grad, dtype=float), cost=0.0)


def synthetic_samples(m, n, rng):
    """Observation matrix from a two-factor model (factor strengths 4 and 2)
    plus isotropic noise of unit standard deviation."""
    loadings = rng.standard_normal((n, 2))
    factors = rng.standard_normal((m, 2)) * np.array([4.0, 2.0])
    return factors @ loadings.T + rng.standard_normal((m, n))


def _grid_refine(evaluate, center, half, levels, points, clamp):
    """Multilevel dense grid minimization: evaluate on a points^d grid
    centered on the incumbent, then shrink the window.

    The window halves only when the incumbent stays interior to it; a best
    point on the window edge doubles the window instead, so descent along a
    constraint boundary is not lost to premature zooming.
    """
    d = center.shape[0]
    half0 = half
    best_x = center.copy()
    best_val = float("inf")
    for _ in range(levels):
        axes = [np.linspace(best_x[i] - half, best_x[i] + half, points) for i in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        grid_center = best_x.copy()
        mesh = clamp(mesh)
        vals = evaluate(mesh)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_x = mesh[i].copy()
        on_edge = np.any(np.abs(best_x - grid_center) >= half * (1.0 - 2.0 / (points - 1)))
        half = min(2.0 * half, half0) if on_edge else 0.5 * half
    return best_x, best_val


def box_reference(problem, levels=18, points=13):
    """Brute-force reference optimum of a small box problem by multilevel
    dense grid over the upper triangle of X (desk scale: n <= 3)."""
    n = problem.dim
    iu = np.triu_indices(n)
    d = len(iu[0])

    def evaluate(mesh):
        m = mesh.shape[0]
        Xs = np.zeros((m, n, n))
        Xs[:, iu[0], iu[1]] = mesh
        Xs = Xs + np.transpose(Xs, (0, 2, 1))
        Xs[:, np.arange(n), np.arange(n)] *= 0.5
        vals = np.linalg.eigvalsh(problem.A[None, :, :] + Xs)[:, -1]
        return vals

    def clamp(mesh):
        return np.clip(mesh, -problem.rho, problem.rho)

    x, val = _grid_refine(evaluate, np.zeros(d), problem.rho, levels, points, clamp=clamp)
    X = np.zeros((n, n))
    X[iu] = x
    X = X + X.T
    X[np.arange(n), np.arange(n)] *= 0.5
    return X, val


def ball_reference(problem, levels=18, points=13):
    """Brute-force reference optimum of a small ball problem by multilevel
    dense grid over w (desk scale: n <= 4), from a window of half-width the
    radius.

    The objective decreases without bound along the all-ones direction, so
    the constraint always binds: the search covers the whole ball (grid
    points are projected onto it) and the incumbent typically sits on the
    boundary.
    """
    n = problem.dim

    def evaluate(mesh):
        m = mesh.shape[0]
        Ms = np.broadcast_to(problem.C, (m, n, n)).copy()
        Ms[:, np.arange(n), np.arange(n)] += mesh
        return np.linalg.eigvalsh(Ms)[:, -1] - mesh.sum(axis=1)

    def clamp(mesh):
        norms = np.linalg.norm(mesh, axis=1, keepdims=True)
        factor = np.minimum(1.0, problem.radius / np.maximum(norms, 1e-300))
        return mesh * factor

    return _grid_refine(evaluate, np.zeros(n), float(problem.radius), levels, points, clamp)
