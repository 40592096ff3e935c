"""Problem instances for top-eigenvalue minimization.

Two families:

* `BoxProblem`: minimize lambda_max(A + X) over symmetric X with entries in
  [-rho, rho] (the hypercube relaxation used to hunt sparse leading
  eigenvectors). A is a covariance-like matrix normalized to unit spectral
  norm; the default half-width is max(diag(A)) / 2.

* `BallProblem`: minimize lambda_max(C + diag(w)) - 1^T w over a Euclidean
  ball ||w|| <= R (the dual of the classical cut relaxation). C is a
  normalized Wishart sample, so its spectrum sits in [0, 1].

Both expose the composite-objective interface the solvers consume:
`matrix(point)` maps the variable to the symmetric matrix whose top
eigenvalue is measured, `pull_back(F, w)` chain-rules a matrix gradient
given as rank-one factors, sum_k w_k f_k f_k^T over the rows f_k of F (unit
weights when w is None): the box problem forms that n x n sum, the ball
problem only its diagonal sum_k w_k f_k^2 in O(kn). `linear_value` /
`linear_grad` carry the affine term (0.0 for none); `prox_setup()` packages
projection, diameter, and start point.

Also here: covariance ingestion with top-variance coordinate selection, a
synthetic low-rank-plus-noise generator reproducing the well-separated
leading-eigenvalue regime, and dense multilevel grid references for desk
scale validation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimize import ProxSetup, check_finite_positive
from .spectral import check_symmetric, load_matrix, symmetrize

__all__ = [
    "BoxProblem",
    "BallProblem",
    "load_covariance",
    "synthetic_samples",
    "synthetic_covariance",
    "dspca_problem",
    "maxcut_problem",
    "box_reference",
    "ball_reference",
]


@dataclass
class BoxProblem:
    """Entrywise box-constrained perturbation of a fixed symmetric matrix (kept
    as a copy); the half-width rho defaults to max(diag(A)) / 2."""

    A: np.ndarray
    rho: float | None = None

    def __post_init__(self):
        self.A = check_symmetric(self.A).copy()
        if self.rho is None:
            self.rho = float(np.max(np.diag(self.A))) / 2.0
        check_finite_positive("rho", self.rho)

    @property
    def dim(self):
        return self.A.shape[0]

    def matrix(self, X):
        return self.A + X

    def project(self, X):
        return np.clip(X, -self.rho, self.rho)

    def pull_back(self, F, w=None):
        return F.T @ F if w is None else (F.T * w) @ F  # one buffer: numpy's symmetric product

    def linear_value(self, X):
        return 0.0

    def linear_grad(self, X):
        return 0.0

    @property
    def diameter(self):
        # max omega over the box for omega = ||.||_F^2 / 2 is (rho n)^2 / 2
        return self.rho * self.dim / math.sqrt(2.0)

    def center(self):
        return np.zeros_like(self.A)

    def prox_setup(self):
        return ProxSetup(project=self.project, diameter=self.diameter, center=self.center())

    def true_objective(self, X):
        return float(np.linalg.eigvalsh(self.matrix(X))[-1])


@dataclass
class BallProblem:
    """Diagonal shift of a fixed matrix (kept as a copy) penalized by -1^T w over a ball."""

    C: np.ndarray
    radius: float

    def __post_init__(self):
        self.C = check_symmetric(self.C).copy()
        check_finite_positive("radius", self.radius)

    @property
    def dim(self):
        return self.C.shape[0]

    def matrix(self, w):
        return self.C + np.diag(w)

    def project(self, w):
        norm = float(np.linalg.norm(w))
        if norm <= self.radius:
            return w
        return w * (self.radius / norm)

    def pull_back(self, F, w=None):
        return (F * F).sum(axis=0) if w is None else w @ (F * F)

    def linear_value(self, w):
        return -float(np.sum(w))

    def linear_grad(self, w):
        return -np.ones(self.dim)

    @property
    def diameter(self):
        return self.radius / math.sqrt(2.0)

    def center(self):
        return np.zeros(self.dim)

    def prox_setup(self):
        return ProxSetup(project=self.project, diameter=self.diameter, center=self.center())

    def true_objective(self, w):
        return float(np.linalg.eigvalsh(self.matrix(w))[-1]) - float(np.sum(w))


def _normalize_spectral(A):
    norm = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    if norm <= 0.0:
        raise ValueError("matrix has zero spectral norm")
    return A / norm


def load_covariance(path, n_select):
    """Load data and return a covariance matrix with unit spectral norm.

    Two file layouts are accepted: the square matrix format (first line `n`)
    holding the covariance itself, or a sample layout (first line `m n`)
    holding m observation rows of n values from which the covariance is
    formed. The `n_select` coordinates of highest variance are kept, in
    their original order; `n_select` must be at least 1.
    """
    if n_select < 1:
        raise ValueError(f"n_select must be at least 1, got {n_select!r}")
    with open(path) as fh:
        first = ""
        for line in fh:
            if line.strip():
                first = line
                break
    head = first.split()
    if len(head) == 1:
        cov = load_matrix(path)
        variances = np.diag(cov)
        if n_select > cov.shape[0]:
            raise ValueError(f"n_select={n_select} exceeds the {cov.shape[0]} available coordinates")
        idx = np.sort(np.argsort(-variances, kind="stable")[:n_select])
        return _normalize_spectral(cov[np.ix_(idx, idx)])
    if len(head) != 2:
        raise ValueError(f"{path}:1: expected 'n' or 'm n' on the first line")
    m, n = int(head[0]), int(head[1])
    data = np.loadtxt(path, skiprows=1)
    data = np.atleast_2d(data)
    if data.shape != (m, n):
        raise ValueError(f"{path}: expected {m} x {n} samples, found {data.shape}")
    if n_select > n:
        raise ValueError(f"n_select={n_select} exceeds the {n} available coordinates")
    variances = data.var(axis=0, ddof=1)
    idx = np.sort(np.argsort(-variances, kind="stable")[:n_select])
    cov = np.cov(data[:, idx], rowvar=False)
    return _normalize_spectral(check_symmetric(np.atleast_2d(cov), tol=1e-8))


def synthetic_samples(m, n, rng):
    """Observation matrix from a two-factor model (factor strengths 4 and 2)
    plus isotropic noise of unit standard deviation."""
    loadings = rng.standard_normal((n, 2))
    factors = rng.standard_normal((m, 2)) * np.array([4.0, 2.0])
    return factors @ loadings.T + rng.standard_normal((m, n))


def synthetic_covariance(n, rng):
    """Two-factor (strengths 4 and 2) plus noise (standard deviation 0.5)
    covariance with unit spectral norm and well-separated leading
    eigenvalues."""
    if n < 1:
        raise ValueError("n must be at least 1")
    loadings = rng.standard_normal((n, 2)) / math.sqrt(n)
    A = (loadings * np.array([16.0, 4.0])) @ loadings.T + (0.25 / n) * np.eye(n)
    return _normalize_spectral(symmetrize(A))


def dspca_problem(A, rho=None):
    """Box problem over a normalized covariance; default half-width is
    max(diag(A)) / 2. A is checked once, by the `BoxProblem` that keeps it."""
    problem = BoxProblem(A=A, rho=rho)
    top = float(np.max(np.abs(np.linalg.eigvalsh(problem.A))))
    if abs(top - 1.0) > 1e-10:
        raise ValueError(f"A must have unit spectral norm, got {top!r}")
    return problem


def maxcut_problem(n, rng, radius=None):
    """Ball problem over a normalized Wishart matrix C = G^T G / ||G||_2^2.

    The default radius is n. The objective is unbounded below along the
    all-ones direction, so the constraint always binds; the radius sets the
    scale of the boundary minimizer.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    G = rng.standard_normal((n, n))
    C = G.T @ G
    radius = float(radius) if radius is not None else float(n)
    return BallProblem(C=C / np.linalg.eigvalsh(C)[-1], radius=radius)


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
    if points**d > 2_000_000:
        raise ValueError("grid reference is a desk-scale tool")

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
    if points**n > 2_000_000:
        raise ValueError("grid reference is a desk-scale tool")

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
