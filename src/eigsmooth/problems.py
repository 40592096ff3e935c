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
`matrix(point)` maps the variable to the exactly symmetric matrix whose top
eigenvalue is measured, `pull_back(F, w)` chain-rules a matrix gradient
given as rank-one factors, sum_k w_k f_k f_k^T over the rows f_k of F (unit
weights when w is None): the box problem forms that n x n sum, the ball
problem only its diagonal sum_k w_k f_k^2 in O(kn). `composite(point,
value, F, w, q)` is the one place the objective's value and gradient are
assembled from a top value and those factors, the pull-back divided by q
(the box has no linear term, the ball adds -1^T w); `prox_setup()`
packages projection, diameter, and start point.

Also here: covariance ingestion with top-variance coordinate selection, and
a synthetic low-rank-plus-noise covariance reproducing the well-separated
leading-eigenvalue regime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimize import ProxSetup
from .spectral import (
    _check_count, _read_rows, _table, check_finite_positive, check_symmetric, symmetrize,
)

__all__ = [
    "BoxProblem",
    "BallProblem",
    "load_covariance",
    "synthetic_covariance",
    "dspca_problem",
    "maxcut_problem",
]


def _divided(G, q):
    """G / q in place, on a pull-back's new sum; a factor weight 1/q would round it apart."""
    if q != 1:
        G /= q
    return G


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
        # Rows scaled by sqrt(w) in one buffer H, so H^T H is numpy's symmetric
        # product: half the flops of a general one, and exactly symmetric.
        H = F if w is None else F * np.sqrt(w)[:, None]
        return H.T @ H

    def composite(self, X, value, F, w=None, q=1):
        """(value, gradient) at X: no linear term, so the gradient is the pull-back's own sum."""
        return value, _divided(self.pull_back(F, w), q)

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

    def composite(self, w, value, F, p=None, q=1):
        """(value, gradient) at w, each with the linear term -1^T w's part."""
        return value - float(np.sum(w)), _divided(self.pull_back(F, p), q) - 1.0

    @property
    def diameter(self):
        return self.radius / math.sqrt(2.0)

    def center(self):
        return np.zeros(self.dim)

    def prox_setup(self):
        return ProxSetup(project=self.project, diameter=self.diameter, center=self.center())

    def true_objective(self, w):
        return float(np.linalg.eigvalsh(self.matrix(w))[-1]) - float(np.sum(w))


def _normalize_spectral(A, path=None):
    """A / ||A||_2; a zero matrix is a ValueError naming `path`, its data file."""
    norm = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    if norm <= 0.0:
        where = "" if path is None else f"{path}: "
        raise ValueError(f"{where}the matrix has zero spectral norm")
    return A / norm


class _SelectionError(ValueError):
    """More coordinates asked of a data file than it holds: a setting the
    file cannot meet, not a fault of the file."""


def load_covariance(path, n_select):
    """Load data and return a covariance matrix with unit spectral norm.

    The file, read once, holds either the covariance in the square matrix
    format (first line `n`), or m >= 2 observation rows of n values (first
    line `m n`) from which the covariance is formed with ddof = 1. The
    `n_select` coordinates of highest variance are kept, in their original
    order; `n_select` must be at least 1 and at most n (a `_SelectionError`
    past n). A sample covariance that overflows, or a covariance that is
    zero, is a ValueError naming the file.
    """
    _check_count("n_select", n_select, 1)
    (lineno, head), *rows = _read_rows(path, header=True)
    if len(head) > 2 or len(head) == 2 and head[0] < 2:
        raise ValueError(f"{path}:{lineno}: expected 'n', or 'm n' with m >= 2, on the first line")
    data = _table(path, rows, head[0], head[-1])
    if n_select > head[-1]:
        raise _SelectionError(f"{path} holds {head[-1]} coordinates, "
                              f"fewer than the {n_select} asked for")
    if len(head) == 1:
        cov = check_symmetric(data)
        idx = np.sort(np.argsort(-np.diag(cov), kind="stable")[:n_select])
        return _normalize_spectral(cov[np.ix_(idx, idx)], path)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        variances = data.var(axis=0, ddof=1)
        idx = np.sort(np.argsort(-variances, kind="stable")[:n_select])
        cov = np.atleast_2d(np.cov(data[:, idx], rowvar=False))
    if not (np.isfinite(variances).all() and np.isfinite(cov).all()):
        raise ValueError(f"{path}: the sample covariance overflows")
    return _normalize_spectral(check_symmetric(cov, tol=1e-8), path)


def synthetic_covariance(n, rng):
    """Two-factor (strengths 4 and 2) plus noise (standard deviation 0.5)
    covariance with unit spectral norm and well-separated leading
    eigenvalues."""
    _check_count("n", n, 1)
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
    _check_count("n", n, 2)
    G = rng.standard_normal((n, n))
    C = G.T @ G
    radius = float(radius) if radius is not None else float(n)
    return BallProblem(C=C / np.linalg.eigvalsh(C)[-1], radius=radius)
