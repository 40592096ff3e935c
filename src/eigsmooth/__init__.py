"""Stochastic rank-one smoothing toolkit for maximum-eigenvalue minimization.

Subpackages:
  spectral   dense symmetric kernel (Lanczos, secular updates)
  smoothing  smoothed objective, stochastic value/gradient oracle, bounds
  optimize   accelerated stochastic solver with monotone line search, baselines
  problems   box (sparse-PCA style) and ball (cut relaxation dual) instances
  phase      rank-one perturbation phase-transition lab
  cli        command-line front end (solve / compare / phase)
"""

__version__ = "0.1.0"
