"""Accelerated stochastic composite optimization with monotone line search.

The solver family minimizes Psi(x) = f(x) + h(x) over a compact convex set
observed through a stochastic oracle G(x, xi) (unbiased gradient, variance
sigma^2 = 1/q). The engine interpolates a mirror-descent iterate x_t and an
aggregate iterate x_t^ag through the midpoint sequence

    x_t^md = 2/(t+1) x_t + (t-1)/(t+1) x_t^ag,

takes prox steps of size gamma_t = (t+1) gamma / 2, and optionally adapts the
scale gamma by a monotone (shrink-only) line search: the candidate aggregate
must satisfy a sampled upper-model inequality, otherwise gamma is multiplied
by gamma_d < 1 down to a floor gamma_min. Two distinct oracle realizations
enter each test; the trailing one is reused at the next iteration whenever
the evaluation point is unchanged, otherwise it is resampled and charged.

Deterministic baselines in the same trace schema: projected subgradient
steps on the exact top-eigenvalue objective, and accelerated gradient on the
soft-max (log-trace-exponential) smoothing whose every iteration costs one
matrix exponential, i.e. n eigenvector units.

Everything is deterministic given the run seed: oracle noise comes from
counter-based keys (seed, iteration, sample index).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .smoothing import SmoothingParams, gradient_oracle, lipschitz_bound, sample_rng, smoothing_constant
from .spectral import SpectralError, check_symmetric, full_eig, lanczos_leading

__all__ = [
    "ProxSetup",
    "SolverConfig",
    "check_finite_positive",
    "TraceRecord",
    "OracleEval",
    "RunResult",
    "StochasticOracle",
    "ExactEigOracle",
    "FunctionOracle",
    "prox_map_euclidean",
    "default_schedule",
    "line_search_exit",
    "acsa_run",
    "acsa_linesearch_run",
    "subgradient_baseline",
    "nesterov_smooth_baseline",
    "softmax_smoothed",
    "expected_gap_bound",
    "coarse_gap_bound",
    "write_trace",
    "read_trace",
    "TRACE_HEADER",
]

TRACE_HEADER = "t,obj_true,obj_sampled,gamma,eigvecs,wall_ms"


@dataclass
class ProxSetup:
    """Euclidean prox geometry: omega = ||.||^2 / 2 (strong convexity modulus 1).

    `project` is the Euclidean projection onto the feasible set, `diameter`
    the omega-diameter (max omega - min omega)^(1/2), and `center` the omega
    minimizer used as the start point.
    """

    project: object  # Callable[[ndarray], ndarray]
    diameter: float
    center: np.ndarray


@dataclass
class SolverConfig:
    """All solver parameters; anything left None is derived at run time.

    gamma_max / gamma_min / gamma_init define the line-search ladder
    (defaults: a theory floor 1/(2L) with L the smoothed-gradient
    Lipschitz bound divided by `lip_scale`, and a ceiling `ladder_span`
    times higher). `oracle_path` is "lanczos" or "secular". Every field is
    checked here, before any solver starts.
    """

    N: int
    eps: float
    k: int = 3
    q: int = 1
    seed: int = 0
    gamma_max: float | None = None
    gamma_min: float | None = None
    gamma_init: float | None = None
    gamma_d: float = 0.5
    ladder_span: float = 16.0
    lip_scale: float = 100.0
    oracle_path: str = "lanczos"
    oracle_tol: float = 1e-6
    true_obj_every: int | None = None

    def __post_init__(self):
        _check_run_length(self.N, self.true_obj_every)
        if not 0.0 < self.gamma_d < 1.0:
            raise ValueError("gamma_d must lie in (0, 1)")
        if self.q < 1:
            raise ValueError("q must be at least 1")
        if self.k < (3 if self.eps > 0.0 else 1):
            raise ValueError(f"k must be at least 1, and at least 3 when eps > 0, got {self.k!r}")
        for name in ("gamma_max", "gamma_min", "gamma_init", "ladder_span", "lip_scale"):
            if getattr(self, name) is not None:
                check_finite_positive(name, getattr(self, name))
        if not 0.0 < self.oracle_tol < 1.0:
            raise ValueError(f"oracle_tol must lie in (0, 1), got {self.oracle_tol!r}")
        if self.oracle_path not in ("lanczos", "secular"):
            raise ValueError(f"oracle_path must be 'lanczos' or 'secular', got {self.oracle_path!r}")
        ladder = [g for g in (self.gamma_min, self.gamma_init, self.gamma_max) if g is not None]
        if ladder != sorted(ladder):
            raise ValueError("gamma_min <= gamma_init <= gamma_max must hold among those set")


def check_finite_positive(name, value):
    """The rule of every scale setting (step scales, eps, lip_scale, rho, radius)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_run_length(N, true_obj_every):
    """The rules every solver loop shares: a budget `N` of at least one
    iteration, and a trace cadence unset or at least 1."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N!r}")
    if true_obj_every is not None and true_obj_every < 1:
        raise ValueError(f"true_obj_every must be at least 1, got {true_obj_every!r}")


@dataclass
class TraceRecord:
    t: int
    obj_true: float
    obj_sampled: float
    gamma: float
    eigvecs: float
    wall_ms: float


@dataclass
class OracleEval:
    value: float
    grad: np.ndarray
    cost: float = 0.0


@dataclass
class RunResult:
    solution: np.ndarray
    trace: list
    total_eigvecs: float
    best_objective: float
    iterations: int
    gamma_final: float | None = None
    t_gamma: int | None = None
    gap_bound: float | None = None
    aborted: bool = False
    abort_reason: str | None = None


def _composite(problem, point, value, F, w, q=1):
    """Composite (value, gradient): value and pull_back(F, w) / q, plus the linear term's."""
    lin, grad = problem.linear_grad(point), problem.pull_back(F, w)
    if q != 1:
        grad /= q  # in place, on pull_back's new sum; a factor weight 1/q would round it apart
    value = value + problem.linear_value(point)
    return value, (grad if np.ndim(lin) == 0 and lin == 0.0 else grad + lin)


class StochasticOracle:
    """Smoothed value/gradient oracle for a matrix-valued composite problem.

    Each evaluation draws q independent smoothed samples at the mapped matrix
    and hands their q eigenvectors to the problem's `pull_back` as factors.
    Noise is keyed by (seed, *key, sample index). With path "secular" each
    evaluation decomposes the matrix first and charges its n units; any
    other path hands the matrix to the Lanczos path.
    """

    def __init__(self, problem, params, q, seed, path="lanczos", lanczos_tol=1e-6):
        self.problem = problem
        self.params = params
        self.q = int(q)
        self.sigma2 = 1.0 / self.q  # variance bound of the q-average
        self.seed = int(seed)
        self.path = path
        self.lanczos_tol = lanczos_tol

    def evaluate(self, point, key):
        M, cost = self.problem.matrix(point), 0.0
        if self.path == "secular":
            M = full_eig(M)
            cost = M.cost_eigvecs
        est = gradient_oracle(
            M, self.params, self.q, rng=self.seed, seed_key=tuple(key), lanczos_tol=self.lanczos_tol,
        )
        value, grad = _composite(self.problem, point, est.value, est.vectors, None, est.q)
        return OracleEval(value=value, grad=grad, cost=cost + est.cost_eigvecs)


class ExactEigOracle:
    """Noise-free oracle: one leading eigenpair per evaluation (cost 1), by
    Lanczos to relative precision 1e-9, whose vector is the gradient's factor."""

    sigma2 = 0.0

    def __init__(self, problem, seed):
        self.problem = problem
        self.seed = int(seed)

    def evaluate(self, point, key):
        M = check_symmetric(self.problem.matrix(point))  # Lanczos trusts its input
        pair = lanczos_leading(M, rel_tol=1e-9, rng=sample_rng(self.seed, *key))
        value, grad = _composite(self.problem, point, pair.value, pair.vector[None], None)
        return OracleEval(value=value, grad=grad, cost=pair.cost_eigvecs)


class FunctionOracle:
    """Deterministic oracle from a plain (value, grad) function; zero cost."""

    sigma2 = 0.0

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, point, key):
        value, grad = self.fn(point)
        return OracleEval(value=float(value), grad=np.asarray(grad, dtype=float), cost=0.0)


def prox_map_euclidean(setup, x, y):
    """Prox mapping for omega = ||.||^2/2: argmin_z y.(z - x) + ||z - x||^2/2,
    i.e. the Euclidean projection of x - y onto the feasible set."""
    return setup.project(x - y)


def default_schedule(n, eps, diameter):
    """Iteration and sample-count schedule N = ceil(2 D sqrt(n)/eps),
    q = ceil(max(1, D/(eps sqrt(n))))."""
    if n < 1 or eps <= 0 or diameter <= 0:
        raise ValueError("n, eps, diameter must be positive")
    N = int(math.ceil(2.0 * diameter * math.sqrt(n) / eps))
    q = int(math.ceil(max(1.0, diameter / (eps * math.sqrt(n)))))
    return N, q


def line_search_exit(value_md, grad_md, value_next, displacement, gamma, gamma_d):
    """Sampled upper-model exit test for the current step scale gamma.

    True iff  Psi(x_ag', xi') <= Psi(x_md, xi) + <G, x_ag' - x_md>
              + (gamma_d / (4 gamma)) ||x_ag' - x_md||^2.
    """
    delta = np.asarray(displacement, dtype=float)
    dist = float(np.linalg.norm(delta.ravel()))
    rhs = (
        value_md
        + float(np.vdot(np.asarray(grad_md, dtype=float), delta))
        + (gamma_d / (4.0 * gamma)) * dist**2
    )
    return value_next <= rhs


def expected_gap_bound(n, eps, k, diameter, N, q):
    """Expected-accuracy bound of the plain accelerated stochastic method:
    8 n C_k D^2 / (eps N (N+2)) + 4 sqrt(2) D / sqrt(N q)."""
    ck = smoothing_constant(k)
    return (
        8.0 * n * ck * diameter**2 / (eps * N * (N + 2.0))
        + 4.0 * math.sqrt(2.0) * diameter / math.sqrt(N * q)
    )


def coarse_gap_bound(L, diameter, N, sigma2, gamma_max, gamma_min, t_gamma, mu):
    """Coarse expected-accuracy bound of the line-search variant, with
    rho_N = (T_gamma + 2)^3 / (N + 2)^3 amplifying the noise term while the
    search is active."""
    rho = (t_gamma + 2.0) ** 3 / (N + 2.0) ** 3
    noise = math.sqrt(sigma2)
    return (
        8.0 * L * diameter**2 / N**2
        + 8.0 * diameter * noise / math.sqrt(N) * (gamma_max / gamma_min * rho + 1.0 - rho)
        + (t_gamma + 2.0) ** 2 * gamma_max * mu / (N**2 * 2.0 * gamma_min)
    )


def _default_smoothing(problem, config):
    return SmoothingParams(eps=config.eps, n=problem.dim, k=config.k)


def _default_oracle(problem, config):
    return StochasticOracle(
        problem, _default_smoothing(problem, config), config.q, config.seed,
        path=config.oracle_path, lanczos_tol=config.oracle_tol,
    )


def _scaled_lipschitz(problem, config):
    return lipschitz_bound(_default_smoothing(problem, config)) / config.lip_scale


def _resolve_ladder(config, L):
    """The line-search ladder (gamma_min, gamma_init, gamma_max).

    An unset ceiling is `ladder_span` times the theory step 1/(2L), an
    unset floor is the theory step capped at the ceiling, and an unset start
    is the ceiling. `L` is the scaled Lipschitz bound of the smoothed
    problem, or None when there is none; then both ends must be set. A
    start outside the resolved ladder is a ValueError.
    """
    gamma_min, gamma_max = config.gamma_min, config.gamma_max
    if gamma_min is None or gamma_max is None:
        if L is None:
            raise ValueError(
                "explicit 'gamma_max' and 'gamma_min' are required without a "
                "smoothed problem to derive them from"
            )
        theory = 1.0 / (2.0 * L)
        if gamma_max is None:
            gamma_max = config.ladder_span * theory
        if gamma_min is None:
            gamma_min = min(theory, gamma_max)
    gamma_init = config.gamma_init if config.gamma_init is not None else gamma_max
    if not gamma_min <= gamma_init <= gamma_max:
        raise ValueError(f"gamma_init={gamma_init!r} is outside [{gamma_min!r}, {gamma_max!r}]")
    return gamma_min, gamma_init, gamma_max


def _plain_gamma(setup, config, L, sigma2):
    """Deterministic step scale of the plain method: min of the smooth step
    1/(2L) and the noise-driven ceiling sqrt(6) D / ((N+2)^{3/2} sigma)."""
    smooth = 1.0 / (2.0 * L)
    if sigma2 <= 0.0:
        return smooth
    ceiling = math.sqrt(6.0) * setup.diameter / ((config.N + 2.0) ** 1.5 * math.sqrt(sigma2))
    return min(smooth, ceiling)


def _evaluate(fn, *args):
    """fn(*args), raising any numerical failure as SpectralError (an abort)."""
    try:
        return fn(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SpectralError(f"{type(exc).__name__}: {exc}") from exc


class _Recorder:
    """Trace rows, clock, cumulative cost and best monitored objective of one
    solver run. Rows are taken every `every` iterations (default: about 200
    rows per budget) and at the last one; the solver adds its oracle costs
    to `cost`. Budget and cadence are checked on construction, before the
    first iteration. Solvers never modify a recorded point in place, so a
    row handed the same point object as the last row reuses its monitored
    objective."""

    def __init__(self, problem, budget, every):
        _check_run_length(budget, every)
        self.problem = problem
        self.budget = budget
        self.every = every or max(1, math.ceil(budget / 200))
        self.rows = []
        self.cost = 0.0
        self.best = float("inf")
        self.start = time.perf_counter()
        self.monitored = (None, float("nan"))  # (point, objective) of the last row

    def row(self, t, point, sampled, gamma=float("nan")):
        """Record iteration t, monitored at `point`, if a row is due."""
        if t % self.every and t != self.budget:
            return
        if point is not self.monitored[0]:
            monitor = getattr(self.problem, "true_objective", None)
            self.monitored = (point, float("nan") if monitor is None else float(monitor(point)))
        obj_true = self.monitored[1]
        if not math.isnan(obj_true):
            self.best = min(self.best, obj_true)
        self.rows.append(TraceRecord(
            t=t, obj_true=obj_true, obj_sampled=sampled, gamma=gamma,
            eigvecs=self.cost, wall_ms=(time.perf_counter() - self.start) * 1e3,
        ))

    def result(self, solution, t, error=None, **extra):
        """RunResult after iteration t; an `error` aborted iteration t, so
        only t - 1 iterations completed. `extra` sets further fields and may
        override the best objective."""
        fields = {"best_objective": self.best, **extra}
        return RunResult(
            solution=solution, trace=self.rows, total_eigvecs=self.cost,
            iterations=t - 1 if error is not None else t,
            aborted=error is not None, abort_reason=None if error is None else str(error),
            **fields,
        )


def _acsa_engine(problem, oracle, setup, config, gamma_min, gamma):
    """AC-SA iterations from step scale `gamma`; failed exit tests shrink it
    by gamma_d down to the floor `gamma_min`, where the search stops. The
    plain method is the one-rung ladder gamma == gamma_min."""
    n_iter = config.N
    x = np.array(setup.center, dtype=float, copy=True)
    x_ag = x.copy()
    cached = None  # (key, point, OracleEval) of the trailing exit-test call
    rec = _Recorder(problem, n_iter, config.true_obj_every)
    t_gamma = None
    error = None
    t = 0
    for t in range(1, n_iter + 1):
        w_md = 2.0 / (t + 1.0)
        w_ag = (t - 1.0) / (t + 1.0)
        x_md = w_md * x + w_ag * x_ag
        try:
            if cached is not None and cached[0] == (t,) and np.array_equal(cached[1], x_md):
                ev = cached[2]  # recycled: already charged when first computed
            else:
                ev = _evaluate(oracle.evaluate, x_md, (t,))
                rec.cost += ev.cost
            cached = None
            while True:
                gamma_t = (t + 1.0) * gamma / 2.0
                x_next = prox_map_euclidean(setup, x, gamma_t * ev.grad)
                # same combination as x_md, written so x_ag_next == x_next
                # exactly whenever the two points coincide (singleton sets)
                x_ag_next = x_next + w_ag * (x_ag - x_next)
                if gamma <= gamma_min:
                    if t_gamma is None:
                        t_gamma = t - 1
                    break
                ev_next = _evaluate(oracle.evaluate, x_ag_next, (t + 1,))
                rec.cost += ev_next.cost
                cached = ((t + 1,), x_ag_next, ev_next)
                if line_search_exit(
                    ev.value, ev.grad, ev_next.value, x_ag_next - x_md, gamma, config.gamma_d,
                ):
                    break
                gamma = gamma * config.gamma_d
        except SpectralError as exc:
            error = exc
            break
        gamma = max(gamma_min, gamma)
        x, x_ag = x_next, x_ag_next
        rec.row(t, x_ag, ev.value, gamma)
    if t_gamma is None:
        t_gamma = t if error is not None else n_iter
    return rec.result(x_ag, t, error, gamma_final=gamma, t_gamma=t_gamma)


def acsa_run(problem, oracle, setup, config):
    """Plain accelerated stochastic method with the deterministic step scale
    derived from the (down-scaled) Lipschitz bound; logs the expected-gap
    bound alongside the result. An explicitly set config.gamma_min overrides
    the derived scale (the only option for generic or noise-free problems)."""
    if oracle is None:
        oracle = _default_oracle(problem, config)
    if config.gamma_min is not None:
        gamma = config.gamma_min
    elif problem is not None and config.eps > 0.0:
        sigma2 = getattr(oracle, "sigma2", 0.0)
        gamma = _plain_gamma(setup, config, _scaled_lipschitz(problem, config), sigma2)
    else:
        raise ValueError("set 'gamma_min' explicitly when no smoothed problem defines the scale")
    result = _acsa_engine(problem, oracle, setup, config, gamma, gamma)
    if problem is not None and config.eps > 0:
        result.gap_bound = expected_gap_bound(
            problem.dim, config.eps, config.k, setup.diameter, config.N, config.q,
        )
    return result


def acsa_linesearch_run(problem, oracle, setup, config):
    """Adaptive variant: the step scale starts at gamma_max and shrinks by
    gamma_d on every failed exit test, floored at gamma_min, after which the
    search is disabled; records the first floor iteration T_gamma and logs
    the coarse expected-accuracy bound."""
    if oracle is None:
        oracle = _default_oracle(problem, config)
    smoothed = problem is not None and config.eps > 0
    L = _scaled_lipschitz(problem, config) if smoothed else None
    gamma_min, gamma_init, gamma_max = _resolve_ladder(config, L)
    result = _acsa_engine(problem, oracle, setup, config, gamma_min, gamma_init)
    if smoothed:
        result.gap_bound = coarse_gap_bound(
            L, setup.diameter, config.N, getattr(oracle, "sigma2", 0.0), gamma_max, gamma_min,
            result.t_gamma, config.k * config.eps,
        )
    return result


def subgradient_baseline(problem, setup, budget, seed=0, true_obj_every=None):
    """Projected subgradient descent on the exact objective.

    Steps D / (||g|| sqrt(t)); one leading eigenpair per iteration, from
    `ExactEigOracle` (relative precision 1e-9). The best
    objective is the lowest oracle value, and the trace monitors the point
    that attained it, so its objective column never increases.
    """
    oracle = ExactEigOracle(problem, seed)
    x = np.array(setup.center, dtype=float, copy=True)
    best = float("inf")
    best_x = x.copy()
    rec = _Recorder(problem, budget, true_obj_every)
    error = None
    t = 0
    for t in range(1, budget + 1):
        try:
            ev = _evaluate(oracle.evaluate, x, (t,))
        except SpectralError as exc:
            error = exc
            break
        rec.cost += ev.cost
        if ev.value < best:
            best = ev.value
            best_x = x.copy()
        gnorm = float(np.linalg.norm(ev.grad.ravel()))
        if gnorm > 0.0:
            step = setup.diameter / (gnorm * math.sqrt(t))
            x = setup.project(x - step * ev.grad)
        rec.row(t, best_x, ev.value)
    return rec.result(best_x, t, error, best_objective=best)


def softmax_smoothed(M, mu):
    """Soft-max smoothing of the top eigenvalue at scale mu:
    value = mu log Tr exp(M/mu) - mu log n, gradient = exp(M/mu)/Tr exp(M/mu).

    The value is a uniform lower approximation: lambda_max - mu log n <= value
    <= lambda_max. Computed through one full decomposition (n eigenvector
    units), shifted by lambda_max so the exponentials never overflow. Returns
    (value, factors, weights, cost), the gradient left as factors: the
    eigenvectors v_i as rows, weighted by p_i = exp(lambda_i/mu)/Tr exp(M/mu).
    """
    dec = full_eig(M)
    n = dec.n
    shifted = np.exp((dec.values - dec.values[0]) / mu)
    total = float(shifted.sum())
    value = dec.values[0] + mu * math.log(total) - mu * math.log(n)
    return value, dec.vectors.T, shifted / total, dec.cost_eigvecs


def nesterov_smooth_baseline(problem, setup, eps, budget, lip_scale=1.0,
                             true_obj_every=None):
    """Accelerated gradient on the soft-max smoothing with mu = eps / log n.

    One matrix exponential per iteration, charged n eigenvector units. The
    gradient step uses 1/L with L = 1/(mu lip_scale). Needs n >= 2, eps > 0.
    """
    n = problem.dim
    if n < 2:
        raise ValueError(f"n must be at least 2 for soft-max smoothing, got {n}")
    check_finite_positive("eps", eps)
    check_finite_positive("lip_scale", lip_scale)
    mu = eps / math.log(n)
    L = 1.0 / (mu * lip_scale)
    step = 1.0 / L
    x = np.array(setup.center, dtype=float, copy=True)
    x_prev = x.copy()
    rec = _Recorder(problem, budget, true_obj_every)
    error = None
    t = 0
    for t in range(1, budget + 1):
        y = x + ((t - 2.0) / (t + 1.0)) * (x - x_prev) if t > 1 else x
        try:
            value, factors, weights, cost = _evaluate(softmax_smoothed, M := problem.matrix(y), mu)
        except SpectralError as exc:
            error = exc
            break
        rec.cost += cost
        value, grad = _composite(problem, y, value, factors, weights)
        del M, factors  # after the product: freed earlier, blocks get fresh pages; later, RSS
        x_prev = x
        x = setup.project(y - step * grad)
        rec.row(t, x, value)
    return rec.result(x, t, error)


def write_trace(path, records, timing=False):
    """Write trace rows in the fixed CSV schema with round-trip decimals.

    Wall times are written as 0.0 unless `timing` is set, keeping trace files
    byte-identical across runs with equal config and seed.
    """
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in records:
            wall = float(r.wall_ms) if timing else 0.0
            fh.write(
                f"{r.t},{float(r.obj_true)!r},{float(r.obj_sampled)!r},"
                f"{float(r.gamma)!r},{float(r.eigvecs)!r},{wall!r}\n"
            )


def read_trace(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace")
    if lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: unexpected trace header {lines[0]!r}")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 6:
            raise ValueError(f"{path}: malformed trace row {ln!r}")
        records.append(TraceRecord(
            t=int(parts[0]), obj_true=float(parts[1]), obj_sampled=float(parts[2]),
            gamma=float(parts[3]), eigvecs=float(parts[4]), wall_ms=float(parts[5]),
        ))
    return records
