"""Accelerated stochastic composite optimization with monotone line search.

The solver family minimizes Psi(x) = f(x) + h(x) over a compact convex set
observed through a stochastic oracle G(x, xi) (unbiased gradient, variance
sigma^2 = 1/q). The engine interpolates a mirror-descent iterate x_t and an
aggregate iterate x_t^ag through the midpoint sequence

    x_t^md = 2/(t+1) x_t + (t-1)/(t+1) x_t^ag,

takes prox steps of size gamma_t = (t+1) gamma / 2, and optionally adapts the
scale gamma by a monotone (shrink-only) line search: the candidate aggregate
must satisfy a sampled upper-model inequality, otherwise gamma is multiplied
by GAMMA_D < 1 down to a floor gamma_min. Each iteration evaluates its
midpoint at key (t,), each exit test its candidate at key (t+1,), and every
evaluation is charged. A run takes exactly one source of evaluations: a
problem, which it smooths into a `StochasticOracle` at the config's eps, k
and q, or, for a generic run, the caller's oracle.

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

from .smoothing import SmoothingParams, gradient_oracle, lipschitz_bound, sample_rng
from .spectral import (SpectralError, _check_count, _check_tolerance, check_finite_positive,
                       full_eig, lanczos_leading)

__all__ = [
    "ProxSetup",
    "SolverConfig",
    "TraceRecord",
    "OracleEval",
    "RunResult",
    "StochasticOracle",
    "ExactEigOracle",
    "prox_map_euclidean",
    "line_search_exit",
    "acsa_run",
    "acsa_linesearch_run",
    "subgradient_baseline",
    "nesterov_smooth_baseline",
    "softmax_smoothed",
    "write_trace",
    "read_trace",
    "TRACE_HEADER",
]

TRACE_HEADER = "t,obj_true,obj_sampled,gamma,eigvecs,wall_ms"

GAMMA_D = 0.5  # the line search's shrink factor
LADDER_SPAN = 16.0  # the derived ceiling gamma_max, in theory steps 1/(2L)
LIP_SCALE = 100.0  # the smoothed Lipschitz bound is divided by this before any step

# Soft-max weights below this fraction of the largest leave the gradient. The
# dropped terms' Frobenius norm is then at most sqrt(n) 2^-60 of the
# gradient's, under one roundoff (2^-53) for n < 2^14, and each kept weight's
# square root is at least 2^-30 / sqrt(n), so no scaled factor underflows.
_SOFTMAX_KEEP = 2.0 ** -60


@dataclass
class ProxSetup:
    """Euclidean prox geometry: omega = ||.||^2 / 2 (strong convexity modulus 1).

    `project` returns the Euclidean projection of its argument onto the
    feasible set and may overwrite that argument, `diameter` the
    omega-diameter (max omega - min omega)^(1/2), and `center` the omega
    minimizer used as the start point.
    """

    project: object  # Callable[[ndarray], ndarray]
    diameter: float
    center: np.ndarray


@dataclass
class SolverConfig:
    """All solver parameters; a gamma left None is derived at run time.

    q, the samples per oracle call, defaults to max(1, ceil(0.1/eps)), 1 at
    eps = 0; an eps so small that 0.1/eps overflows needs q set. gamma_max /
    gamma_min bound the line-search ladder (defaults: a theory floor 1/(2L),
    with L the smoothed-gradient Lipschitz bound divided by LIP_SCALE = 100,
    and a ceiling LADDER_SPAN = 16 times higher). The
    search starts at the ceiling and shrinks by GAMMA_D = 0.5. `eps` may be
    0 only in a generic run, whose oracle the caller passes; a problem's
    smoothing rejects it. Every field is checked here, before any run.
    """

    N: int
    eps: float
    k: int = 3
    q: int | None = None
    seed: int = 0
    gamma_max: float | None = None
    gamma_min: float | None = None
    oracle_tol: float = 1e-6
    true_obj_every: int | None = None

    def __post_init__(self):
        _check_run_length(self.N, self.true_obj_every)
        if self.q is not None:
            _check_count("q", self.q, 1)
        _check_count("k", self.k, 1)
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps!r}")
        if self.q is None:
            ratio = 0.1 / self.eps if self.eps > 0.0 else 1.0  # q = 1 unsmoothed
            if ratio == math.inf:
                raise ValueError(f"eps={self.eps!r} is too small to derive "
                                 "q = ceil(0.1/eps); set q")
            self.q = max(1, math.ceil(ratio))
        _check_count("seed", self.seed, 0)
        if self.eps > 0.0 and self.k < 3:
            raise ValueError(f"k must be at least 3 when eps > 0, got {self.k!r}")
        for name in ("gamma_max", "gamma_min"):
            if getattr(self, name) is not None:
                check_finite_positive(name, getattr(self, name))
        _check_tolerance("oracle_tol", self.oracle_tol)
        if None not in (self.gamma_min, self.gamma_max) and self.gamma_min > self.gamma_max:
            raise ValueError("gamma_min <= gamma_max must hold when both are set")


def _check_run_length(N, true_obj_every):
    """The counts every solver loop shares: a budget `N` of at least one
    iteration, and a trace cadence unset or at least 1."""
    _check_count("N", N, 1)
    if true_obj_every is not None:
        _check_count("true_obj_every", true_obj_every, 1)


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
    aborted: bool = False
    abort_reason: str | None = None


class StochasticOracle:
    """Smoothed value/gradient oracle for a matrix-valued composite problem.

    Each evaluation draws q independent smoothed samples at the mapped matrix
    and hands their mean value and q eigenvectors to the problem's
    `composite`, which assembles the objective's value and gradient.
    Noise is keyed by (seed, *key, sample index). `problem.matrix(point)`
    must be exactly symmetric, as the built-in problems' are by construction;
    it goes to Lanczos as is, each pair to relative precision `lanczos_tol`.
    """

    def __init__(self, problem, params, q, seed, lanczos_tol):
        self.problem = problem
        self.params = params
        self.q = _check_count("q", q, 1)
        self.seed = int(_check_count("seed", seed, 0))
        self.lanczos_tol = _check_tolerance("lanczos_tol", lanczos_tol)

    def evaluate(self, point, key):
        est = gradient_oracle(self.problem.matrix(point), self.params, self.q, seed=self.seed,
                              key=key, lanczos_tol=self.lanczos_tol)
        value, grad = self.problem.composite(point, est.value, est.vectors, q=est.q)
        return OracleEval(value=value, grad=grad, cost=est.cost_eigvecs)


class ExactEigOracle:
    """Noise-free oracle: one leading eigenpair per evaluation (cost 1), by
    Lanczos to relative precision 1e-9, whose vector is the gradient's factor.
    Its start comes from ``sample_rng(seed, *key, 0)``, sample 0 of the
    evaluation, as a `StochasticOracle` sample's noise does."""

    def __init__(self, problem, seed):
        self.problem = problem
        self.seed = int(_check_count("seed", seed, 0))

    def evaluate(self, point, key):
        M = self.problem.matrix(point)  # exactly symmetric; Lanczos checks it is finite
        pair = lanczos_leading(M, rel_tol=1e-9, rng=sample_rng(self.seed, *key, 0))
        value, grad = self.problem.composite(point, pair.value, pair.vector[None])
        return OracleEval(value=value, grad=grad, cost=1.0)


def prox_map_euclidean(setup, x, g, step):
    """Prox step for omega = ||.||^2/2: argmin_z step g.(z - x) + ||z - x||^2/2, the projection
    of x - step g, formed in one new array (step g, then x minus it) in which the projection
    then runs; neither `x` nor `g` is written."""
    y = step * g
    return setup.project(np.subtract(x, y, out=y))


def line_search_exit(value_md, grad_md, value_next, displacement, gamma):
    """Sampled upper-model exit test for the current step scale gamma.

    True iff  Psi(x_ag', xi') <= Psi(x_md, xi) + <G, x_ag' - x_md>
              + (GAMMA_D / (4 gamma)) ||x_ag' - x_md||^2.
    """
    check_finite_positive("gamma", gamma)
    delta = np.asarray(displacement, dtype=float)
    dist = float(np.linalg.norm(delta.ravel()))
    rhs = (
        value_md
        + float(np.vdot(np.asarray(grad_md, dtype=float), delta))
        + (GAMMA_D / (4.0 * gamma)) * dist**2
    )
    return value_next <= rhs


def _run_source(problem, oracle, config):
    """(oracle, L) of a run, which takes exactly one of `problem` and `oracle`.

    A problem is smoothed at the config's eps and k: its oracle is a
    `StochasticOracle` with the config's q, and L its Lipschitz bound divided
    by LIP_SCALE. A generic run uses the caller's oracle, with L None.
    """
    if (problem is None) == (oracle is None):
        raise ValueError("a run takes exactly one of 'problem' and 'oracle'")
    if problem is None:
        return oracle, None
    params = SmoothingParams(eps=config.eps, n=problem.dim, k=config.k)
    oracle = StochasticOracle(problem, params, config.q, config.seed, config.oracle_tol)
    return oracle, lipschitz_bound(params) / LIP_SCALE


def _resolve_ladder(config, L):
    """The line-search ladder (gamma_min, gamma_max).

    An unset ceiling is LADDER_SPAN times the theory step 1/(2L), and an
    unset floor is the theory step capped at the ceiling. `L` is the scaled
    Lipschitz bound of the smoothed problem, or None when there is none;
    then both ends must be set. A set floor above the derived ceiling is a
    ValueError.
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
            gamma_max = LADDER_SPAN * theory
        if gamma_min is None:
            gamma_min = min(theory, gamma_max)
    if gamma_min > gamma_max:
        raise ValueError(f"gamma_min={gamma_min!r} is above the derived ceiling {gamma_max!r}")
    return gamma_min, gamma_max


def _plain_gamma(setup, config, L):
    """Deterministic step scale of the plain method: min of the smooth step
    1/(2L) and the noise-driven ceiling sqrt(6) D / ((N+2)^{3/2} sigma), with
    sigma^2 = 1/q the variance of the q-sample oracle."""
    sigma = math.sqrt(1.0 / config.q)
    return min(1.0 / (2.0 * L), math.sqrt(6.0) * setup.diameter / ((config.N + 2.0) ** 1.5 * sigma))


# Raised anywhere in an iteration, these end a run with its rows kept (see `_evaluate`).
_ABORTS = (SpectralError, KeyboardInterrupt)


def _evaluate(fn, *args):
    """fn(*args), raising any numerical failure as SpectralError (an abort)."""
    try:
        return fn(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SpectralError(f"{type(exc).__name__}: {exc}") from exc


class _Recorder:
    """Trace rows, clock and cumulative cost of one solver run. Rows are
    taken every `every` iterations (default: about 200 rows per budget) and
    at the last one; the solver adds its oracle costs to `cost`. Budget and
    cadence are checked on construction, before the first iteration.
    Solvers never modify a recorded point in place, so a row handed the same
    point object as the last row reuses its monitored objective."""

    def __init__(self, problem, budget, every):
        _check_run_length(budget, every)
        self.problem = problem
        self.budget = budget
        self.every = every or max(1, math.ceil(budget / 200))
        self.rows = []
        self.cost = 0.0
        self.start = time.perf_counter()
        self.monitored = (None, float("nan"))  # (point, objective) of the last row

    def row(self, t, point, sampled, gamma=float("nan")):
        """Record iteration t, monitored at `point`, if a row is due."""
        if t % self.every and t != self.budget:
            return
        if point is not self.monitored[0]:
            monitor = getattr(self.problem, "true_objective", None)
            self.monitored = (point, float("nan") if monitor is None else float(monitor(point)))
        self.rows.append(TraceRecord(
            t=t, obj_true=self.monitored[1], obj_sampled=sampled, gamma=gamma,
            eigvecs=self.cost, wall_ms=(time.perf_counter() - self.start) * 1e3,
        ))

    def result(self, solution, t, error=None, **extra):
        """RunResult after iteration t; an `error` aborted iteration t, so
        only t - 1 iterations completed, and `solution` is the iterate of the
        last completed one (the solvers commit an iteration's update after its
        row). An error without a message, such as an interrupt, is named by
        its class. The best objective is the lowest monitored one in the
        rows; `extra` sets further fields and may override it."""
        best = min((r.obj_true for r in self.rows if not math.isnan(r.obj_true)), default=math.inf)
        fields = {"best_objective": best, **extra}
        return RunResult(
            solution=solution, trace=self.rows, total_eigvecs=self.cost,
            iterations=t - 1 if error is not None else t, aborted=error is not None,
            abort_reason=None if error is None else str(error) or type(error).__name__,
            **fields,
        )


def _acsa_engine(problem, oracle, setup, config, gamma_min, gamma):
    """AC-SA iterations from step scale `gamma`; failed exit tests shrink a
    trial scale by GAMMA_D down to the floor `gamma_min`, where the search
    stops. The plain method is the one-rung ladder gamma == gamma_min. Each
    iteration commits its trial scale with its iterates, after its row, and
    t_gamma is the last iteration that ended above the floor (0 if none).
    An abort anywhere in an iteration keeps the rows and the committed
    state before it."""
    x = np.array(setup.center, dtype=float, copy=True)
    x_ag = x.copy()
    rec = _Recorder(problem, config.N, config.true_obj_every)
    t_gamma, error = 0, None
    for t in range(1, config.N + 1):
        try:
            w_md = 2.0 / (t + 1.0)
            w_ag = (t - 1.0) / (t + 1.0)
            x_md = w_md * x
            x_md += w_ag * x_ag
            ev = _evaluate(oracle.evaluate, x_md, (t,))
            rec.cost += ev.cost
            trial = gamma
            while True:
                gamma_t = (t + 1.0) * trial / 2.0
                x_next = prox_map_euclidean(setup, x, ev.grad, gamma_t)
                # x_next + w_ag (x_ag - x_next), the same combination as x_md,
                # written so x_ag_next == x_next exactly whenever the two
                # points coincide (singleton sets)
                x_ag_next = x_ag - x_next
                x_ag_next *= w_ag
                x_ag_next += x_next
                if trial <= gamma_min:
                    break
                ev_next = _evaluate(oracle.evaluate, x_ag_next, (t + 1,))
                rec.cost += ev_next.cost
                value_next = ev_next.value
                del ev_next  # the exit test reads the candidate's value only
                if line_search_exit(ev.value, ev.grad, value_next, x_ag_next - x_md, trial):
                    break
                del x_next, x_ag_next  # a rejected candidate is gone before the next trial
                trial = max(gamma_min, trial * GAMMA_D)
            value = ev.value
            del x_md, ev  # the row's monitor sees x, x_ag and the two new iterates only
            rec.row(t, x_ag_next, value, trial)
            x, x_ag, gamma = x_next, x_ag_next, trial
            t_gamma = t if gamma > gamma_min else t_gamma
        except _ABORTS as exc:
            error = exc
            break
    return rec.result(x_ag, t, error, gamma_final=gamma, t_gamma=t_gamma)


def acsa_run(problem, oracle, setup, config):
    """Plain accelerated stochastic method with the deterministic step scale
    derived from the (down-scaled) Lipschitz bound. It takes exactly one of
    `problem` and `oracle`, else ValueError: a problem is smoothed, so its
    eps must be positive; a generic run (problem None) evaluates the
    caller's oracle. An explicitly set config.gamma_min overrides the
    derived scale, and is the only option for a generic run."""
    oracle, L = _run_source(problem, oracle, config)
    if config.gamma_min is not None:
        gamma = config.gamma_min
    elif L is not None:
        gamma = _plain_gamma(setup, config, L)
    else:
        raise ValueError("set 'gamma_min' explicitly when no smoothed problem defines the scale")
    return _acsa_engine(problem, oracle, setup, config, gamma, gamma)


def acsa_linesearch_run(problem, oracle, setup, config):
    """Adaptive variant: the step scale starts at gamma_max and shrinks by
    GAMMA_D on every failed exit test, floored at gamma_min, after which the
    search is disabled; records T_gamma, the last iteration that ended above
    the floor. As in `acsa_run`, it takes exactly one of `problem`, which it
    smooths, and the `oracle` of a generic run."""
    oracle, L = _run_source(problem, oracle, config)
    gamma_min, gamma_max = _resolve_ladder(config, L)
    return _acsa_engine(problem, oracle, setup, config, gamma_min, gamma_max)


def subgradient_baseline(problem, setup, budget, seed=0, true_obj_every=None):
    """Projected subgradient descent on the exact objective.

    Steps D / (||g|| sqrt(t)); one leading eigenpair per iteration, from
    `ExactEigOracle` (relative precision 1e-9). The best objective is the
    lowest oracle value, and the trace monitors the point that attained it,
    so its objective column never increases. An abort anywhere in an
    iteration keeps the rows before it.
    """
    oracle = ExactEigOracle(problem, seed)  # checks the seed first
    x = np.array(setup.center, dtype=float, copy=True)
    best, best_x = float("inf"), x
    rec = _Recorder(problem, budget, true_obj_every)
    error = None
    for t in range(1, budget + 1):
        try:
            ev = _evaluate(oracle.evaluate, x, (t,))
            rec.cost += ev.cost
            value, gnorm = ev.value, float(np.linalg.norm(ev.grad.ravel()))
            x_next = x
            if gnorm > 0.0:
                step = setup.diameter / (gnorm * math.sqrt(t))
                x_next = prox_map_euclidean(setup, x, ev.grad, step)
            del ev
            improved = value < best
            rec.row(t, x if improved else best_x, value)
            if improved:
                best, best_x = value, x
            x = x_next
        except _ABORTS as exc:
            error = exc
            break
    return rec.result(best_x, t, error, best_objective=best)


def softmax_smoothed(M, mu):
    """Soft-max smoothing of the top eigenvalue at scale mu:
    value = mu log Tr exp(M/mu) - mu log n, gradient = exp(M/mu)/Tr exp(M/mu).

    The value is a uniform lower approximation: lambda_max - mu log n <= value
    <= lambda_max. Computed through one full decomposition (n eigenvector
    units), shifted by lambda_max so the exponentials never overflow. Returns
    (value, factors, weights, cost), the gradient left as factors: the
    eigenvectors v_i as rows, weighted by p_i = exp(lambda_i/mu)/Tr exp(M/mu).
    Only the rows whose weight is at least _SOFTMAX_KEEP times the largest are
    returned; the values come in decreasing order, so they are a prefix, and
    the factors a view of the decomposition's vectors. The value sums all n.
    """
    dec = full_eig(M)
    n = dec.n
    shifted = np.exp((dec.values - dec.values[0]) / mu)
    total = float(shifted.sum())
    value = dec.values[0] + mu * math.log(total) - mu * math.log(n)
    m = int(np.count_nonzero(shifted >= _SOFTMAX_KEEP))  # shifted[0] = 1 is the largest
    return value, dec.vectors.T[:m], shifted[:m] / total, float(n)


def nesterov_smooth_baseline(problem, setup, eps, budget, true_obj_every=None):
    """Accelerated gradient on the soft-max smoothing with mu = eps / log n.

    One matrix exponential per iteration, charged n eigenvector units. The
    gradient step is 1/L with L = 1/mu. Needs n >= 2, eps > 0. An abort
    anywhere in an iteration keeps the rows before it.
    """
    n = _check_count("n", problem.dim, 2)
    check_finite_positive("eps", eps)
    mu = eps / math.log(n)
    L = 1.0 / mu
    step = 1.0 / L
    x = np.array(setup.center, dtype=float, copy=True)
    x_prev = x  # read from t = 2 on
    rec = _Recorder(problem, budget, true_obj_every)
    error = None
    for t in range(1, budget + 1):
        try:
            y = x
            if t > 1:  # x + ((t - 2)/(t + 1)) (x - x_prev), built in one array
                y = x - x_prev
                y *= (t - 2.0) / (t + 1.0)
                y += x
            M = problem.matrix(y)
            # x_prev goes before the decomposition, which then sees x, y and M only, and
            # after M's build; M and the factors go after the product. Freed earlier,
            # each makes the loop fault in more fresh pages (x_prev: about a quarter).
            del x_prev
            value, factors, weights, cost = _evaluate(softmax_smoothed, M, mu)
            rec.cost += cost
            value, grad = problem.composite(y, value, factors, weights)
            del M, factors
            x_next = prox_map_euclidean(setup, y, grad, step)
            del y, grad
            rec.row(t, x_next, value)
            x_prev, x = x, x_next
        except _ABORTS as exc:
            error = exc
            break
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
    """Rows of a `write_trace` file: `t` rises, `eigvecs` is finite and never
    falls, and `obj_true` and `gamma` may be NaN. Faults name `path:line`."""
    with open(path) as fh:
        lines = [(i, ln) for i, ln in enumerate(fh.read().splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace")
    if lines[0][1] != TRACE_HEADER:
        raise ValueError(f"{path}: unexpected trace header {lines[0][1]!r}")
    records, last = [], TraceRecord(0, math.nan, math.nan, math.nan, 0.0, 0.0)
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 values, got {len(parts)}")
        try:
            r = TraceRecord(int(parts[0], 10), *map(float, parts[1:]))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric entry") from None
        if r.t <= last.t:
            raise ValueError(f"{path}:{lineno}: t must rise, got {r.t} after {last.t}")
        if not last.eigvecs <= r.eigvecs < math.inf:
            raise ValueError(f"{path}:{lineno}: eigvecs must be finite and nondecreasing, "
                             f"got {r.eigvecs!r} after {last.eigvecs!r}")
        records.append(last := r)
    return records
