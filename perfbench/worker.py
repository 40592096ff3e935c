"""Benchmark worker: builds one workload from its seed, times it and checks it.

Started by run.py, which pins the BLAS thread count before this process
imports numpy. The last stdout line is one JSON object. Modes:

  --setup-only        import and build only; report setup_s
  --trace 0           untraced rounds for --seconds; end-to-end metrics
  --trace 1           one untraced round, then one traced round on a fresh
                      build; per-layer metrics and tracing overhead

The library is called only through module attributes (``optimize.acsa_...``)
so that the tracer's patches reach the benchmark's own calls too.
"""
import time

_START = time.perf_counter()  # setup_s counts from here: the imports below are part of it

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback

import numpy as np

from eigsmooth import optimize, phase, problems, smoothing, spectral

from tracer import Tracer, layer_totals

# Criterion-8 preset of the stoch_ls solve.
EPS, Q, K = 0.05, 2, 3

PHASE_SIZES = (100, 400, 1600)
PHASE_REGIMES = {"sub": 0.5, "critical": 1.0, "super": 2.0}  # eps / eps0
# Criterion-5 windows on the log-log slope of the median statistic.
SLOPE_WINDOWS = {"sub": (-1.15, -0.85), "critical": (-0.65, -0.35), "super": (-0.65, -0.35)}
# secular_shifts_batch iterates until its slowest row converges, and a rare
# row (about 1 in 4,000 at critical n=1600) never meets its tolerance and
# runs all 120 Newton steps for the whole batch. Whether a sweep hits one is
# luck of the draw, and its cost grows with the batch, so a round runs many
# small sweeps (monte_carlo_gap's minimum trial count; a 200 x 1600 array is
# still past L2) and times them all: their sum keeps the stalls in the figure.
# About one sweep in 18 stalls, at about twice a whole normal sweep's cost,
# so the stall count is Poisson and sets most of the spread across seeds;
# 120 sweeps (about 6.5 stalls) keep that spread near 6% of the round.
PHASE_TRIALS = 200
PHASE_SWEEPS = 120
# The traced pass runs the round twice (untraced, then traced); a shorter
# round keeps it well inside the run's time limit.
PHASE_TRACE_SWEEPS = 40
DENSE_MAX_N = 400       # sizes whose draws are rechecked with full_eig
DENSE_TOL = 1e-10


class Checks:
    """Correctness checks; each one is an attempted operation."""

    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append({"check": name, "ok": bool(ok), "detail": str(detail)})
        if not ok:
            print(f"perfbench: check failed: {name} {detail}", file=sys.stderr)

    @contextlib.contextmanager
    def guard(self, name):
        """Count an exception escaping the library as a failed operation."""
        try:
            yield
        except Exception:
            self.add(name, False, traceback.format_exc(limit=3))

    @property
    def failed(self):
        return sum(not c["ok"] for c in self.items)


class BoxWorkload:
    """stoch_ls against det_smooth to an objective target on one box instance.

    The box optimum varies by instance (about 0.02 to 0.10), so the target is
    eps/2 above the lowest objective det_smooth reaches in CALIBRATION
    iterations, where it has all but converged. Over the seeds tried,
    stoch_ls ended at most 0.014 above that value.
    """

    N_DIM = 400
    CALIBRATION = 48

    def __init__(self, seed):
        self.seed = seed
        self.N = math.ceil(10.0 * math.sqrt(self.N_DIM))

    def build(self, checks):
        data_rng = np.random.default_rng([self.seed, self.N_DIM])
        self.problem = problems.dspca_problem(problems.synthetic_covariance(self.N_DIM, data_rng))
        self.setup = self.problem.prox_setup()
        # monitor at the final iteration only: true_objective stays off the timed path
        self.config = optimize.SolverConfig(
            N=self.N, eps=EPS, q=Q, k=K, seed=self.seed, true_obj_every=self.N,
        )

    def prepare(self, checks):
        """Fix the target and the fewest det_smooth iterations that reach it."""
        self.target, self.det_budget = -math.inf, self.CALIBRATION
        with checks.guard("det_smooth calibration ran"):
            det = optimize.nesterov_smooth_baseline(
                self.problem, self.setup, EPS, self.CALIBRATION, true_obj_every=1,
            )
            self.target = min(r.obj_true for r in det.trace) + EPS / 2
            self.det_budget = next(r.t for r in det.trace if r.obj_true <= self.target)

    def round(self, checks, scope):
        times, out = {}, {}
        res = det = None
        start = time.perf_counter()
        with checks.guard("stoch_ls ran"), scope("solve"):
            res = optimize.acsa_linesearch_run(self.problem, None, self.setup, self.config)
        times["work_s"] = time.perf_counter() - start
        if res is not None:
            final = res.trace[-1].obj_true if res.trace else math.nan
            checks.add("stoch_ls completed its budget", not res.aborted and res.iterations == self.N,
                       res.abort_reason or f"{res.iterations} of {self.N} iterations")
            checks.add("stoch_ls reached the target", final <= self.target,
                       f"final {final!r}, target {self.target!r}")
            out.update(eigvecs=res.total_eigvecs, final_objective=final)
        budget = self.det_budget
        start = time.perf_counter()
        with checks.guard("det_smooth ran"), scope("baseline"):
            det = optimize.nesterov_smooth_baseline(
                self.problem, self.setup, EPS, budget, true_obj_every=budget,
            )
        times["baseline_s"] = time.perf_counter() - start
        if det is not None:
            det_final = det.trace[-1].obj_true
            checks.add("det_smooth reached the target", det_final <= self.target,
                       f"final {det_final!r} after {budget} iterations")
            checks.add("det_smooth charged budget * n eigvecs",
                       det.total_eigvecs == budget * self.N_DIM, det.total_eigvecs)
            out["det_objective"] = det_final
        return times, out

    def trace_checks(self, checks, spans, out):
        solve = layer_totals(spans, run="solve")
        oracle = solve.get("smoothing.gradient_oracle", {"calls": 0, "count": 0.0})
        lanczos = solve.get("spectral.lanczos_leading", {"calls": 0})
        checks.add("traced gradient_oracle eigvecs sum to total_eigvecs",
                   oracle["count"] == out.get("eigvecs"), f"{oracle['count']} vs {out.get('eigvecs')}")
        checks.add("lanczos_leading calls == q*k*gradient_oracle calls",
                   lanczos["calls"] == Q * K * oracle["calls"], f"{lanczos['calls']} vs {oracle['calls']}")
        evaluate = solve.get("optimize.StochasticOracle.evaluate", {"calls": 0})
        return {"optimize.evals_per_iter": evaluate["calls"] / self.N}


class PhaseWorkload:
    """Monte Carlo scaling sweeps of the rank-one phase transition."""

    def __init__(self, seed, sweeps=PHASE_SWEEPS):
        self.sweep_seeds = [seed * PHASE_SWEEPS + r for r in range(sweeps)]

    def build(self, checks):
        self.models = {n: phase.equal_gap_model(n) for n in PHASE_SIZES}
        for regime, factor in PHASE_REGIMES.items():
            for n, model in self.models.items():
                pred = phase.classify_regime(model, factor * phase.eps_critical(model))
                checks.add(f"{regime} eps rule classifies as {regime} at n={n}",
                           pred.regime == regime, pred.regime)

    def prepare(self, checks):
        pass

    def round(self, checks, scope):
        times, out = {"work_s": 0.0, "baseline_s": 0.0}, {"eigvecs": 0, "medians": []}
        reports = []
        worst = 0.0
        regimes = list(PHASE_REGIMES.items())
        for r, sweep_seed in enumerate(self.sweep_seeds):
            start = time.perf_counter()
            with checks.guard("monte_carlo_gap ran"), scope("mc"):
                for regime, factor in regimes:
                    rep = phase.monte_carlo_gap(
                        phase.equal_gap_model, PHASE_SIZES,
                        lambda eps0, n, factor=factor: factor * eps0,
                        trials=PHASE_TRIALS, seed=sweep_seed,
                    )
                    reports.append((regime, rep))
            times["work_s"] += time.perf_counter() - start
            # Interleaved so that both timings see the same host conditions.
            with checks.guard("dense reference ran"), scope("dense_ref"):
                elapsed, err = self._dense_check(sweep_seed, regimes[r % len(regimes)][1])
                times["baseline_s"] += elapsed
                worst = max(worst, err)
        checks.add("secular shifts match full_eig", worst <= DENSE_TOL, f"max rel err {worst:.3e}")
        for regime, rep in reports:
            violations = sum(r.witness_violations for r in rep.rows)
            checks.add(f"{regime} sweep seed {rep.seed}: regime and witness bound",
                       rep.regime == regime and violations == 0,
                       f"regime {rep.regime}, {violations} witness violations")
            out["eigvecs"] += rep.trials * len(rep.rows)
            out["medians"].append([rep.slope] + [r.median_T for r in rep.rows]
                                  + [r.scaling_stat for r in rep.rows])
        # One small sweep's slope is too noisy for the windows; their median
        # over the round is not.
        for regime, (lo, hi) in SLOPE_WINDOWS.items():
            slope = statistics.median(rep.slope for r, rep in reports if r == regime)
            checks.add(f"{regime} median slope inside the criterion-5 window",
                       lo <= slope <= hi, f"{slope:.4f} in [{lo}, {hi}]")
        return times, out

    def _dense_check(self, sweep_seed, factor):
        """Recompute a sweep's first draw at each n <= DENSE_MAX_N with
        full_eig, the n-unit path the secular batch replaces. Returns the
        full_eig wall time and the worst relative disagreement."""
        elapsed = worst = 0.0
        for idx, n in enumerate(PHASE_SIZES):
            if n > DENSE_MAX_N:
                continue
            model = self.models[n]
            eps = factor * phase.eps_critical(model)
            # monte_carlo_gap draws size idx of a sweep from this key, row by row
            shifts, _ = phase.sample_shifts(model, eps, 1, smoothing.sample_rng(sweep_seed, idx))
            z = smoothing.sample_rng(sweep_seed, idx).standard_normal(n)
            start = time.perf_counter()
            top = spectral.full_eig(np.diag(model.lambdas) + (eps / n) * np.outer(z, z)).values[0]
            elapsed += time.perf_counter() - start
            worst = max(worst, abs(top - model.lambdas[0] - shifts[0]) / max(1.0, abs(top)))
        return elapsed, worst

    def trace_checks(self, checks, spans, out):
        return {"optimize.evals_per_iter": 0.0}


WORKLOADS = {"box_lanczos": BoxWorkload, "phase_mc": PhaseWorkload}


def layer_metrics(spans):
    """Per-layer metrics over every span of the traced pass."""
    tot = layer_totals(spans)

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    lanczos_calls = get("spectral.lanczos_leading", "calls")
    solve = layer_totals(spans, run="solve")
    engine = sum(solve.get(name, {}).get("s", 0.0) * sign for name, sign in (
        ("optimize.acsa_linesearch_run", 1), ("optimize.StochasticOracle.evaluate", -1),
        ("optimize.prox_map_euclidean", -1), ("problems.true_objective", -1),
    ))
    build = sum(end - start for _, parent, run, _, start, end, _, _ in spans
                if run == "setup" and parent is None)
    return {
        "spectral.check_symmetric.calls": get("spectral.check_symmetric", "calls"),
        "spectral.check_symmetric.s": get("spectral.check_symmetric", "s"),
        "spectral.lanczos_leading.calls": lanczos_calls,
        "spectral.lanczos_leading.self_s": get("spectral.lanczos_leading", "self_s"),
        "spectral.lanczos_leading.matvecs": get("spectral.lanczos_leading", "count"),
        "spectral.lanczos_leading.matvecs_per_pair":
            get("spectral.lanczos_leading", "count") / lanczos_calls if lanczos_calls else 0.0,
        "spectral.lanczos_leading.errors": get("spectral.lanczos_leading", "errors"),
        "spectral.full_eig.calls": get("spectral.full_eig", "calls"),
        "spectral.full_eig.self_s": get("spectral.full_eig", "self_s"),
        "spectral.secular_shifts_batch.calls": get("spectral.secular_shifts_batch", "calls"),
        "spectral.secular_shifts_batch.s": get("spectral.secular_shifts_batch", "s"),
        "spectral.secular_shifts_batch.rows": get("spectral.secular_shifts_batch", "count"),
        "smoothing.gradient_oracle.calls": get("smoothing.gradient_oracle", "calls"),
        "smoothing.gradient_oracle.self_s": get("smoothing.gradient_oracle", "self_s"),
        "smoothing.gradient_oracle.eigvecs": get("smoothing.gradient_oracle", "count"),
        "optimize.StochasticOracle.evaluate.calls": get("optimize.StochasticOracle.evaluate", "calls"),
        "optimize.StochasticOracle.evaluate.self_s": get("optimize.StochasticOracle.evaluate", "self_s"),
        "optimize.prox_map_euclidean.calls": get("optimize.prox_map_euclidean", "calls"),
        "optimize.prox_map_euclidean.s": get("optimize.prox_map_euclidean", "s"),
        "optimize.engine.self_s": engine,
        "optimize.softmax_smoothed.self_s": get("optimize.softmax_smoothed", "self_s"),
        "problems.true_objective.calls": get("problems.true_objective", "calls"),
        "problems.true_objective.s": get("problems.true_objective", "s"),
        "problems.build.s": build,
        "phase.monte_carlo_gap.self_s": get("phase.monte_carlo_gap", "self_s"),
    }


def environment():
    """Versions and hardware the result was measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                             cpu_model)
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        with contextlib.suppress(OSError):
            with open(f"{base}/level") as lv, open(f"{base}/type") as ty, open(f"{base}/size") as sz:
                caches[f"L{lv.read().strip()}{ty.read().strip()[0].lower()}"] = sz.read().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    checks = Checks()
    if args.workload == "phase_mc" and args.trace:
        wl = PhaseWorkload(args.seed, PHASE_TRACE_SWEEPS)
    else:
        wl = WORKLOADS[args.workload](args.seed)
    wl.build(checks)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl.prepare(checks)
    result = {"checks": checks.items, "env": environment()}
    if args.trace == 0:
        rounds, first = [], None
        start = time.perf_counter()
        # Whole rounds only, and none that would end past --seconds.
        while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= args.seconds:
            times, out = wl.round(checks, contextlib.nullcontext)
            if first is None:
                first = out
            else:
                checks.add("repeated rounds give identical outputs", out == first)
            rounds.append(times)
        metrics = {
            "setup_s": setup_s,
            # Every round runs the same inputs; the median drops a round
            # that a burst of load on the shared host slowed down.
            "work_s": statistics.median(t["work_s"] for t in rounds),
            "baseline_s": statistics.median(t["baseline_s"] for t in rounds),
            "eigvecs": first.get("eigvecs", math.nan),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["rounds"] = rounds
    else:
        plain_times, plain_out = wl.round(checks, contextlib.nullcontext)
        with Tracer() as tracer:
            checks.add("every import site of a traced function is patched",
                       not tracer.unpatched_sites(), tracer.unpatched_sites())
            with tracer.run("setup"):
                wl.build(checks)
            traced_times, traced_out = wl.round(checks, tracer.run)
        checks.add("traced outputs are bit-identical to the untraced run",
                   traced_out == plain_out)
        metrics = layer_metrics(tracer.spans)
        metrics.update(wl.trace_checks(checks, tracer.spans, traced_out))
        plain, traced = sum(plain_times.values()), sum(traced_times.values())
        metrics["trace.overhead"] = traced / plain - 1.0
        metrics["trace.spans"] = len(tracer.spans)
        result.update(untraced=plain_times, traced=traced_times, missing=tracer.missing,
                      spans=tracer.spans)
    result.update(metrics=metrics, attempted=len(checks.items), failed=checks.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
