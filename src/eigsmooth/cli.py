"""Command-line front end.

Subcommands:

  solve   --config PATH [--seed S] [--out DIR] [--timing]
          run one algorithm on one problem instance; writes a trace CSV and
          a flat key=value report; exit code 0 only on a completed budget.

  compare REPORT [REPORT ...] [--out PATH]
          merge completed runs into one CSV keyed on cumulative eigenvector
          cost, one best-objective-so-far column per run; an aborted run's
          report is rejected, and a report's trace is read from its directory.

  phase   --config PATH [--seed S] [--out DIR]
          Monte Carlo scaling report for the rank-one perturbation phase
          transition; writes CSV + JSON.

Config files are flat `key = value` text; '#' starts a comment. Seeds are
mandatory (no wall-clock seeding); all numeric output uses round-trip
decimal formatting. The only environment variable honored is
EIGSMOOTH_VERBOSE: when it is non-empty, a command that fails with anything
but a config error re-raises the exception, traceback included, instead of
printing a one-line error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .optimize import (
    SolverConfig,
    acsa_linesearch_run,
    acsa_run,
    nesterov_smooth_baseline,
    read_trace,
    subgradient_baseline,
    write_trace,
)
from .phase import equal_gap_model, load_spectrum, monte_carlo_gap, tile_model, write_phase_report
from .problems import (_SelectionError, dspca_problem, load_covariance, maxcut_problem,
                       synthetic_covariance)
from .smoothing import sample_rng
from .spectral import check_finite_positive

ALGORITHMS = ("stoch_ls", "acsa", "det_smooth", "subgrad")


class ConfigError(Exception):
    pass


def parse_config(path):
    """Flat key = value file; later keys override earlier ones."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        values[key] = value.strip()
    return values


class Config:
    """Typed accessors over a flat key -> string mapping."""

    def __init__(self, values, path):
        self.values = values
        self.path = path

    def parse(self, key, cast, default=None, required=False):
        if key in self.values:
            raw = self.values[key]
            try:
                return cast(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"{self.path}: field {key!r} has invalid value {raw!r}") from None
        if required:
            raise ConfigError(f"{self.path}: missing required field {key!r}")
        return default

    def str(self, key, default=None, required=False, choices=None):
        val = self.parse(key, str, default, required)
        if choices is not None and val is not None and val not in choices:
            raise ConfigError(f"{self.path}: field {key!r} must be one of {choices}, got {val!r}")
        return val

    def int(self, key, default=None, required=False):
        return self.parse(key, lambda s: int(str(s), 10), default, required)

    def float(self, key, default=None, required=False):
        return self.parse(key, float, default, required)

    def check_unused(self, known):
        unknown = set(self.values) - set(known)
        if unknown:
            raise ConfigError(f"{self.path}: unknown field {sorted(unknown)[0]!r}")


# Solver keys and their Config parsers; a key left unset keeps SolverConfig's default.
SOLVER_KEYS = {
    "q": "int", "k": "int", "gamma_max": "float", "gamma_min": "float",
    "oracle_tol": "float", "true_obj_every": "int",
}
SOLVE_KEYS = (
    "problem", "algorithm", "n", "seed", "name", "eps", "N",
    "radius", "rho", "data_path", "n_select", *SOLVER_KEYS,
)


def _seed(cfg, args):
    """The run seed, a nonnegative integer: `--seed` if given, else the file's 'seed'."""
    if args.seed is not None:
        seed, name = args.seed, "--seed"
    else:
        seed, name = cfg.int("seed"), f"{cfg.path}: field 'seed'"
    if seed is None:
        raise ConfigError(f"{cfg.path}: missing required field 'seed' (or pass --seed)")
    if seed < 0:
        raise ConfigError(f"{name} must be a nonnegative integer, got {seed}")
    return seed


def _build_problem(cfg, kind, n, seed, cov):
    """The config's problem; a dspca one on `cov` when a data file gave it."""
    # The problem data's stream has a one-element key; every solver stream's
    # key has two or more (evaluation key, sample index), so none meets it.
    data_rng = sample_rng(seed, 9001)
    if kind == "maxcut":
        return maxcut_problem(n, data_rng, radius=cfg.float("radius"))
    A = synthetic_covariance(n, data_rng) if cov is None else cov
    return dspca_problem(A, rho=cfg.float("rho"))


def _run_solver(cfg, seed):
    algorithm = cfg.str("algorithm", required=True, choices=ALGORITHMS)
    eps = cfg.float("eps", default=0.05)
    # stoch_ls and acsa smooth with eps; det_smooth checks its own, and subgrad ignores it
    smoothed = algorithm in ("stoch_ls", "acsa")
    if not (0.0 < eps < math.inf or eps == 0.0 and not smoothed):
        rule = "positive" if smoothed else "nonnegative"
        raise ConfigError(f"{cfg.path}: field 'eps' must be finite and {rule}, got {eps!r}")
    # every solver key a file sets meets SolverConfig's rules, whichever algorithm runs
    given = {key: getattr(cfg, cast)(key) for key, cast in SOLVER_KEYS.items() if key in cfg.values}
    kind = cfg.str("problem", required=True, choices=("dspca", "maxcut"))
    n, data_path, cov = cfg.int("n", required=True), cfg.str("data_path"), None
    for key, needs in (("data_path", "problem = dspca"), ("n_select", "'data_path' and problem = dspca")):
        if key in cfg.values and (kind == "maxcut" or data_path is None):
            raise ConfigError(f"{cfg.path}: field {key!r} needs {needs}")
    if data_path is not None:  # outside the handler: a bad file is no setting
        field = "n_select" if "n_select" in cfg.values else "n"
        n_select = cfg.int(field)
        if n_select < 1:
            raise ConfigError(f"{cfg.path}: field {field!r} must be at least 1, got {n_select}")
        try:
            cov = load_covariance(data_path, n_select)
        except _SelectionError as exc:  # a count the file cannot meet is a setting
            raise ConfigError(f"{cfg.path}: field {field!r}: {exc}") from None
    try:
        for key, used in (("rho", kind == "dspca"), ("radius", kind == "maxcut")):
            if key in cfg.values and not used:  # a key the run uses is checked where it is used
                check_finite_positive(key, cfg.float(key))
        problem = _build_problem(cfg, kind, n, seed, cov)
        setup = problem.prox_setup()
        budget = cfg.int("N", default=int(math.ceil(100.0 * math.sqrt(problem.dim))))
        config = SolverConfig(N=budget, eps=eps, seed=seed, **given)
        if algorithm == "det_smooth":
            result = nesterov_smooth_baseline(
                problem, setup, eps, budget, true_obj_every=config.true_obj_every,
            )
        elif algorithm == "subgrad":
            result = subgradient_baseline(
                problem, setup, budget, seed=seed, true_obj_every=config.true_obj_every,
            )
        else:
            runner = acsa_linesearch_run if algorithm == "stoch_ls" else acsa_run
            result = runner(problem, None, setup, config)
    except ValueError as exc:  # a rejected setting: a run's numerical failures abort it
        raise ConfigError(f"{cfg.path}: {algorithm}: {exc}") from None
    return algorithm, problem, result


def _write_report(path, fields):
    with open(path, "w") as fh:
        for key, value in fields.items():
            fh.write(f"{key} = {value}\n")


def read_report(path):
    values = parse_config(path)
    required = ("algorithm", "iterations", "total_eigvecs", "best_objective", "trace", "completed")
    for key in required:
        if key not in values:
            raise ConfigError(f"{path}: report is missing field {key!r}")
    return values


def cmd_solve(args):
    cfg = Config(parse_config(args.config), args.config)
    cfg.check_unused(SOLVE_KEYS)
    seed = _seed(cfg, args)
    name = cfg.str("name")  # the outputs' file-name stem: one path component, not a directory
    if name is not None and (name in ("", ".", "..") or {"/", os.sep, "\0"} & set(name)):
        raise ConfigError(f"{cfg.path}: field 'name' must be a plain file-name stem, got {name!r}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    algorithm, problem, result = _run_solver(cfg, seed)
    name = name or algorithm
    trace_path = out / f"{name}_trace.csv"
    report_path = out / f"{name}_report.txt"
    write_trace(trace_path, result.trace, timing=args.timing)
    # aborted runs may have charged the failing iteration after the last row
    if not result.aborted and result.trace and result.trace[-1].eigvecs != result.total_eigvecs:
        raise RuntimeError("trace cost column out of sync with the run total")
    fields = {
        "algorithm": algorithm,
        "name": name,
        "problem": cfg.str("problem"),
        "n": problem.dim,
        "seed": seed,
        "iterations": result.iterations,
        "total_eigvecs": repr(float(result.total_eigvecs)),
        "best_objective": repr(float(result.best_objective)),
        "trace": trace_path.name,  # the trace sits next to the report
        "completed": "true" if not result.aborted else "false",
    }
    if result.t_gamma is not None:
        fields["t_gamma"] = result.t_gamma
    if result.aborted:
        fields["abort_reason"] = result.abort_reason
    _write_report(report_path, fields)
    print(f"{algorithm}: iterations={result.iterations} "
          f"eigvecs={float(result.total_eigvecs)!r} "
          f"best_objective={float(result.best_objective)!r}")
    print(f"report: {report_path}")
    return 0 if not result.aborted else 3


def cmd_compare(args):
    if len(args.reports) < 2:
        raise ConfigError("compare needs at least two report files")
    runs = []
    for path in args.reports:
        rep = read_report(path)
        if rep["completed"] != "true":
            raise ConfigError(f"{path}: the run did not complete; compare merges completed runs only")
        trace = Path(path).parent / rep["trace"]  # an absolute path stays as it is
        records = read_trace(trace)
        if not records:
            raise ConfigError(f"{trace}: empty trace rejected")
        runs.append((rep, records))
    names = []
    for i, (rep, _) in enumerate(runs):
        name = base = rep.get("name", rep["algorithm"])
        while name in names:  # the first of base, base_i, base_{i+1}, ... not yet taken
            name, i = f"{base}_{i}", i + 1
        names.append(name)
    checkpoints = sorted({r.eigvecs for _, records in runs for r in records})
    columns = []
    for _, records in runs:  # best objective so far at each checkpoint; NaN before the first
        best = np.fmin.accumulate([r.obj_true for r in records])
        last = np.searchsorted([r.eigvecs for r in records], checkpoints, side="right") - 1
        columns.append(np.where(last >= 0, best[last], np.nan))
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write("eigvecs," + ",".join(f"best_{n}" for n in names) + "\n")
        for j, cp in enumerate(checkpoints):
            row = [repr(float(cp))] + [repr(float(col[j])) for col in columns]
            fh.write(",".join(row) + "\n")
    print(f"compare: {len(runs)} runs, {len(checkpoints)} checkpoints -> {out}")
    return 0


# Phase keys read by one model only, and that model
MODEL_KEYS = {"gamma": "equal_gap", "multiplicity": "equal_gap", "spectrum_path": "file"}
PHASE_KEYS = ("model", "seed", "n_list", "eps_rule", "trials", *MODEL_KEYS)


def _parse_eps_rule(text):
    """`value`, `eps0` or `factor * eps0`, with a finite positive value or factor."""
    text = text.strip()
    relative = text.endswith("eps0")
    if relative:
        head = text[: -len("eps0")].rstrip()
        if head and not (head.endswith("*") and head[:-1].strip()):  # a factor needs its star
            raise ValueError(f"expected value, eps0 or factor * eps0, got {text!r}")
        text = head[:-1] or "1"
    value = float(text)
    check_finite_positive("eps", value)
    return (lambda eps0, n: value * eps0) if relative else (lambda eps0, n: value)


def cmd_phase(args):
    cfg = Config(parse_config(args.config), args.config)
    cfg.check_unused(PHASE_KEYS)
    seed = _seed(cfg, args)
    model_kind = cfg.str("model", default="equal_gap", choices=("equal_gap", "file"))
    for key, needs in MODEL_KEYS.items():
        if key in cfg.values and model_kind != needs:  # before any file is opened
            raise ConfigError(f"{cfg.path}: field {key!r} needs model = {needs}")
    if model_kind == "equal_gap":
        given = {key: cast(key) for key, cast in (("gamma", cfg.float), ("multiplicity", cfg.int))
                 if key in cfg.values}  # a key left unset keeps equal_gap_model's default
        family = lambda n: equal_gap_model(n, **given)
        sizes = [100, 400, 1600]
    else:
        base = load_spectrum(cfg.str("spectrum_path", required=True))
        family = lambda n: base if n == base.n else tile_model(base, n)
        sizes = [base.n]
    sizes = cfg.parse("n_list", lambda v: [int(s) for s in v.split(",") if s.strip()], sizes)
    rule = cfg.parse("eps_rule", _parse_eps_rule, _parse_eps_rule("eps0"))
    trials = cfg.int("trials", default=500)
    try:
        report = monte_carlo_gap(family, sizes, rule, trials, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "phase.csv"
    json_path = out / "phase.json"
    write_phase_report(report, csv_path, json_path)
    print(f"regime={report.regime} slope={report.slope!r} trials={report.trials}")
    print(f"report: {csv_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="eigsmooth", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one solver on one problem instance")
    solve.add_argument("--config", required=True)
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--out", default=".")
    solve.add_argument("--timing", action="store_true",
                       help="record wall times in the trace (breaks byte-reproducibility)")
    solve.set_defaults(func=cmd_solve)

    compare = sub.add_parser("compare", help="merge run reports on cumulative eigenvector cost")
    compare.add_argument("reports", nargs="+")
    compare.add_argument("--out", default="compare.csv")
    compare.set_defaults(func=cmd_compare)

    phase = sub.add_parser("phase", help="phase-transition scaling report")
    phase.add_argument("--config", required=True)
    phase.add_argument("--seed", type=int, default=None)
    phase.add_argument("--out", default=".")
    phase.set_defaults(func=cmd_phase)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    verbose = os.environ.get("EIGSMOOTH_VERBOSE", "")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver aborts surface as nonzero exits
        if verbose:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
