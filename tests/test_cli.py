import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from eigsmooth.cli import SOLVER_KEYS, Config, ConfigError, main, parse_config, read_report
from eigsmooth.optimize import read_trace
from eigsmooth.problems import synthetic_covariance


def write_config(path, **fields):
    with open(path, "w") as fh:
        for key, value in fields.items():
            fh.write(f"{key} = {value}\n")
    return str(path)


def test_parse_config_comments_and_errors(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a = 1  # trailing\n# full comment\n\nb = two words\n")
    assert parse_config(path) == {"a": "1", "b": "two words"}
    bad = tmp_path / "bad.txt"
    bad.write_text("just a line\n")
    from eigsmooth.cli import ConfigError

    with pytest.raises(ConfigError, match="bad.txt:1"):
        parse_config(bad)


@pytest.mark.parametrize("case", ["unreadable", "empty_key", "missing", "choice", "report"])
def test_config_readers_name_the_fault(tmp_path, case):
    path = tmp_path / "c.txt"
    path.write_text("a = 1\nalgorithm = none\n")
    if case == "unreadable":  # a directory cannot be read as a config
        call, message = lambda: parse_config(tmp_path), f"cannot read config {tmp_path}: "
    elif case == "empty_key":
        path.write_text("a = 1\n = 2\n")
        call, message = lambda: parse_config(path), f"{path}:2: empty key"
    elif case == "missing":
        cfg = Config(parse_config(path), path)
        call, message = lambda: cfg.int("n", required=True), f"{path}: missing required field 'n'"
    elif case == "choice":
        cfg = Config(parse_config(path), path)
        call = lambda: cfg.str("algorithm", choices=("acsa", "subgrad"))
        message = f"{path}: field 'algorithm' must be one of ('acsa', 'subgrad'), got 'none'"
    else:
        call, message = lambda: read_report(path), f"{path}: report is missing field 'iterations'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        call()


def test_readme_lists_every_solver_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"The solver keys of `stoch_ls` and `acsa` \((.*?)\)", readme, re.S)
    assert set(re.findall(r"`(\w+)`", listed.group(1))) == set(SOLVER_KEYS)


def test_solve_requires_seed(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.txt", problem="maxcut", algorithm="acsa", n=4, N=3)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_solve_rejects_unknown_field(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.txt", problem="maxcut", algorithm="acsa", n=4, N=3, seed=1, bogus=9
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm, eps, fields", [
    ("stoch_ls", "nan", {}), ("acsa", "inf", {"q": 2}), ("det_smooth", "-inf", {}),
    ("subgrad", "-0.5", {}), ("subgrad", "nan", {}), ("det_smooth", "0", {}),
    ("det_smooth", "-0.0", {}), ("stoch_ls", "0", {}), ("acsa", "-0.0", {}),
])
def test_solve_rejects_bad_eps(tmp_path, capsys, algorithm, eps, fields):
    # a non-finite or negative eps, or eps = 0 where a smoothing needs it
    # (stoch_ls, acsa, det_smooth), is a config error
    cfg = write_config(tmp_path / "c.txt", problem="maxcut", algorithm=algorithm, n=4, N=3,
                       seed=1, eps=eps, **fields)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    # det_smooth's eps = 0 is rejected by the smoothing itself, in the library's words
    message = (f"det_smooth: eps must be finite and positive, got {float(eps)!r}"
               if algorithm == "det_smooth" and float(eps) == 0.0 else "field 'eps'")
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, fields, message", [
    # stoch_ls and acsa smooth: eps = 0 is rejected whatever else is set, in the
    # field's words (quoted 'eps'; the library's message names eps unquoted)
    ("solve", {"algorithm": "stoch_ls", "q": 2, "gamma_max": 1.0, "gamma_min": 0.5},
     "'eps' must be finite and positive, got 0.0"),
    ("solve", {"algorithm": "acsa", "q": 2, "gamma_max": 1.0, "gamma_min": 0.5},
     "'eps' must be finite and positive, got 0.0"),
    ("phase", {"trials": 50}, "trials must be at least 200"),
    ("phase", {"n_list": "100,abc"}, "field 'n_list' has invalid value"),
    ("phase", {"eps_rule": "abc"}, "field 'eps_rule' has invalid value"),
    ("phase", {"n_list": 100, "multiplicity": 100}, "multiplicity must leave room"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "ladder_span": -1}, "unknown field 'ladder_span'"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "gamma_min": 1000}, "gamma_min=1000.0 is above"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "true_obj_every": -3}, "true_obj_every must be"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "gamma_min": -1}, "gamma_min must be finite"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "lip_scale": 0}, "unknown field 'lip_scale'"),
    ("solve", {"algorithm": "det_smooth", "eps": 0.1, "det_lip_scale": 0},
     "unknown field 'det_lip_scale'"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "oracle_tol": 2}, "oracle_tol must lie in (0, 1)"),
    ("solve", {"algorithm": "acsa", "eps": 0.1, "oracle_tol": 2}, "oracle_tol must lie in (0, 1)"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "oracle_path": "auto"},
     "unknown field 'oracle_path'"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "gamma_d": 2}, "unknown field 'gamma_d'"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "q": 0}, "q must be at least 1"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "N": 0}, "N must be at least 1"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "k": 0}, "k must be at least 1"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "k": 2}, "at least 3 when eps > 0, got 2"),
    ("solve", {"algorithm": "acsa", "eps": 0.1, "k": 2, "gamma_min": 0.01},
     "at least 3 when eps > 0, got 2"),
    ("phase", {"eps_rule": -1}, "field 'eps_rule' has invalid value '-1'"),
    ("phase", {"eps_rule": "nan"}, "field 'eps_rule' has invalid value 'nan'"),
    ("phase", {"eps_rule": "-2 * eps0"}, "field 'eps_rule' has invalid value '-2 * eps0'"),
    ("phase", {"n_list": ""}, "n_list must not be empty"),
    # the baselines share the solver loops' budget and cadence rules
    ("solve", {"algorithm": "det_smooth", "eps": 0.1, "true_obj_every": -3},
     "det_smooth: true_obj_every must be at least 1, got -3"),
    ("solve", {"algorithm": "subgrad", "true_obj_every": -3},
     "subgrad: true_obj_every must be at least 1, got -3"),
    ("solve", {"algorithm": "det_smooth", "eps": 0.1, "N": 0}, "det_smooth: N must be at least 1"),
    ("solve", {"algorithm": "subgrad", "N": 0}, "subgrad: N must be at least 1"),
    ("solve", {"algorithm": "det_smooth", "eps": 0.1, "problem": "dspca", "n": 1},
     "det_smooth: n must be at least 2"),
    # eps0 = n / (n - 1) falls through 1.005 between n = 100 and n = 400
    ("phase", {"n_list": "100,400,1600", "eps_rule": 1.005},
     "eps_rule changes regime across sizes: sub vs super"),
    # a repeated size leaves no slope to fit; a non-finite gamma no spectrum
    ("phase", {"n_list": "100,100"}, "n_list repeats a size: [100, 100]"),
    ("phase", {"gamma": "nan"}, "gamma must be finite and positive, got nan"),
    ("phase", {"top": "inf"}, "unknown field 'top'"),  # the top eigenvalue is no setting
    # a key the chosen model does not read is rejected before any file is opened
    ("phase", {"model": "file", "spectrum_path": "no-such-file.txt", "gamma": -5, "multiplicity": 0},
     "field 'gamma' needs model = equal_gap"),
    ("phase", {"model": "file", "spectrum_path": "no-such-file.txt", "multiplicity": 0},
     "field 'multiplicity' needs model = equal_gap"),
    ("phase", {"spectrum_path": "no-such-file.txt"}, "field 'spectrum_path' needs model = file"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "gamma_init": 1e-9}, "unknown field 'gamma_init'"),
    # the outputs' file-name stem, one component naming no directory, is checked
    # before the run (whose N = 0 would be rejected next)
    *(("solve", {"algorithm": "subgrad", "N": 0, "name": name},
       f"field 'name' must be a plain file-name stem, got {name!r}")
      for name in ("sub/x", "../esc", "..", ".", "", "a\0b")),
    # the equal-gap model names the setting it rejects
    ("phase", {"n_list": "100,400", "multiplicity": -1}, "multiplicity must be at least 1, got -1"),
    ("phase", {"multiplicity": 0}, "multiplicity must be at least 1, got 0"),
    ("phase", {"gamma": -1}, "gamma must be finite and positive, got -1.0"),
    # 0.1/eps overflows, so no q can be derived: a setting, not a crash
    ("solve", {"algorithm": "stoch_ls", "eps": 5e-324},
     "stoch_ls: eps=5e-324 is too small to derive q = ceil(0.1/eps); set q"),
])
def test_config_mistakes_are_config_errors(tmp_path, capsys, command, fields, message):
    # solve starts from eps = 0, which only subgrad accepts; rows for the others set eps
    base = ({"problem": "maxcut", "n": 4, "N": 3, "eps": 0} if command == "solve"
            else {"n_list": 100, "trials": 200})
    cfg = write_config(tmp_path / "c.txt", seed=1, **{**base, **fields})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, seed, flag, message", [
    ("solve", -1, None, "{cfg}: field 'seed' must be a nonnegative integer, got -1"),
    ("solve", 1, "-3", "--seed must be a nonnegative integer, got -3"),
    ("phase", -2, None, "{cfg}: field 'seed' must be a nonnegative integer, got -2"),
    ("phase", 1, "-4", "--seed must be a nonnegative integer, got -4"),
])
def test_negative_seed_is_named_where_it_enters(tmp_path, capsys, command, seed, flag, message):
    fields = ({"problem": "maxcut", "algorithm": "subgrad", "n": 4, "N": 3} if command == "solve"
              else {"n_list": 100, "trials": 200})
    cfg = write_config(tmp_path / "c.txt", seed=seed, **fields)
    argv = [command, "--config", cfg, "--out", str(tmp_path)]
    assert main(argv + (["--seed", flag] if flag else [])) == 2
    assert f"error: {message.format(cfg=cfg)}\n" == capsys.readouterr().err


def test_subgrad_ignores_eps(tmp_path):
    traces = []
    for eps in (0.0, 0.1):
        cfg = write_config(tmp_path / "c.txt", problem="maxcut", algorithm="subgrad", n=6, N=15,
                           seed=42, eps=eps)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        traces.append((tmp_path / "subgrad_trace.csv").read_bytes())
    assert traces[0] == traces[1]


@pytest.mark.parametrize("fields, message", [
    # the problem builders' rejections are settings too
    ({"problem": "dspca", "rho": -1}, "stoch_ls: rho must be finite and positive, got -1.0"),
    ({"radius": -1}, "stoch_ls: radius must be finite and positive, got -1.0"),
    ({"n": 1}, "stoch_ls: n must be at least 2"),
    # every solver key a file sets meets SolverConfig's rules, used or not
    ({"algorithm": "det_smooth", "gamma_d": 2}, "unknown field 'gamma_d'"),
    ({"algorithm": "det_smooth", "q": 0}, "det_smooth: q must be at least 1"),
    ({"algorithm": "subgrad", "k": 0}, "subgrad: k must be at least 1"),
    ({"algorithm": "subgrad", "oracle_path": "auto"}, "unknown field 'oracle_path'"),
    ({"algorithm": "det_smooth", "problem": "dspca", "n": 20, "q": 0, "k": 0},
     "det_smooth: q must be at least 1"),
    ({"problem": "dspca", "n_select": 3}, "field 'n_select' needs 'data_path'"),
    ({"problem": "dspca", "n": 0}, "stoch_ls: n must be at least 1"),  # before any division
    # a problem or baseline key the run does not use meets the library's rules too
    ({"rho": -1}, "stoch_ls: rho must be finite and positive, got -1.0"),
    ({"problem": "dspca", "radius": 0}, "stoch_ls: radius must be finite and positive, got 0.0"),
    ({"det_lip_scale": -1}, "unknown field 'det_lip_scale'"),
    ({"algorithm": "subgrad", "det_lip_scale": "inf"}, "unknown field 'det_lip_scale'"),
    # a maxcut instance reads no data file
    ({"data_path": "no-such-file.txt"}, "field 'data_path' needs problem = dspca"),
    ({"n_select": 3}, "field 'n_select' needs 'data_path' and problem = dspca"),
    # a coordinate count below 1 is a setting, whatever the file holds
    *(({"problem": "dspca", "algorithm": "det_smooth", "data_path": "cov.txt", "n_select": k},
       f"field 'n_select' must be at least 1, got {k}") for k in (-1, 0, -6)),
    # so is a count above the file's, from n_select or else from n
    ({"problem": "dspca", "algorithm": "det_smooth", "data_path": "cov.txt", "n": 7},
     "field 'n': {data} holds 6 coordinates, fewer than the 7 asked for"),
    ({"problem": "dspca", "algorithm": "det_smooth", "data_path": "cov.txt", "n_select": 9},
     "field 'n_select': {data} holds 6 coordinates, fewer than the 9 asked for"),
])
def test_solve_setting_mistakes_exit_2_with_the_config_path(tmp_path, capsys, fields, message):
    base = {"problem": "maxcut", "algorithm": "stoch_ls", "n": 4, "N": 3, "eps": 0.1, "q": 2}
    if fields.get("data_path") == "cov.txt":  # a readable 6 x 6 covariance
        fields = {**fields, "data_path": tmp_path / "cov.txt"}
        message = message.format(data=fields["data_path"])
        A = synthetic_covariance(6, np.random.default_rng(0))
        fields["data_path"].write_text("6\n" + "".join(" ".join(map(repr, row)) + "\n"
                                                       for row in A.tolist()))
    cfg = write_config(tmp_path / "c.txt", seed=1, **{**base, **fields})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"{cfg}: {message}" in capsys.readouterr().err


def test_solve_malformed_data_file_is_not_a_setting(tmp_path, capsys):
    data = tmp_path / "cov.txt"
    data.write_text("2\n1.0 x\n0.0 1.0\n")
    cfg = write_config(tmp_path / "c.txt", problem="dspca", algorithm="det_smooth", n=2, N=3,
                       seed=1, data_path=data)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "cov.txt:2: non-numeric entry" in capsys.readouterr().err


def test_verbose_reraises_all_but_config_errors(tmp_path, monkeypatch):
    # EIGSMOOTH_VERBOSE lets a failure escape main with its traceback; a config
    # error is still exit 2, and without the variable the failure is exit 1
    data = tmp_path / "cov.txt"
    data.write_text("2\n1.0 x\n0.0 1.0\n")
    cfg = write_config(tmp_path / "c.txt", problem="dspca", algorithm="det_smooth", n=2, N=3,
                       seed=1, data_path=data)
    bad = write_config(tmp_path / "bad.txt", problem="maxcut", n=4, N=3)  # no seed
    for verbose in ("", "1"):
        monkeypatch.setenv("EIGSMOOTH_VERBOSE", verbose)
        assert main(["solve", "--config", bad, "--out", str(tmp_path)]) == 2
        if verbose:
            with pytest.raises(ValueError, match="cov.txt:2: non-numeric entry"):
                main(["solve", "--config", cfg, "--out", str(tmp_path)])
        else:
            assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1


# Malformed data files: each is no setting (exit 1) and is named with its
# line, or alone (line None) where the fault is the whole file's.
_MALFORMED_DATA = {
    "matrix_nan": ("solve", "2\n1.0 nan\nnan 1.0\n", 2),
    "matrix_inf": ("solve", "2\n1.0 0.0\n0.0 inf\n", 3),
    "samples_non_numeric": ("solve", "3 2\n1.0 2.0\n3.0 x\n4.0 5.0\n", 3),
    "samples_short_row": ("solve", "3 2\n1.0 2.0\n3.0\n4.0 5.0\n", 3),
    "samples_header_word": ("solve", "3 two\n1.0 2.0\n3.0 1.0\n4.0 5.0\n", 1),
    "samples_one_row": ("solve", "1 2\n1.0 2.0\n", 1),  # no ddof = 1 covariance
    "samples_nan_after_blank": ("solve", "3 2\n1.0 2.0\n\nnan 1.0\n4.0 5.0\n", 4),
    "samples_overflow": ("solve", "3 2\n1e200 -1e200\n-1e200 1e200\n1e200 1e200\n", None),
    "matrix_zero": ("solve", "2\n0.0 0.0\n0.0 0.0\n", None),
    "samples_identical_rows": ("solve", "3 2\n1.0 2.0\n1.0 2.0\n1.0 2.0\n", None),
    "spectrum_nan_first": ("phase", "nan\n1.0\n0.5\n", 1),
    "spectrum_inf_first": ("phase", "inf\n1.0\n", 1),
    "spectrum_no_gap": ("phase", "1.0\n1.0\n1.0\n", None),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_DATA))
def test_malformed_data_file_exits_1_naming_file_and_line(tmp_path, capsys, case):
    command, text, line = _MALFORMED_DATA[case]
    data = tmp_path / "data.txt"
    data.write_text(text)
    if command == "solve":
        cfg = write_config(tmp_path / "c.txt", problem="dspca", algorithm="det_smooth", n=2, N=3,
                           seed=1, data_path=data)
    else:
        cfg = write_config(tmp_path / "p.txt", model="file", spectrum_path=data, eps_rule="eps0",
                           trials=200, seed=1)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert (f"{data}: " if line is None else f"{data}:{line}: ") in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["det_smooth", "subgrad"])
def test_baselines_run_with_valid_unused_solver_keys(tmp_path, algorithm):
    base = dict(problem="dspca", algorithm=algorithm, n=8, N=5, seed=3, eps=0.1)
    unused = dict(q=2, k=5, oracle_tol=1e-3)
    traces = []
    for name, fields in (("plain", base), ("unused", {**base, **unused})):
        cfg = write_config(tmp_path / f"{name}.txt", name=name, **fields)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        traces.append((tmp_path / f"{name}_trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_unset_solver_keys_take_solver_config_defaults(tmp_path):
    # the defaults the command line once restated, spelled out, change no byte
    base = dict(problem="maxcut", algorithm="stoch_ls", n=6, N=15, seed=42, eps=0.1, q=2)
    spelled = dict(k=3, oracle_tol=1e-6)
    traces = []
    for name, fields in (("unset", base), ("spelled", {**base, **spelled})):
        cfg = write_config(tmp_path / f"{name}.txt", name=name, **fields)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        traces.append((tmp_path / f"{name}_trace.csv").read_bytes())
    assert traces[0] == traces[1]


@pytest.mark.parametrize("algorithm", ["stoch_ls", "acsa", "det_smooth", "subgrad"])
def test_solve_deterministic_trace_bytes(tmp_path, algorithm):
    cfg = write_config(
        tmp_path / "c.txt",
        problem="maxcut", algorithm=algorithm, n=6, N=15, seed=42, eps=0.1, q=2,
        true_obj_every=1,
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    t1 = (out1 / f"{algorithm}_trace.csv").read_bytes()
    t2 = (out2 / f"{algorithm}_trace.csv").read_bytes()
    assert t1 == t2


# (config fields, sha256 prefix of the trace bytes), the same at one and at
# two BLAS threads; one run per algorithm at least.
_TRACE_GOLDEN = {
    "stoch_ls_maxcut": (
        dict(problem="maxcut", algorithm="stoch_ls", n=30, N=200, seed=11), "b270843e04e3440b"),
    "stoch_ls_dspca": (dict(problem="dspca", algorithm="stoch_ls", n=40, N=120, seed=11,
                            true_obj_every=3), "5854e3f46e474ece"),
    "det_smooth_dspca": (
        dict(problem="dspca", algorithm="det_smooth", n=40, N=300, seed=5), "03274b3aab2f3c8c"),
    "subgrad_maxcut": (
        dict(problem="maxcut", algorithm="subgrad", n=30, N=400, seed=3), "334b333566427f2d"),
    "acsa_maxcut": (
        dict(problem="maxcut", algorithm="acsa", n=30, N=150, seed=7), "b5b552663b4b0215"),
}


@pytest.mark.parametrize("name", sorted(_TRACE_GOLDEN))
def test_solve_golden_trace(tmp_path, one_blas_thread, name):
    fields, digest = _TRACE_GOLDEN[name]
    cfg = write_config(tmp_path / "c.txt", name=name, **fields)
    one_blas_thread("-m", "eigsmooth.cli", "solve", "--config", cfg, "--out", str(tmp_path))
    trace = (tmp_path / f"{name}_trace.csv").read_bytes()
    assert hashlib.sha256(trace).hexdigest()[:16] == digest


def test_solve_report_consistency(tmp_path):
    cfg = write_config(
        tmp_path / "c.txt",
        problem="dspca", algorithm="det_smooth", n=10, N=8, seed=5, eps=0.1,
        true_obj_every=1,
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path / "det_smooth_report.txt")
    records = read_trace(tmp_path / rep["trace"])
    assert float(rep["total_eigvecs"]) == records[-1].eigvecs
    # one matrix exponential per iteration, n eigenvector units each
    assert float(rep["total_eigvecs"]) == 8 * 10
    assert int(rep["iterations"]) == 8
    assert rep["completed"] == "true"


def test_solve_default_budget_cap(tmp_path):
    cfg = write_config(
        tmp_path / "c.txt",
        problem="maxcut", algorithm="subgrad", n=50, seed=3,
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path / "subgrad_report.txt")
    assert int(rep["iterations"]) == math.ceil(100 * math.sqrt(50))
    assert float(rep["total_eigvecs"]) >= int(rep["iterations"])


def test_solve_abort_writes_partial_trace(tmp_path, monkeypatch):
    import eigsmooth.optimize as opt
    from eigsmooth.spectral import LanczosConvergenceError

    real = opt.gradient_oracle
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 8:
            raise LanczosConvergenceError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(opt, "gradient_oracle", flaky)
    cfg = write_config(
        tmp_path / "c.txt",
        problem="maxcut", algorithm="acsa", n=5, N=30, seed=2, eps=0.1, q=1,
        true_obj_every=1,
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 3
    rep = read_report(tmp_path / "acsa_report.txt")
    assert rep["completed"] == "false"
    assert "injected" in rep["abort_reason"]
    records = read_trace(tmp_path / rep["trace"])
    assert 0 < len(records) < 30  # partial trace
    assert int(rep["iterations"]) == records[-1].t


def test_solve_interrupt_writes_partial_trace(tmp_path, monkeypatch):
    # an interrupt in the third oracle call, and one in the third call of the
    # trace's objective monitor, each end the command with exit 3 and outputs
    import eigsmooth.optimize as opt
    from eigsmooth.problems import BallProblem

    real = opt.gradient_oracle

    def interrupting(*args, key, **kwargs):
        if key == (3,):
            raise KeyboardInterrupt
        return real(*args, key=key, **kwargs)

    monitor, monitored = BallProblem.true_objective, []

    def interrupting_monitor(self, w):
        monitored.append(None)
        if len(monitored) == 3:
            raise KeyboardInterrupt
        return monitor(self, w)

    cfg = write_config(
        tmp_path / "c.txt",
        problem="maxcut", algorithm="acsa", n=5, N=30, seed=2, eps=0.1, q=1,
        true_obj_every=1,
    )
    for place, owner, name, spy in (("oracle", opt, "gradient_oracle", interrupting),
                                    ("monitor", BallProblem, "true_objective", interrupting_monitor)):
        out = tmp_path / place
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, spy)
            try:
                code = main(["solve", "--config", cfg, "--out", str(out)])
            except KeyboardInterrupt:  # escaped, it would end the whole test session
                pytest.fail(f"the {place} interrupt escaped the command")
        assert code == 3, place
        rep = read_report(out / "acsa_report.txt")
        assert rep["completed"] == "false" and rep["abort_reason"] == "KeyboardInterrupt"
        assert int(rep["iterations"]) == 2
        assert [r.t for r in read_trace(out / rep["trace"])] == [1, 2]


def test_solve_det_smooth_abort_writes_partial_trace(tmp_path, monkeypatch):
    import eigsmooth.optimize as opt

    real = opt.softmax_smoothed
    calls = {"n": 0}

    def failing(M, mu):
        calls["n"] += 1
        if calls["n"] == 3:
            raise np.linalg.LinAlgError("injected eigh failure")
        return real(M, mu)

    monkeypatch.setattr(opt, "softmax_smoothed", failing)
    cfg = write_config(
        tmp_path / "c.txt",
        problem="dspca", algorithm="det_smooth", n=10, N=8, seed=5, eps=0.1,
        true_obj_every=1,
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 3
    rep = read_report(tmp_path / "det_smooth_report.txt")
    assert rep["completed"] == "false"
    assert "LinAlgError" in rep["abort_reason"]
    assert int(rep["iterations"]) == 2
    assert [r.t for r in read_trace(tmp_path / rep["trace"])] == [1, 2]


def test_solve_stoch_preset_budget_and_cost(tmp_path):
    # experiment preset at n = 50: default cap ceil(100 sqrt(50)) iterations,
    # eigenvector count at least one per iteration
    cfg = write_config(
        tmp_path / "c.txt",
        problem="maxcut", algorithm="stoch_ls", n=50, seed=4, eps=0.05, q=2,
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path / "stoch_ls_report.txt")
    assert int(rep["iterations"]) == math.ceil(100 * math.sqrt(50))
    assert float(rep["total_eigvecs"]) >= int(rep["iterations"])


def test_compare_identical_runs(tmp_path):
    cfg = write_config(
        tmp_path / "c.txt",
        problem="maxcut", algorithm="acsa", n=5, N=10, seed=9, eps=0.1, true_obj_every=1,
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    merged = tmp_path / "cmp.csv"
    assert main([
        "compare", str(out1 / "acsa_report.txt"), str(out2 / "acsa_report.txt"),
        "--out", str(merged),
    ]) == 0
    lines = merged.read_text().splitlines()
    assert lines[0] == "eigvecs,best_acsa,best_acsa_1"
    for line in lines[1:]:
        _, a, b = line.split(",")
        assert a == b
    # a suffix never yields a name already taken: reports named a, a_2 and a
    for out, name in ((out1, "a"), (out2, "a_2"), (tmp_path / "c", "a")):
        assert main(["solve", "--config", write_config(
            tmp_path / "n.txt", problem="maxcut", algorithm="subgrad", n=5, N=10, seed=9,
            true_obj_every=1, name=name), "--out", str(out)]) == 0
    assert main(["compare", str(out1 / "a_report.txt"), str(out2 / "a_2_report.txt"),
                 str(tmp_path / "c" / "a_report.txt"), "--out", str(merged)]) == 0
    assert merged.read_text().splitlines()[0] == "eigvecs,best_a,best_a_2,best_a_3"


def test_compare_stoch_vs_det_merged_curves(tmp_path):
    # merged best-objective-so-far curves keyed on cumulative eigenvector
    # cost; whether the stochastic column reaches the deterministic final
    # objective at fewer eigvecs is reported, not hard-asserted
    base = dict(problem="dspca", n=100, seed=5, eps=0.05, true_obj_every=1)
    stoch_cfg = write_config(tmp_path / "s.txt", algorithm="stoch_ls", N=300, q=2,
                             name="stoch", **base)
    det_cfg = write_config(tmp_path / "d.txt", algorithm="det_smooth", N=36,
                           name="det", **base)
    assert main(["solve", "--config", stoch_cfg, "--out", str(tmp_path)]) == 0
    assert main(["solve", "--config", det_cfg, "--out", str(tmp_path)]) == 0
    merged = tmp_path / "cmp.csv"
    assert main([
        "compare", str(tmp_path / "stoch_report.txt"), str(tmp_path / "det_report.txt"),
        "--out", str(merged),
    ]) == 0
    lines = merged.read_text().splitlines()
    assert lines[0] == "eigvecs,best_stoch,best_det"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    assert all(a[0] < b[0] for a, b in zip(rows, rows[1:]))  # checkpoints increase
    det_final = rows[-1][2]
    det_total = float(read_report(tmp_path / "det_report.txt")["total_eigvecs"])
    crossing = next((ev for ev, s, _ in rows if not math.isnan(s) and s <= det_final), None)
    reached_cheaper = crossing is not None and crossing < det_total
    print(f"soft check - stochastic column reaches the deterministic final objective "
          f"at fewer eigvecs: {reached_cheaper} (crossing {crossing}, det total {det_total})")


def test_compare_rejects_empty_trace(tmp_path):
    cfg = write_config(
        tmp_path / "c.txt",
        problem="maxcut", algorithm="acsa", n=5, N=10, seed=9, eps=0.1, true_obj_every=1,
    )
    out = tmp_path / "a"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    # truncate the trace to header only
    trace = out / "acsa_trace.csv"
    trace.write_text(trace.read_text().splitlines()[0] + "\n")
    code = main([
        "compare", str(out / "acsa_report.txt"), str(out / "acsa_report.txt"),
        "--out", str(tmp_path / "cmp.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("column, value, message", [
    (0, "x", ":3: non-numeric entry"),
    (4, "1.0", ":3: eigvecs must be finite and nondecreasing, got 1.0 after 3.0"),
])
def test_compare_names_the_trace_line_at_fault(tmp_path, capsys, column, value, message):
    # a hand-edited trace is a data file: exit 1, naming the file and the line
    cfg = write_config(
        tmp_path / "c.txt",
        problem="maxcut", algorithm="acsa", n=5, N=10, seed=9, eps=0.1, true_obj_every=1,
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    trace = tmp_path / "acsa_trace.csv"
    rows = [line.split(",") for line in trace.read_text().splitlines()]
    rows[2][column] = value  # the second data row
    trace.write_text("".join(",".join(row) + "\n" for row in rows))
    report = str(tmp_path / "acsa_report.txt")
    assert main(["compare", report, report, "--out", str(tmp_path / "cmp.csv")]) == 1
    assert f"{trace}{message}" in capsys.readouterr().err


def test_compare_finds_each_trace_next_to_its_report(tmp_path, monkeypatch):
    # solve runs with a relative --out; compare runs from another directory
    cfg = write_config(
        tmp_path / "c.txt",
        problem="maxcut", algorithm="acsa", n=5, N=10, seed=9, eps=0.1, true_obj_every=1,
    )
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--config", cfg, "--out", "res"]) == 0
    assert read_report(tmp_path / "res" / "acsa_report.txt")["trace"] == "acsa_trace.csv"
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    report = str(tmp_path / "res" / "acsa_report.txt")
    assert main(["compare", report, "../res/acsa_report.txt", "--out", "cmp.csv"]) == 0
    assert (elsewhere / "cmp.csv").read_text().splitlines()[0] == "eigvecs,best_acsa,best_acsa_1"


def test_compare_rejects_an_aborted_run(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.txt",
        problem="maxcut", algorithm="acsa", n=5, N=10, seed=9, eps=0.1, true_obj_every=1,
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    done = tmp_path / "acsa_report.txt"
    aborted = tmp_path / "aborted_report.txt"
    aborted.write_text(done.read_text().replace("completed = true", "completed = false"))
    code = main(["compare", str(done), str(aborted), "--out", str(tmp_path / "cmp.csv")])
    assert code == 2
    assert f"{aborted}: the run did not complete" in capsys.readouterr().err
    assert not (tmp_path / "cmp.csv").exists()


def test_compare_rejects_single_report(tmp_path, capsys):
    assert main(["compare", "only.txt", "--out", str(tmp_path / "x.csv")]) == 2


def test_phase_subcommand_critical_header(tmp_path):
    cfg = write_config(
        tmp_path / "p.txt",
        model="equal_gap", n_list="50,100", eps_rule="eps0", trials=200, seed=11,
    )
    assert main(["phase", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "phase.json").read_text())
    assert payload["regime"] == "critical"
    lines = (tmp_path / "phase.csv").read_text().splitlines()
    assert lines[0] == "n,eps,regime,median_T,predicted_order,slope"
    assert len(lines) == 3


def test_phase_json_is_strict(tmp_path):
    # a sub-critical row has no super-critical shift t0: null, not a bare NaN
    cfg = write_config(tmp_path / "p.txt", model="equal_gap", n_list="100", eps_rule="0.5*eps0",
                       trials=200, seed=1)
    assert main(["phase", "--config", cfg, "--out", str(tmp_path)]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads((tmp_path / "phase.json").read_text(), parse_constant=reject)
    assert payload["rows"][0]["regime"] == "sub" and payload["rows"][0]["t0"] is None


def test_phase_file_model_runs(tmp_path):
    # the README's spectrum layout; size 4 is the file's spectrum, size 40 its tiling
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text("1.0\n0.0\n\n-2.0\n-2.0\n")
    cfg = write_config(tmp_path / "p.txt", model="file", spectrum_path=spectrum, n_list="4,40",
                       eps_rule="eps0", trials=200, seed=3)
    assert main(["phase", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "phase.csv").read_text().splitlines()
    assert lines[0] == "n,eps,regime,median_T,predicted_order,slope"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["4", "2.4000000000000004", "critical"], ["40", "1.8461538461538467", "critical"]]


def test_phase_malformed_spectrum_names_line(tmp_path, capsys):
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text("1.0\noops\n")
    cfg = write_config(
        tmp_path / "p.txt",
        model="file", spectrum_path=str(spectrum), eps_rule="eps0", trials=200, seed=1,
    )
    assert main(["phase", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "spectrum.txt:2" in capsys.readouterr().err


def test_phase_sub_preset_slope(tmp_path):
    cfg = write_config(
        tmp_path / "p.txt",
        model="equal_gap", n_list="100,400,1600", eps_rule="0.5*eps0",
        trials=300, seed=21,
    )
    assert main(["phase", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "phase.json").read_text())
    assert payload["regime"] == "sub"
    assert -1.15 <= payload["slope"] <= -0.85
