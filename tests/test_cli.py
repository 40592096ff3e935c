import hashlib
import json
import math

import numpy as np
import pytest

from eigsmooth.cli import main, parse_config, read_report
from eigsmooth.optimize import read_trace
from eigsmooth.problems import synthetic_covariance
from eigsmooth.spectral import save_matrix


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
    # a non-finite or negative eps, or eps = 0 where it would divide (the
    # smoothing of det_smooth, the default q = ceil(0.1 / eps)), is a config error
    cfg = write_config(tmp_path / "c.txt", problem="maxcut", algorithm=algorithm, n=4, N=3,
                       seed=1, eps=eps, **fields)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    # det_smooth's eps = 0 is rejected by the smoothing itself, in the library's words
    message = (f"det_smooth: eps must be finite and positive, got {float(eps)!r}"
               if algorithm == "det_smooth" and float(eps) == 0.0 else "field 'eps'")
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, fields, message", [
    ("solve", {"algorithm": "stoch_ls", "q": 2}, "'gamma_max' and 'gamma_min' are required"),
    ("solve", {"algorithm": "acsa", "q": 2}, "set 'gamma_min' explicitly"),
    ("phase", {"trials": 50}, "trials must be at least 200"),
    ("phase", {"n_list": "100,abc"}, "field 'n_list' has invalid value"),
    ("phase", {"eps_rule": "abc"}, "field 'eps_rule' has invalid value"),
    ("phase", {"n_list": 100, "multiplicity": 100}, "multiplicity must leave room"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "ladder_span": -1}, "ladder_span must be finite"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "gamma_init": 1000}, "gamma_init=1000.0 is outside"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "true_obj_every": -3}, "true_obj_every must be"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "gamma_min": -1}, "gamma_min must be finite"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "lip_scale": 0}, "lip_scale must be finite"),
    ("solve", {"algorithm": "det_smooth", "eps": 0.1, "det_lip_scale": 0},
     "det_smooth: lip_scale must be finite"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "oracle_tol": 2}, "oracle_tol must lie in (0, 1)"),
    ("solve", {"algorithm": "acsa", "eps": 0.1, "oracle_tol": 2, "oracle_path": "secular"},
     "oracle_tol must lie in (0, 1)"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "oracle_path": "auto"},
     "oracle_path must be 'lanczos' or 'secular'"),
    ("solve", {"algorithm": "stoch_ls", "eps": 0.1, "gamma_d": 2}, "gamma_d must lie in (0, 1)"),
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
])
def test_config_mistakes_are_config_errors(tmp_path, capsys, command, fields, message):
    # solve runs with eps = 0, which leaves no smoothed problem to derive the steps from
    base = ({"problem": "maxcut", "n": 4, "N": 3, "eps": 0} if command == "solve"
            else {"n_list": 100, "trials": 200})
    cfg = write_config(tmp_path / "c.txt", seed=1, **{**base, **fields})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", [
    # the problem builders' rejections are settings too
    ({"problem": "dspca", "rho": -1}, "stoch_ls: rho must be finite and positive, got -1.0"),
    ({"radius": -1}, "stoch_ls: radius must be finite and positive, got -1.0"),
    ({"n": 1}, "stoch_ls: n must be at least 2"),
    # every solver key a file sets meets SolverConfig's rules, used or not
    ({"algorithm": "det_smooth", "gamma_d": 2}, "det_smooth: gamma_d must lie in (0, 1)"),
    ({"algorithm": "det_smooth", "q": 0}, "det_smooth: q must be at least 1"),
    ({"algorithm": "subgrad", "k": 0}, "subgrad: k must be at least 1"),
    ({"algorithm": "subgrad", "oracle_path": "auto"}, "subgrad: oracle_path must be"),
    ({"algorithm": "det_smooth", "problem": "dspca", "n": 20, "gamma_d": 2, "q": 0, "k": 0},
     "det_smooth: gamma_d must lie in (0, 1)"),
    ({"problem": "dspca", "n_select": 3}, "field 'n_select' needs 'data_path'"),
    ({"problem": "dspca", "n": 0}, "stoch_ls: n must be at least 1"),  # before any division
    # a problem or baseline key the run does not use meets the library's rules too
    ({"rho": -1}, "stoch_ls: rho must be finite and positive, got -1.0"),
    ({"problem": "dspca", "radius": 0}, "stoch_ls: radius must be finite and positive, got 0.0"),
    ({"det_lip_scale": -1}, "stoch_ls: det_lip_scale must be finite and positive, got -1.0"),
    ({"algorithm": "subgrad", "det_lip_scale": "inf"}, "subgrad: det_lip_scale must be finite"),
    # a maxcut instance reads no data file
    ({"data_path": "no-such-file.txt"}, "field 'data_path' needs problem = dspca"),
    ({"n_select": 3}, "field 'n_select' needs 'data_path' and problem = dspca"),
    # a coordinate count below 1 is a setting, whatever the file holds
    *(({"problem": "dspca", "algorithm": "det_smooth", "data_path": "cov.txt", "n_select": k},
       f"field 'n_select' must be at least 1, got {k}") for k in (-1, 0, -6)),
])
def test_solve_setting_mistakes_exit_2_with_the_config_path(tmp_path, capsys, fields, message):
    base = {"problem": "maxcut", "algorithm": "stoch_ls", "n": 4, "N": 3, "eps": 0.1, "q": 2}
    if fields.get("data_path") == "cov.txt":  # a readable 6 x 6 covariance
        fields = {**fields, "data_path": tmp_path / "cov.txt"}
        save_matrix(fields["data_path"], synthetic_covariance(6, np.random.default_rng(0)))
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


@pytest.mark.parametrize("algorithm", ["det_smooth", "subgrad"])
def test_baselines_run_with_valid_unused_solver_keys(tmp_path, algorithm):
    base = dict(problem="dspca", algorithm=algorithm, n=8, N=5, seed=3, eps=0.1)
    unused = dict(q=2, k=5, gamma_d=0.25, oracle_path="secular", oracle_tol=1e-3)
    traces = []
    for name, fields in (("plain", base), ("unused", {**base, **unused})):
        cfg = write_config(tmp_path / f"{name}.txt", name=name, **fields)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        traces.append((tmp_path / f"{name}_trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_unset_solver_keys_take_solver_config_defaults(tmp_path):
    # the defaults the command line once restated, spelled out, change no byte
    base = dict(problem="maxcut", algorithm="stoch_ls", n=6, N=15, seed=42, eps=0.1, q=2)
    spelled = dict(k=3, gamma_d=0.5, ladder_span=16.0, lip_scale=100.0, oracle_path="lanczos",
                   oracle_tol=1e-6)
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
# two BLAS threads; the last two runs take the secular oracle path.
_TRACE_GOLDEN = {
    "stoch_ls_maxcut": (
        dict(problem="maxcut", algorithm="stoch_ls", n=30, N=200, seed=11), "b270843e04e3440b"),
    "stoch_ls_dspca": (dict(problem="dspca", algorithm="stoch_ls", n=40, N=120, seed=11,
                            true_obj_every=3), "5854e3f46e474ece"),
    "det_smooth_dspca": (
        dict(problem="dspca", algorithm="det_smooth", n=40, N=300, seed=5), "4e14581d8b4e6c12"),
    "subgrad_maxcut": (
        dict(problem="maxcut", algorithm="subgrad", n=30, N=400, seed=3), "58000792ac7443aa"),
    "acsa_maxcut_secular": (dict(problem="maxcut", algorithm="acsa", n=30, N=150, seed=7,
                                 oracle_path="secular"), "2f807bdb34fe5bde"),
    "stoch_ls_dspca_secular": (dict(problem="dspca", algorithm="stoch_ls", n=40, N=120, seed=11,
                                    true_obj_every=3, oracle_path="secular"), "53e85a0e87079bdf"),
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
    records = read_trace(rep["trace"])
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
    records = read_trace(rep["trace"])
    assert 0 < len(records) < 30  # partial trace
    assert int(rep["iterations"]) == records[-1].t


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
    assert [r.t for r in read_trace(rep["trace"])] == [1, 2]


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
