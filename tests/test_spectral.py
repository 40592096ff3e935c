import hashlib
import importlib
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigsmooth import spectral
from eigsmooth.optimize import SolverConfig
from eigsmooth.phase import equal_gap_model, sample_shifts
from eigsmooth.problems import load_covariance
from eigsmooth.smoothing import SmoothingParams, _RankOneUpdate
from eigsmooth.spectral import (
    LanczosConvergenceError,
    SpectralError,
    check_symmetric,
    full_eig,
    lanczos_iteration_budget,
    lanczos_leading,
    secular_shifts_batch,
    symmetrize,
)

from paper_checks import extremal_direction, fk_value, local_lip_constant, rank_one_leading


def random_symmetric(n, rng, scale=1.0):
    G = rng.standard_normal((n, n))
    return symmetrize(G) * scale


def random_orthogonal(n, rng):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


# ---------------------------------------------------------------- full_eig


def test_full_eig_identity():
    dec = full_eig(np.eye(3))
    assert np.allclose(dec.values, [1.0, 1.0, 1.0])
    assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(3), atol=1e-14)


def test_full_eig_fixed_spectrum():
    dec = full_eig(np.diag([1.0, 0.0, -2.0, -2.0]))
    assert np.array_equal(dec.values, [1.0, 0.0, -2.0, -2.0])
    # coordinate basis up to sign convention (first nonzero coordinate positive)
    assert np.allclose(np.abs(dec.vectors), np.eye(4))


def test_full_eig_reconstruction():
    rng = np.random.default_rng(0)
    X = random_symmetric(50, rng)
    dec = full_eig(X)
    err = np.linalg.norm(X - (dec.vectors * dec.values) @ dec.vectors.T, "fro")
    assert err <= 1e-10 * np.linalg.norm(X, "fro")
    assert np.all(np.diff(dec.values) <= 0)


def test_full_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        full_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        full_eig(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        full_eig(np.zeros((2, 3)))


def _copying_full_eig(X):
    """Reference full_eig: validation by a copying check_symmetric, and the
    sign fix as a fresh np.where array over a reordered, transposed copy."""
    X = check_symmetric(X)
    w, V = np.linalg.eigh(X)
    order = np.argsort(-w, kind="stable")
    vecs = V[:, order].T
    lead = np.take_along_axis(vecs, np.argmax(vecs != 0.0, axis=-1)[:, None], axis=-1)
    V = np.ascontiguousarray(np.where(lead < 0.0, -vecs, vecs).T)
    return np.ascontiguousarray(w[order]), V


@pytest.mark.parametrize("kind", ["random", "tied", "diagonal", "near_symmetric", "fortran"])
def test_full_eig_matches_copying_formulation(kind):
    rng = np.random.default_rng(12)
    for n in (1, 2, 7, 40):
        X = random_symmetric(n, rng)
        if kind == "tied":
            Q = random_orthogonal(n, rng)
            X = symmetrize((Q * rng.integers(-1, 2, n)) @ Q.T)
        elif kind == "diagonal":
            X = np.diag(rng.integers(-1, 2, n).astype(float))
        elif kind == "near_symmetric":
            X = X + 1e-14 * np.triu(X, 1)
        elif kind == "fortran":
            X = np.asfortranarray(X)
        before = X.copy()
        dec = full_eig(X)
        values, vectors = _copying_full_eig(X)
        assert dec.values.tobytes() == values.tobytes()
        assert dec.vectors.tobytes() == vectors.tobytes()
        assert dec.vectors.flags.c_contiguous and dec.values.flags.c_contiguous
        assert not np.shares_memory(dec.vectors, X) and not np.shares_memory(dec.values, X)
        assert np.array_equal(X, before)


def test_full_eig_makes_no_defensive_copy():
    n = 400
    X = random_symmetric(n, np.random.default_rng(13))
    full_eig(X)
    tracemalloc.start()
    try:
        full_eig(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * n * n


# ---------------------------------------------------------------- Lanczos


def test_lanczos_diagonal():
    rng = np.random.default_rng(1)
    pair = lanczos_leading(np.diag([3.0, 2.0, 1.0]), rel_tol=1e-10, rng=rng)
    assert abs(pair.value - 3.0) <= 1e-10
    assert min(np.linalg.norm(pair.vector - [1, 0, 0]), np.linalg.norm(pair.vector + [1, 0, 0])) <= 1e-8


def test_lanczos_budget_formula():
    assert lanczos_iteration_budget(1000, 1e-6) == 4030


def test_lanczos_matches_full_eig():
    rng = np.random.default_rng(2)
    X = random_symmetric(200, rng)
    top = full_eig(X).values[0]
    pair = lanczos_leading(X, rel_tol=1e-10, rng=rng)
    assert abs(pair.value - top) <= 1e-8 * max(1.0, abs(top))
    resid = np.linalg.norm(X @ pair.vector - pair.value * pair.vector)
    assert resid <= 1e-10 * max(1.0, abs(pair.value))
    assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-12


def test_lanczos_clustered_top():
    # gap 1e-6 between the two leading eigenvalues
    rng = np.random.default_rng(3)
    vals = np.concatenate(([2.0, 2.0 - 1e-6], np.linspace(1.0, 0.0, 38)))
    O = random_orthogonal(40, rng)
    X = (O * vals) @ O.T
    pair = lanczos_leading(X, rel_tol=1e-8, rng=rng)
    assert abs(pair.value - 2.0) <= 1e-8 * max(1.0, 2.0)


class _FirstDrawRng:
    """Wraps a generator, replacing its first standard_normal draws."""

    def __init__(self, rng, *first):
        self.first = list(first)
        self.rng = rng

    def standard_normal(self, n):
        if self.first:
            return np.asarray(self.first.pop(0), dtype=float)
        return self.rng.standard_normal(n)


def test_lanczos_restart_recovers_from_bad_start(monkeypatch):
    # Start vector nearly orthogonal to the top eigenvector with a budget too
    # small to recover; the restart draws a fresh vector and converges.
    monkeypatch.setattr(spectral, "lanczos_iteration_budget", lambda n, rel_tol: 14)
    rng = np.random.default_rng(4)
    n = 40
    vals = np.concatenate(([2.0], np.linspace(0.5, 0.0, n - 1)))
    X = np.diag(vals)
    bad = rng.standard_normal(n)
    bad[0] = 1e-8
    wrapped = _FirstDrawRng(rng, bad)
    pair = lanczos_leading(X, rel_tol=1e-10, rng=wrapped)
    assert abs(pair.value - 2.0) <= 1e-9
    assert pair.matvecs > 14  # first attempt was spent


def test_lanczos_survives_eigenvector_start():
    # A start vector that is exactly a non-leading eigenvector breaks the
    # recursion immediately; the solver must not report that eigenvalue.
    rng = np.random.default_rng(40)
    n = 40
    vals = np.concatenate(([2.0], np.linspace(0.5, 0.0, n - 1)))
    X = np.diag(vals)
    e2 = np.zeros(n)
    e2[1] = 1.0
    wrapped = _FirstDrawRng(rng, e2)
    pair = lanczos_leading(X, rel_tol=1e-10, rng=wrapped)
    assert abs(pair.value - 2.0) <= 1e-9


def test_lanczos_restarts_when_the_fresh_direction_has_no_norm_left():
    # An eigenvector start breaks down at once; a fresh direction inside the
    # spanned subspace leaves nothing to continue from, so the attempt hands
    # back after its one product and the restart is the plain run's.
    n = 40
    X = np.diag(np.concatenate(([2.0], np.linspace(0.5, 0.0, n - 1))))
    e2 = np.zeros(n)
    e2[1] = 1.0
    pair = lanczos_leading(X, rel_tol=1e-10, rng=_FirstDrawRng(np.random.default_rng(40), e2, e2))
    plain = lanczos_leading(X, rel_tol=1e-10, rng=np.random.default_rng(40))
    assert pair.matvecs == 1 + plain.matvecs
    assert pair.value == plain.value == pytest.approx(2.0, abs=1e-9)
    assert np.array_equal(pair.vector, plain.vector)


def test_lanczos_breakdown_at_the_last_step_restarts_then_raises():
    # Below rounding no residual certifies: each attempt spans the whole
    # space, breaks down at its last budgeted step and hands back, and the
    # run raises after its attempts rather than return the uncertified pair.
    rng = np.random.default_rng(5)
    X = symmetrize(rng.standard_normal((5, 5)))
    message = f"after {spectral._LANCZOS_ATTEMPTS} attempts of 5 iterations (n=5)"
    with pytest.raises(LanczosConvergenceError, match=re.escape(message)):
        lanczos_leading(X, rel_tol=1e-300, rng=rng)


def test_lanczos_explicit_failure(monkeypatch):
    monkeypatch.setattr(spectral, "lanczos_iteration_budget", lambda n, rel_tol: 2)
    monkeypatch.setattr(spectral, "_LANCZOS_ATTEMPTS", 2)
    rng = np.random.default_rng(5)
    X = random_symmetric(30, rng)
    with pytest.raises(LanczosConvergenceError):
        lanczos_leading(X, rel_tol=1e-12, rng=rng)


# ---------------------------------------------------------------- secular


def _one_row(lam, w, scale):
    """One weight row's (shift, degenerate flag, evaluations)."""
    shifts, degenerate, iterations = spectral._secular_shifts(lam, np.asarray(w)[None], scale)
    return shifts[0], degenerate[0], iterations[0]


def test_secular_zero_matrix():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(5)
    scale = 0.37
    shift, degenerate, _ = _one_row(np.zeros(5), v**2, scale)
    assert abs(shift - scale * np.sum(v**2)) <= 1e-12 * scale * np.sum(v**2)
    assert not degenerate


def test_secular_matches_full_eig_fixed():
    lam = np.array([1.0, 0.0, -2.0, -2.0])
    v = np.ones(4)
    shift = secular_shifts_batch(lam, v**2, 0.25)[0]
    top = full_eig(np.diag(lam) + 0.25 * np.outer(v, v)).values[0]
    assert abs(shift - (top - 1.0)) <= 1e-10


def test_secular_interlacing():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = 8
        X = random_symmetric(n, rng)
        v = rng.standard_normal(n)
        eps = 0.5
        dec = full_eig(X)
        shift = secular_shifts_batch(dec.values, (dec.vectors.T @ v) ** 2, eps / n)[0]
        pert = full_eig(X + (eps / n) * np.outer(v, v)).values
        assert pert[1] <= dec.values[0] + 1e-12
        assert shift > 0.0


@pytest.mark.parametrize("n", [4, 20, 100])
def test_secular_vs_full_eig_random(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(100):
        X = random_symmetric(n, rng)
        v = rng.standard_normal(n)
        eps = float(rng.uniform(0.2, 2.0))
        dec = full_eig(X)
        shift = secular_shifts_batch(dec.values, (dec.vectors.T @ v) ** 2, eps / n)[0]
        ptop = full_eig(X + (eps / n) * np.outer(v, v)).values[0]
        assert abs(shift - (ptop - dec.values[0])) <= 1e-10 * (1.0 + abs(ptop))


def test_secular_rotation_invariance():
    rng = np.random.default_rng(8)
    n = 12
    X = random_symmetric(n, rng)
    v = rng.standard_normal(n)
    eps = 0.8
    O = random_orthogonal(n, rng)
    dec = full_eig(X)
    dec_rot = full_eig(O @ X @ O.T)
    r1 = secular_shifts_batch(dec.values, (dec.vectors.T @ v) ** 2, eps / n)[0]
    w_rot = (dec_rot.vectors.T @ (O @ v)) ** 2
    r2 = secular_shifts_batch(dec_rot.values, w_rot, eps / n)[0]
    assert abs(r1 - r2) <= 1e-12 * max(1.0, abs(r1))


def test_secular_rejects_zero_weights():
    with pytest.raises(ValueError):
        secular_shifts_batch(np.array([1.0, 0.0]), np.zeros(2), 0.1)


def test_secular_degenerate_flagged():
    # update vector orthogonal to the leading eigenspace
    lam = np.array([2.0, 1.0, 0.0])
    w = np.array([0.0, 1.0, 1.0])
    shift, degenerate, _ = _one_row(lam, w, 0.05)
    assert degenerate
    # small perturbation cannot push lambda_2 past lambda_1: root at the pole
    assert shift == 0.0
    # large perturbation does overtake the untouched top eigenvalue
    shift2, degenerate2, _ = _one_row(lam, w, 5.0)
    assert degenerate2 and shift2 > 0.0
    top = full_eig(np.diag(lam) + 5.0 * np.outer([0, 1, 1], [0, 1, 1])).values[0]
    assert abs((lam[0] + shift2) - top) <= 1e-10 * top


def test_secular_batch_matches_scalar():
    rng = np.random.default_rng(9)
    n = 30
    lam = np.sort(rng.standard_normal(n))[::-1]
    W = rng.standard_normal((40, n)) ** 2
    scale = 0.02
    batch = secular_shifts_batch(lam, W, scale)
    for i in range(40):
        ref = secular_shifts_batch(lam, W[i], scale)[0]
        assert abs(batch[i] - ref) <= 1e-11 * max(1.0, ref)


def test_secular_empty_batch_returns_empty():
    lam = np.array([1.0, 0.5, 0.5, -1.0])
    assert secular_shifts_batch(lam, np.zeros((0, 4)), 0.1).shape == (0,)


def test_secular_degenerate_rows_next_to_repeated_eigenvalue():
    # z_0 = 0 exactly: the row is solved from the first eigenvalue it keeps,
    # here a repeated one whose copies are merged into one pole.
    rng = np.random.default_rng(21)
    lam = np.array([2.0, 1.0, 1.0, 1.0, 0.5, 0.0, 0.0, -1.0])
    Z = rng.standard_normal((30, lam.size))
    Z[:, 0] = 0.0
    Z[::3, 1] = 0.0  # some rows keep only part of the repeated eigenvalue
    Z[1::3, 1:3] = 0.0
    for scale in (1e-3, 0.3, 5.0):
        batch = secular_shifts_batch(lam, Z**2, scale)
        for z, shift in zip(Z, batch):
            root, degenerate, _ = _one_row(lam, z**2, scale)
            assert degenerate and root == shift
            top = np.linalg.eigvalsh(np.diag(lam) + scale * np.outer(z, z))[-1]
            assert abs((lam[0] + shift) - top) <= 1e-10 * max(1.0, abs(top))


def _copying_secular_shifts(lambdas, weights, scale):
    """Reference secular pre-pass that copies W: a full np.where deflation,
    then the tie merge by reduceat, then the same solver."""
    lam = np.asarray(lambdas, dtype=float)
    W = np.asarray(weights, dtype=float)
    if lam.ndim != 1 or W.ndim != 2 or W.shape[1] != lam.shape[0]:
        raise ValueError("lambdas must be a 1-d array and weight rows of the same length")
    if not 0.0 < scale < np.inf:
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    if np.count_nonzero(W < 0.0):
        raise ValueError("weights must be nonnegative")
    if np.count_nonzero(lam[1:] > lam[:-1]):
        raise ValueError("lambdas must be in decreasing order")
    totals = W.sum(axis=1)
    if np.count_nonzero(~np.isfinite(totals)):
        raise ValueError("weights must be finite")
    if np.count_nonzero(totals <= 0.0):
        raise ValueError("all weights vanish in some row")
    keep = W > 1e-14 * totals[:, None]
    if np.count_nonzero(keep) < keep.size:
        W = np.where(keep, W, 0.0)
        totals = W.sum(axis=1)
    d = lam[0] - lam
    ties = lam[1:] == lam[:-1]
    if np.count_nonzero(ties):
        runs = np.flatnonzero(np.concatenate(([True], ~ties)))
        W, d = np.add.reduceat(W, runs, axis=1), d[runs]
        keep = W > 0.0
    off = d[np.argmax(keep, axis=1)]
    degenerate = off > 0.0
    D = np.maximum(d - off[:, None], 0.0) if np.count_nonzero(degenerate) else d
    lo = scale * np.add.reduce(W, axis=1, where=D == 0.0)
    t, iterations = spectral._secular_newton(D, W, scale, lo, scale * totals)
    return np.maximum(t - off, 0.0), degenerate, iterations


def _outcome(solve, *args):
    try:
        return tuple((out.dtype.str, out.tobytes()) for out in map(np.asarray, solve(*args)))
    except (ValueError, SpectralError, RuntimeWarning) as exc:
        return type(exc), str(exc)


@st.composite
def secular_batches(draw):
    """Spectra with and without ties (a rare increase among them), weight
    rows with entries at the deflation level, zero leading columns, and the
    odd NaN, inf or negative entry."""
    n = draw(st.integers(1, 12))
    levels = st.sampled_from([2.0, 1.0, 0.0, -1.5]) if draw(st.booleans()) else st.floats(-3.0, 3.0)
    lam = np.sort(draw(st.lists(levels, min_size=n, max_size=n)))[::-1].copy()
    if n > 1 and draw(st.integers(0, 9)) == 0:
        lam = lam[::-1].copy()
    entry = st.one_of(st.floats(0.01, 4.0), st.sampled_from([0.0, 1e-30, 1e-16]))
    W = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6)),
                 dtype=float).reshape(-1, n)
    if len(W):
        row = st.integers(0, len(W) - 1)
        if draw(st.booleans()):
            W[draw(row), : draw(st.integers(1, n))] = 0.0
        odd = draw(st.sampled_from([None, None, None, np.nan, np.inf, -1.0]))
        if odd is not None:
            W[draw(row), draw(st.integers(0, n - 1))] = odd
    return lam, W, 10.0 ** draw(st.floats(-4.0, 2.0))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(secular_batches())
def test_secular_prepass_matches_copying_prepass(case):
    lam, W, scale = case
    before = W.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = _outcome(_copying_secular_shifts, lam, W, scale)
        got = _outcome(spectral._secular_shifts, lam, W, scale)
        assert got == want
        if not isinstance(want[0], type):
            assert _outcome(lambda *a: [secular_shifts_batch(*a)], lam, W, scale)[0] == want[0]
    assert np.array_equal(W, before, equal_nan=True)


def test_secular_shifts_reject_non_finite_weights():
    # A NaN or +inf weight used to deflate its whole row and divide 0/0.
    lam = np.array([1.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad in (np.nan, np.inf):
            W = np.array([[1.0, 1.0, bad], [1.0, 1.0, 1.0]])
            with pytest.raises(ValueError, match="weights must be finite"):
                spectral._secular_shifts(lam, W, 1.0)


_LAM = np.array([1.0, 0.0])


@pytest.mark.parametrize("text, call, message", [
    (None, lambda path: lanczos_iteration_budget(10, 0.0), "rel_tol must lie in (0, 1), got 0.0"),
    (None, lambda path: lanczos_iteration_budget(10, 1.0), "rel_tol must lie in (0, 1), got 1.0"),
    (None, lambda path: secular_shifts_batch(_LAM, np.ones((2, 3)), 0.1),
     "lambdas must be a 1-d array and weight rows of the same length"),
    (None, lambda path: secular_shifts_batch(_LAM, np.ones((2, 2)), 0.0),
     "scale must be finite and positive, got 0.0"),
    (None, lambda path: secular_shifts_batch(_LAM, np.ones((2, 2)), -0.1),
     "scale must be finite and positive, got -0.1"),
    # not after 120 evaluations, nor as a RuntimeWarning
    (None, lambda path: secular_shifts_batch(_LAM, np.ones((2, 2)), np.nan),
     "scale must be finite and positive, got nan"),
    (None, lambda path: secular_shifts_batch(_LAM, np.ones((2, 2)), np.inf),
     "scale must be finite and positive, got inf"),
    ("", lambda path: spectral._read_rows(path, header=False), "{path}: empty file"),
    ("\n  \n", lambda path: spectral._read_rows(path, header=True), "{path}: empty file"),
    ("1 2\n3 4\n", lambda path: spectral._table(path, spectral._read_rows(path, False), 3, 2),
     "{path}: expected 3 rows of 2 values, found 2"),
    # the size meets the count rule where it enters, not math.log
    (None, lambda path: lanczos_iteration_budget(0, 0.1), "n must be at least 1, got 0"),
    (None, lambda path: lanczos_leading(np.zeros((0, 0)), 0.1, rng=np.random.default_rng(0)),
     "n must be at least 1, got 0"),
], ids=["budget_tol_0", "budget_tol_1", "batch_shape", "batch_scale_0", "batch_scale_negative",
        "batch_scale_nan", "batch_scale_inf", "rows_empty", "rows_blank", "table_short",
        "budget_n_0", "lanczos_size_0"])
def test_spectral_checks_name_the_fault(tmp_path, text, call, message):
    path = tmp_path / "data.txt"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        call(path)


@pytest.mark.parametrize("call, message", [
    (lambda: SolverConfig(N=True, eps=0.1), "N must be an integer, got True"),
    (lambda: SmoothingParams(eps=0.1, n=10, k=True), "k must be an integer, got True"),
    (lambda: SolverConfig(N=5, eps=0.1, q=True), "q must be an integer, got True"),
    (lambda: SolverConfig(N=5, eps=0.1, seed=False), "seed must be an integer, got False"),
    (lambda: sample_shifts(equal_gap_model(5), 0.1, False, np.random.default_rng(0)),
     "trials must be an integer, got False"),
    (lambda: lanczos_iteration_budget(True, 0.1), "n must be an integer, got True"),
], ids=["N", "k", "q", "seed", "trials", "size"])
def test_counts_refuse_bool(call, message):
    # bool subclasses int, but True is no count of 1 and False none of 0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_secular_prepass_keeps_memory_off_the_weight_array():
    # Tied spectrum, one entry at the deflation level: only its row is copied.
    lam = np.zeros(1600)
    lam[0] = 1.0
    W = np.random.default_rng(6).standard_normal((200, 1600)) ** 2
    W[17, 3] = 1e-30
    secular_shifts_batch(lam, W, 1.0 / 1600)
    tracemalloc.start()
    try:
        secular_shifts_batch(lam, W, 1.0 / 1600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * W.nbytes


# ---------------------------------------------------------------- rank-one


def test_rank_one_zero_matrix():
    rng = np.random.default_rng(10)
    v = rng.standard_normal(6)
    dec = full_eig(np.zeros((6, 6)))
    pair = rank_one_leading(dec, v, 0.1)
    assert abs(pair.value - 0.1 * np.sum(v**2)) <= 1e-12 * np.sum(v**2)
    unit = v / np.linalg.norm(v)
    assert min(np.linalg.norm(pair.vector - unit), np.linalg.norm(pair.vector + unit)) <= 1e-10


def test_rank_one_eigenvector_matches_full_eig():
    lam = np.array([1.0, 0.0, -2.0, -2.0])
    v = np.ones(4)
    dec = full_eig(np.diag(lam))
    pair = rank_one_leading(dec, v, 0.25)
    ref = full_eig(np.diag(lam) + 0.25 * np.outer(v, v))
    assert abs(pair.value - ref.values[0]) <= 1e-10
    diff = min(
        np.max(np.abs(pair.vector - ref.vectors[:, 0])),
        np.max(np.abs(pair.vector + ref.vectors[:, 0])),
    )
    assert diff <= 1e-8


def test_rank_one_gap_lower_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = 10
        X = random_symmetric(n, rng)
        v = rng.standard_normal(n)
        eps = 1.0
        dec = full_eig(X)
        pert = full_eig(X + (eps / n) * np.outer(v, v)).values
        lower = (eps / n) * (dec.vectors.T @ v)[0] ** 2
        assert pert[0] - pert[1] >= lower - 1e-12


def test_rank_one_random_eigenvectors():
    rng = np.random.default_rng(12)
    for n in (4, 20):
        for _ in range(25):
            X = random_symmetric(n, rng)
            v = rng.standard_normal(n)
            eps = float(rng.uniform(0.3, 1.5))
            dec = full_eig(X)
            pair = rank_one_leading(dec, v, eps / n)
            ref = full_eig(X + (eps / n) * np.outer(v, v))
            diff = min(
                np.max(np.abs(pair.vector - ref.vectors[:, 0])),
                np.max(np.abs(pair.vector + ref.vectors[:, 0])),
            )
            assert diff <= 1e-8
            # residual contract of the returned pair
            M = X + (eps / n) * np.outer(v, v)
            resid = np.linalg.norm(M @ pair.vector - pair.value * pair.vector)
            assert resid <= 1e-9 * max(1.0, abs(pair.value))


def test_rank_one_degenerate_vector():
    dec = full_eig(np.diag([2.0, 1.0, 0.0]))
    pair = rank_one_leading(dec, np.array([0.0, 1.0, 0.0]), 0.05)
    assert pair.value == 2.0
    assert np.allclose(pair.vector, [1, 0, 0])


def test_secular_root_brackets_by_determinant():
    # The shifted top is a root of det(X + scale v v^T - x I): it changes sign across it.
    lam = np.array([1.0, 0.0, -2.0, -2.0])
    v = np.ones(4)
    scale = 0.25
    shift = secular_shifts_batch(lam, v**2, scale)[0]
    top = lam[0] + shift
    A = np.diag(lam) + scale * np.outer(v, v)
    below = np.linalg.det(A - (top - 1e-6) * np.eye(4))
    above = np.linalg.det(A - (top + 1e-6) * np.eye(4))
    assert below * above < 0.0


# ---------------------------------------------------------------- gap map


def test_local_lip_constant_simple():
    dec = full_eig(np.diag([2.0, 1.0]))
    assert local_lip_constant(dec) == 1.0


def _second_derivative(X, Y, h=1e-3):
    f = lambda M: full_eig(M).values[0]
    return (f(X + h * Y) - 2.0 * f(X) + f(X - h * Y)) / h**2


def test_extremal_direction_attains_gap_inverse():
    X = np.diag([2.0, 1.0])
    Yc = extremal_direction(full_eig(X))
    assert abs(np.linalg.norm(Yc, "fro") - 1.0) <= 1e-12
    assert abs(_second_derivative(X, Yc) - 1.0) <= 5e-4


def test_random_directions_never_exceed_bound():
    rng = np.random.default_rng(15)
    X = np.diag([2.0, 1.0, 0.0, -0.5, -1.5])
    bound = local_lip_constant(full_eig(X))
    for _ in range(20):
        Y = random_symmetric(5, rng)
        Y /= np.linalg.norm(Y, "fro")
        assert _second_derivative(X, Y) <= bound * (1.0 + 1e-3)


# ---------------------------------------------------------- matrix input


def _int_bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_check_symmetric_fresh_and_same_as_symmetrize():
    rng = np.random.default_rng(4)
    G = rng.standard_normal((6, 6))
    big = np.array([[1e308, 2.0], [2.0, 1.0]])
    near = np.array([[1.0, 1.5e308], [np.nextafter(1.5e308, np.inf), -1e308]])
    with np.errstate(all="raise"):
        for X in [symmetrize(G), symmetrize(G) + 1e-14 * np.triu(G, 1), np.diag([-0.0, 0.0, 3.0]),
                  np.zeros((0, 0)), big, big + np.array([[0.0, 1e290], [0.0, 0.0]]), near]:
            out = check_symmetric(X)
            assert np.array_equal(_int_bits(out), _int_bits(symmetrize(X)))
            # X itself exactly when X is exactly symmetric, else a new array
            symmetric = np.array_equal(X, X.T)
            assert (out is X) == symmetric and (symmetric or not np.shares_memory(out, X))
            assert np.all(np.isfinite(out)) and np.array_equal(out, out.T)
    assert check_symmetric(big)[0, 0] == 1e308
    assert check_symmetric(near)[0, 1] == 0.5 * near[0, 1] + 0.5 * near[1, 0]
    bad = [(np.zeros((2, 3)), "expected a square matrix"), (np.zeros(3), "expected a square matrix"),
           (np.array([[np.nan, 0.0], [0.0, 1.0]]), "matrix entries must be finite"),
           (np.array([[1.0, np.inf], [np.inf, 1.0]]), "matrix entries must be finite"),
           (np.array([[1.0, 0.0], [0.0, -np.inf]]), "matrix entries must be finite"),
           (np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]]), "matrix is not symmetric")]
    for X, message in bad:
        with pytest.raises(ValueError, match=message):
            check_symmetric(X)


def test_check_symmetric_overflowing_asymmetry_is_a_value_error():
    # X - X^T overflows here; the check must still reject X, without a warning.
    X = np.array([[0.0, 1e308], [-1e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"not symmetric: max \|X - X\^T\| = inf"):
            check_symmetric(X)
        with pytest.raises(ValueError, match=r"max \|X - X\^T\| = 2\.000e\+300"):
            check_symmetric(np.array([[0.0, 1e300], [-1e300, 0.0]]))


@pytest.mark.parametrize("module", ["spectral", "smoothing", "optimize", "problems", "phase"])
def test_public_names_resolve(module):
    mod = importlib.import_module(f"eigsmooth.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_load_rejects_asymmetry(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0.0 1.0\n0.0 0.0\n")
    with pytest.raises(ValueError, match="not symmetric"):
        load_covariance(path, 2)


def test_load_symmetrizes_tiny_asymmetry(tmp_path):
    path = tmp_path / "near.txt"
    path.write_text("2\n1.0 1e-13\n0.0 1.0\n")
    X = load_covariance(path, 2)
    assert np.array_equal(X, X.T)


def test_load_errors_name_the_line(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("2\n1.0\n0.0 1.0\n")
    with pytest.raises(ValueError, match="short.txt:2"):
        load_covariance(path, 2)


# ---------------------------------------------------------------- properties


@st.composite
def rank_one_cases(draw):
    """Small spectra with frequent repeats (the top included), optionally
    rotated, update rows with frequent zero entries (degenerate rows on
    diagonal matrices), and perturbation scales from tiny to large."""
    n = draw(st.integers(1, 5))
    levels = draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0]), min_size=n, max_size=n))
    X = np.diag(levels)
    if draw(st.booleans()):
        Q = random_orthogonal(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        X = symmetrize(Q @ X @ Q.T)
    entry = st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01))
    Z = np.array(draw(st.lists(
        st.lists(entry, min_size=n, max_size=n).filter(any), min_size=1, max_size=4,
    )))
    eps = 10.0 ** draw(st.floats(-8.0, 4.0))
    return X, Z, eps


@settings(max_examples=150, derandomize=True, deadline=None)
@given(rank_one_cases())
def test_rank_one_kernel_matches_dense(case):
    X, Z, eps = case
    params = SmoothingParams(eps=eps, n=X.shape[0], k=Z.shape[0])
    scale = params.scale
    dec = full_eig(X)
    W = (Z @ dec.vectors) ** 2
    batch = secular_shifts_batch(dec.values, W, scale)
    best, i0, phi, values = fk_value(dec, Z, params)
    for z, w, shift, value in zip(Z, W, batch, values):
        assert shift == secular_shifts_batch(dec.values, w, scale)[0]
        M = X + scale * np.outer(z, z)
        ref = full_eig(M).values[0]
        pair = rank_one_leading(dec, z, scale)
        for got in (pair.value, dec.values[0] + shift, value):
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))
        resid = np.linalg.norm(M @ pair.vector - pair.value * pair.vector)
        assert resid <= 1e-9 * max(1.0, abs(pair.value))
    M = X + scale * np.outer(Z[i0], Z[i0])
    assert best == values.max()
    assert np.linalg.norm(M @ phi - best * phi) <= 1e-9 * max(1.0, abs(best))


@st.composite
def lanczos_update_cases(draw):
    """Rotated spectra with a repeated or clustered top, an update vector that
    may miss the top eigenspace, and perturbation scales from tiny to large."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mult = draw(st.integers(1, n))
    spread = draw(st.sampled_from([0.0, 1e-9, 1e-4, 0.5]))
    values = np.concatenate([1.0 - spread * np.arange(mult), rng.uniform(-2.0, 0.5, n - mult)])
    V = random_orthogonal(n, rng)
    X = symmetrize((V * values) @ V.T)
    z = rng.standard_normal(n)
    if mult < n and draw(st.booleans()):
        z = V[:, mult:] @ (V[:, mult:].T @ z)  # no weight on the top cluster
    eps = 10.0 ** draw(st.floats(-6.0, 2.0))
    return X, z, eps / n, draw(st.integers(0, 2**32 - 1))


@st.composite
def scaled_identity_update_cases(draw):
    """c I + s z z^T: every Krylov space has exactly two dimensions, so the
    second coupling is rounding noise on the scale of c."""
    n = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = 10.0 ** draw(st.floats(-8.0, 8.0)) * np.eye(n)
    eps = 10.0 ** draw(st.floats(-6.0, 2.0))
    return X, rng.standard_normal(n), eps / n, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=320, derandomize=True, deadline=None)
@given(st.one_of(lanczos_update_cases(), scaled_identity_update_cases()))
def test_lanczos_update_matches_secular(case):
    X, z, scale, seed = case
    rel_tol = 1e-10
    pair = lanczos_leading(_RankOneUpdate(X, scale, z), rel_tol=rel_tol, rng=np.random.default_rng(seed))
    ref = rank_one_leading(full_eig(X), z, scale)
    tol = rel_tol * max(1.0, abs(ref.value))
    M = X + scale * np.outer(z, z)
    eigs = np.linalg.eigvalsh(M)[::-1]
    gap = eigs[0] - eigs[1]
    # The residual certifies an eigenvalue, never above the top; inside a
    # top cluster narrower than the tolerance's reach it may be a lower one.
    assert pair.value <= ref.value + tol
    assert np.min(np.abs(eigs - pair.value)) <= tol
    if gap > 1e-6:
        assert abs(pair.value - ref.value) <= tol
        resid = np.linalg.norm(M @ pair.vector - pair.value * pair.vector)
        dist = min(np.linalg.norm(pair.vector - ref.vector), np.linalg.norm(pair.vector + ref.vector))
        assert dist <= 2.0 * resid / gap + 1e-9
    explicit = lanczos_leading(M, rel_tol=rel_tol, rng=np.random.default_rng(seed))
    assert pair.matvecs == explicit.matvecs


def test_lanczos_update_rejects_bad_rank_one_term():
    X = np.diag([2.0, 1.0, 0.0])
    rng = np.random.default_rng(0)
    good = np.ones(3)
    for bad in (np.ones((3, 2)), np.ones(3)):  # the operator's shape is checked, its symmetry trusted
        with pytest.raises(ValueError, match="^expected a square matrix"):
            lanczos_leading(_RankOneUpdate(bad, 0.1, good), 1e-8, rng=rng)
    # an input without a shape is no operator, and is not converted into one
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(\)$"):
        lanczos_leading([[2.0, 0.0], [0.0, 1.0]], 1e-8, rng=rng)
    pair = lanczos_leading(_RankOneUpdate(X, 0.5, good), rel_tol=1e-12, rng=rng)
    ref = full_eig(X + 0.5 * np.outer(good, good))
    assert abs(pair.value - ref.values[0]) <= 1e-10
    one = lanczos_leading(_RankOneUpdate(np.array([[2.0]]), 0.5, np.array([3.0])), 1e-8, rng=rng)
    assert one.value == 2.0 + 0.5 * 9.0


@pytest.mark.parametrize("update", [None, (0.3, np.array([-0.7]))])
def test_lanczos_one_by_one_takes_one_step(update):
    # n = 1 runs the Krylov loop: one product, an immediate breakdown, and a
    # 1 x 1 Ritz pair; the start vector's sign (+ at seed 3, - at seed 4) is
    # canonicalized away
    operator = (lambda X: X) if update is None else (lambda X: _RankOneUpdate(X, *update))
    value = -1.1 if update is None else -1.1 + (0.3 * -0.7) * -0.7
    for seed in (3, 4):
        pair = lanczos_leading(operator(np.array([[-1.1]])), 1e-10, rng=np.random.default_rng(seed))
        assert (pair.value, pair.vector.tolist(), pair.matvecs) == (value, [1.0], 1)
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        lanczos_leading(operator(np.array([[np.inf]])), 1e-10, rng=np.random.default_rng(0))


# ------------------------------------------------- Lanczos golden values


def _bits(vector):
    return hashlib.sha256(np.ascontiguousarray(vector).tobytes()).hexdigest()[:16]


def _golden_case(name):
    """(X, steps per attempt or None for the budget's, update scale, update
    vector seed, start seed); every case runs at rel_tol 1e-10."""
    if name == "long":  # crosses the 32- and 64-column workspace sizes
        vals = np.concatenate(([1.0, 0.999, 0.998], np.linspace(0.99, -1.0, 147)))
        O = random_orthogonal(150, np.random.default_rng(11))
        return symmetrize((O * vals) @ O.T), None, 1e-4, 112, 12
    if name == "decouple":  # every start vector spans an invariant subspace below min_span
        return np.eye(8), None, 0.5, 113, 13
    # "restart": the first 46-step attempt fails, the second converges
    vals = np.concatenate(([1.0, 0.9], np.linspace(0.85, -1.0, 98)))
    O = random_orthogonal(100, np.random.default_rng(14))
    X = symmetrize((O * vals) @ O.T)
    return X, 46, 1e-3, 115, 17


# (matvecs, value.hex(), sha256 prefix of the vector bytes) from the
# full-size-workspace implementation with one BLAS thread, numpy's bundled
# OpenBLAS 0.3.31 on x86-64. At 2 to 8 threads long/plain hashes to
# ce7ff2d2db76a3e8 and restart/plain to 4eb38de1165b8bba, matvecs unchanged.
_LANCZOS_GOLDEN = {
    ("long", "plain"): (101, "0x1.0000000000001p+0", "9a830f5fd8d66e9b"),
    ("long", "update"): (101, "0x1.0002fa31fdec4p+0", "70bda863fc3341a9"),
    ("decouple", "plain"): (3, "0x1.0000000000000p+0", "33ac44dcbcb83c0e"),
    ("decouple", "update"): (3, "0x1.73b9c0602fe6fp+3", "68a6d7cf10a9b79a"),
    ("restart", "plain"): (92, "0x1.0000000000001p+0", "7ddb67a3a38bf481"),
    ("restart", "update"): (92, "0x1.00000df90ef04p+0", "9970777a4bbdf3a5"),
}


def _golden_run(case, path):
    X, steps, scale, z_seed, seed = _golden_case(case)
    z = np.random.default_rng(z_seed).standard_normal(X.shape[0])
    A = X if path == "plain" else _RankOneUpdate(X, scale, z)
    budget = spectral.lanczos_iteration_budget
    if steps is not None:  # this runs in a child process, without monkeypatch
        spectral.lanczos_iteration_budget = lambda n, rel_tol: steps
    try:
        pair = lanczos_leading(A, 1e-10, rng=np.random.default_rng(seed))
    finally:
        spectral.lanczos_iteration_budget = budget
    return pair.matvecs, pair.value.hex(), _bits(pair.vector)


@pytest.fixture(scope="module")
def golden_runs(one_blas_thread):
    out = one_blas_thread("-c", "import json, test_spectral as t; print(json.dumps("
                          "[[c, p, *t._golden_run(c, p)] for c, p in t._LANCZOS_GOLDEN]))")
    return {(c, p): tuple(got) for c, p, *got in json.loads(out)}


@pytest.mark.parametrize("case, path", sorted(_LANCZOS_GOLDEN))
def test_lanczos_golden_values(case, path, golden_runs):
    assert golden_runs[case, path] == _LANCZOS_GOLDEN[case, path]


def test_lanczos_applies_any_operator_as_its_array():
    # an object with only a square shape and a product takes the array's steps and bits
    X, _, _, _, seed = _golden_case("long")
    plain = type("PlainOperator", (), {"shape": X.shape, "__matmul__": lambda self, q: X @ q})()
    runs = [lanczos_leading(A, 1e-10, rng=np.random.default_rng(seed)) for A in (X, plain)]
    dense, wrapped = ((pair.matvecs, pair.value.hex(), _bits(pair.vector)) for pair in runs)
    assert wrapped == dense


def test_lanczos_workspace_grows_with_steps_taken():
    # 101 steps at n = 1600 under a budget of n steps: a workspace sized to the
    # budget (an n x n basis plus an (n+1)^2 tridiagonal) peaks at 41 MB.
    n = 1600
    X = np.diag(np.concatenate(([1.0], np.linspace(0.99, -1.0, n - 1))))
    z = np.random.default_rng(3).standard_normal(n)
    tracemalloc.start()
    try:
        pair = lanczos_leading(_RankOneUpdate(X, 0.05 / n, z), rel_tol=1e-6, rng=np.random.default_rng(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert (pair.matvecs, pair.value.hex(), _bits(pair.vector)) == (
        101, "0x1.000a12b8befd1p+0", "a15c6ef809bde0b5")
