import copy
import hashlib
import tracemalloc

import numpy as np
import pytest

from eigsmooth.problems import dspca_problem, synthetic_covariance
from eigsmooth.smoothing import (
    SmoothingParams,
    approximation_bounds,
    fk_value,
    fk_values_batch,
    gradient_oracle,
    gradient_variance_probe,
    lipschitz_bound,
    sample_rng,
    smoothing_constant,
)
from eigsmooth.spectral import full_eig, rank_one_leading, symmetrize


def random_symmetric(n, rng, scale=1.0):
    return symmetrize(rng.standard_normal((n, n))) * scale


# ------------------------------------------------------------- parameters


def test_params_validation():
    for eps in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps"):
            SmoothingParams(eps=eps, n=4)
    with pytest.raises(ValueError):
        SmoothingParams(eps=0.1, n=4, k=0)
    p = SmoothingParams(eps=0.5, n=10)
    assert p.scale == 0.05 and p.k == 3


def test_bounds_and_constants():
    assert approximation_bounds(SmoothingParams(eps=0.0, n=4)) == (0.0, 0.0)
    lo, hi = approximation_bounds(SmoothingParams(eps=0.05, n=1000, k=3))
    assert lo == pytest.approx(5e-5) and hi == pytest.approx(0.15)
    assert smoothing_constant(3) == 3.0
    assert lipschitz_bound(SmoothingParams(eps=0.05, n=1000, k=3)) == pytest.approx(60000.0)
    assert lipschitz_bound(SmoothingParams(eps=1.0, n=100, k=4)) == pytest.approx(200.0)
    with pytest.raises(ValueError):
        lipschitz_bound(SmoothingParams(eps=0.05, n=10, k=2))


def test_inverse_max_chi2_monte_carlo():
    # E[1 / max(z1^2, z2^2, z3^2)] is about 1.5, strictly below the
    # conservative constant k/(k-2) = 3 at k = 3.
    rng = np.random.default_rng(1234)
    z = rng.standard_normal((10**6, 3))
    est = float(np.mean(1.0 / np.max(z**2, axis=1)))
    assert abs(est - 1.5) <= 0.05
    assert est < smoothing_constant(3)


# ------------------------------------------------------------- sampling


def test_sample_zero_matrix():
    n = 8
    params = SmoothingParams(eps=0.4, n=n)
    rng = np.random.default_rng(0)
    probe_rng = np.random.default_rng(0)
    Z = probe_rng.standard_normal((params.k, n))
    s = gradient_oracle(full_eig(np.zeros((n, n))), params, 1, rng=rng)
    norms = (Z**2).sum(axis=1)
    assert s.value == pytest.approx(params.scale * norms.max(), rel=1e-12)
    # the winner is the longest draw: its direction is the gradient factor
    i0 = int(np.argmax(norms))
    zwin = Z[i0] / np.linalg.norm(Z[i0])
    vector = s.vectors[0]
    assert min(np.linalg.norm(vector - zwin), np.linalg.norm(vector + zwin)) <= 1e-10


def test_sample_value_exceeds_top_eigenvalue():
    rng = np.random.default_rng(1)
    X = random_symmetric(12, rng)
    dec = full_eig(X)
    params = SmoothingParams(eps=0.3, n=12)
    twin = copy.deepcopy(rng)  # draws the noise each oracle call draws
    for _ in range(50):
        s = gradient_oracle(dec, params, 1, rng=rng)
        Z = twin.standard_normal((params.k, 12))
        assert s.value > dec.values[0]
        witness_bound = params.scale * np.max((dec.vectors[:, 0] @ Z.T) ** 2)
        assert s.value - dec.values[0] >= witness_bound - 1e-15
        assert abs(np.linalg.norm(s.vectors[0]) - 1.0) <= 1e-12
        assert s.cost_eigvecs == params.k


def test_sample_paths_agree():
    rng = np.random.default_rng(2)
    X = random_symmetric(15, rng)
    dec = full_eig(X)
    params = SmoothingParams(eps=0.5, n=15)
    s1 = gradient_oracle(dec, params, 1, rng=np.random.default_rng(77))
    s2 = gradient_oracle(X, params, 1, rng=np.random.default_rng(77), lanczos_tol=1e-11)
    assert abs(s1.value - s2.value) <= 1e-8 * max(1.0, abs(s1.value))
    v1, v2 = s1.vectors[0], s2.vectors[0]
    assert min(np.max(np.abs(v1 - v2)), np.max(np.abs(v1 + v2))) <= 1e-6


def test_sample_eps_zero_is_exact():
    rng = np.random.default_rng(3)
    X = random_symmetric(10, rng)
    dec = full_eig(X)
    s = gradient_oracle(dec, SmoothingParams(eps=0.0, n=10), 1, rng=rng)
    assert s.value == dec.values[0]
    assert np.array_equal(s.vectors[0], dec.vectors[:, 0])


def test_mean_inside_envelope():
    rng = np.random.default_rng(4)
    X = random_symmetric(50, rng)
    dec = full_eig(X)
    params = SmoothingParams(eps=0.05, n=50)
    vals = fk_values_batch(dec, params, 3000, rng)
    lo, hi = approximation_bounds(params)
    mean = vals.mean()
    serr = vals.std(ddof=1) / np.sqrt(vals.size)
    assert mean - 3 * serr >= dec.values[0] + lo
    assert mean + 3 * serr <= dec.values[0] + hi


# ------------------------------------------------------------- gradients


def test_gradient_trace_one():
    rng = np.random.default_rng(5)
    X = random_symmetric(9, rng)
    est = gradient_oracle(full_eig(X), SmoothingParams(eps=0.2, n=9), q=7, rng=rng)
    V = est.vectors
    assert abs(np.sum(V * V) / est.q - 1.0) <= 1e-12  # trace of (1/q) sum_l v_l v_l^T
    # PSD: average of rank-one projectors
    assert np.min(np.linalg.eigvalsh((V.T @ V) / est.q)) >= -1e-14


def test_gradient_concentrates_on_gap():
    rng = np.random.default_rng(6)
    n = 12
    X = np.diag(np.concatenate(([1.0], np.zeros(n - 1))))
    est = gradient_oracle(full_eig(X), SmoothingParams(eps=1e-3, n=n), q=200, rng=rng)
    V = est.vectors
    mean = (V.T @ V) / est.q
    off = mean - np.diag(np.diag(mean))
    assert np.mean(V[:, 0] ** 2) > 0.95
    assert np.max(np.abs(off)) < 0.05


def test_gradient_isotropic_at_zero():
    rng = np.random.default_rng(7)
    n = 20
    est = gradient_oracle(full_eig(np.zeros((n, n))), SmoothingParams(eps=0.5, n=n), q=10**4, rng=rng)
    diag = np.mean(est.vectors**2, axis=0)
    serr = 3.0 / np.sqrt(est.q)  # crude bound on 3 standard errors of each entry
    assert np.max(np.abs(diag - 1.0 / n)) <= serr


def test_gradient_counter_seeding_reproducible():
    rng = np.random.default_rng(8)
    X = random_symmetric(6, rng)
    dec = full_eig(X)
    params = SmoothingParams(eps=0.3, n=6)
    a = gradient_oracle(dec, params, q=4, rng=12345, seed_key=(9,))
    b = gradient_oracle(dec, params, q=4, rng=12345, seed_key=(9,))
    assert np.array_equal(a.vectors, b.vectors) and a.value == b.value
    c = gradient_oracle(dec, params, q=4, rng=12345, seed_key=(10,))
    assert not np.array_equal(a.vectors, c.vectors)


def test_gradient_cost_accounting():
    rng = np.random.default_rng(9)
    X = random_symmetric(5, rng)
    params = SmoothingParams(eps=0.2, n=5)
    est = gradient_oracle(full_eig(X), params, q=6, rng=rng)
    assert est.cost_eigvecs == 6 * params.k


# ------------------------------------------------ finite-difference audit


def test_fixed_noise_directional_derivative():
    rng = np.random.default_rng(10)
    n = 10
    X = random_symmetric(n, rng)
    params = SmoothingParams(eps=0.4, n=n)
    Z = rng.standard_normal((params.k, n))
    h = 1e-6
    checked = 0
    for _ in range(10):
        Y = random_symmetric(n, rng)
        Y /= np.linalg.norm(Y, "fro")
        _, i0, phi, _ = fk_value(X, Z, params)
        up, iu, _, _ = fk_value(X + h * Y, Z, params)
        dn, id_, _, _ = fk_value(X - h * Y, Z, params)
        if not (i0 == iu == id_):
            continue  # winning index unstable under +-h: skip this direction
        fd = (up - dn) / (2.0 * h)
        analytic = float(phi @ Y @ phi)
        assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))
        checked += 1
    assert checked >= 8


# ------------------------------------------------------- equivariance


def test_equivariance_under_signed_permutation():
    # Exact equivariance: rotate the matrix and feed the same noise rotated.
    rng = np.random.default_rng(11)
    n = 7
    X = random_symmetric(n, rng)
    perm = np.random.default_rng(3).permutation(n)
    signs = np.where(np.random.default_rng(4).standard_normal(n) > 0, 1.0, -1.0)
    O = np.zeros((n, n))
    O[np.arange(n), perm] = signs
    params = SmoothingParams(eps=0.3, n=n)
    Z = rng.standard_normal((params.k, n))
    dec = full_eig(X)
    dec_rot = full_eig(O @ X @ O.T)
    v1, i1, phi1, _ = fk_value(dec, Z, params)
    v2, i2, phi2, _ = fk_value(dec_rot, Z @ O.T, params)  # rows rotated: O z_i
    assert i1 == i2
    assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))
    rotated = O @ phi1
    assert min(np.max(np.abs(phi2 - rotated)), np.max(np.abs(phi2 + rotated))) <= 1e-12


def test_fk_value_pole_rows():
    # A row orthogonal to the top eigenvector has its root at the pole
    # (shift 0) when eps is small; the analytic eigenvector is then 0/0.
    rng = np.random.default_rng(13)
    n = 6
    dec = full_eig(random_symmetric(n, rng))
    params = SmoothingParams(eps=1e-3, n=n)
    top = dec.vectors[:, 0]
    Z = rng.standard_normal((params.k, n))
    Z[1] -= (Z[1] @ top) * top
    for rows in (Z, Z[[1, 1]]):
        value, i0, vec, values = fk_value(dec, rows, params)
        pairs = [rank_one_leading(dec, z, params.scale) for z in rows]
        assert not np.any(np.isnan(vec)) and not np.any(np.isnan(values))
        assert i0 == int(np.argmax([p.value for p in pairs]))
        for got, pair in zip(values, pairs):
            assert abs(got - pair.value) <= 1e-12 * max(1.0, abs(pair.value))
        assert np.max(np.abs(vec - pairs[i0].vector)) <= 1e-8
    assert pairs[0].degenerate and value == dec.values[0]
    assert np.array_equal(vec, top)


def test_equivariance_under_rotation():
    rng = np.random.default_rng(12)
    n = 8
    X = random_symmetric(n, rng)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    O = Q * np.sign(np.diag(R))
    params = SmoothingParams(eps=0.3, n=n)
    Z = rng.standard_normal((params.k, n))
    v1, i1, phi1, _ = fk_value(full_eig(X), Z, params)
    v2, i2, phi2, _ = fk_value(full_eig(O @ X @ O.T), Z @ O.T, params)
    assert i1 == i2
    assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))
    rotated = O @ phi1
    assert min(np.max(np.abs(phi2 - rotated)), np.max(np.abs(phi2 + rotated))) <= 1e-8


def test_diagonal_concentration():
    # For diagonal X the expected gradient is diagonal: off-diagonal entries
    # of the q-average are mean-zero.
    rng = np.random.default_rng(13)
    n = 6
    X = np.diag(np.linspace(1.0, 0.0, n))
    est = gradient_oracle(full_eig(X), SmoothingParams(eps=0.5, n=n), q=10**4, rng=rng)
    off = ((est.vectors.T @ est.vectors) / est.q)[~np.eye(n, dtype=bool)]
    assert np.max(np.abs(off)) <= 3.0 / np.sqrt(est.q)


# ------------------------------------------------------------- variance


def test_variance_probe_isotropic():
    rng = np.random.default_rng(14)
    n = 20
    probe = gradient_variance_probe(np.zeros((n, n)), SmoothingParams(eps=0.5, n=n), 4000, rng)
    assert probe.bound_ok
    assert abs(probe.empirical_variance - (1.0 - 1.0 / n)) <= 0.02
    assert abs(probe.mean_trace - 1.0) <= 1e-12


def test_variance_probe_concentrated():
    rng = np.random.default_rng(15)
    n = 10
    X = np.diag(np.concatenate(([1.0], np.zeros(n - 1))))
    probe = gradient_variance_probe(X, SmoothingParams(eps=1e-3, n=n), 1000, rng)
    assert probe.bound_ok
    assert probe.empirical_variance < 0.1


def test_per_sample_deviation_bounded():
    rng = np.random.default_rng(16)
    X = random_symmetric(8, rng)
    probe = gradient_variance_probe(X, SmoothingParams(eps=0.2, n=8), 500, rng)
    assert probe.max_sq_deviation <= 4.0


def test_gap_witness_bound_every_draw():
    # The realized increase over lambda_max dominates the analytic witness.
    rng = np.random.default_rng(17)
    X = random_symmetric(10, rng)
    dec = full_eig(X)
    params = SmoothingParams(eps=0.7, n=10)
    for _ in range(200):
        Z = rng.standard_normal((params.k, 10))
        value = fk_value(dec, Z, params)[0]
        gap_witness = value - dec.values[0]
        witness_bound = params.scale * np.max((dec.vectors[:, 0] @ Z.T) ** 2)
        assert gap_witness >= witness_bound - 1e-14
        assert gap_witness >= params.scale * 0.0  # strictly positive increase
        assert value > dec.values[0]


# ------------------------------------------------- validation, once per call


@pytest.mark.parametrize("bad", ["asymmetric", "inf", "nan"])
@pytest.mark.parametrize("path", ["lanczos"])
def test_lanczos_path_still_validates(bad, path):
    X = random_symmetric(5, np.random.default_rng(0))
    if bad == "asymmetric":
        X[0, 1] += 1e-3
    elif bad == "inf":
        X[2, 2] = np.inf
    else:
        X[1, 3] = X[3, 1] = np.nan
    params = SmoothingParams(eps=0.1, n=5, k=3)
    with pytest.raises(ValueError):
        gradient_oracle(X, params, 2, rng=0)
    with pytest.raises(ValueError):
        gradient_oracle(X, params, 1, rng=np.random.default_rng(1))


def test_gradient_oracle_validates_once(monkeypatch):
    from eigsmooth import smoothing, spectral

    counts = {"check_symmetric": 0, "lanczos_leading": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (smoothing, spectral):
        monkeypatch.setattr(module, "check_symmetric", counted("check_symmetric", spectral.check_symmetric))
    monkeypatch.setattr(smoothing, "lanczos_leading", counted("lanczos_leading", spectral.lanczos_leading))
    X = random_symmetric(12, np.random.default_rng(3))
    # at eps = 0 each sample is one plain run on X, which trusts the checked X
    for eps, runs in ((0.1, 6), (0.0, 2)):
        counts.update(check_symmetric=0, lanczos_leading=0)
        est = gradient_oracle(X, SmoothingParams(eps=eps, n=12, k=3), 2, rng=7)
        assert counts == {"check_symmetric": 1, "lanczos_leading": runs}
        assert est.cost_eigvecs == runs


def test_lanczos_oracle_allocates_less_than_its_matrix():
    # The validated matrix reaches the Lanczos kernel as is: one oracle call
    # on a problem's matrix allocates less than one n x n array.
    n = 400
    problem = dspca_problem(synthetic_covariance(n, np.random.default_rng(1)))
    M = problem.matrix(problem.center())
    params = SmoothingParams(eps=0.05, n=n, k=3)
    gradient_oracle(M, params, 2, rng=0, lanczos_tol=1e-6)  # warm numpy's caches
    tracemalloc.start()
    try:
        gradient_oracle(M, params, 2, rng=1, lanczos_tol=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < M.nbytes


# ------------------------------------------------------ one batched sampler


@pytest.mark.parametrize("path", ["secular", "lanczos"])
def test_gradient_oracle_matches_sequential_samples(path):
    rng = np.random.default_rng(18)
    n, q, key = 9, 4, (5, 2)
    X = random_symmetric(n, rng)
    Xin = full_eig(X) if path == "secular" else X
    params = SmoothingParams(eps=0.3, n=n, k=3)
    est = gradient_oracle(Xin, params, q, rng=21, seed_key=key)
    samples = [gradient_oracle(Xin, params, 1, rng=sample_rng(21, *key, l)) for l in range(q)]
    assert est.value == np.array([s.value for s in samples]).mean()
    assert est.cost_eigvecs == sum(s.cost_eigvecs for s in samples) == q * params.k
    vectors = np.array([s.vectors[0] for s in samples])
    if path == "lanczos":
        assert np.array_equal(est.vectors, vectors)
    else:
        assert np.max(np.abs(est.vectors - vectors)) <= 1e-14
        # one shared generator: the samples come from it in sample order
        shared = gradient_oracle(Xin, params, q, rng=np.random.default_rng(22))
        gen = np.random.default_rng(22)
        values = np.array([gradient_oracle(Xin, params, 1, rng=gen).value for _ in range(q)])
        assert shared.value == values.mean()


def test_secular_oracle_makes_one_kernel_call(monkeypatch):
    from eigsmooth import smoothing

    calls = []
    real = smoothing._rank_one_top

    def spy(decomp, Z, *args, **kwargs):
        calls.append(Z.shape)
        return real(decomp, Z, *args, **kwargs)

    monkeypatch.setattr(smoothing, "_rank_one_top", spy)
    X = random_symmetric(7, np.random.default_rng(19))
    params = SmoothingParams(eps=0.2, n=7, k=3)
    est = gradient_oracle(full_eig(X), params, 4, rng=3)
    assert calls == [(4, 3, 7)]
    assert est.cost_eigvecs == 4 * 3


def test_witness_fields_follow_decomposition():
    rng = np.random.default_rng(20)
    n = 8
    dec = full_eig(random_symmetric(n, rng))
    for eps in (0.4, 0.0):
        params = SmoothingParams(eps=eps, n=n)
        Z = np.random.default_rng(4).standard_normal((params.k, n))
        gap_witness = fk_value(dec, Z, params)[0] - dec.values[0]
        witness_bound = params.scale * np.max((dec.vectors[:, 0] @ Z.T) ** 2)
        if eps:
            assert witness_bound > 0.0 and gap_witness >= witness_bound
        else:
            assert gap_witness == 0.0 and witness_bound == 0.0


class _Forward:
    """A distinct object drawing from a shared generator."""

    def __init__(self, gen):
        self.gen = gen

    def standard_normal(self, *args, **kwargs):
        return self.gen.standard_normal(*args, **kwargs)


def test_shared_generator_draw_matches_per_sample_draws(monkeypatch):
    # One (q, k, n) draw from a shared generator against q draws of (k, n),
    # forced by handing each sample its own forwarding object.
    from eigsmooth import smoothing

    dec = full_eig(random_symmetric(12, np.random.default_rng(23)))
    params = SmoothingParams(eps=0.4, n=12, k=3)
    batch = fk_values_batch(dec, params, 300, np.random.default_rng(5))
    probe = gradient_variance_probe(dec, params, 150, np.random.default_rng(6))
    real = smoothing._draw
    monkeypatch.setattr(smoothing, "_draw", lambda X, params, gens, tol: real(
        X, params, [_Forward(gen) for gen in gens], tol))
    assert np.array_equal(batch, fk_values_batch(dec, params, 300, np.random.default_rng(5)))
    assert probe == gradient_variance_probe(dec, params, 150, np.random.default_rng(6))


def test_fk_values_batch_draw_count():
    dec = full_eig(random_symmetric(6, np.random.default_rng(24)))
    params = SmoothingParams(eps=0.4, n=6, k=3)
    assert fk_values_batch(dec, params, 0, np.random.default_rng(7)).shape == (0,)
    with pytest.raises(ValueError, match="draws"):
        fk_values_batch(dec, params, -1, np.random.default_rng(7))


# value.hex(), sha256 prefix of the vectors' bytes and cost, recorded with the
# per-run norms and full-size Lanczos workspace (numpy's bundled OpenBLAS 0.3.31, x86-64).
_ORACLE_GOLDEN = {
    "seeded": ("0x1.0045a991c02b3p+0", "468b36b504c3918a", 6.0),
    "shared": ("0x1.00733f0ac8866p+0", "28daf6881f152a7f", 6.0),
    "exact": ("0x1.ffffffffffffep-1", "58ed6d5ce02be295", 2.0),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_GOLDEN))
def test_lanczos_gradient_oracle_golden_values(case):
    A = synthetic_covariance(60, np.random.default_rng(2))
    params = SmoothingParams(eps=0.0 if case == "exact" else 0.05, n=60, k=3)
    rng = np.random.default_rng(8) if case == "shared" else 7
    est = gradient_oracle(A, params, 2, rng=rng, seed_key=(5,), lanczos_tol=1e-6)
    digest = hashlib.sha256(est.vectors.tobytes()).hexdigest()[:16]
    assert (est.value.hex(), digest, est.cost_eigvecs) == _ORACLE_GOLDEN[case]
