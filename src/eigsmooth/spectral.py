"""Dense symmetric spectral kernel.

Leading eigenpairs by randomized Lanczos with restarts of any operator with
a square `shape` and a product ``A @ q``, full symmetric decompositions, and
the rise of the top eigenvalue under rank-one updates (secular equation).

Every secular equation in the package (the phase lab's batches of weight
rows, and its t0) goes through one row-vectorized solver. Its step is the
root of a two-pole rational model of the equation, with Newton's step and
bisection as fallbacks. Exactly equal eigenvalues are one pole: after
deflation their weights are summed, one term per distinct eigenvalue. Like
Lanczos, it either converges or raises SpectralError; it never returns a
silently unconverged answer.

The kernel's limits are constants: a Lanczos run makes at most
`_LANCZOS_ATTEMPTS` = 3 attempts of `lanczos_iteration_budget` steps, and a
rank-one secular solve runs to relative precision `_SECULAR_TOL` = 1e-13
within `_SECULAR_MAX_ITER` = 120 evaluations.

Every matrix is validated by the one `check_symmetric` where it enters, and
handed back as is when exactly symmetric, so validation copies nothing;
`lanczos_leading` trusts its operator's symmetry and tests each step's alpha
for finiteness. Beside `check_symmetric` stand the one rule of every count (a
size, a budget, a number of draws, a seed), `_check_count`, of every scale
(eps, a step scale, a radius, a gap), `check_finite_positive`, and of every
relative precision handed to Lanczos, `_check_tolerance`; every module applies
them where its inputs enter. Every data file (a matrix, a sample table, a
spectrum) is parsed by the one reader `_read_rows` and shaped by `_table`;
each fault names `path:line`. All routines are pure functions of their inputs
plus an explicit seeded random stream, so they are safe to call concurrently.

Cost accounting: every leading eigenpair produced counts as one
"eigenvector unit" regardless of how many matrix-vector products it took;
a full decomposition counts as n units. Callers charge them where the work
is done. Raw matrix-vector product counts are kept on `EigPair.matvecs`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralError",
    "LanczosConvergenceError",
    "EigPair",
    "SpectralDecomp",
    "symmetrize",
    "check_symmetric",
    "check_finite_positive",
    "full_eig",
    "lanczos_iteration_budget",
    "lanczos_leading",
    "secular_shifts_batch",
]

# Weights below this fraction of the total are deflated out of the secular
# equation: they are rounding noise and would otherwise create spurious poles.
_DEFLATE_REL = 1e-14

# Lanczos budgets guarantee their precision with this failure probability.
_LANCZOS_FAIL_PROB = 0.01

# Lanczos attempts per run, each from a fresh start vector.
_LANCZOS_ATTEMPTS = 3

# Relative step and evaluation limits of every rank-one secular solve.
_SECULAR_TOL = 1e-13
_SECULAR_MAX_ITER = 120

# A secular residual within this many roundoffs of 1/scale is at the root to
# working precision: further steps would only hop between the floats around it.
_ROUNDING_FLOOR = 4.0 * np.finfo(float).eps


class SpectralError(Exception):
    """Base class for spectral kernel failures."""


class LanczosConvergenceError(SpectralError):
    """Lanczos failed to reach tolerance within its iteration and restart budget."""


def symmetrize(X):
    """Exact symmetrization X/2 + X^T/2: it equals (X + X^T) / 2 wherever
    halving is exact, and does not overflow where X + X^T would."""
    X = np.asarray(X, dtype=float)
    return 0.5 * X + 0.5 * X.T


def check_symmetric(X, tol=1e-12):
    """Validate a square real matrix and return it exactly symmetric, with no
    copy: ``np.asarray(X, float)`` itself when that is exactly symmetric, else
    its exact symmetrization as a new array. A caller that keeps it copies it.

    Rejects non-square shapes, non-finite entries, and asymmetry beyond
    ``tol * max(1, max|X|)``.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {X.shape}")
    # NaN and inf carry through the extremes, so they double as the finiteness check.
    top, bottom = (float(X.max()), float(X.min())) if X.size else (0.0, 0.0)
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError("matrix entries must be finite")
    if np.array_equal(X, X.T):
        return X
    # Halves cannot overflow where X - X^T can; halving keeps the test and message.
    half = 0.5 * X
    asym = float(np.max(np.abs(half - half.T)))
    if asym > 0.5 * tol * max(1.0, top, -bottom):
        raise ValueError(f"matrix is not symmetric: max |X - X^T| = {2.0 * asym:.3e}")
    return half + half.T


def _check_count(name, value, minimum):
    """The rule of every count: an int or numpy integer of at least `minimum`,
    never a bool, truncated from a float or parsed from a string. Returns `value`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return value


def check_finite_positive(name, value):
    """The rule of every scale: finite and positive, so NaN and inf fail too."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_tolerance(name, value):
    """The rule of a relative precision handed to Lanczos: inside (0, 1), so NaN fails too."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def _read_rows(path, header):
    """The one data-file reader: each non-blank line of `path` as (line number,
    values). With `header` the first line's values are positive integers; every
    other value is a finite float. A fault is a ValueError naming `path:line`."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not (tokens := line.split()):
                continue
            first = header and not rows
            try:
                values = [int(t) if first else float(t) for t in tokens]
            except ValueError:
                values = []
            if first and not (values and min(values) > 0):
                raise ValueError(f"{path}:{lineno}: the header must hold positive integers")
            if not values:
                raise ValueError(f"{path}:{lineno}: non-numeric entry")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{lineno}: entries must be finite")
            rows.append((lineno, values))
    if not rows:
        raise ValueError(f"{path}: empty file")
    return rows


def _table(path, rows, m, n):
    """Rows from `_read_rows` as an m x n array; a row too short, too long or
    past the m-th is named by its line."""
    for i, (lineno, values) in enumerate(rows):
        if i == m or len(values) != n:
            raise ValueError(f"{path}:{lineno}: expected {m} rows of {n} values, "
                             f"row {i + 1} holds {len(values)}")
    if len(rows) < m:
        raise ValueError(f"{path}: expected {m} rows of {n} values, found {len(rows)}")
    return np.array([values for _, values in rows])


@dataclass
class EigPair:
    """A leading eigenpair, one eigenvector unit.

    `vector` is unit norm with its first nonzero coordinate positive.
    `matvecs` records raw matrix-vector products.
    """

    value: float
    vector: np.ndarray
    matvecs: int = 0


@dataclass
class SpectralDecomp:
    """Full symmetric eigendecomposition (n eigenvector units), eigenvalues decreasing.

    Columns of `vectors` are orthonormal eigenvectors, so
    ``X = vectors @ diag(values) @ vectors.T``.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self):
        return self.values.shape[0]


def _canonical_sign(vecs):
    """Negate in place each vector (the last axis) whose first nonzero entry is negative."""
    first = np.argmax(vecs != 0.0, axis=-1)
    lead = np.take_along_axis(vecs, first[..., None], axis=-1)
    return np.negative(vecs, out=vecs, where=lead < 0.0)


def full_eig(X):
    """Full decomposition through a dense symmetric eigensolver.

    Values come out in decreasing order with stable tie-breaking; each
    eigenvector is normalized with its first nonzero coordinate positive.
    Costs n eigenvector units. X is validated by `check_symmetric`; beyond
    eigh's output it allocates the reordered vectors, and a symmetrized X
    only if X is not exactly symmetric.
    """
    X = check_symmetric(X)
    w, V = np.linalg.eigh(X)
    order = np.argsort(-w, kind="stable")
    w, V = w[order], V.take(order, axis=1)
    _canonical_sign(V.T)
    return SpectralDecomp(values=w, vectors=V)


def lanczos_iteration_budget(n, rel_tol):
    """Matrix-vector budget guaranteeing relative precision `rel_tol` with
    probability 1 - p, p = 0.01, from a uniform random start:
    ceil(log(n / p^2) / (4 sqrt(rel_tol)))."""
    _check_count("n", n, 1)
    _check_tolerance("rel_tol", rel_tol)
    return int(math.ceil(math.log(n / _LANCZOS_FAIL_PROB**2) / (4.0 * math.sqrt(rel_tol))))


def lanczos_leading(A, rel_tol, *, rng):
    """Leading eigenpair by Lanczos with full reorthogonalization.

    The start vector is drawn uniformly on the sphere from the seeded `rng`.
    An attempt takes at most ``min(lanczos_iteration_budget(n, rel_tol), n)``
    steps (failure probability 0.01). The run is restarted with a fresh
    start vector on stagnation (budget exhausted or premature breakdown
    without a converged top pair), `_LANCZOS_ATTEMPTS` attempts in all. On
    success the Ritz residual satisfies ``||A v - value v|| <= rel_tol *
    max(1, |value|)`` and the pair counts as one eigenvector unit.

    A is an n x n array or any symmetric operator with a square `shape`
    whose ``A @ q`` returns a new vector. Its symmetry is trusted, its shape
    is checked up front (a missing one fails), and a step whose alpha is
    not finite raises ValueError. Breakdown is judged from the tridiagonal
    alone; the workspace grows with the steps. At n = 1 the one step breaks
    down at once and its 1 x 1 Ritz pair is the answer.

    Raises LanczosConvergenceError after `_LANCZOS_ATTEMPTS` failed
    attempts; never returns a silently unconverged answer.
    """
    shape = getattr(A, "shape", ())
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    n = shape[0]
    # The Krylov space is the whole space after n steps; more cannot help.
    steps = min(lanczos_iteration_budget(n, rel_tol), n)
    total_matvecs = 0
    for _ in range(_LANCZOS_ATTEMPTS):
        pair, used = _lanczos_attempt(A, n, steps, rel_tol, rng)
        total_matvecs += used
        if pair is not None:
            pair.matvecs = total_matvecs
            return pair
    raise LanczosConvergenceError(
        f"no convergence to rel_tol={rel_tol:g} after {_LANCZOS_ATTEMPTS} attempts "
        f"of {steps} iterations (n={n})"
    )


def _lanczos_attempt(A, n, steps, rel_tol, rng):
    """At most `steps` <= n steps from a fresh start: (certified pair or None, matvecs)."""
    # Basis Q and tridiagonal T start at 32 columns and double when full; a
    # decoupled step (breakdown) leaves its coupling in T zero.
    cap = min(steps, 32)
    Q, T = np.empty((n, cap)), np.zeros((cap + 1, cap + 1))
    # A converged residual is only trusted once a few dimensions are spanned;
    # this guards against start vectors that are themselves eigenvectors of a
    # non-leading eigenvalue (residual zero, wrong answer).
    min_span = min(3, steps)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    # Breakdown scale: T = Q^T A Q, so its largest |alpha| or beta bounds ||A||_2 below.
    breakdown = 1e-14
    for j in range(steps):
        if j == cap:
            cap = min(2 * cap, steps)
            Q, T = np.pad(Q, ((0, 0), (0, cap - j))), np.pad(T, (0, cap - j))
        Q[:, j] = q
        w = A @ q
        T[j, j] = alpha = float(q @ w)
        if not math.isfinite(alpha):  # before w -= alpha q could raise a RuntimeWarning
            raise ValueError("matrix entries must be finite")
        w -= alpha * q
        if j > 0:  # after a decoupling the coupling T[j, j - 1] is zero
            w -= T[j, j - 1] * Q[:, j - 1]
        # Full reorthogonalization, two passes: correctness over speed.
        basis = Q[:, : j + 1]
        w -= basis @ (basis.T @ w)
        w -= basis @ (basis.T @ w)
        beta = math.sqrt(w @ w)
        breakdown = max(breakdown, 1e-14 * max(abs(alpha), beta))
        span = j + 1
        if span >= min_span and (span == steps or beta <= breakdown or j < 32 or j % 4 == 0):
            ritz, S = np.linalg.eigh(T[:span, :span])
            theta, s = float(ritz[-1]), S[:, -1]
            if abs(beta * s[-1]) <= rel_tol * max(1.0, abs(theta)):
                vec = Q[:, :span] @ s
                vec /= np.linalg.norm(vec)
                _canonical_sign(vec)
                return EigPair(value=theta, vector=vec), span
        if beta <= breakdown:
            if span == steps:
                # Nothing left to span within the budget: hand back for restart.
                return None, span
            # The spanned subspace is invariant but not certified: decouple
            # (zero coupling) and continue from a fresh orthogonal direction.
            q = rng.standard_normal(n)
            q -= basis @ (basis.T @ q)
            q -= basis @ (basis.T @ q)
            norm = float(np.linalg.norm(q))
            if norm <= breakdown:
                return None, span
            q /= norm
        else:
            T[span, j] = T[j, span] = beta
            q = w / beta
    return None, steps


def _secular_newton(D, W, scale, lo, hi):
    """Roots of s_i(t) = 1/scale - sum_j W_ij / (D_ij + t), one per row of W.

    `D` holds the pole offsets, shape (n,) for all rows or (m, n). Each s_i
    is increasing and concave on its bracket [lo_i, hi_i], lo_i >= 0, and
    the iteration starts at lo_i. Each step solves a rational model of
    s_i (Bunch, Nielsen & Sorensen 1978): the term of the row's nearest pole
    offset p_i stays exact, and the other terms are fitted, in value and
    slope at t, by one pole at the next offset p_i + delta_i (delta_i = 1 if
    there is none). The model lies below s_i, so its root is never below
    the true one, and from the first step on the iterates fall onto the
    root from above, fast also where the nearest pole dominates. Where the
    model has no positive root the step is Newton's, and a step leaving the
    bracket, which each evaluation tightens, is replaced by bisection. A
    row's root is fixed once its step is within `_SECULAR_TOL` of t or its
    residual reaches the rounding floor (where a step leaving the bracket
    falls back to the evaluated t). Fixed rows leave the active set as soon
    as that does not raise peak memory. Returns (roots, evaluations per
    row); raises SpectralError if some row is not fixed after
    `_SECULAR_MAX_ITER` evaluations.
    """
    m = W.shape[0]
    roots = np.empty(m)
    iterations = np.zeros(m, dtype=int)
    if not m:
        return roots, iterations
    rows = np.arange(m)
    floor = _ROUNDING_FLOOR / scale
    p = D.min(axis=-1, keepdims=True)
    near = D == p
    nxt = np.where(near, np.inf, D).min(axis=-1)
    # Per-row state in one stack, so that dropping the fixed rows is one
    # index: the bracket, p, delta, the weight Wp at p and 2 Wp delta.
    S = np.empty((6, m))
    S[0], S[1], S[2] = lo, hi, p[..., 0]
    S[3] = np.where(nxt < np.inf, nxt - p[..., 0], 1.0)
    S[4] = np.add.reduce(W, axis=1, where=near)
    S[5] = 2.0 * S[4] * S[3]
    del near
    lo, hi, p, delta, Wp, c2 = S
    t = lo.copy()
    live, left = np.ones(m, dtype=bool), m  # rows carried and not yet fixed
    inv_scale = 1.0 / scale
    for it in range(1, _SECULAR_MAX_ITER + 1):
        denom = D + t[:, None]
        terms = W / denom
        s = inv_scale - terms.sum(axis=1)
        sp = np.divide(terms, denom, out=terms).sum(axis=1)
        del denom, terms
        np.copyto(lo, t, where=s < 0.0)
        np.copyto(hi, t, where=s > 0.0)
        # Fitted at t, the model is r - Wp / u - b / (u + delta) in u = p + t,
        # with b = (p + delta + t)^2 h' for the slope h' of the far terms.
        a = t + p
        e = Wp / a
        a2 = a + delta
        bt = a2 * (sp - e / a)
        r = s + e + bt
        newton = r <= 0.0
        fallback = np.count_nonzero(newton)
        if fallback:
            np.copyto(r, 1.0, where=newton)  # any r > 0: these rows take Newton's step
        # Its root is the positive root of r u^2 + B u - Wp delta = 0, from
        # the branch of the quadratic formula free of cancellation for B's sign.
        B = r * delta - Wp - a2 * bt
        r2 = r + r
        A = np.sqrt(B * B + r2 * c2) + np.abs(B)
        t_new = np.divide(c2, A, out=A / r2, where=B > 0.0) - p
        if fallback:
            np.copyto(t_new, t - s / sp, where=newton)
        at_floor = np.abs(s) <= floor
        outside = ~((lo <= t_new) & (t_new <= hi))
        if np.count_nonzero(outside):
            # A row at the rounding floor keeps its evaluated t: its bracket
            # may have closed onto t, and bisection would leave the root.
            np.copyto(t_new, np.where(at_floor, t, 0.5 * (lo + hi)), where=outside)
        done = (np.abs(t_new - t) <= _SECULAR_TOL * t_new) | at_floor
        fixed = done & live
        count = np.count_nonzero(fixed)
        t = t_new
        if count:
            roots[rows[fixed]], iterations[rows[fixed]] = t_new[fixed], it
            live ^= fixed
            left -= count
            if not left:
                return roots, iterations
            # Fixed rows are dropped once the copies of the live rows (W, and
            # D if 2-d) and the next evaluation's denom and terms fit in the
            # two arrays this evaluation released.
            if (D.ndim + 2) * left <= 2 * live.size:
                t, rows, W, S = t[live], rows[live], W[live], S[:, live]
                lo, hi, p, delta, Wp, c2 = S
                if D.ndim == 2:
                    D = D[live]
                live = np.ones(left, dtype=bool)
    raise SpectralError(
        f"secular solver did not converge to rel_tol={_SECULAR_TOL:g} within "
        f"{_SECULAR_MAX_ITER} iterations on {left} of {m} rows"
    )


def _secular_shifts(lambdas, weights, scale):
    """Validated secular roots for weight rows over one decreasing spectrum.
    Returns (shifts, degenerate flags, iterations).

    Weights below 1e-14 of their row total are deflated; then the columns of
    exactly equal eigenvalues (no tolerance) are summed into one pole each.
    A row whose leading-eigenspace weight deflates away is degenerate: the
    update only moves the eigenvalues it touches, so the row is solved
    relative to the first eigenvalue it keeps (`off` below the top), and the
    top moves by max(0, root - off), exactly zero when the root sits at the
    pole. The merge leaves `off` and the degenerate flags as they were.
    """
    lam = np.asarray(lambdas, dtype=float)
    W = np.asarray(weights, dtype=float)
    if lam.ndim != 1 or W.ndim != 2 or W.shape[1] != lam.shape[0]:
        raise ValueError("lambdas must be a 1-d array and weight rows of the same length")
    check_finite_positive("scale", scale)  # NaN and inf too: no solve survives them
    # One pass takes the row minima for this check and the deflation flag. They
    # skip NaN, which the finiteness check below catches.
    mins = np.fmin.reduce(W, axis=1, initial=np.inf)
    if np.count_nonzero(mins < 0.0):
        raise ValueError("weights must be nonnegative")
    if np.count_nonzero(lam[1:] > lam[:-1]):
        raise ValueError("lambdas must be in decreasing order")
    totals = W.sum(axis=1)
    # A NaN or +inf weight makes its row total non-finite: no pass over W.
    if np.count_nonzero(~np.isfinite(totals)):
        raise ValueError("weights must be finite")
    if np.count_nonzero(totals <= 0.0):
        raise ValueError("all weights vanish in some row")
    # Only rows with an entry at or below the deflation level are copied.
    flag = np.flatnonzero(mins <= _DEFLATE_REL * totals)
    Wf = W[flag]
    Wf[Wf <= _DEFLATE_REL * totals[flag, None]] = 0.0
    totals[flag] = Wf.sum(axis=1)
    d, merged = lam[0] - lam, np.count_nonzero(lam[1:] == lam[:-1])
    if merged:
        # Equal eigenvalues are one pole: one weight column per distinct value.
        runs = np.flatnonzero(np.concatenate(([True], lam[1:] != lam[:-1])))
        W, Wf, d = np.add.reduceat(W, runs, axis=1), np.add.reduceat(Wf, runs, axis=1), d[runs]
    if flag.size:
        W = W if merged else W.copy()
        W[flag] = Wf
    # The kept weights are the positive ones; undeflated rows keep the top pole.
    off = np.full(W.shape[0], d[0])
    off[flag] = d[np.argmax(Wf > 0.0, axis=1)]
    degenerate = off > 0.0
    # Clamping puts every pole above the kept ones at zero offset; those
    # entries carry no weight, so their terms vanish.
    D = np.maximum(d - off[:, None], 0.0) if np.count_nonzero(degenerate) else d
    lo = scale * np.add.reduce(W, axis=1, where=D == 0.0)
    hi = scale * totals
    t, iterations = _secular_newton(D, W, scale, lo, hi)
    return np.maximum(t - off, 0.0), degenerate, iterations


def secular_shifts_batch(lambdas, weights, scale):
    """Vectorized secular roots for many weight rows over one spectrum.

    Row i of `weights` (m, n) holds the squared eigenbasis coordinates of an
    update vector v_i; the i-th shift is the rise of the top eigenvalue under
    ``X + scale * v_i v_i^T``, the positive root t of 1/scale = sum_j w_ij /
    ((lambda_1 - lambda_j) + t) in [scale * w_top, scale * sum_j w_ij], w_top
    the row's weight on the leading eigenspace. Weights below 1e-14 of their
    row total are deflated, then those of exactly equal eigenvalues summed
    into one pole. A row left with no weight on the leading eigenspace is
    solved relative to the first eigenvalue it keeps, at offset d below the
    top, and the top rises by max(0, t - d): exactly zero when the root sits
    at the pole. One solve either converges on every row to `_SECULAR_TOL`
    or raises SpectralError after `_SECULAR_MAX_ITER` evaluations. It
    copies only the rows that deflation zeroes (all of W if some are and no
    eigenvalues tie) and allocates m x (distinct eigenvalues) arrays;
    `weights` is never written.
    """
    return _secular_shifts(lambdas, np.atleast_2d(weights), scale)[0]
