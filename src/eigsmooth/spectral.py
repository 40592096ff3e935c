"""Dense symmetric spectral kernel.

Leading eigenpairs by randomized Lanczos with restarts, full symmetric
decompositions, rank-one updates through the secular equation with analytic
eigenvectors, and spectral-gap smoothness constants.

Every secular equation in the package (the oracle's rank-one updates, the
phase lab's batches of weight rows, and its t0) goes through one
row-vectorized solver. Its step is the root of a two-pole rational model of
the equation, with Newton's step and bisection as fallbacks. Exactly equal
eigenvalues are one pole: after deflation their weights are summed, one term
per distinct eigenvalue. Like Lanczos, it either converges or raises
SpectralError; it never returns a silently unconverged answer.

Every matrix is validated by the one `check_symmetric`, where it enters,
and handed back as is when exactly symmetric, so validation copies nothing;
`lanczos_leading` trusts the matrix its caller validated.
All routines are pure functions of their inputs plus an explicit seeded
random stream, so they are safe to call concurrently.

Cost accounting: every leading eigenpair produced counts as one
"eigenvector unit" regardless of how many matrix-vector products it took;
a full decomposition counts as n units.
Raw matrix-vector product counts are kept on `EigPair.matvecs`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralError",
    "LanczosConvergenceError",
    "NonsmoothPointError",
    "EigPair",
    "SpectralDecomp",
    "symmetrize",
    "check_symmetric",
    "load_matrix",
    "save_matrix",
    "full_eig",
    "lanczos_iteration_budget",
    "lanczos_leading",
    "secular_shifts_batch",
    "rank_one_leading",
    "local_lip_constant",
    "extremal_direction",
]

# Weights below this fraction of the total are deflated out of the secular
# equation: they are rounding noise and would otherwise create spurious poles.
_DEFLATE_REL = 1e-14

# Lanczos budgets guarantee their precision with this failure probability.
_LANCZOS_FAIL_PROB = 0.01

# A top eigenvalue within this of the second is treated as multiple.
_GAP_THRESHOLD = 1e-12

# A secular residual within this many roundoffs of 1/scale is at the root to
# working precision: further steps would only hop between the floats around it.
_ROUNDING_FLOOR = 4.0 * np.finfo(float).eps


class SpectralError(Exception):
    """Base class for spectral kernel failures."""


class LanczosConvergenceError(SpectralError):
    """Lanczos failed to reach tolerance within its iteration and restart budget."""


class NonsmoothPointError(SpectralError):
    """Top eigenvalue is (numerically) multiple; gap-based quantities are undefined."""


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


def load_matrix(path):
    """Read a matrix from the plain-text format: line 1 holds n, then n rows
    of n whitespace-separated decimals. Symmetry is validated (to
    `check_symmetric`'s 1e-12), then enforced exactly."""
    with open(path) as fh:
        raw = fh.read().split("\n")
    rows = [(i + 1, line.split()) for i, line in enumerate(raw) if line.strip()]
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    lineno, head = rows[0]
    if len(head) != 1:
        raise ValueError(f"{path}:{lineno}: first line must hold the dimension alone")
    try:
        n = int(head[0])
    except ValueError:
        raise ValueError(f"{path}:{lineno}: dimension {head[0]!r} is not an integer") from None
    if n <= 0:
        raise ValueError(f"{path}:{lineno}: dimension must be positive")
    if len(rows) - 1 != n:
        raise ValueError(f"{path}: expected {n} matrix rows, found {len(rows) - 1}")
    data = np.empty((n, n))
    for i, (lineno, tokens) in enumerate(rows[1:]):
        if len(tokens) != n:
            raise ValueError(f"{path}:{lineno}: expected {n} values, found {len(tokens)}")
        try:
            data[i] = [float(t) for t in tokens]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric entry") from None
    return check_symmetric(data)


def save_matrix(path, X):
    """Write a matrix in the plain-text format with round-trip decimals."""
    X = check_symmetric(X)
    with open(path, "w") as fh:
        fh.write(f"{X.shape[0]}\n")
        for row in X:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


@dataclass
class EigPair:
    """A leading eigenpair with its cost in eigenvector units.

    `vector` is unit norm with its first nonzero coordinate positive.
    `matvecs` records raw matrix-vector products (zero on analytic paths).
    `degenerate` marks rank-one updates whose vector was orthogonal to the
    leading eigenspace of the base matrix.
    """

    value: float
    vector: np.ndarray
    cost_eigvecs: float = 1.0
    matvecs: int = 0
    degenerate: bool = False


@dataclass
class SpectralDecomp:
    """Full symmetric eigendecomposition, eigenvalues decreasing.

    Columns of `vectors` are orthonormal eigenvectors, so
    ``X = vectors @ diag(values) @ vectors.T``.
    """

    values: np.ndarray
    vectors: np.ndarray
    cost_eigvecs: float

    @property
    def n(self):
        return self.values.shape[0]

    def coordinates(self, v):
        """Coordinates of a vector in the eigenbasis."""
        return self.vectors.T @ np.asarray(v, dtype=float)

    def reconstruct(self):
        return (self.vectors * self.values) @ self.vectors.T


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
    return SpectralDecomp(values=w, vectors=V, cost_eigvecs=float(X.shape[0]))


def lanczos_iteration_budget(n, rel_tol):
    """Matrix-vector budget guaranteeing relative precision `rel_tol` with
    probability 1 - p, p = 0.01, from a uniform random start:
    ceil(log(n / p^2) / (4 sqrt(rel_tol)))."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    return int(math.ceil(math.log(n / _LANCZOS_FAIL_PROB**2) / (4.0 * math.sqrt(rel_tol))))


def lanczos_leading(X, rel_tol=1e-8, *, rng, restart_limit=3, max_iter=None, update=None):
    """Leading eigenpair by Lanczos with full reorthogonalization.

    The start vector is drawn uniformly on the sphere from the seeded
    generator `rng`. An attempt takes at most `max_iter` steps, by default
    `lanczos_iteration_budget`'s (failure probability 0.01). The run is
    restarted with a fresh start vector on stagnation (budget exhausted or
    premature breakdown without a converged top pair). On success the Ritz
    residual satisfies ``||A v - value v|| <= rel_tol * max(1, |value|)`` for
    the operator A and the pair is charged one eigenvector unit.

    A is X, or with ``update=(scale, z)`` the operator ``X + scale * z z^T``,
    applied as ``X q + scale * z (z^T q)`` and never formed. On both paths
    X is trusted as its caller validated it (by `check_symmetric`): it is
    only converted by ``np.asarray``, and only the update pair is checked
    here. Breakdown is judged from the Lanczos tridiagonal alone, and the
    workspace grows with the steps taken.

    Raises LanczosConvergenceError after `restart_limit` failed attempts;
    never returns a silently unconverged answer.
    """
    X = np.asarray(X, dtype=float)
    if update is None:
        scale, z = 0.0, None
    else:
        scale, z = update  # a tuple other than the pair fails to unpack
        scale, z = float(scale), np.asarray(z, dtype=float)
        if not 0.0 < scale < math.inf or z.shape != X.shape[:1] or not np.all(np.isfinite(z)):
            raise ValueError(f"update must be (scale > 0, z of {X.shape[0]} finite entries)")
    n = X.shape[0]
    if n == 1:
        value = float(X[0, 0] if z is None else X[0, 0] + scale * z[0] ** 2)
        return EigPair(value=value, vector=np.ones(1), cost_eigvecs=1.0)
    budget = lanczos_iteration_budget(n, rel_tol) if max_iter is None else int(max_iter)
    # The Krylov space is the whole space after n steps; more cannot help.
    steps = max(2, min(budget, n))
    total_matvecs = 0
    for _ in range(max(1, int(restart_limit))):
        pair, used = _lanczos_attempt(X, scale, z, steps, rel_tol, rng)
        total_matvecs += used
        if pair is not None:
            pair.matvecs = total_matvecs
            return pair
    raise LanczosConvergenceError(
        f"no convergence to rel_tol={rel_tol:g} after {restart_limit} attempts "
        f"of {steps} iterations (n={n})"
    )


def _lanczos_attempt(X, scale, z, steps, rel_tol, rng):
    n = X.shape[0]
    # Basis Q and tridiagonal T start at 32 columns and double when full; a
    # decoupled step (breakdown) leaves its coupling in T zero.
    cap = min(steps, 32)
    Q, T = np.empty((n, cap)), np.zeros((cap + 1, cap + 1))
    # A converged residual is only trusted once a few dimensions are spanned;
    # this guards against start vectors that are themselves eigenvectors of a
    # non-leading eigenvalue (residual zero, wrong answer).
    min_span = min(3, n, steps)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    # Breakdown scale: T = Q^T A Q, so its largest |alpha| or beta bounds ||A||_2 below.
    matvecs, breakdown = 0, 1e-14
    for j in range(steps):
        if j == cap:
            cap = min(2 * cap, steps)
            Q, T = np.pad(Q, ((0, 0), (0, cap - j))), np.pad(T, (0, cap - j))
        Q[:, j] = q
        w = X @ q
        if z is not None:
            w += (scale * float(z @ q)) * z
        matvecs += 1
        T[j, j] = alpha = float(q @ w)
        w -= alpha * q
        if j > 0:
            w -= T[j, j - 1] * prev
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
                vec /= math.copysign(np.linalg.norm(vec), vec[np.argmax(vec != 0.0)])
                return EigPair(value=theta, vector=vec, cost_eigvecs=1.0), matvecs
        if beta <= breakdown:
            if span >= min(steps, n):
                # Nothing left to span within the budget: hand back for restart.
                return None, matvecs
            # The spanned subspace is invariant but not certified: decouple
            # (zero coupling) and continue from a fresh orthogonal direction.
            prev, q = q, rng.standard_normal(n)
            q -= basis @ (basis.T @ q)
            q -= basis @ (basis.T @ q)
            norm = float(np.linalg.norm(q))
            if norm <= breakdown:
                return None, matvecs
            q /= norm
        else:
            T[span, j] = T[j, span] = beta
            prev, q = q, w / beta
    return None, matvecs


def _secular_newton(D, W, scale, lo, hi, rel_tol, max_iter):
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
    row's root is fixed once its step is within rel_tol of t or its residual
    reaches the rounding floor (where a step leaving the bracket falls back
    to the evaluated t). Fixed rows leave the active set as soon as that
    does not raise peak memory. Returns
    (roots, evaluations per row); raises SpectralError if some row is not
    fixed after `max_iter` evaluations.
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
    for it in range(1, max_iter + 1):
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
        done = (np.abs(t_new - t) <= rel_tol * t_new) | at_floor
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
        f"secular solver did not converge to rel_tol={rel_tol:g} within {max_iter} "
        f"iterations on {left} of {m} rows"
    )


def _secular_shifts(lambdas, weights, scale, rel_tol, max_iter):
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
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if W.size and np.fmin.reduce(W, axis=None) < 0.0:
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
    flag = np.flatnonzero(W.min(axis=1) <= _DEFLATE_REL * totals)
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
    t, iterations = _secular_newton(D, W, scale, lo, hi, rel_tol, max_iter)
    return np.maximum(t - off, 0.0), degenerate, iterations


def secular_shifts_batch(lambdas, weights, scale, rel_tol=1e-13, max_iter=120):
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
    at the pole. One solve either converges on every row or raises
    SpectralError. It copies only the rows that deflation zeroes (all of W if
    some are and no eigenvalues tie) and allocates m x (distinct eigenvalues)
    arrays; `weights` is never written.
    """
    return _secular_shifts(lambdas, np.atleast_2d(weights), scale, rel_tol, max_iter)[0]


def _rank_one_top(decomp, Z, scale, rel_tol=1e-13):
    """Top eigenpairs of ``X + scale * z z^T`` from a decomposition of X, for
    m groups of k update vectors z (`Z` has shape (m, k, n)).

    Returns the top eigenvalues (m, k), the degenerate flags (m, k), each
    group's argmax (ties to the lowest index) and the winners' unit
    eigenvectors (m, n) with canonical sign. Their
    eigenbasis coordinates are coords_j / ((lambda_1 - lambda_j) + shift),
    free of cancellation; a root at the pole (shift 0) leaves the top
    eigenvector of X in place.
    """
    lam, V = decomp.values, decomp.vectors
    coords = Z @ V
    shifts, degenerate, _ = _secular_shifts(
        lam, coords.reshape(-1, lam.size) ** 2, scale, rel_tol, max_iter=120
    )
    shifts = shifts.reshape(coords.shape[:2])
    values = lam[0] + shifts
    i0 = np.argmax(values, axis=1)
    degenerate = degenerate.reshape(shifts.shape)
    groups = np.arange(Z.shape[0])
    shift = shifts[groups, i0][:, None]
    pole = shift == 0.0
    comps = coords[groups, i0] / np.where(pole, 1.0, (lam[0] - lam) + shift)
    vecs = comps @ V.T
    vecs = np.where(pole, V[:, 0], vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
    return values, degenerate, i0, _canonical_sign(vecs)


def rank_one_leading(decomp, v, eps_over_n):
    """Leading eigenpair of ``X + eps_over_n * v v^T`` from a decomposition of X.

    The eigenvalue is lambda_1 + t* with t* from the secular equation (to
    relative precision 1e-12); eigenvector coordinates in the eigenbasis are
    (coords of v)_j / (value - lambda_j), normalized and rotated back.
    Charged one eigenvector unit. Raises ValueError unless eps_over_n > 0 and v is nonzero.
    """
    v = np.asarray(v, dtype=float)
    values, degenerate, _, vecs = _rank_one_top(decomp, v[None, None, :], eps_over_n, 1e-12)
    return EigPair(
        value=float(values[0, 0]), vector=vecs[0], cost_eigvecs=1.0,
        degenerate=bool(degenerate[0, 0]),
    )


def _leading_gap(decomp):
    """lambda_1 - lambda_2; NonsmoothPointError if it is at most 1e-12."""
    gap = float(decomp.values[0] - decomp.values[1])
    if gap <= _GAP_THRESHOLD:
        raise NonsmoothPointError(
            f"spectral gap {gap:.3e} at or below threshold {_GAP_THRESHOLD:g}"
        )
    return gap


def local_lip_constant(decomp):
    """1 / (lambda_1 - lambda_2), the local Lipschitz constant of the gradient
    of the top-eigenvalue map when the top eigenvalue is simple (gap above
    1e-12)."""
    return 1.0 / _leading_gap(decomp)


def extremal_direction(decomp):
    """Unit-Frobenius symmetric direction attaining the supremum of the second
    directional derivative of the top-eigenvalue map: the normalized swap of
    the two leading eigenvectors. The gap must exceed 1e-12."""
    _leading_gap(decomp)
    p1 = decomp.vectors[:, 0]
    p2 = decomp.vectors[:, 1]
    return (np.outer(p1, p2) + np.outer(p2, p1)) / math.sqrt(2.0)
