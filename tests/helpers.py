"""Shared test utilities: random problem generators, an independent
brute-force oracle for the constrained covariance solve, a reference
column update with plain-sweep and Newton-finished reference solves
built on it (the latter from the solver's cold start), process-pool
and density-call recorders, the row counts of the density calls one
``Draws.score`` makes and the inputs that vary them, and the exact
E-step of models with closed-form posterior moments.

The oracle minimizes the Gaussian negative log-likelihood objective
logdet(Sigma) + tr(Sigma^{-1} Xtilde) over the free entries directly
with restarted BFGS on the analytic gradient and a positive-definiteness
barrier.  It shares no code with the production solver: it lays out the
free entries itself (``free_positions``).
"""

import concurrent.futures

import numpy as np
from scipy.optimize import minimize

from zeromix import models
from zeromix.covariance import SpdMatrix, ZeroPattern
from zeromix.harness import cortisol_example
from zeromix.mcem import EStepOutput


def record_pools(monkeypatch):
    """List the ``max_workers`` of every process pool started from now on."""
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


def record_density_calls(monkeypatch, model_class):
    """List ``(theta, hash of the latent draws, row count)`` of every
    ``log_cond_density_pairs`` call on ``model_class`` from now on."""
    calls = []
    density = model_class.log_cond_density_pairs

    def recording(self, ys, xs, theta):
        xs = np.asarray(xs)
        calls.append((float(theta), hash(xs.tobytes()), xs.shape[0]))
        return density(self, ys, xs, theta)

    monkeypatch.setattr(model_class, "log_cond_density_pairs", recording)
    return calls


def slice_rows(rows):
    """Row counts of the density calls of one ``Draws.score`` over ``rows``
    rows: full ``models._BLOCK_ROWS`` slices, the last one shorter."""
    block = models._BLOCK_ROWS
    return [min(block, rows - start) for start in range(0, rows, block)]


def block_size_case(name):
    """``(model, data, m, sigma, theta, pattern)``, data in id order, for
    the checks that scores do not depend on the density-call size: the
    bundled example at its initial point, or 8 individuals simulated at
    the example's initial point by a cortisol model at 12 doses, or at a
    tridiagonal Sigma by the linear-Gaussian model at q = 8."""
    data, cfg = cortisol_example()
    st = cfg.init
    if name == "example":
        return cfg.model, data.for_model(cfg.model), st.m, st.sigma, st.theta, cfg.pattern
    if name == "cortisol12":
        model = models.CortisolModel(models.DEFAULT_DOSES + (20.0, 0.02, 0.05, 0.2, 5.0))
        m, sigma, theta, pattern = st.m, st.sigma, st.theta, cfg.pattern
    else:
        model, m, theta = models.LinearGaussianModel(8), np.linspace(-1.0, 1.0, 8), 0.5
        sigma = SpdMatrix(np.eye(8) + 0.3 * (np.eye(8, k=1) + np.eye(8, k=-1)))
        pattern = ZeroPattern([(i, j) for j in range(3, 9) for i in range(1, j - 1)], dim=8)
    data, _ = models.simulate_dataset(model, m, sigma, theta, 8, 11)
    return model, data.for_model(model), m, sigma, theta, pattern


def random_spd(rng, q, dof_extra=5):
    """Well-scaled random SPD matrix (Wishart-style)."""
    g = rng.standard_normal((q + dof_extra, q))
    return g.T @ g / (q + dof_extra)


def random_pattern(rng, q, max_pairs=3):
    """Random valid zero pattern with 1..max_pairs distinct pairs."""
    pairs = [(i, j) for j in range(2, q + 1) for i in range(1, j)]
    k = int(rng.integers(1, max_pairs + 1))
    chosen = rng.choice(len(pairs), size=min(k, len(pairs)), replace=False)
    return ZeroPattern([pairs[c] for c in chosen], dim=q)


def _objective_and_gradient(vec, rows, cols, xtilde):
    """Objective at the free entries ``vec`` (at ``rows``, ``cols``) and
    its gradient; inf off the positive definite cone.

    With G = Sigma^-1 - Sigma^-1 Xtilde Sigma^-1, the derivative is G_ii
    for a diagonal entry and 2 G_ij for an off-diagonal pair.
    """
    sigma = np.zeros_like(xtilde)
    sigma[rows, cols] = vec
    sigma[cols, rows] = vec
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        return np.inf, np.zeros_like(vec)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    inv = np.linalg.inv(sigma)
    w = inv @ xtilde
    g = inv - w @ inv
    grad = np.where(rows == cols, 1.0, 2.0) * g[rows, cols]
    return logdet + float(np.trace(w)), grad


def free_positions(pattern):
    """Row and column indices of the unconstrained lower-triangle entries,
    diagonal included, in row-major order."""
    rows, cols = np.tril_indices(pattern.dim)
    keep = [(c + 1, r + 1) not in pattern for r, c in zip(rows, cols)]
    return rows[keep], cols[keep]


def pack_raw(sigma, pattern):
    return np.asarray(sigma)[free_positions(pattern)]


def brute_force_constrained_objective(xtilde, pattern, starts, max_restarts=3):
    """Best objective found by restarted BFGS over the free entries."""
    rows, cols = free_positions(pattern)
    best = np.inf
    for start in starts:
        x = np.asarray(start, dtype=float)
        fval, _ = _objective_and_gradient(x, rows, cols, xtilde)
        for _ in range(max_restarts):
            res = minimize(
                _objective_and_gradient, x, args=(rows, cols, xtilde),
                jac=True, method="BFGS", options={"gtol": 1e-12, "maxiter": 1000},
            )
            improved = fval - res.fun
            x, fval = res.x, float(res.fun)
            if improved < 1e-12:
                break
        best = min(best, fval)
    return best


def oracle_starts(xtilde, pattern):
    """Two independent starting points: diagonal and repaired zero-forcing."""
    from zeromix.covariance import min_eig_repair, zero_forced
    diag_start = pack_raw(np.diag(np.diag(xtilde)), pattern)
    zf = zero_forced(xtilde, pattern)
    repaired = min_eig_repair(zf, 100).values
    return [diag_start, pack_raw(repaired, pattern)]


def reference_column_update(sigma, xtilde, j, pattern):
    """One ICF column update by the original call sequence.

    Factors with ``np.linalg.cholesky`` and solves with the checked
    ``np.linalg.solve``, in the order the package's kernel solves and on
    the same blocks (A, and [M_uu | h_vu] against it), so a kernel whose
    arithmetic drifts by one bit no longer replays through it.  Returns
    the updated plain array.
    """
    cur = np.array(sigma, dtype=float)
    jj = j - 1
    rest = [t for t in range(cur.shape[0]) if t != jj]
    free = [t for t, r in enumerate(rest) if (r + 1, j) not in pattern]
    a = cur[np.ix_(rest, rest)]
    mh = xtilde[np.ix_(rest, rest + [jj])]
    m_uu, h_vu, v_vv = mh[:, :-1], mh[:, -1], float(xtilde[jj, jj])
    np.linalg.cholesky(a)
    b_opt = np.zeros(len(rest))
    if free:
        ainv_mh = np.linalg.solve(a, mh)
        g_full = np.linalg.solve(a, ainv_mh[:, :-1].T)
        g_full = 0.5 * (g_full + g_full.T)
        g = g_full[np.ix_(free, free)]
        np.linalg.cholesky(g)
        b_opt[free] = np.linalg.solve(g, ainv_mh[free, -1])
    beta = np.linalg.solve(a, b_opt)
    s_opt = v_vv - 2.0 * float(beta @ h_vu) + float(beta @ m_uu @ beta)
    cur[rest, jj] = b_opt
    cur[jj, rest] = b_opt
    cur[jj, jj] = s_opt + float(b_opt @ beta)
    return cur


def reference_icf_solve(xtilde, pattern, tol=1e-8, max_sweeps=500):
    """Cold-start sweeps of ``reference_column_update`` until the relative
    Frobenius change of a sweep drops below ``tol``; returns the plain
    array and the sweep count.
    """
    cur = np.diag(np.diag(xtilde))
    for sweeps in range(1, max_sweeps + 1):
        prev = cur
        for j in range(1, pattern.dim + 1):
            cur = reference_column_update(cur, xtilde, j, pattern)
        if np.linalg.norm(cur - prev) / np.linalg.norm(prev) < tol:
            break
    return cur, sweeps


def reference_newton_step(sigma, xtilde, pattern):
    """One damped Newton step of the solve on the free lower-triangle
    entries, by numpy's factor, ``np.linalg.inv`` and ``np.linalg.solve``;
    returns the plain array, or None where the step fails.

    In the frame scaled by 2^e, with max|Sigma| in [2^(e-1), 2^e),
    S = Sigma^-1 = L^-T L^-1 (Sigma = L L', L^-1 by ``np.linalg.inv``)
    and B = 2 S X-tilde S - S, the gradient at a free entry
    a = (i, j) is (2 - delta_ij)(S - S X-tilde S)_ij and the Hessian at
    a, b = (k, l) is w_a w_b (S_jk B_li + S_jl B_ki + S_ik B_lj + S_il B_kj),
    w = 1/2 on the diagonal and 1 elsewhere.  S and B are symmetric; their
    entries are read from the triangles the package reads, in its order
    of operations, so the step has the package's bits.  The step solves
    H d = -g and is halved at most four times; a candidate is taken when
    it factors and its objective change, -tr(Sigma^-1 X-tilde
    (Sigma + D)^-1 D) plus the sum of log1p of the eigenvalues of
    L^-1 D L^-T, is negative,
    summed in the package's order: where a step barely changes the
    objective, the sign of that sum is the rounding of its terms.
    """
    e = np.frexp(np.abs(sigma).max())[1]
    s, xts = np.ldexp(sigma, -e), np.ldexp(xtilde, -e)
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    rows, cols = free_positions(pattern)
    linv = np.linalg.inv(chol)
    inv = linv.T @ linv
    sx = inv @ xts
    p = sx @ inv
    grad = np.where(rows == cols, 1.0, 2.0) * (inv - p)[rows, cols]
    b = 2.0 * p - inv
    w = np.where(rows == cols, 0.5, 1.0)
    r, c = rows[:, None], cols[:, None]
    hess = np.outer(w, w) * (inv[c, rows] * b[r, cols] + inv[c, cols] * b[r, rows]
                             + inv[r, rows] * b[c, cols] + inv[r, cols] * b[c, rows])
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return None
    step = np.linalg.solve(hess, -grad)
    for _ in range(5):
        delta = np.zeros_like(s)
        delta[rows, cols] = step
        delta[cols, rows] = step
        cand = s + delta
        try:
            np.linalg.cholesky(cand)
        except np.linalg.LinAlgError:
            step = step * 0.5
            continue
        half = linv @ delta @ linv.T
        change = (-float(np.sum(sx * np.linalg.solve(cand, delta).T))
                  + float(np.sum(np.log1p(np.linalg.eigvalsh(half)))))
        if change < 0.0:
            return np.ldexp(cand, e)
        step = step * 0.5
    return None


def reference_cold_start(xtilde, pattern):
    """The solve's cold start and the sweeps it takes before its first
    Newton step: X-tilde with the pattern's entries set to 0.0 and one
    sweep where that matrix, scaled by 2^-e with its max|entry| in
    [2^(e-1), 2^e), passes ``np.linalg.cholesky``; the diagonal of
    X-tilde and two sweeps otherwise.
    """
    zf = np.array(xtilde, dtype=float)
    for i, j in pattern.pairs:
        zf[i - 1, j - 1] = zf[j - 1, i - 1] = 0.0
    try:
        np.linalg.cholesky(np.ldexp(zf, -np.frexp(np.abs(zf).max())[1]))
    except np.linalg.LinAlgError:
        return np.diag(np.diag(xtilde)), 2
    return zf, 1


def reference_newton_icf_solve(xtilde, pattern, tol=1e-8, max_sweeps=500,
                               update=reference_column_update):
    """Cold-start solve by ``update`` sweeps finished by Newton steps;
    returns the plain array, the sweep count and the Newton step count.

    The solve starts at ``reference_cold_start``.  Its first one or two
    iterations, as that says, are sweeps; each later one is a
    ``reference_newton_step``, or a sweep where that fails.  The solve
    stops at the first iteration whose relative Frobenius change, scaled
    by 2^-e with max|previous iterate| in [2^(e-1), 2^e), drops below
    ``tol``, or after ``max_sweeps`` iterations.
    ``update(sigma, xtilde, j, pattern)`` returns the plain array after
    one column update.
    """
    cur, first_newton = reference_cold_start(xtilde, pattern)
    sweeps = newton_steps = 0
    while sweeps + newton_steps < max_sweeps:
        prev = cur
        cur = reference_newton_step(prev, xtilde, pattern) if sweeps >= first_newton else None
        if cur is None:
            cur = prev
            for j in range(1, pattern.dim + 1):
                cur = update(cur, xtilde, j, pattern)
            sweeps += 1
        else:
            newton_steps += 1
        e = np.frexp(np.abs(prev).max())[1]
        change = np.linalg.norm(np.ldexp(cur - prev, -e))
        if change / np.linalg.norm(np.ldexp(prev, -e)) < tol:
            break
    return cur, sweeps, newton_steps


def exact_estep(model, ys, ids, m, sigma, theta, *sampler_args, **sampler_kwargs):
    """Closed-form E-step for models exposing exact posterior moments.

    Takes ``run_estep``'s arguments and ignores the sampler's ones
    (chain length, burn-in, seeds, warm starts), so it can stand in for
    the sampler inside ``fit``.
    """
    n = len(ys)
    ex = np.zeros((n, model.q))
    exx = np.zeros((n, model.q, model.q))
    tstat = np.zeros(n)
    for i in range(n):
        mean, cov = model.posterior_moments(ys[i], m, sigma, theta)
        ex[i] = mean
        exx[i] = cov + np.outer(mean, mean)
        r = ys[i] - mean
        tstat[i] = float(r @ r) + float(np.trace(cov))
    return EStepOutput(
        ex=ex,
        exx=exx,
        tstat=tstat,
        accept_rate=np.ones(n),
        domain_rejects=np.zeros(n, dtype=np.int64),
        last_states=ex.copy(),
    )
