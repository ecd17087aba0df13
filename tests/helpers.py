"""Shared test utilities: random problem generators, an independent
brute-force oracle for the constrained covariance solve, a reference
column update, process-pool and density-call recorders, and the exact
E-step of models with closed-form posterior moments.

The oracle minimizes the Gaussian negative log-likelihood objective
logdet(Sigma) + tr(Sigma^{-1} Xtilde) over the free entries directly
with restarted BFGS on the analytic gradient and a positive-definiteness
barrier.  It shares no code with the production solver: it lays out the
free entries itself (``free_positions``).
"""

import concurrent.futures

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import minimize

from zeromix.covariance import ZeroPattern
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

    Factors with ``np.linalg.cholesky`` and solves with scipy's checked
    ``cho_solve``, in the order the package's kernel solves, so a kernel
    whose arithmetic drifts by one bit no longer replays through it.
    Returns the updated plain array.
    """
    cur = np.array(sigma, dtype=float)
    jj = j - 1
    rest = [t for t in range(cur.shape[0]) if t != jj]
    free = [t for t, r in enumerate(rest) if (r + 1, j) not in pattern]
    ix = np.ix_(rest, rest)
    m_uu, h_vu, v_vv = xtilde[ix], xtilde[rest, jj], float(xtilde[jj, jj])
    chol_a = np.linalg.cholesky(cur[ix])
    b_opt = np.zeros(len(rest))
    if free:
        ainv_m = cho_solve((chol_a, True), m_uu)
        g_full = cho_solve((chol_a, True), ainv_m.T)
        g_full = 0.5 * (g_full + g_full.T)
        h_full = cho_solve((chol_a, True), h_vu)
        chol_g = np.linalg.cholesky(g_full[np.ix_(free, free)])
        b_opt[free] = cho_solve((chol_g, True), h_full[free])
    beta = cho_solve((chol_a, True), b_opt)
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
