"""Shared test utilities: random problem generators and an independent
brute-force oracle for the constrained covariance solve.

The oracle minimizes the Gaussian negative log-likelihood objective
logdet(Sigma) + tr(Sigma^{-1} Xtilde) over the free entries directly
with restarted BFGS on the analytic gradient and a positive-definiteness
barrier.  It shares no code path with the columnwise solver beyond the
entry packing order.
"""

import numpy as np
from scipy.optimize import minimize

from zeromix.covariance import ZeroPattern, free_entry_indices


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


def pack_raw(sigma, pattern):
    return np.array([sigma[i, j] for i, j in free_entry_indices(pattern)])


def brute_force_constrained_objective(xtilde, pattern, starts, max_restarts=3):
    """Best objective found by restarted BFGS over the free entries."""
    rows, cols = np.array(free_entry_indices(pattern)).T
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
