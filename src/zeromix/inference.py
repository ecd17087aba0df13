"""Observed-data likelihood, standard errors and pattern tests.

The marginal likelihood integrates the latent effects out of each
individual's conditional density; here the integral is estimated by
importance sampling with the latent prior N(m, Sigma) as proposal, so
the weights are conditional densities and log-sum-exp keeps them from
underflowing.  Rows come in id order from ``Dataset.for_model`` and
draws from the id-keyed ``Dataset.seeds`` streams, so results do not
depend on dataset order.  Draws are made and scored through
``models.Draws``, the draw-and-score path the E-step shares: the
likelihood streams one individual at a time through one of
``n_samples`` rows, so its memory does not grow with the number of
individuals.  Each individual's log weights go through a
plain-numpy row-wise log-sum-exp.  Standard errors come from a central
finite-difference Hessian of the negative log likelihood, scored in
this process; every stencil point is scored on the same standard-normal
draws (common random numbers), drawn once for the whole dataset.  The
prescribed zero pattern is tested by a chi-square likelihood ratio
with one degree of freedom per constrained pair; its tail is
``scipy.special.chdtrc``, the function ``scipy.stats.chi2.sf`` calls,
so the package never imports ``scipy.stats``.  This module alone
lays out the free parameter vector that the standard errors, the study
table and the trace share (``pack_params``, ``free_param_labels``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .covariance import SpdMatrix
from .exceptions import DegenerateWeightError, NumericalError, ValueOutOfRangeError
from .models import Draws

__all__ = [
    "LikelihoodEstimate",
    "FisherResult",
    "LrTestResult",
    "loglik_is",
    "fisher_se",
    "lr_test",
    "free_param_labels",
    "pack_params",
]


@dataclass(frozen=True)
class LikelihoodEstimate:
    """Importance-sampling estimate of the observed-data log likelihood."""

    loglik: float
    mc_se: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class LrTestResult:
    """Likelihood ratio test of the zero pattern against the free model."""

    stat: float
    df: int
    p_value: float


@dataclass
class FisherResult:
    """Standard errors for the free parameters (m, free Sigma entries, theta).

    ``se`` maps parameter label to standard error; coordinates whose
    curvature could not be inverted are absent from the map and
    ``flagged`` is set.  Constrained covariance entries are not free
    parameters and never appear.
    """

    se: dict
    labels: list
    flagged: bool


def _logsumexp_rows(a):
    """Row-wise log-sum-exp of a 2-D float array.

    The arithmetic of ``scipy.special.logsumexp(a, axis=1)``, bit for
    bit, in a quarter to a third of its time: with its array-API layer
    and input copies, scipy's took 186 vs 71 us at shape (1, 10000) and
    711 vs 177 us at (30, 1000) (best of 7 repeats, 2-core Xeon VM,
    numpy 2.4.6, scipy 1.17.1).  The row maximum is split out
    with its ties, the rest summed as exp(a - max), and the result is
    log1p(s / ties) + log(ties) + max; rows where that is not finite
    (an infinite or all -inf row) fall back to log(sum(exp(a))).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        ties = a == a_max
        rest = np.where(ties, -np.inf, a)
        rest -= a_max
        np.exp(rest, out=rest)
        s = rest.sum(axis=1)
        count = ties.sum(axis=1, dtype=float)
        np.divide(s, count, out=s, where=s != 0)
        out = np.log1p(s)
        out += np.log(count)
        out += a_max[:, 0]
        direct = ~np.isfinite(out)
        if direct.any():
            out[direct] = np.log(np.exp(a[direct]).sum(axis=1))
    return out


def _log_mean_weights(logw, ids, variance=True):
    """Per row of log weights ``logw`` (k, S), overwritten, the log mean
    weight and, if ``variance``, the delta-method variance of that log.

    Raises DegenerateWeightError naming the first of ``ids`` whose
    weights all underflow.
    """
    n_samples = logw.shape[1]
    lse1 = _logsumexp_rows(logw)
    if not np.all(np.isfinite(lse1)):
        raise DegenerateWeightError(
            "all %d importance weights underflowed for individual %s"
            % (n_samples, ids[int(np.argmin(np.isfinite(lse1)))])
        )
    log_mean = lse1 - np.log(n_samples)
    if not variance or n_samples == 1:
        return log_mean, np.zeros(len(log_mean))
    # var(log W-bar) ~ sample_var(w) / (S * w-bar^2)
    logw *= 2.0
    ratio = np.exp(_logsumexp_rows(logw) - np.log(n_samples) - 2.0 * log_mean)
    return log_mean, np.maximum(ratio - 1.0, 0.0) / (n_samples - 1)


def _check_samples(n_samples):
    if n_samples < 1:
        raise ValueOutOfRangeError("n_samples must be >= 1, got %r" % (n_samples,))


def loglik_is(model, data, m, sigma, theta, n_samples=10000, seed=0):
    """Observed-data log likelihood by prior-proposal importance sampling.

    Per individual, draws latent vectors from N(m, Sigma) and averages
    the conditional densities of the observations; the log of that
    average is the individual's contribution.  Off-domain draws carry
    zero weight.  The result is bitwise deterministic given the seed and
    unchanged by dataset reordering.  Individuals are drawn and scored
    one at a time.

    Returns
    -------
    LikelihoodEstimate
        With a delta-method Monte-Carlo standard error.

    Raises
    ------
    InputMismatchError
        If the dataset does not fit the model (see ``Dataset.for_model``).
    DegenerateWeightError
        If every weight of some individual underflows to zero.
    """
    if not isinstance(sigma, SpdMatrix):
        sigma = SpdMatrix(sigma)
    _check_samples(n_samples)
    data = data.for_model(model)
    seeds = data.seeds(seed)
    log_mean, var = np.empty(data.n), np.empty(data.n)
    draws = Draws(n_samples, model.q)  # one individual at a time
    for i in range(data.n):
        draws.draw(seeds[i:i + 1], n_samples)
        _, logw, _ = draws.score(model, data.y[i:i + 1], n_samples, m, sigma.chol_lower, theta)
        log_mean[i:i + 1], var[i:i + 1] = _log_mean_weights(logw[None], data.ids[i:i + 1])
    return LikelihoodEstimate(loglik=float(np.sum(log_mean)), mc_se=float(np.sqrt(np.sum(var))),
                              n_samples=n_samples, seed=int(seed))


def _free_entries(pattern):
    """0-based lower-triangle (row, col) positions not constrained, diagonal
    included, in row-major order: the Sigma block of the parameter vector."""
    return [(i, j) for i in range(pattern.dim) for j in range(i + 1)
            if i == j or (j + 1, i + 1) not in pattern]


def free_param_labels(pattern):
    """Labels of the free parameter vector: m, lower-triangle Sigma entries, theta."""
    labels = ["m%d" % (t + 1) for t in range(pattern.dim)]
    labels += ["sigma_%d_%d" % (i + 1, j + 1) for i, j in _free_entries(pattern)]
    labels.append("theta")
    return labels


def pack_params(m, sigma, theta, pattern):
    """The free parameter vector of ``free_param_labels``: m, the entries
    of Sigma (an SpdMatrix or array-like) at ``pattern``'s free
    lower-triangle positions, theta."""
    a = sigma.values if isinstance(sigma, SpdMatrix) else np.asarray(sigma, dtype=float)
    return np.concatenate([np.asarray(m, dtype=float),
                           [a[i, j] for i, j in _free_entries(pattern)], [float(theta)]])


def _unpack_params(v, pattern):
    """Inverse of ``pack_params``: (m, SpdMatrix tagged with ``pattern``, theta)."""
    q = pattern.dim
    a = np.zeros((q, q))
    for value, (i, j) in zip(v[q:-1], _free_entries(pattern)):
        a[i, j] = a[j, i] = value
    return v[:q], SpdMatrix(a, pattern=pattern), float(v[-1])


def fisher_se(model, data, m, sigma, theta, pattern, n_samples=1000, seed=0):
    """Standard errors from a finite-difference Hessian of -loglik.

    The free parameter vector stacks m, the unconstrained lower-triangle
    entries of Sigma, and theta.  Every stencil point is scored on the
    standard-normal draws of ``loglik_is`` at ``seed`` (common random
    numbers), so the stochastic part of the objective cancels through
    the difference stencil; each point's value equals ``loglik_is``
    there with that seed.  Steps are per-coordinate,
    ``1e-3 * max(|v_i|, 1e-6)``.  The diagonal is the 3-point central
    difference; each mixed entry reuses those points and adds only
    f(+h_i, +h_j) and f(-h_i, -h_j) (Abramowitz & Stegun 25.3.27), so
    a clean point costs 1 + 2p + p(p - 1) likelihoods, each scored
    once, in this process.

    When a likelihood evaluation raises a NumericalError (a step that
    leaves Sigma indefinite, say) or the Hessian is not positive definite,
    coordinates that cannot be covered by a positive definite principal
    submatrix are reported absent and the result is flagged; the cross
    points of a coordinate already found bad are not scored.
    """
    _check_samples(n_samples)
    data = data.for_model(model)
    v0 = pack_params(m, sigma, theta, pattern)
    labels = free_param_labels(pattern)
    p = v0.shape[0]
    steps = 1e-3 * np.maximum(np.abs(v0), 1e-6)
    draws = Draws(data.n * n_samples, model.q)
    draws.draw(data.seeds(seed), n_samples)

    def f(*moves):
        # -loglik at v0 moved by mult * steps[i] along each (i, mult)
        v = v0.copy()
        for i, mult in moves:
            v[i] += mult * steps[i]
        m_v, sigma_v, theta_v = _unpack_params(v, pattern)
        _, logw, _ = draws.score(model, data.y, n_samples, m_v, sigma_v.chol_lower, theta_v)
        log_mean, _ = _log_mean_weights(logw.reshape(-1, n_samples), data.ids, variance=False)
        return -float(np.sum(log_mean))

    f0 = f()
    up = np.zeros(p)
    down = np.zeros(p)
    hess = np.zeros((p, p))
    bad = np.zeros(p, dtype=bool)
    for i in range(p):
        try:
            up[i], down[i] = f((i, 1)), f((i, -1))
        except NumericalError:
            bad[i] = True
            continue
        hess[i, i] = (up[i] - 2.0 * f0 + down[i]) / steps[i] ** 2
    for i in range(p):
        for j in range(i):
            if bad[i] or bad[j]:
                continue
            try:
                hess[i, j] = hess[j, i] = (
                    f((i, 1), (j, 1)) + f((i, -1), (j, -1))
                    - up[i] - down[i] - up[j] - down[j] + 2.0 * f0
                ) / (2.0 * steps[i] * steps[j])
            except NumericalError:
                bad[i] = bad[j] = True

    se = np.full(p, np.nan)
    flagged = bool(np.any(bad))
    keep = (~bad) & (np.diag(hess) > 0.0)
    while np.any(keep):
        idx = np.nonzero(keep)[0]
        sub = hess[np.ix_(idx, idx)]
        try:
            inv = np.linalg.inv(np.linalg.cholesky(sub))
            cov = inv.T @ inv
            d = np.diag(cov)
            if np.all(d > 0.0):
                se[idx] = np.sqrt(d)
                break
        except np.linalg.LinAlgError:
            pass
        # drop the coordinate with the smallest curvature and retry
        flagged = True
        keep[idx[np.argmin(np.diag(hess)[idx])]] = False
    flagged = flagged or not np.all(np.isfinite(se))

    se_map = {lab: float(s) for lab, s in zip(labels, se) if np.isfinite(s)}
    return FisherResult(se=se_map, labels=labels, flagged=flagged)


def lr_test(loglik_h0, loglik_h1, pattern):
    """Likelihood ratio test of the constrained model against the free one.

    stat = 2 (llh1 - llh0) clipped at zero, one chi-square degree of
    freedom per constrained pair.  A constrained log likelihood above
    the free one by more than 1e-6 draws a warning (Monte-Carlo noise
    in the estimates), not an error.
    """
    if loglik_h1 < loglik_h0 - 1e-6:
        warnings.warn(
            "constrained log likelihood %.6g exceeds the free one %.6g; "
            "estimates are Monte-Carlo noisy" % (loglik_h0, loglik_h1),
            RuntimeWarning,
        )
    stat = max(0.0, 2.0 * (float(loglik_h1) - float(loglik_h0)))
    df = len(pattern)
    if df == 0:
        p = 1.0
    else:
        p = float(chdtrc(df, stat))
    return LrTestResult(stat=stat, df=df, p_value=p)
