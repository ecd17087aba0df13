"""Observed-data likelihood, standard errors and pattern tests.

The marginal likelihood integrates the latent effects out of each
individual's conditional density; here the integral is estimated by
importance sampling with the latent prior N(m, Sigma) as proposal, so
the weights are conditional densities and log-sum-exp keeps them from
underflowing.  Individuals are scored in blocks of rows, one density
call and one log-sum-exp per block.  Standard errors come from a
central finite-difference Hessian of the negative log likelihood,
scored in this process; every stencil point is scored on the same
standard-normal draws (common random numbers), drawn once.  The
prescribed zero pattern is tested by a chi-square likelihood ratio
with one degree of freedom per constrained pair.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp
from scipy.stats import chi2

from .covariance import (
    SpdMatrix,
    free_entry_indices,
    pack_free_entries,
    unpack_free_entries,
)
from .exceptions import DegenerateWeightError, NumericalError, ValueOutOfRangeError

__all__ = [
    "LikelihoodEstimate",
    "FisherResult",
    "LrTestResult",
    "loglik_is",
    "fisher_se",
    "lr_test",
    "free_param_labels",
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


def _individual_seed(seed, ident):
    return np.random.SeedSequence((int(seed), zlib.crc32(str(ident).encode("utf-8"))))


# Rows (individuals x samples) scored per density call.  Small blocks
# pay per-call overhead, large ones outgrow the CPU caches: on a 2-core
# Xeon VM a 1000-sample likelihood of the 30-individual example took
# 14.8 ms at 8192 rows, 18.4 ms at 2048 and 20.4 ms at 32768, and the
# cortisol density ~250 ns/row at 16k rows against ~410 at 60k.
_BLOCK_ROWS = 8192


def _draw_blocks(model, data, n_samples, seed):
    """Common random numbers for ``_score_blocks``, one block at a time.

    Yields ``(start, ys, z)``: the block's first individual (dataset
    order), its observation rows repeated ``n_samples`` times, and the
    standard-normal draws, ``n_samples`` rows per individual from the
    individual's own id-keyed stream.
    """
    per_block = max(1, _BLOCK_ROWS // n_samples)
    for start in range(0, data.n, per_block):
        stop = min(start + per_block, data.n)
        z = np.empty((stop - start, n_samples, model.q))
        for j, ident in enumerate(data.ids[start:stop]):
            rng = np.random.default_rng(_individual_seed(seed, ident))
            rng.standard_normal(out=z[j])
        ys = np.repeat(data.y[start:stop], n_samples, axis=0)
        yield start, ys, z.reshape(-1, model.q)


def _score_blocks(model, data, blocks, m, sigma, theta, n_samples):
    """Log likelihood and its MC standard error at (m, sigma, theta).

    Each block's latent draws m + z L' are scored in one density call;
    per individual, log-sum-exp of the log weights gives the log mean
    weight and, for the delta-method variance, of their doubles the log
    mean squared weight.  Per-individual terms are summed in id-sorted
    order, so the estimate does not depend on dataset order.
    """
    m = np.asarray(m, dtype=float)
    chol = sigma.chol_lower
    log_mean = np.empty(data.n)
    var = np.zeros(data.n)
    for start, ys, z in blocks:
        logw, _, _ = model.log_cond_density_pairs(ys, m + z @ chol.T, theta)
        logw = logw.reshape(-1, n_samples)
        lse1 = logsumexp(logw, axis=1)
        if not np.all(np.isfinite(lse1)):
            raise DegenerateWeightError(
                "all %d importance weights underflowed for individual %s"
                % (n_samples, data.ids[start + int(np.argmin(np.isfinite(lse1)))])
            )
        stop = start + logw.shape[0]
        log_mean[start:stop] = lse1 - np.log(n_samples)
        if n_samples > 1:
            # delta method: var(log W-bar) ~ sample_var(w) / (S * w-bar^2)
            log_mean_sq = logsumexp(2.0 * logw, axis=1) - np.log(n_samples)
            ratio = np.exp(log_mean_sq - 2.0 * log_mean[start:stop])
            var[start:stop] = np.maximum(ratio - 1.0, 0.0) / (n_samples - 1)
    order = np.argsort(np.asarray(data.ids))
    return float(np.sum(log_mean[order])), float(np.sqrt(np.sum(var[order])))


def _check_samples(n_samples):
    if n_samples < 1:
        raise ValueOutOfRangeError("n_samples must be >= 1, got %r" % (n_samples,))


def loglik_is(model, data, m, sigma, theta, n_samples=10000, seed=0):
    """Observed-data log likelihood by prior-proposal importance sampling.

    Per individual, draws latent vectors from N(m, Sigma) and averages
    the conditional densities of the observations; the log of that
    average is the individual's contribution.  Off-domain draws carry
    zero weight.  Substreams are keyed by individual id and the
    contributions are summed in id-sorted order, so the result is
    bitwise deterministic given the seed and unchanged by dataset
    reordering.  Individuals are scored in blocks of about 8k rows, one
    density call per block.

    Returns
    -------
    LikelihoodEstimate
        With a delta-method Monte-Carlo standard error.

    Raises
    ------
    DegenerateWeightError
        If every weight of some individual underflows to zero.
    """
    if not isinstance(sigma, SpdMatrix):
        sigma = SpdMatrix(sigma)
    _check_samples(n_samples)
    blocks = _draw_blocks(model, data, n_samples, seed)
    loglik, mc_se = _score_blocks(model, data, blocks, m, sigma, theta, n_samples)
    return LikelihoodEstimate(loglik=loglik, mc_se=mc_se, n_samples=n_samples, seed=int(seed))


def free_param_labels(pattern):
    """Labels of the free parameter vector: m, lower-triangle Sigma entries, theta."""
    labels = ["m%d" % (t + 1) for t in range(pattern.dim)]
    labels += ["sigma_%d_%d" % (i + 1, j + 1) for i, j in free_entry_indices(pattern)]
    labels.append("theta")
    return labels


def _pack_params(m, sigma, theta, pattern):
    return np.concatenate(
        [np.asarray(m, dtype=float), pack_free_entries(sigma, pattern), [float(theta)]]
    )


def _unpack_params(v, pattern):
    q = pattern.dim
    m = v[:q]
    sigma_vals = unpack_free_entries(v[q:-1], pattern)
    theta = float(v[-1])
    return m, sigma_vals, theta


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
    v0 = _pack_params(m, sigma, theta, pattern)
    labels = free_param_labels(pattern)
    p = v0.shape[0]
    steps = 1e-3 * np.maximum(np.abs(v0), 1e-6)
    blocks = list(_draw_blocks(model, data, n_samples, seed))

    def f(*moves):
        # -loglik at v0 moved by mult * steps[i] along each (i, mult)
        v = v0.copy()
        for i, mult in moves:
            v[i] += mult * steps[i]
        mm, sig_vals, th = _unpack_params(v, pattern)
        loglik, _ = _score_blocks(
            model, data, blocks, mm, SpdMatrix(sig_vals, pattern=pattern), th, n_samples
        )
        return -loglik

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
        p = float(chi2.sf(stat, df))
    return LrTestResult(stat=stat, df=df, p_value=p)
