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
finite-difference Hessian of the negative log likelihood; every stencil
point is scored on the same standard-normal draws for the whole
dataset (common random numbers).  All stencil points are scored in
contiguous shares on every usable CPU (``_pool.run_tasks``), each
share drawing those numbers once.  The prescribed zero pattern is
tested by a chi-square likelihood ratio with one degree of freedom per
constrained pair; its tail is the closed form for an integer number
of degrees of freedom (``_chi2_sf``), which needs no special function
beyond ``math.erfc``.  This module alone lays out the free parameter
vector that the standard errors, the study table and the trace share:
m, Sigma's entries in ``ZeroPattern.free_entries`` order, theta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _pool
from .covariance import SpdMatrix
from .exceptions import DegenerateWeightError, NumericalError, _check_count
from .models import Draws, _check_point

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
    """Row-wise log-sum-exp of a 2-D float array, max + log(sum(exp(a - max))).

    Not finite on a row with an infinite or NaN entry or no finite one.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        return np.log(np.exp(a - a_max).sum(axis=1)) + a_max[:, 0]


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
    ValueOutOfRangeError
        If ``n_samples`` is not an integer >= 1, ``seed`` not an
        integer >= 0, or m or theta is out of range (``_check_point``).
    InputMismatchError
        If m, Sigma or the dataset does not fit the model (see
        ``Dataset.for_model``).
    DegenerateWeightError
        If every weight of some individual underflows to zero.
    """
    m, sigma, theta = _check_point(model, m, sigma, theta)
    _check_count("n_samples", n_samples, 1)
    _check_count("seed", seed, 0)
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


def free_param_labels(pattern):
    """Labels of the free parameter vector: m, lower-triangle Sigma entries, theta."""
    labels = ["m%d" % (t + 1) for t in range(pattern.dim)]
    labels += ["sigma_%d_%d" % (i + 1, j + 1) for i, j in zip(*pattern.free_entries)]
    labels.append("theta")
    return labels


def pack_params(m, sigma, theta, pattern):
    """The free parameter vector of ``free_param_labels``: m, the entries
    of Sigma (an SpdMatrix or array-like) at ``pattern.free_entries``,
    theta."""
    a = sigma.values if isinstance(sigma, SpdMatrix) else np.asarray(sigma, dtype=float)
    return np.concatenate([np.asarray(m, dtype=float), a[pattern.free_entries], [float(theta)]])


def _unpack_params(v, pattern):
    """Inverse of ``pack_params``: (m, SpdMatrix tagged with ``pattern``, theta)."""
    q = pattern.dim
    rows, cols = pattern.free_entries
    a = np.zeros((q, q))
    a[rows, cols] = a[cols, rows] = v[q:-1]
    return v[:q], SpdMatrix(a, pattern=pattern), float(v[-1])


def _score_share(model, data, v0, steps, pattern, n_samples, seed, points):
    """-loglik at each of ``points``, or the NumericalError its evaluation
    raised; a point is v0 moved by mult * steps[i] along each (i, mult),
    and every point is scored on the common draws of ``seed``."""
    draws = Draws(data.n * n_samples, model.q)
    draws.draw(data.seeds(seed), n_samples)
    values = []
    for moves in points:
        v = v0.copy()
        for i, mult in moves:
            v[i] += mult * steps[i]
        try:
            m_v, sigma_v, theta_v = _unpack_params(v, pattern)
            _, logw, _ = draws.score(model, data.y, n_samples, m_v, sigma_v.chol_lower, theta_v)
            log_mean, _ = _log_mean_weights(logw.reshape(-1, n_samples), data.ids, variance=False)
            values.append(-float(np.sum(log_mean)))
        except NumericalError as exc:
            values.append(exc.with_traceback(None))
            if not moves:  # the centre failed: fisher_se raises, the rest is moot
                break
    return values


def fisher_se(model, data, m, sigma, theta, pattern, n_samples=1000, seed=0):
    """Standard errors from a finite-difference Hessian of -loglik.

    The free parameter vector stacks m, the unconstrained lower-triangle
    entries of Sigma, and theta.  Every stencil point is scored on the
    standard-normal draws of ``loglik_is`` at ``seed`` (common random
    numbers), so the stochastic part of the objective cancels through
    the difference stencil.  A point's value is ``loglik_is`` there on
    the same normals, up to rounding: ``loglik_is`` maps each
    individual's draws in a product of its own, which need not round
    as the whole-dataset one does (tested to 1e-9 relative in the
    standard errors).  Steps are per-coordinate,
    ``1e-3 * max(|v_i|, 1e-6)``.  The diagonal is the 3-point central
    difference; each mixed entry reuses those points and adds only
    f(+h_i, +h_j) and f(-h_i, -h_j) (Abramowitz & Stegun 25.3.27), so
    the stencil is 1 + 2p + p(p - 1) likelihoods, each scored once.

    The stencil's points, in order (centre, axis points, cross points),
    are split into contiguous shares, one per process of min(usable
    CPUs, points) (``_pool.run_tasks``); this process scores the first
    share, and every share draws the common random numbers once.  The
    Hessian reads the values in stencil order, so the result does not
    depend on the process count.  The model and data are pickled to
    the workers, so the model must be picklable (a module-level class).

    ``n_samples``, ``seed`` and the point are checked as by
    ``loglik_is``, and Sigma must conform to ``pattern``.  A
    NumericalError at the centre is raised.  When another point's
    evaluation raises one (a step that leaves Sigma indefinite, say) or
    the Hessian is not positive definite, coordinates that cannot be
    covered by a positive definite principal submatrix are reported
    absent and the result is flagged.
    """
    _check_count("n_samples", n_samples, 1)
    _check_count("seed", seed, 0)
    m, sigma, theta = _check_point(model, m, sigma, theta, pattern)
    data = data.for_model(model)
    v0 = pack_params(m, sigma, theta, pattern)
    labels = free_param_labels(pattern)
    p = v0.shape[0]
    steps = 1e-3 * np.maximum(np.abs(v0), 1e-6)

    # the axis points of coordinate i as the pair (i, i), then the cross points
    pairs = [(i, i) for i in range(p)] + [(i, j) for i in range(p) for j in range(i)]
    points = [()] + [((i, s),) if i == j else ((i, s), (j, s)) for i, j in pairs for s in (1, -1)]
    count = min(_pool.usable_cpus(), len(points))
    shares = _pool.run_tasks(
        _score_share,
        [(model, data, v0, steps, pattern, n_samples, seed,
          points[k * len(points) // count:(k + 1) * len(points) // count])
         for k in range(count)],
        here_first=True,
    )
    f0, *values = [value for share in shares for value in share]
    if isinstance(f0, NumericalError):
        raise f0
    up = np.zeros(p)
    down = np.zeros(p)
    hess = np.zeros((p, p))
    bad = np.zeros(p, dtype=bool)
    for (i, j), plus, minus in zip(pairs, values[::2], values[1::2]):
        if bad[i] or bad[j]:
            continue
        if isinstance(plus, NumericalError) or isinstance(minus, NumericalError):
            bad[i] = bad[j] = True
        elif i == j:
            up[i], down[i] = plus, minus
            hess[i, i] = (up[i] - 2.0 * f0 + down[i]) / steps[i] ** 2
        else:
            hess[i, j] = hess[j, i] = (
                plus + minus - up[i] - down[i] - up[j] - down[j] + 2.0 * f0
            ) / (2.0 * steps[i] * steps[j])

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


def _chi2_sf(x, df):
    """P(X > x) for X chi-square with an integer df >= 1, x >= 0.

    With h = x/2, the tail is the finite sum exp(-h) sum_{k<df/2} h^k/k!
    for even df and erfc(sqrt(h)) plus the same sum over half-integer k
    for odd df (k = 1/2, 3/2, ...).  Each term is exp(k log h - h -
    lgamma(k + 1)): a product recurrence underflows to 0 long before the
    tail does (at df 24, x = 1491 the tail is about 1.7e-300).  Where
    more than one term sums to nearly 1 (h < df/2, df >= 3), their
    rounding would let the tail rise with x by an ulp, so there it is 1
    minus the lower tail, summed from its power series
    sum_{n>=0} exp((df/2 + n) log h - h - lgamma(df/2 + n + 1)).
    """
    h, a = 0.5 * x, 0.5 * df
    if not h > 0.0:
        return 1.0
    if h == math.inf:
        return 0.0
    log_h = math.log(h)

    def term(k):
        return math.exp(k * log_h - h - math.lgamma(k + 1.0))

    if df > 2 and h < a:
        # each term is at most h/(a + 1) < 1 times the one before
        lower = [term(a)]
        while lower[-1] > 2.0 ** -60 * lower[0]:
            lower.append(term(a + len(lower)))
        return 1.0 - math.fsum(lower)
    if df % 2:
        return math.fsum([math.erfc(math.sqrt(h)), *(term(k + 0.5) for k in range(df // 2))])
    return math.fsum(term(k) for k in range(df // 2))


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
    p = _chi2_sf(stat, df) if df else 1.0
    return LrTestResult(stat=stat, df=df, p_value=p)
