"""Stochastic EM engine for nonlinear mixed effects models.

The E-step runs, per individual, a Metropolis-Hastings independence
sampler whose proposal is the current latent prior N(m_k, Sigma_k);
the prior then cancels from the acceptance ratio, which reduces to the
conditional likelihood ratio of the observations.  The M-step combines
the closed-form mean and residual variance updates and the
zero-constrained covariance solve.  Damped (stochastic approximation)
updates stabilize the iteration: full replacement during the first
``warmup`` iterations, then the decaying gain
``1 / (k - warmup)^0.8`` of ``FitConfig.gamma``.

Chains are pre-generated: every proposal of an iteration is drawn up
front and scored through ``models.Draws``, the draw-and-score path the
likelihood and the standard errors share, in density calls of about 2k
rows.  ``fit`` allocates one ``Draws`` that every iteration overwrites,
so an iteration touches no fresh pages.  The sequential accept loop
then runs time-major over all chains at once, three in-place ufuncs per
step that only record accept decisions; each chain's pointer into its
proposal block is recovered afterwards as the running maximum of its
accepted step indices.  ``fit`` takes its rows in id order from
``Dataset.for_model`` and its randomness from the id-keyed
``Dataset.seeds(master seed, outer iteration)``, so results do not
depend on dataset ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import SpdMatrix, SufficientStats, icf_solve
from .exceptions import (DegenerateDrawError, InputMismatchError, ValueOutOfRangeError,
                         _check_count)
from .models import Draws, NlmeModel, _check_order

__all__ = [
    "FitConfig",
    "FitState",
    "TraceRow",
    "FitResult",
    "EStepOutput",
    "run_estep",
    "fit",
]


# Trailing outer iterations whose relative changes must all stay below
# ``FitConfig.outer_tol`` before ``fit`` stops.
_WINDOW = 10


@dataclass(frozen=True)
class FitConfig:
    """Outer-loop configuration for ``fit``: its fields are the keys
    the ``[mcem]`` INI section accepts, of the same names and types; the
    ``int`` fields reject any value that is not an ``int`` or a numpy
    integer.

    The damping gain decays like (k - warmup)^-0.8, whose sum diverges
    and whose squares sum, as stochastic-approximation EM needs (Delyon,
    Lavielle & Moulines 1999).  The stopping tolerance is matched to it:
    with chains of a few hundred draws, per-iteration relative changes
    settle near 1e-3, so a much tighter tolerance would never be
    reached.  The M-step runs ``icf_solve`` at its own tolerance and
    iteration cap.
    """

    chain_length: int = 500
    burn_in: int = 100
    warmup: int = 50
    outer_tol: float = 2e-3
    max_outer: int = 400
    seed: int = 0

    def __post_init__(self):
        for name, least in (("chain_length", 1), ("burn_in", 0), ("warmup", 0),
                            ("max_outer", 1), ("seed", 0)):
            _check_count(name, getattr(self, name), least)
        if not (np.isfinite(self.outer_tol) and self.outer_tol > 0.0):
            raise ValueOutOfRangeError("outer_tol must be finite and > 0, got %r"
                                       % (self.outer_tol,))

    def gamma(self, k):
        """Damping gain of outer iteration ``k``: 1 through ``warmup``,
        then 1 / (k - warmup)^0.8."""
        if k <= self.warmup:
            return 1.0
        return 1.0 / float(k - self.warmup) ** 0.8


@dataclass
class FitState:
    """One outer iterate: latent mean, covariance, residual parameter."""

    m: np.ndarray
    sigma: SpdMatrix
    theta: float
    k: int = 0

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        if self.m.ndim != 1:
            raise InputMismatchError("m must be a vector")
        if self.m.shape[0] != self.sigma.dim:
            raise InputMismatchError("m and sigma dimensions differ")
        if not np.isfinite(self.m).all():
            raise ValueOutOfRangeError("m must be finite, got %r" % (self.m,))
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueOutOfRangeError("residual variance theta must be positive and finite, "
                                       "got %r" % (self.theta,))


@dataclass
class TraceRow:
    """Per-iteration record: damped state plus sampler summary."""

    k: int
    m: np.ndarray
    sigma: np.ndarray
    theta: float
    accept_rate: float
    delta: float


@dataclass
class FitResult:
    """Final state with convergence flag and full iteration trace.

    ``domain_rejects`` totals the E-steps' off-domain proposals;
    ``icf_sweeps`` and ``icf_newton_steps`` total the M-steps' ICF
    column sweeps and Newton steps, and ``icf_unconverged`` and
    ``icf_ridged`` count the M-steps that stopped at the solver's
    iteration cap and those whose X-tilde was ridged.
    """

    state: FitState
    converged: bool
    iterations: int
    trace: list
    accept_rate: float
    domain_rejects: int
    icf_sweeps: int
    icf_newton_steps: int
    icf_unconverged: int
    icf_ridged: int


@dataclass
class EStepOutput:
    """Per-individual conditional-moment estimates from one E-step.

    Arrays are aligned with the rows of the E-step's ``ys``.  ``ex`` and
    ``exx`` are chain averages of X and XX'; ``tstat`` is the chain
    average of the model's theta statistic; ``domain_rejects`` counts
    each chain's proposals with log density -inf, its start excluded;
    ``last_states`` seed the next iteration's chains.
    """

    ex: np.ndarray
    exx: np.ndarray
    tstat: np.ndarray
    accept_rate: np.ndarray
    domain_rejects: np.ndarray
    last_states: np.ndarray


def _accept_pointers(logp, logu, burn_in):
    """Independence-sampler accept loop over a batch of pre-scored chains.

    ``logp`` (n, t_total + 1) holds each chain's start (column 0) and
    proposal log densities, ``logu`` (n, t_total) its log uniforms.  At
    step t a chain moves to proposal t when logu[t - 1] is below logp[t]
    minus the log density of its current state; a NaN difference (both
    -inf) rejects.  Returns the pointers of the states after ``burn_in``,
    a C-ordered (n, t_total - burn_in) array, and the accept counts (n,).

    The loop runs time-major over the rows of the transposed arrays,
    which ``zip`` hands out as views: three in-place ufuncs per step on
    contiguous rows, with no per-step indexing.
    """
    t_total = logu.shape[1]
    # accepted[t - 1] records the decisions at step t
    logp_t = np.ascontiguousarray(logp.T)
    logu_t = np.ascontiguousarray(logu.T)
    lp_cur = logp_t[0].copy()
    diff = np.empty(logp.shape[0])
    accepted = np.empty(logu_t.shape, dtype=bool)
    with np.errstate(invalid="ignore"):
        for lp, lu, acc in zip(logp_t[1:], logu_t, accepted):
            np.subtract(lp, lp_cur, out=diff)
            np.less(lu, diff, out=acc)
            np.copyto(lp_cur, lp, where=acc)
    # a chain's pointer is its last accepted step so far (0 before any)
    ptr = np.maximum.accumulate(np.arange(1, t_total + 1)[:, None] * accepted, axis=0)
    return np.ascontiguousarray(ptr[burn_in:].T), accepted.sum(axis=0)


def run_estep(model, ys, ids, m, sigma, theta, chain_length, burn_in, seeds, x0=None,
              draws=None):
    """Metropolis-Hastings E-step over a batch of individuals.

    All proposals are drawn from N(m, Sigma) and scored up front, each
    with its log density and theta statistic, through ``models.Draws``;
    each individual's normals and uniforms come from its own seed.  The
    accept loop steps all chains together and records, per step and
    individual, whether the proposal was accepted; a chain's state at
    step t is the proposal of its last accepted step up to t (its start,
    index 0, before any).  Moments average the ``chain_length`` states
    after ``burn_in``, the second moments by one batched matmul (each
    individual's ``s.T @ s``, bit for bit), and the theta statistic is
    gathered at the same pointers.

    Parameters
    ----------
    ys : ndarray, shape (n, n_obs)
    ids : sequence of str
        Names the individuals in a ``DegenerateDrawError``.
    seeds : sequence of seed material, one per individual
    x0 : ndarray (n, q), optional
        Warm-start states (previous iteration's chain ends); when
        absent each chain starts from its own extra proposal draw.
    draws : models.Draws, optional
        Reused working arrays of ``n * (t_total + 1)`` rows and uniforms
        ``(n, t_total)``; fresh ones are made when absent.

    Raises
    ------
    DegenerateDrawError
        If some chain has no domain-valid state anywhere in its
        averaging window (every proposal rejected as off-domain).
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.shape[0]
    t_total = burn_in + chain_length
    per_chain = t_total + 1  # proposal rows per individual, the start first
    if draws is None:
        draws = Draws(n * per_chain, model.q, uniforms=(n, t_total))
    draws.draw(seeds, per_chain)
    prop, logp, stat = draws.score(model, ys, per_chain, m, sigma.chol_lower, theta, starts=x0)

    logu = np.log(draws.u, out=draws.u)
    ptr_ret, accepts = _accept_pointers(logp.reshape(n, per_chain), logu, burn_in)
    # flat row indices of the retained states
    ptr_ret += np.arange(0, n * per_chain, per_chain)[:, None]
    lp_ret = logp.take(ptr_ret)
    if np.any(lp_ret == -np.inf):
        bad = [ids[i] for i in np.nonzero(np.any(lp_ret == -np.inf, axis=1))[0]]
        raise DegenerateDrawError(
            "chains stuck outside the model domain for individuals %s; "
            "parameters are implausible" % ", ".join(map(str, bad))
        )

    states = prop.take(ptr_ret, axis=0)
    return EStepOutput(
        ex=states.mean(axis=1),
        exx=np.matmul(states.transpose(0, 2, 1), states) / chain_length,
        tstat=stat.take(ptr_ret).mean(axis=1),
        accept_rate=accepts / float(t_total),
        domain_rejects=np.sum(logp.reshape(n, per_chain)[:, 1:] == -np.inf, axis=1),
        last_states=states[:, -1, :].copy(),
    )


def xtilde_update(estep, m_next):
    """Empirical conditional variance around ``m_next`` as SufficientStats."""
    exx_bar = estep.exx.mean(axis=0)
    ex_bar = estep.ex.mean(axis=0)
    m_next = np.asarray(m_next, dtype=float)
    xt = (
        exx_bar
        - np.outer(m_next, ex_bar)
        - np.outer(ex_bar, m_next)
        + np.outer(m_next, m_next)
    )
    xt = 0.5 * (xt + xt.T)
    return SufficientStats(xt, estep.ex.shape[0])


def saem_damp(prev, raw, gamma):
    """Damped update: convex combination of previous state and raw M-step.

    ``raw`` is an (m, SpdMatrix sigma, theta) triple and ``gamma`` the
    gain; the result is iterate ``prev.k + 1``.  The combination
    preserves positive definiteness (convexity of the cone) and the
    zero pattern (constrained entries are exactly zero on both sides).
    """
    m_raw, sigma_raw, theta_raw = raw
    m_new = (1.0 - gamma) * prev.m + gamma * np.asarray(m_raw, dtype=float)
    sig_new = (1.0 - gamma) * prev.sigma.values + gamma * sigma_raw.values
    theta_new = (1.0 - gamma) * prev.theta + gamma * float(theta_raw)
    sigma = SpdMatrix(sig_new, pattern=prev.sigma.pattern)
    return FitState(m=m_new, sigma=sigma, theta=theta_new, k=prev.k + 1)


def _relative_delta(prev, new):
    # block-scaled maximum relative change; floors keep zero-valued
    # parameters from blowing up the ratio
    floor = 1e-12
    m_scale = max(float(np.max(np.abs(prev.m))), floor)
    d_m = float(np.max(np.abs(new.m - prev.m))) / m_scale
    s_scale = max(float(np.max(np.diag(prev.sigma.values))), floor)
    d_s = float(np.max(np.abs(new.sigma.values - prev.sigma.values))) / s_scale
    t_scale = max(abs(prev.theta), floor)
    d_t = abs(new.theta - prev.theta) / t_scale
    return max(d_m, d_s, d_t)


def fit(model, data, pattern, init, config=None):
    """Maximum-likelihood fit by stochastic EM with a constrained covariance.

    The start must be of the model's order, and the dataset is checked
    and put in id order by ``Dataset.for_model``.
    One outer iteration runs the E-step at the current state, then the
    mean update, the residual variance update, the conditional
    variance matrix, the zero-constrained covariance solve (seeded
    from the current covariance), and finally the damped combination.
    Iteration stops when the block-scaled relative parameter change
    stays below ``config.outer_tol`` across the last 10 iterations, or at
    ``config.max_outer`` (flagged, not raised).

    Parameters
    ----------
    model : NlmeModel
    data : Dataset
    pattern : ZeroPattern
        Zero constraints on the latent covariance; the empty pattern
        yields the unconstrained update (the conditional variance
        matrix itself).
    init : FitState
        Starting point; its covariance is tagged with ``pattern`` and
        must conform to it.
    config : FitConfig, optional

    Returns
    -------
    FitResult
    """
    if config is None:
        config = FitConfig()
    if not isinstance(model, NlmeModel):
        raise TypeError("model must be an NlmeModel")
    _check_order(model, init.m, init.sigma)
    data = data.for_model(model)

    sigma0 = init.sigma
    if sigma0.pattern != pattern:
        sigma0 = SpdMatrix(sigma0.values, pattern=pattern)
    state = FitState(m=init.m.copy(), sigma=sigma0, theta=init.theta, k=0)

    trace = []
    x_last = None
    t_total = config.burn_in + config.chain_length
    draws = Draws(data.n * (t_total + 1), model.q, uniforms=(data.n, t_total))
    converged = False
    accept_mean = 1.0
    rejects_total = 0
    icf_sweeps = icf_newton_steps = icf_unconverged = icf_ridged = 0

    for k in range(1, config.max_outer + 1):
        estep = run_estep(model, data.y, data.ids, state.m, state.sigma, state.theta,
                          config.chain_length, config.burn_in, data.seeds(config.seed, k),
                          x0=x_last, draws=draws)
        x_last = estep.last_states

        m_next = estep.ex.mean(axis=0)
        theta_next = float(estep.tstat.mean()) / model.n_obs
        stats = xtilde_update(estep, m_next)
        sigma_next, icf = icf_solve(stats, pattern, init=state.sigma)
        icf_sweeps += icf.sweeps
        icf_newton_steps += icf.newton_steps
        icf_unconverged += not icf.converged
        icf_ridged += icf.ridged

        prev, state = state, saem_damp(state, (m_next, sigma_next, theta_next), config.gamma(k))
        accept_mean = float(np.mean(estep.accept_rate))
        rejects_total += int(np.sum(estep.domain_rejects))
        trace.append(
            TraceRow(
                k=k,
                m=state.m.copy(),
                sigma=np.array(state.sigma.values),
                theta=state.theta,
                accept_rate=accept_mean,
                delta=_relative_delta(prev, state),
            )
        )
        if len(trace) >= _WINDOW and max(row.delta for row in trace[-_WINDOW:]) < config.outer_tol:
            converged = True
            break

    return FitResult(
        state=state,
        converged=converged,
        iterations=state.k,
        trace=trace,
        accept_rate=accept_mean,
        domain_rejects=rejects_total,
        icf_sweeps=icf_sweeps,
        icf_newton_steps=icf_newton_steps,
        icf_unconverged=icf_unconverged,
        icf_ridged=icf_ridged,
    )
