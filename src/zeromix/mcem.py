"""Stochastic EM engine for nonlinear mixed effects models.

The E-step runs, per individual, a Metropolis-Hastings independence
sampler whose proposal is the current latent prior N(m_k, Sigma_k);
the prior then cancels from the acceptance ratio, which reduces to the
conditional likelihood ratio of the observations.  The M-step combines
the closed-form mean update, the model-owned residual variance update
and the zero-constrained covariance solve.  Damped (stochastic
approximation) updates stabilize the iteration: full replacement
during a warm-up phase, then a decaying gain a / (k - k0)^b.

Chains are pre-generated: every proposal of an iteration is drawn and
scored in one vectorized pass.  The sequential accept loop then runs
time-major over all chains at once, three in-place ufuncs per step
that only record accept decisions; each chain's pointer into its
proposal block is recovered afterwards as the running maximum of its
accepted step indices.  Randomness is keyed by (master seed, outer
iteration, individual id), and cross-individual reductions run in
id-sorted order, so results do not depend on dataset ordering.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .covariance import SpdMatrix, SufficientStats, icf_solve
from .exceptions import DegenerateDrawError, ScheduleError, ValueOutOfRangeError
from .models import NlmeModel

__all__ = [
    "GammaSchedule",
    "FitConfig",
    "FitState",
    "TraceRow",
    "FitResult",
    "EStepOutput",
    "run_estep",
    "m_update",
    "xtilde_update",
    "saem_damp",
    "fit",
]


@dataclass(frozen=True)
class GammaSchedule:
    """Damping gains: gamma_k = 1 for k <= k0, then min(1, a / (k - k0)^b)."""

    a: float = 1.0
    b: float = 0.8
    k0: int = 50

    def __post_init__(self):
        if not (0.0 < self.b <= 1.0):
            raise ScheduleError("decay exponent b must lie in (0, 1], got %r" % (self.b,))
        if self.a <= 0.0:
            raise ScheduleError("gain scale a must be positive, got %r" % (self.a,))
        if self.k0 < 0:
            raise ScheduleError("warm-up length k0 must be >= 0, got %r" % (self.k0,))

    def gamma(self, k):
        if k <= self.k0:
            return 1.0
        return min(1.0, self.a / float(k - self.k0) ** self.b)


# Trailing outer iterations whose relative changes must all stay below
# ``FitConfig.outer_tol`` before ``fit`` stops.
_WINDOW = 10


@dataclass(frozen=True)
class FitConfig:
    """Outer-loop configuration for ``fit``.

    The stopping tolerance is matched to the damping schedule: with
    gamma decaying like (k - k0)^-0.8 and chains of a few hundred
    draws, per-iteration relative changes settle near 1e-3, so a much
    tighter tolerance would never be reached.  The M-step runs
    ``icf_solve`` at its own tolerance and sweep cap.
    """

    chain_length: int = 500
    burn_in: int = 100
    schedule: GammaSchedule = field(default_factory=GammaSchedule)
    outer_tol: float = 2e-3
    max_outer: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.chain_length < 1:
            raise ValueOutOfRangeError("chain_length must be >= 1, got %r" % (self.chain_length,))
        if self.burn_in < 0:
            raise ValueOutOfRangeError("burn_in must be >= 0, got %r" % (self.burn_in,))
        if self.outer_tol <= 0.0:
            raise ValueOutOfRangeError("outer_tol must be > 0, got %r" % (self.outer_tol,))
        if self.max_outer < 1:
            raise ValueOutOfRangeError("max_outer must be >= 1, got %r" % (self.max_outer,))


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
            raise ValueError("m must be a vector")
        if self.m.shape[0] != self.sigma.dim:
            raise ValueError("m and sigma dimensions differ")
        if self.theta <= 0.0:
            raise ValueError("residual variance theta must be positive")


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
    ``icf_sweeps``, ``icf_unconverged`` and ``icf_ridged`` total the
    M-steps' ICF sweeps and count the M-steps that stopped at the sweep
    cap and those whose X-tilde was ridged.
    """

    state: FitState
    converged: bool
    iterations: int
    trace: list
    accept_rate: float
    domain_rejects: int
    icf_sweeps: int
    icf_unconverged: int
    icf_ridged: int


@dataclass
class EStepOutput:
    """Per-individual conditional-moment estimates from one E-step.

    Arrays are aligned with ``ids`` (dataset order).  ``ex`` and
    ``exx`` are chain averages of X and XX'; ``tstat`` is the chain
    average of the model's theta statistic; ``last_states`` seed the
    next iteration's chains.
    """

    ids: tuple
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
    """
    t_total = logu.shape[1]
    # time-major: three in-place ufuncs per step on contiguous rows;
    # accepted[t - 1] records the decisions at step t
    logp_t = np.ascontiguousarray(logp.T)
    logu_t = np.ascontiguousarray(logu.T)
    lp_cur = logp_t[0].copy()
    diff = np.empty(logp.shape[0])
    accepted = np.empty(logu_t.shape, dtype=bool)
    with np.errstate(invalid="ignore"):
        for t in range(1, t_total + 1):
            np.subtract(logp_t[t], lp_cur, out=diff)
            np.less(logu_t[t - 1], diff, out=accepted[t - 1])
            np.copyto(lp_cur, logp_t[t], where=accepted[t - 1])
    # a chain's pointer is its last accepted step so far (0 before any)
    ptr = np.maximum.accumulate(np.arange(1, t_total + 1)[:, None] * accepted, axis=0)
    return np.ascontiguousarray(ptr[burn_in:].T), accepted.sum(axis=0)


def run_estep(model, ys, ids, m, sigma, theta, chain_length, burn_in, seeds, x0=None):
    """Metropolis-Hastings E-step over a batch of individuals.

    All proposals are drawn from N(m, Sigma) and scored up front, each
    with its log density and theta statistic; each individual's normals
    and uniforms come from its own seed.  The accept loop steps all
    chains together and records, per step and individual, whether the
    proposal was accepted; a chain's state at step t is the proposal of
    its last accepted step up to t (its start, index 0, before any).
    Moments average the ``chain_length`` states after ``burn_in``, and
    the theta statistic is gathered at the same pointers.

    Parameters
    ----------
    ys : ndarray, shape (n, n_obs)
    ids : sequence of str
    seeds : sequence of seed material, one per individual
    x0 : ndarray (n, q), optional
        Warm-start states (previous iteration's chain ends); when
        absent each chain starts from its own extra proposal draw.

    Raises
    ------
    DegenerateDrawError
        If some chain has no domain-valid state anywhere in its
        averaging window (every proposal rejected as off-domain).
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.shape[0]
    q = model.q
    t_total = burn_in + chain_length
    chol = sigma.chol_lower

    z = np.empty((n, t_total + 1, q))
    u = np.empty((n, t_total))
    for i in range(n):
        rng = np.random.default_rng(seeds[i])
        rng.standard_normal(out=z[i])
        rng.random(out=u[i])
    prop = (m + z.reshape(-1, q) @ chol.T).reshape(n, t_total + 1, q)
    if x0 is not None:
        prop[:, 0, :] = x0

    ys_rep = np.repeat(ys, t_total + 1, axis=0)
    logp_flat, ok_flat, stat_flat = model.log_cond_density_pairs(
        ys_rep, prop.reshape(-1, q), theta
    )
    logp = logp_flat.reshape(n, t_total + 1)
    ok = ok_flat.reshape(n, t_total + 1)
    stat = stat_flat.reshape(n, t_total + 1)

    ptr_ret, accepts = _accept_pointers(logp, np.log(u), burn_in)
    lp_ret = np.take_along_axis(logp, ptr_ret, axis=1)
    if np.any(lp_ret == -np.inf):
        bad = [ids[i] for i in np.nonzero(np.any(lp_ret == -np.inf, axis=1))[0]]
        raise DegenerateDrawError(
            "chains stuck outside the model domain for individuals %s; "
            "parameters are implausible" % ", ".join(map(str, bad))
        )

    states = np.take_along_axis(prop, ptr_ret[:, :, None], axis=1)
    ex = states.mean(axis=1)
    exx = np.einsum("nlq,nlr->nqr", states, states) / chain_length
    tstat = np.take_along_axis(stat, ptr_ret, axis=1).mean(axis=1)

    return EStepOutput(
        ids=tuple(str(t) for t in ids),
        ex=ex,
        exx=exx,
        tstat=tstat,
        accept_rate=accepts / float(t_total),
        domain_rejects=np.sum(~ok[:, 1:], axis=1),
        last_states=states[:, -1, :].copy(),
    )


def _id_order(estep):
    return np.argsort(np.asarray(estep.ids))


def m_update(estep):
    """Mean of the per-individual conditional means, id-sorted reduction."""
    return estep.ex[_id_order(estep)].mean(axis=0)


def xtilde_update(estep, m_next):
    """Empirical conditional variance around ``m_next`` as SufficientStats."""
    order = _id_order(estep)
    exx_bar = estep.exx[order].mean(axis=0)
    ex_bar = estep.ex[order].mean(axis=0)
    m_next = np.asarray(m_next, dtype=float)
    xt = (
        exx_bar
        - np.outer(m_next, ex_bar)
        - np.outer(ex_bar, m_next)
        + np.outer(m_next, m_next)
    )
    xt = 0.5 * (xt + xt.T)
    return SufficientStats(xt, estep.ex.shape[0])


def _theta_aggregate(estep):
    return float(estep.tstat[_id_order(estep)].mean())


def saem_damp(prev, raw, k, schedule):
    """Damped update: convex combination of previous state and raw M-step.

    ``raw`` is an (m, sigma, theta) triple.  The combination preserves
    positive definiteness (convexity of the cone) and the zero pattern
    (constrained entries are exactly zero on both sides).
    """
    gamma = schedule.gamma(k)
    m_raw, sigma_raw, theta_raw = raw
    sigma_raw_values = sigma_raw.values if isinstance(sigma_raw, SpdMatrix) else np.asarray(sigma_raw)
    m_new = (1.0 - gamma) * prev.m + gamma * np.asarray(m_raw, dtype=float)
    sig_new = (1.0 - gamma) * prev.sigma.values + gamma * sigma_raw_values
    theta_new = (1.0 - gamma) * prev.theta + gamma * float(theta_raw)
    sigma = SpdMatrix(sig_new, pattern=prev.sigma.pattern)
    return FitState(m=m_new, sigma=sigma, theta=theta_new, k=k)


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


def _iteration_seeds(master_seed, k, ids):
    seeds = []
    for ident in ids:
        key = zlib.crc32(str(ident).encode("utf-8"))
        seeds.append(np.random.SeedSequence((int(master_seed), int(k), int(key))))
    return seeds


def fit(model, data, pattern, init, config=None):
    """Maximum-likelihood fit by stochastic EM with a constrained covariance.

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
        Starting point; its covariance must conform to ``pattern``.
    config : FitConfig, optional

    Returns
    -------
    FitResult
    """
    if config is None:
        config = FitConfig()
    if not isinstance(model, NlmeModel):
        raise TypeError("model must be an NlmeModel")
    if data.n_obs != model.n_obs:
        raise ValueError(
            "dataset has %d observations per individual, model expects %d"
            % (data.n_obs, model.n_obs)
        )
    if not np.array_equal(data.design, model.design):
        raise ValueError("dataset design grid differs from the model design")

    sigma0 = init.sigma
    if sigma0.pattern != pattern:
        sigma0 = SpdMatrix(sigma0.values, pattern=pattern)
    state = FitState(m=init.m.copy(), sigma=sigma0, theta=init.theta, k=0)

    trace = []
    deltas = []
    x_last = None
    converged = False
    accept_mean = 1.0
    rejects_total = 0
    icf_sweeps = icf_unconverged = icf_ridged = 0

    for k in range(1, config.max_outer + 1):
        seeds = _iteration_seeds(config.seed, k, data.ids)
        estep = run_estep(
            model,
            data.y,
            data.ids,
            state.m,
            state.sigma,
            state.theta,
            config.chain_length,
            config.burn_in,
            seeds,
            x0=x_last,
        )
        x_last = estep.last_states

        m_next = m_update(estep)
        theta_next = model.theta_update(_theta_aggregate(estep))
        stats = xtilde_update(estep, m_next)
        sigma_next, icf = icf_solve(
            stats, pattern, init=None if pattern.is_empty() else state.sigma
        )
        icf_sweeps += icf.sweeps
        icf_unconverged += not icf.converged
        icf_ridged += icf.ridged

        new_state = saem_damp(state, (m_next, sigma_next, theta_next), k, config.schedule)
        delta = _relative_delta(state, new_state)
        state = new_state
        deltas.append(delta)
        accept_mean = float(np.mean(estep.accept_rate))
        rejects_total += int(np.sum(estep.domain_rejects))
        trace.append(
            TraceRow(
                k=k,
                m=state.m.copy(),
                sigma=np.array(state.sigma.values),
                theta=state.theta,
                accept_rate=accept_mean,
                delta=delta,
            )
        )
        if len(deltas) >= _WINDOW and max(deltas[-_WINDOW:]) < config.outer_tol:
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
        icf_unconverged=icf_unconverged,
        icf_ridged=icf_ridged,
    )
