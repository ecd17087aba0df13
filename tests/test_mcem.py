"""Stochastic EM loop: damping schedule, sampler, update formulas,
and the fit driver.

The sampler is checked against the conjugate posterior of the linear
reference model; update formulas against direct recomputation from the
E-step arrays; the driver against EM monotonicity with exact moments.
"""

import numpy as np
import pytest

from helpers import exact_estep
from zeromix import mcem
from zeromix.covariance import SpdMatrix, ZeroPattern
from zeromix.exceptions import DegenerateDrawError, ScheduleError
from zeromix.mcem import (FitConfig, FitState, GammaSchedule, fit, m_update,
                          run_estep, saem_damp, xtilde_update)
from zeromix.models import Dataset, LinearGaussianModel, simulate_dataset


def test_gamma_is_one_through_warmup_then_decays():
    sched = GammaSchedule(a=1.0, b=0.8, k0=50)
    assert sched.gamma(1) == 1.0
    assert sched.gamma(50) == 1.0
    assert sched.gamma(58) == pytest.approx(1.0 / 8.0 ** 0.8, abs=1e-15)
    assert sched.gamma(51) == 1.0  # 1/1^0.8
    assert sched.gamma(1050) < 0.005


def test_gamma_clamps_at_one():
    sched = GammaSchedule(a=5.0, b=0.8, k0=0)
    assert sched.gamma(1) == 1.0
    assert sched.gamma(2) == pytest.approx(min(1.0, 5.0 / 2.0 ** 0.8), abs=1e-15)


def test_schedule_rejects_bad_parameters():
    with pytest.raises(ScheduleError):
        GammaSchedule(a=0.0)
    with pytest.raises(ScheduleError):
        GammaSchedule(b=0.0)
    with pytest.raises(ScheduleError):
        GammaSchedule(b=1.5)
    with pytest.raises(ScheduleError):
        GammaSchedule(k0=-1)


def _state(sigma_entries, pattern=None, m=None, theta=1.0):
    sigma = SpdMatrix(np.asarray(sigma_entries, dtype=float), pattern=pattern)
    if m is None:
        m = np.zeros(sigma.dim)
    return FitState(m=m, sigma=sigma, theta=theta)


def test_damping_during_warmup_returns_the_raw_update():
    sched = GammaSchedule(k0=10)
    prev = _state(2.0 * np.eye(2))
    raw = (np.array([1.0, -1.0]), SpdMatrix(4.0 * np.eye(2)), 3.0)
    out = saem_damp(prev, raw, k=5, schedule=sched)
    assert np.array_equal(out.m, raw[0])
    assert np.array_equal(out.sigma.values, raw[1].values)
    assert out.theta == 3.0


def test_damping_halves_the_step_at_gamma_half():
    sched = GammaSchedule(a=0.5, b=1.0, k0=0)
    prev = _state(2.0 * np.eye(2))
    raw = (np.zeros(2), SpdMatrix(4.0 * np.eye(2)), 2.0)
    out = saem_damp(prev, raw, k=1, schedule=sched)  # gamma = 0.5
    assert np.allclose(out.sigma.values, 3.0 * np.eye(2), atol=1e-15)
    assert out.theta == pytest.approx(1.5)


def test_damping_is_a_fixed_point_at_the_current_state():
    sched = GammaSchedule(a=1.0, b=0.8, k0=0)
    prev = _state([[2.0, 0.3], [0.3, 1.0]], m=np.array([1.0, 2.0]), theta=0.7)
    raw = (prev.m.copy(), prev.sigma, prev.theta)
    for k in (1, 5, 40):
        out = saem_damp(prev, raw, k=k, schedule=sched)
        assert np.array_equal(out.m, prev.m)
        assert np.array_equal(out.sigma.values, prev.sigma.values)
        assert out.theta == prev.theta


def test_damping_preserves_pattern_zeros_bitwise():
    pat = ZeroPattern([(1, 3)], dim=3)
    prev = _state(np.diag([1.0, 2.0, 3.0]), pattern=pat)
    raw_sigma = SpdMatrix(np.diag([2.0, 1.0, 4.0]), pattern=pat)
    out = saem_damp(prev, (np.zeros(3), raw_sigma, 1.0), k=100,
                    schedule=GammaSchedule(k0=0))
    assert out.sigma.values[0, 2] == 0.0
    assert out.sigma.pattern == pat


def _conjugate_posterior(y, m, sigma, theta):
    prec = np.linalg.inv(sigma) + np.eye(len(m)) / theta
    cov = np.linalg.inv(prec)
    mean = cov @ (np.linalg.solve(sigma, m) + y / theta)
    return mean, cov


def test_chain_averages_match_the_conjugate_posterior():
    model = LinearGaussianModel(2)
    sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
    m = np.array([0.5, -0.5])
    theta = 0.5
    y = np.array([1.5, 0.3])
    est = run_estep(model, y[None, :], ("0",), m, SpdMatrix(sigma), theta,
                    chain_length=20000, burn_in=2000, seeds=[7])
    mean, cov = _conjugate_posterior(y, m, sigma, theta)
    assert np.all(np.abs(est.ex[0] - mean) < 0.03)
    var_chain = np.diag(est.exx[0] - np.outer(est.ex[0], est.ex[0]))
    assert np.all(np.abs(var_chain - np.diag(cov)) < 0.05)
    assert 0.1 < est.accept_rate[0] < 0.95


def test_chain_is_bitwise_deterministic():
    model = LinearGaussianModel(2)
    y = np.array([[0.7, -0.2]])
    a, b = (run_estep(model, y, ("0",), np.zeros(2), SpdMatrix(np.eye(2)), 1.0,
                      chain_length=300, burn_in=30, seeds=[123])
            for _ in range(2))
    assert np.array_equal(a.ex, b.ex)
    assert np.array_equal(a.exx, b.exx)
    assert np.array_equal(a.last_states, b.last_states)


def test_estep_rows_track_ids_not_positions():
    model = LinearGaussianModel(2)
    state = FitState(m=np.zeros(2), sigma=SpdMatrix(np.eye(2)), theta=0.8)
    ys = np.array([[0.5, 0.1], [-1.0, 0.4], [2.0, -0.7]])
    ids = ("a", "b", "c")
    seeds = [11, 22, 33]
    fwd = run_estep(model, ys, ids, state.m, state.sigma, state.theta,
                    200, 20, seeds)
    perm = [2, 0, 1]
    bwd = run_estep(model, ys[perm], tuple(ids[i] for i in perm),
                    state.m, state.sigma, state.theta,
                    200, 20, [seeds[i] for i in perm])
    for pos, orig in enumerate(perm):
        assert np.array_equal(bwd.ex[pos], fwd.ex[orig])
        assert np.array_equal(bwd.exx[pos], fwd.exx[orig])


def test_estep_raises_when_an_individual_never_enters_the_domain():
    class NoDomain(LinearGaussianModel):
        def log_cond_density_pairs(self, ys, xs, theta):
            n = np.asarray(xs).shape[0]
            return np.full(n, -np.inf), np.zeros(n, dtype=bool), np.zeros(n)

    model = NoDomain(2)
    state = FitState(m=np.zeros(2), sigma=SpdMatrix(np.eye(2)), theta=1.0)
    with pytest.raises(DegenerateDrawError) as err:
        run_estep(model, np.zeros((1, 2)), ("stuck",), state.m, state.sigma,
                  state.theta, 50, 5, [0])
    assert "stuck" in str(err.value)


def test_update_formulas_recompute_from_estep_arrays():
    model = LinearGaussianModel(2)
    sigma = SpdMatrix(np.array([[1.0, 0.2], [0.2, 0.7]]))
    state = FitState(m=np.array([0.3, -0.3]), sigma=sigma, theta=0.6)
    rng = np.random.default_rng(14)
    ys = rng.standard_normal((5, 2))
    ids = ("e", "a", "c", "b", "d")
    estep = run_estep(model, ys, ids, state.m, state.sigma, state.theta,
                      150, 15, list(range(5)))

    m_next = m_update(estep)
    assert np.allclose(m_next, estep.ex.mean(axis=0), atol=1e-12)

    stats = xtilde_update(estep, m_next)
    direct = np.zeros((2, 2))
    for i in range(5):
        direct += (estep.exx[i] - np.outer(estep.ex[i], m_next)
                   - np.outer(m_next, estep.ex[i]) + np.outer(m_next, m_next))
    direct /= 5
    assert np.allclose(stats.xtilde, direct, atol=1e-12)
    assert stats.n == 5

    theta_next = model.theta_update(estep.tstat.mean())
    assert theta_next == pytest.approx(estep.tstat.mean() / model.n_obs,
                                       abs=1e-12)


def test_estep_theta_statistic_is_gathered_at_the_retained_states():
    # for Y = X + eps the chain average of |y - x|^2 expands into the
    # chain moments, so a statistic read at the wrong pointer shows
    model = LinearGaussianModel(3)
    sigma = SpdMatrix(np.array([[1.0, 0.3, 0.0], [0.3, 0.8, -0.2],
                                [0.0, -0.2, 1.2]]))
    state = FitState(m=np.array([0.5, -0.5, 1.0]), sigma=sigma, theta=0.4)
    ys = np.random.default_rng(21).normal(0.0, 1.5, (4, 3))
    estep = run_estep(model, ys, ("a", "b", "c", "d"), state.m, state.sigma,
                      state.theta, 120, 10, [5, 6, 7, 8])
    assert np.all(estep.accept_rate < 1.0)
    for i in range(4):
        y = ys[i]
        expected = y @ y - 2.0 * y @ estep.ex[i] + np.trace(estep.exx[i])
        assert estep.tstat[i] == pytest.approx(expected, rel=1e-10)


def test_exact_em_increases_the_marginal_likelihood(monkeypatch):
    monkeypatch.setattr(mcem, "run_estep", exact_estep)
    model = LinearGaussianModel(3)
    truth_sigma = SpdMatrix(np.array([[1.0, 0.3, 0.0], [0.3, 1.5, -0.2],
                                      [0.0, -0.2, 0.8]]))
    data, _ = simulate_dataset(model, np.array([1.0, -1.0, 0.5]), truth_sigma,
                               0.4, 40, 2)
    init = FitState(m=np.zeros(3), sigma=SpdMatrix(np.eye(3)), theta=1.0)
    cfg = FitConfig(schedule=GammaSchedule(k0=1000), outer_tol=1e-12,
                    max_outer=100, seed=0)
    res = fit(model, data, ZeroPattern([], dim=3), init, cfg)
    lls = [model.marginal_loglik(data.y, row.m, SpdMatrix(row.sigma), row.theta)
           for row in res.trace]
    diffs = np.diff(lls)
    assert np.all(diffs > -1e-9)
    assert lls[-1] > lls[0]


def _short_constrained_fit_args():
    # 12 iterations, stopped by the cap, of a pattern-(1,3) fit at q = 3
    model = LinearGaussianModel(3)
    pat = ZeroPattern([(1, 3)], dim=3)
    truth = SpdMatrix(np.array([[1.0, 0.4, 0.0], [0.4, 1.2, 0.3],
                                [0.0, 0.3, 0.9]]), pattern=pat)
    data, _ = simulate_dataset(model, np.zeros(3), truth, 0.5, 10, 8)
    init = FitState(m=np.zeros(3), sigma=SpdMatrix(np.eye(3)), theta=0.5)
    cfg = FitConfig(chain_length=80, burn_in=10, max_outer=12,
                    outer_tol=1e-12, seed=4)
    return model, data, pat, init, cfg


def test_fit_keeps_pattern_zeros_through_every_iteration():
    model, data, pat, init, cfg = _short_constrained_fit_args()
    res = fit(model, data, pat, init, cfg)
    assert res.iterations == 12 and not res.converged
    assert (res.icf_sweeps, res.icf_unconverged, res.icf_ridged) == (56, 0, 0)
    assert res.domain_rejects == 0
    assert len(res.trace) == 12
    for row in res.trace:
        assert row.sigma[0, 2] == 0.0 and row.sigma[2, 0] == 0.0
        assert 0.0 <= row.accept_rate <= 1.0
        np.linalg.cholesky(row.sigma)
    assert res.state.sigma.pattern == pat


def test_fit_counts_unconverged_and_ridged_m_steps(monkeypatch):
    seen = []
    real_solve = mcem.icf_solve

    def flagged_solve(stats, pattern, init=None):
        sol, diag = real_solve(stats, pattern, init=init)
        diag.converged = len(seen) % 2 == 0
        diag.ridged = len(seen) % 3 == 0
        seen.append(diag)
        return sol, diag

    monkeypatch.setattr(mcem, "icf_solve", flagged_solve)
    res = fit(*_short_constrained_fit_args())
    assert len(seen) == 12
    assert res.icf_sweeps == sum(d.sweeps for d in seen) == 56
    assert res.icf_unconverged == 6 and res.icf_ridged == 4


def test_fit_is_invariant_to_dataset_order():
    model = LinearGaussianModel(2)
    truth = SpdMatrix(np.array([[1.0, 0.3], [0.3, 0.8]]))
    data, _ = simulate_dataset(model, np.array([0.5, -0.5]), truth, 0.4, 6, 5)
    perm = [3, 0, 5, 1, 4, 2]
    shuffled = Dataset([data.ids[i] for i in perm], data.y[perm], data.design)
    init = FitState(m=np.zeros(2), sigma=SpdMatrix(np.eye(2)), theta=0.5)
    cfg = FitConfig(chain_length=60, burn_in=10, max_outer=8,
                    outer_tol=1e-12, seed=9)
    r1 = fit(model, data, ZeroPattern([], dim=2), init, cfg)
    r2 = fit(model, shuffled, ZeroPattern([], dim=2), init, cfg)
    assert np.array_equal(r1.state.m, r2.state.m)
    assert np.array_equal(r1.state.sigma.values, r2.state.sigma.values)
    assert r1.state.theta == r2.state.theta


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(chain_length=0)
    with pytest.raises(ValueError):
        FitConfig(burn_in=-1)
    with pytest.raises(ValueError):
        FitConfig(outer_tol=0.0)
