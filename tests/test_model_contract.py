"""The observation-model contract: the four members the engine calls.

A model written here against ``NlmeModel`` alone (``mean``, ``scale``,
``draw_ok``, ``log_cond_density_pairs``) must simulate, fit, score and
get standard errors.  For the shipped models, off-domain rows are
exactly the rows of log density -inf, the theta statistic is finite
wherever the log density is, and the E-step's domain rejects count the
-inf proposal rows.  The E-step, the likelihood and the standard errors
reach the density through ``models.Draws.score`` alone.
"""

import sys

import numpy as np
import pytest

from helpers import slice_rows
from zeromix import _pool, models
from zeromix.covariance import SpdMatrix, ZeroPattern
from zeromix.exceptions import DomainError
from zeromix.inference import fisher_se, loglik_is
from zeromix.mcem import FitConfig, FitState, fit, run_estep
from zeromix.models import CortisolModel, LinearGaussianModel, NlmeModel, simulate_dataset

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class Saturating(NlmeModel):
    """Michaelis-Menten response with additive noise:
    Y_j = x1 d_j / (x2 + d_j) + sqrt(theta) eps_j, defined for x2 > 0."""

    name = "saturating"

    def __init__(self):
        super().__init__(q=2, n_obs=4, design=(0.25, 1.0, 2.0, 8.0))

    def mean(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (2,) or not np.all(np.isfinite(x)) or not x[1] > 0.0:
            raise DomainError("need a finite 2-vector with x2 > 0, got %r" % (x,))
        return x[0] * self.design / (x[1] + self.design)

    def scale(self, x, theta):
        return np.full(self.n_obs, np.sqrt(theta))

    def draw_ok(self, x):
        return bool(x[1] > 0.0)

    def log_cond_density_pairs(self, ys, xs, theta):
        xs = np.asarray(xs, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            f = xs[:, :1] * self.design / (xs[:, 1:] + self.design)
            r = np.asarray(ys, dtype=float) - f
            stat = np.sum(r * r, axis=1)
            logp = -0.5 * self.n_obs * np.log(2.0 * np.pi * theta) - 0.5 * stat / theta
        logp[~((xs[:, 1] > 0.0) & np.isfinite(logp))] = -np.inf
        return logp, stat


def test_a_model_of_the_four_members_runs_every_stage():
    model = Saturating()
    m, theta = np.array([10.0, 1.0]), 0.09
    sigma = SpdMatrix(np.array([[1.0, 0.05], [0.05, 0.04]]))
    data, xs = simulate_dataset(model, m, sigma, theta, 30, 5)
    assert data.y.shape == (30, 4) and np.all(xs[:, 1] > 0.0)
    again, _ = simulate_dataset(model, m, sigma, theta, 30, 5)
    assert again.y.tobytes() == data.y.tobytes()

    free = ZeroPattern([], dim=2)
    init = FitState(m=np.array([8.0, 1.5]), sigma=SpdMatrix(np.diag([2.0, 0.1])), theta=0.2)
    res = fit(model, data, free, init,
              FitConfig(chain_length=100, burn_in=20, warmup=10, max_outer=30))
    assert res.iterations >= 1 and res.domain_rejects >= 0
    assert res.state.sigma.pattern == free
    assert abs(res.state.m[0] - 10.0) < 1.5 and 0.0 < res.state.theta < 0.5

    est = loglik_is(model, data, res.state.m, res.state.sigma, res.state.theta,
                    n_samples=500, seed=2)
    assert np.isfinite(est.loglik) and est.mc_se > 0.0
    se = fisher_se(model, data, res.state.m, res.state.sigma, res.state.theta, free,
                   n_samples=300, seed=3)
    assert se.labels and set(se.se) <= set(se.labels)
    assert all(np.isfinite(v) and v > 0.0 for v in se.se.values())


_SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, 1e150, -1e150,
                      1e300, -1e300])


@pytest.mark.parametrize("model", [CortisolModel(), LinearGaussianModel(4)],
                         ids=["cortisol", "linear_gaussian"])
def test_off_domain_rows_are_exactly_the_minus_inf_rows(model):
    # NaN, infinite, zero and huge latents against theta from 1e-300 to 1e300
    centre = np.array([50.0, 70.0, 1.2, 0.1]) if model.name == "cortisol" else np.ones(4)
    f = model.mean(centre)
    rng = np.random.default_rng(2007)
    finite_rows = 0
    for _ in range(300):
        n = int(rng.integers(1, 30))
        xs = centre * (1.0 + 0.2 * rng.standard_normal((n, 4)))
        hit = rng.random(xs.shape) < 0.15
        xs[hit] = rng.choice(_SPECIALS, int(hit.sum()))
        ys = f * (1.0 + 0.1 * rng.standard_normal((n, model.n_obs)))
        theta = 10.0 ** rng.uniform(-300.0, 300.0)
        logp, stat = model.log_cond_density_pairs(ys, xs, theta)
        assert logp.shape == stat.shape == (n,)
        finite = np.isfinite(logp)
        # the only non-finite log density is -inf, and a latent row with a
        # non-finite entry is off the domain
        assert np.all(finite | (logp == -np.inf))
        assert not np.any(finite & ~np.all(np.isfinite(xs), axis=1))
        assert np.all(np.isfinite(stat[finite]))
        finite_rows += int(finite.sum())
    assert finite_rows > 500


def test_domain_rejects_count_the_minus_inf_proposal_rows(monkeypatch):
    # a prior wide in x4 puts about a quarter of the proposals at x4 <= 0
    model = CortisolModel()
    scored = []
    density = CortisolModel.log_cond_density_pairs

    def recording(self, ys, xs, theta):
        logp, stat = density(self, ys, xs, theta)
        scored.append(logp.copy())
        return logp, stat

    monkeypatch.setattr(CortisolModel, "log_cond_density_pairs", recording)
    m = np.array([50.0, 70.0, 1.2, 0.1])
    sigma = SpdMatrix(np.diag([4.0, 4.0, 0.01, 0.0225]))
    ys = model.mean(m) * (1.0 + 0.05 * np.random.default_rng(3).standard_normal((5, 7)))
    chain_length, burn_in = 300, 40
    out = run_estep(model, ys, list("abcde"), m, sigma, 0.01, chain_length, burn_in,
                    list(range(5)))
    logp = np.concatenate(scored).reshape(5, chain_length + burn_in + 1)
    expected = np.sum(logp[:, 1:] == -np.inf, axis=1)
    assert np.all(expected > 0)
    assert np.array_equal(out.domain_rejects, expected)


def test_every_density_call_on_latent_draws_comes_from_draws_score(monkeypatch):
    # 25 individuals: 181-row chains, 4525 rows in 2048-row slices; 3000
    # draws, two calls per individual; 200 draws, 5000 rows per point;
    # on one CPU, so that every call is made in this process
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    model = LinearGaussianModel(2)
    m = np.array([1.0, -0.5])
    sigma = SpdMatrix(np.array([[1.0, 0.3], [0.3, 0.8]]))
    data, _ = simulate_dataset(model, m, sigma, 0.5, 25, 1)
    data = data.for_model(model)
    callers = []
    density = LinearGaussianModel.log_cond_density_pairs

    def recording(self, ys, xs, theta):
        frame = sys._getframe(1)
        callers.append((frame.f_globals["__name__"], frame.f_code.co_qualname, len(xs)))
        return density(self, ys, xs, theta)

    monkeypatch.setattr(LinearGaussianModel, "log_cond_density_pairs", recording)

    def scored(rows):
        return [("zeromix.models", "Draws.score", r) for r in slice_rows(rows)]

    run_estep(model, data.y, data.ids, m, sigma, 0.5, 150, 30, data.seeds(0, 1))
    assert slice_rows(25 * 181) == [2048, 2048, 429]
    assert callers == scored(25 * 181)
    callers.clear()
    loglik_is(model, data, m, sigma, 0.5, n_samples=3000, seed=1)
    assert callers == scored(3000) * 25
    callers.clear()
    res = fisher_se(model, data, m, sigma, 0.5, ZeroPattern([], dim=2), n_samples=200, seed=1)
    points = 1 + 2 * len(res.labels) + len(res.labels) * (len(res.labels) - 1)
    assert callers == scored(25 * 200) * points


def test_each_density_call_receives_its_slice_rows_observation_major(monkeypatch):
    # ys.T C-contiguous: the density subtracts its (n_obs, rows) mean
    # block from contiguous observation rows, not a strided transpose
    model = CortisolModel()
    calls = []
    density = CortisolModel.log_cond_density_pairs

    def recording(self, ys, xs, theta):
        calls.append((ys.copy(), ys.T.flags.c_contiguous, xs.copy()))
        return density(self, ys, xs, theta)

    monkeypatch.setattr(CortisolModel, "log_cond_density_pairs", recording)
    m = np.array([50.0, 70.0, 1.2, 0.1])
    chol = np.diag([5.0, 7.0, 0.2, 0.01])
    rng = np.random.default_rng(5)
    big = model.mean(m) * (1.0 + 0.05 * rng.standard_normal((18, 7)))
    # C rows, a strided view and a Fortran-ordered array
    for ys, unit in ((big, 301), (big[::2], 7), (np.asfortranarray(big[:5]), 1000)):
        rows = len(ys) * unit
        draws = models.Draws(rows, model.q)
        draws.draw(list(range(len(ys))), unit)
        calls.clear()
        x, _, _ = draws.score(model, ys, unit, m, chol, 0.02)
        assert [len(y) for y, _, _ in calls] == slice_rows(rows)
        start = 0
        for y, contiguous, xs in calls:
            stop = start + len(y)
            assert contiguous
            assert y.tobytes() == ys[np.arange(start, stop) // unit].tobytes()
            assert xs.tobytes() == x[start:stop].tobytes()
            start = stop
