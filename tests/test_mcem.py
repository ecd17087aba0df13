"""Stochastic EM loop: damping gain, sampler, update formulas,
and the fit driver.

The sampler is checked against the conjugate posterior of the linear
reference model; update formulas against direct recomputation from the
E-step arrays; the driver against EM monotonicity with exact moments.
"""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import zeromix
from helpers import block_size_case, exact_estep, record_density_calls, slice_rows
from zeromix import mcem, models
from zeromix.covariance import SpdMatrix, ZeroPattern
from zeromix.exceptions import DegenerateDrawError, ValueOutOfRangeError
from zeromix.harness import cortisol_example
from zeromix.mcem import FitConfig, FitState, fit, run_estep, saem_damp, xtilde_update
from zeromix.models import Dataset, LinearGaussianModel, simulate_dataset

# the E-step works in reused buffers; a NaN or overflow it lets escape fails here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_gamma_is_one_through_warmup_then_decays():
    cfg = FitConfig(warmup=50)
    assert cfg.gamma(1) == 1.0
    assert cfg.gamma(50) == 1.0
    assert cfg.gamma(58) == pytest.approx(1.0 / 8.0 ** 0.8, abs=1e-15)
    assert cfg.gamma(51) == 1.0  # 1/1^0.8
    assert cfg.gamma(1050) < 0.005


@pytest.mark.parametrize("warmup", [0, 50, 150])
def test_gamma_keeps_the_bits_of_the_clamped_unit_gain(warmup):
    # after warmup k - warmup >= 1, so the clamp at 1 never binds: the gain
    # is the clamped one, bit for bit
    cfg = FitConfig(warmup=warmup)
    for k in range(1, 1001):
        expected = 1.0 if k <= warmup else min(1.0, 1.0 / float(k - warmup) ** 0.8)
        assert cfg.gamma(k).hex() == expected.hex()


def test_gain_settings_reject_bad_values_naming_the_field():
    with pytest.raises(ValueOutOfRangeError, match="warmup must be >= 0"):
        FitConfig(warmup=-1)


def _state(sigma_entries, pattern=None, m=None, theta=1.0):
    sigma = SpdMatrix(np.asarray(sigma_entries, dtype=float), pattern=pattern)
    if m is None:
        m = np.zeros(sigma.dim)
    return FitState(m=m, sigma=sigma, theta=theta)


def test_a_unit_gain_returns_the_raw_update_as_the_next_iterate():
    prev = _state(2.0 * np.eye(2))
    raw = (np.array([1.0, -1.0]), SpdMatrix(4.0 * np.eye(2)), 3.0)
    out = saem_damp(prev, raw, 1.0)
    assert np.array_equal(out.m, raw[0])
    assert np.array_equal(out.sigma.values, raw[1].values)
    assert out.theta == 3.0
    assert out.k == prev.k + 1


def test_damping_halves_the_step_at_gamma_half():
    prev = _state(2.0 * np.eye(2))
    raw = (np.zeros(2), SpdMatrix(4.0 * np.eye(2)), 2.0)
    out = saem_damp(prev, raw, 0.5)
    assert np.allclose(out.sigma.values, 3.0 * np.eye(2), atol=1e-15)
    assert out.theta == pytest.approx(1.5)


def test_damping_is_a_fixed_point_at_the_current_state():
    prev = _state([[2.0, 0.3], [0.3, 1.0]], m=np.array([1.0, 2.0]), theta=0.7)
    raw = (prev.m.copy(), prev.sigma, prev.theta)
    for gamma in (1.0, 0.5, 0.04):
        out = saem_damp(prev, raw, gamma)
        assert np.array_equal(out.m, prev.m)
        assert np.array_equal(out.sigma.values, prev.sigma.values)
        assert out.theta == prev.theta


def test_damping_preserves_pattern_zeros_bitwise():
    pat = ZeroPattern([(1, 3)], dim=3)
    prev = _state(np.diag([1.0, 2.0, 3.0]), pattern=pat)
    raw_sigma = SpdMatrix(np.diag([2.0, 1.0, 4.0]), pattern=pat)
    out = saem_damp(prev, (np.zeros(3), raw_sigma, 1.0), 0.025)
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


def _estep_args(case="example", n=12):
    model, data, m, sigma, theta, _ = block_size_case(case)
    return dict(model=model, ys=data.y[:n], ids=data.ids[:n], m=m, sigma=sigma, theta=theta,
                chain_length=200, burn_in=40, seeds=data.seeds(3, 1)[:n])


def _estep_bytes(out):
    return [getattr(out, name).tobytes() for name in
            ("ex", "exx", "tstat", "accept_rate", "domain_rejects", "last_states")]


@pytest.mark.parametrize("case, block_rows", [
    pytest.param("example", 241, id="241"),
    pytest.param("example", 100, id="100"),
    pytest.param("example", 10**9, id="1000000000"),
    pytest.param("example", 1, id="example-1"),
    pytest.param("cortisol12", 1, id="cortisol12-1"),
    pytest.param("cortisol12", 100, id="cortisol12-100"),
    pytest.param("linear8", 1, id="linear8-1"),
    pytest.param("linear8", 100, id="linear8-100"),
])
def test_estep_bytes_do_not_depend_on_the_block_size(monkeypatch, case, block_rows):
    # chains of 241 rows, 12 of the example's or 8 of the simulated sets:
    # a chain per call; every row alone; chains cut into 100-row slices;
    # each score in one call
    args = _estep_args(case)
    x0 = run_estep(**args).last_states
    ref = [_estep_bytes(run_estep(**args)), _estep_bytes(run_estep(**args, x0=x0))]
    monkeypatch.setattr(models, "_BLOCK_ROWS", block_rows)
    calls = record_density_calls(monkeypatch, type(args["model"]))
    assert [_estep_bytes(run_estep(**args)), _estep_bytes(run_estep(**args, x0=x0))] == ref
    assert [rows for _, _, rows in calls] == slice_rows(len(args["ids"]) * 241) * 2


@pytest.mark.parametrize("order", ["C", "F"])
def test_estep_leaves_its_inputs_unchanged(order):
    args = _estep_args(n=5)
    ys = np.array(args["ys"], order=order)
    ys.setflags(write=False)
    x0 = np.array(run_estep(**args).last_states, order=order)
    m = np.array(args["m"])
    kept = [a.copy(order="K") for a in (ys, x0, m, args["sigma"].values)]
    run_estep(**dict(args, ys=ys, m=m), x0=x0)
    for before, after in zip(kept, (ys, x0, m, args["sigma"].values)):
        assert after.tobytes(order="A") == before.tobytes(order="A")


def test_estep_raises_when_an_individual_never_enters_the_domain():
    class NoDomain(LinearGaussianModel):
        def log_cond_density_pairs(self, ys, xs, theta):
            n = np.asarray(xs).shape[0]
            return np.full(n, -np.inf), np.zeros(n)

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

    m_next = estep.ex.mean(axis=0)
    stats = xtilde_update(estep, m_next)
    direct = np.zeros((2, 2))
    for i in range(5):
        direct += (estep.exx[i] - np.outer(estep.ex[i], m_next)
                   - np.outer(m_next, estep.ex[i]) + np.outer(m_next, m_next))
    direct /= 5
    assert np.allclose(stats.xtilde, direct, atol=1e-12)
    assert stats.n == 5

    # one undamped iteration of fit sets theta to the mean statistic per
    # observation, from the same E-step, bit for bit
    data = Dataset(ids, ys, model.design)
    res = fit(model, data, ZeroPattern([], dim=2), state,
              FitConfig(chain_length=150, burn_in=15, max_outer=1))
    ordered = data.for_model(model)
    first = run_estep(model, ordered.y, ordered.ids, state.m, state.sigma, state.theta,
                      150, 15, ordered.seeds(0, 1))
    assert res.state.theta == first.tstat.mean() / model.n_obs


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
    cfg = FitConfig(warmup=1000, outer_tol=1e-12, max_outer=100, seed=0)
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
    assert (res.icf_sweeps, res.icf_newton_steps, res.icf_unconverged,
            res.icf_ridged) == (13, 40, 0, 0)
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
    assert res.icf_sweeps == sum(d.sweeps for d in seen) == 13
    assert res.icf_newton_steps == sum(d.newton_steps for d in seen) == 40
    assert res.icf_unconverged == 6 and res.icf_ridged == 4


def test_fit_totals_are_sums_over_the_trace_rows(monkeypatch):
    # each row holds its M-step's diagnostics and its E-step's reject
    # count; the spy gives the E-steps nonzero counts, which the fit
    # reads nowhere else
    seen, rejects = [], []
    real_solve, real_estep = mcem.icf_solve, mcem.run_estep

    def spy_solve(stats, pattern, init=None):
        sol, diag = real_solve(stats, pattern, init=init)
        diag.converged = len(seen) % 2 == 0
        seen.append(diag)
        return sol, diag

    def spy_estep(*args, **kwargs):
        out = real_estep(*args, **kwargs)
        out.domain_rejects = out.domain_rejects + len(rejects) + 1
        rejects.append(int(np.sum(out.domain_rejects)))
        return out

    monkeypatch.setattr(mcem, "icf_solve", spy_solve)
    monkeypatch.setattr(mcem, "run_estep", spy_estep)
    res = fit(*_short_constrained_fit_args())
    icfs = [row.icf for row in res.trace]
    assert len(icfs) == len(seen) == 12
    assert all(row_icf is diag for row_icf, diag in zip(icfs, seen))
    assert [row.domain_rejects for row in res.trace] == rejects
    assert res.domain_rejects == sum(row.domain_rejects for row in res.trace) == 780
    assert res.icf_sweeps == sum(d.sweeps for d in icfs)
    assert res.icf_newton_steps == sum(d.newton_steps for d in icfs)
    assert res.icf_unconverged == sum(not d.converged for d in icfs) == 6
    assert res.icf_ridged == sum(d.ridged for d in icfs)
    assert res.accept_rate == res.trace[-1].accept_rate


def test_fit_is_invariant_to_dataset_order():
    model = LinearGaussianModel(2)
    truth = SpdMatrix(np.array([[1.0, 0.3], [0.3, 0.8]]))
    data, _ = simulate_dataset(model, np.array([0.5, -0.5]), truth, 0.4, 6, 5)
    init = FitState(m=np.zeros(2), sigma=SpdMatrix(np.eye(2)), theta=0.5)
    cfg = FitConfig(chain_length=60, burn_in=10, max_outer=8,
                    outer_tol=1e-12, seed=9)
    example, run = cortisol_example()
    cases = [(model, data, [3, 0, 5, 1, 4, 2], ZeroPattern([], dim=2), init, cfg),
             # the bundled example in file order and in id order, whose
             # per-individual accept rates round differently when averaged
             # in another order
             (run.model, example, np.argsort(example.ids), run.pattern, run.init,
              replace(run.fit, max_outer=20))]
    for model, data, perm, pattern, init, cfg in cases:
        shuffled = Dataset([data.ids[i] for i in perm], data.y[perm], data.design)
        r1 = fit(model, data, pattern, init, cfg)
        r2 = fit(model, shuffled, pattern, init, cfg)
        assert np.array_equal(r1.state.m, r2.state.m)
        assert np.array_equal(r1.state.sigma.values, r2.state.sigma.values)
        assert r1.state.theta == r2.state.theta
        assert [row.accept_rate for row in r1.trace] == [row.accept_rate for row in r2.trace]
        assert r1.accept_rate == r2.accept_rate


@pytest.mark.parametrize("m,theta,message", [
    ([0.0, 0.0], float("nan"), "theta must be positive and finite"),
    ([0.0, 0.0], float("inf"), "theta must be positive and finite"),
    ([float("nan"), 0.0], 1.0, "m must be finite"),
    ([0.0, -float("inf")], 1.0, "m must be finite"),
])
def test_fit_state_rejects_non_finite_values(m, theta, message):
    # a bad start names its field, not the individuals of a degenerate E-step
    with pytest.raises(ValueOutOfRangeError, match=message):
        FitState(m=np.array(m), sigma=SpdMatrix(np.eye(2)), theta=theta)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(chain_length=0)
    with pytest.raises(ValueError):
        FitConfig(burn_in=-1)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="outer_tol must be finite and > 0"):
            FitConfig(outer_tol=tol)
    # counts and the seed are integers: a float would fail later or be truncated
    for name in ("chain_length", "burn_in", "warmup", "max_outer", "seed"):
        for value in (20.5, 2.0, "3"):
            with pytest.raises(ValueOutOfRangeError, match="%s must be an integer" % name):
                FitConfig(**{name: value})
    assert FitConfig(chain_length=np.int64(20), seed=np.uint32(1)).seed == 1


_FIT_SCRIPT = """
import hashlib, sys
import numpy as np
from zeromix.covariance import SpdMatrix, ZeroPattern
from zeromix.mcem import FitConfig, FitState, fit
from zeromix.models import LinearGaussianModel, simulate_dataset

def fit_digest(n):
    model = LinearGaussianModel(3)
    truth = SpdMatrix(np.array([[1.0, 0.3, 0.0], [0.3, 0.8, 0.2], [0.0, 0.2, 1.1]]))
    data, _ = simulate_dataset(model, np.array([0.5, -0.5, 1.0]), truth, 0.4, n, n)
    init = FitState(m=np.zeros(3), sigma=SpdMatrix(np.eye(3)), theta=0.5)
    res = fit(model, data, ZeroPattern([(1, 3)], dim=3), init,
              FitConfig(chain_length=60, burn_in=10, max_outer=12, outer_tol=1e-12, seed=4))
    h = hashlib.sha256()
    for row in res.trace:
        h.update(row.m.tobytes() + row.sigma.tobytes() + np.float64(row.theta).tobytes()
                 + np.float64(row.accept_rate).tobytes())
    return h.hexdigest()

if __name__ == "__main__":
    print(fit_digest(int(sys.argv[1])))
"""


def test_fits_in_one_process_equal_fits_in_fresh_processes(tmp_path):
    # the E-step buffers belong to one fit: a second fit, and a fit after
    # one of another dataset size, must not see the earlier fit's state
    script = tmp_path / "fit_digest.py"
    script.write_text(_FIT_SCRIPT)
    src = os.path.dirname(os.path.dirname(zeromix.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def fresh(n):
        out = subprocess.run([sys.executable, str(script), str(n)], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=path))
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    namespace = {}
    exec(compile(_FIT_SCRIPT, str(script), "exec"), namespace)
    in_process = [namespace["fit_digest"](n) for n in (7, 7, 11, 7)]
    seven, eleven = fresh(7), fresh(11)
    assert in_process == [seven, seven, eleven, seven]
    assert seven != eleven
