"""Likelihood estimation and testing: importance-sampled marginal
likelihood, finite-difference standard errors, likelihood ratio test.

The importance sampler is checked against the closed-form marginal of
the linear reference model; the ratio test against analytic chi-square
tail formulas (exp(-s/2) at two constraints, erfc at one).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from scipy.special import logsumexp

from helpers import record_density_calls, record_pools
from zeromix import _pool, models
from zeromix.covariance import SpdMatrix, ZeroPattern
from zeromix.exceptions import (DegenerateWeightError, InputMismatchError,
                                ValueOutOfRangeError)
from zeromix.harness import cortisol_example
from zeromix.inference import (_logsumexp_rows, _unpack_params, fisher_se, free_param_labels,
                               loglik_is, lr_test, pack_params)
from zeromix.mcem import fit
from zeromix.models import (CortisolModel, Dataset, LinearGaussianModel, row_blocks,
                            simulate_dataset)

# scoring works in place; a NaN or overflow it lets escape fails here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _linear_setup(n=40, seed=1):
    model = LinearGaussianModel(2)
    m = np.array([1.0, -0.5])
    sigma = SpdMatrix(np.array([[1.0, 0.3], [0.3, 0.8]]))
    theta = 0.5
    data, _ = simulate_dataset(model, m, sigma, theta, n, seed)
    return model, data, m, sigma, theta


def test_importance_sampler_matches_the_closed_form():
    model, data, m, sigma, theta = _linear_setup()
    est = loglik_is(model, data, m, sigma, theta, n_samples=4000, seed=3)
    exact = model.marginal_loglik(data.y, m, sigma, theta)
    assert abs(est.loglik - exact) < 4.0 * est.mc_se
    assert est.mc_se > 0.0
    assert est.n_samples == 4000


def test_importance_sampler_is_deterministic_and_order_free():
    model, data, m, sigma, theta = _linear_setup(n=8)
    a = loglik_is(model, data, m, sigma, theta, n_samples=500, seed=5)
    b = loglik_is(model, data, m, sigma, theta, n_samples=500, seed=5)
    assert a.loglik == b.loglik and a.mc_se == b.mc_se
    perm = [5, 2, 7, 0, 3, 6, 1, 4]
    shuffled = Dataset([data.ids[i] for i in perm], data.y[perm], data.design)
    c = loglik_is(model, shuffled, m, sigma, theta, n_samples=500, seed=5)
    assert c.loglik == a.loglik

    # the 30-individual cortisol example, whose per-individual terms
    # round differently when summed in another order
    data, cfg = cortisol_example()
    st = cfg.init
    ref = loglik_is(cfg.model, data, st.m, st.sigma, st.theta, n_samples=200, seed=5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        perm = rng.permutation(data.n)
        shuffled = Dataset([data.ids[i] for i in perm], data.y[perm], data.design)
        est = loglik_is(cfg.model, shuffled, st.m, st.sigma, st.theta, n_samples=200, seed=5)
        assert est.loglik == ref.loglik and est.mc_se == ref.mc_se


@pytest.mark.parametrize("n_samples", [1000, 5000])
def test_estimate_is_the_id_ordered_sum_of_one_individual_estimates(n_samples):
    # 1000 samples put two individuals in one density call, 5000 one
    # individual in three calls
    data, cfg = cortisol_example()
    st = cfg.init
    est = loglik_is(cfg.model, data, st.m, st.sigma, st.theta, n_samples=n_samples, seed=2)
    total, var = 0.0, 0.0
    for i in np.argsort(data.ids):
        one = Dataset([data.ids[i]], data.y[i:i + 1], data.design)
        part = loglik_is(cfg.model, one, st.m, st.sigma, st.theta, n_samples=n_samples, seed=2)
        total += part.loglik
        var += part.mc_se ** 2
    assert est.loglik == pytest.approx(total, rel=1e-12)
    assert est.mc_se == pytest.approx(np.sqrt(var), rel=1e-12)


def test_monte_carlo_error_shrinks_with_sample_size():
    model, data, m, sigma, theta = _linear_setup(n=20)
    small = loglik_is(model, data, m, sigma, theta, n_samples=500, seed=2)
    big = loglik_is(model, data, m, sigma, theta, n_samples=8000, seed=2)
    ratio = big.mc_se / small.mc_se
    assert 0.1 < ratio < 0.6  # expect roughly 1/4


def test_all_zero_weights_raise():
    class NoDomain(LinearGaussianModel):
        def log_cond_density_pairs(self, ys, xs, theta):
            n = np.asarray(xs).shape[0]
            return np.full(n, -np.inf), np.zeros(n)

    model, data, m, sigma, theta = _linear_setup(n=2)
    bad = NoDomain(2)
    with pytest.raises(DegenerateWeightError):
        loglik_is(bad, data, m, sigma, theta, n_samples=50, seed=0)


def _lse_case(rng):
    rows, cols = int(rng.integers(1, 7)), int(rng.choice([1, 2, 3, 8, 9, 17, 130, 1000]))
    a = rng.normal(0.0, float(rng.choice([0.1, 5.0, 300.0])), (rows, cols))
    if rng.random() < 0.3:
        a = np.round(a)  # ties anywhere
    for r in range(rows):
        kind = rng.integers(0, 6)
        if kind == 1:  # ties at the maximum
            a[r, rng.integers(0, cols, 3)] = a[r].max()
        elif kind == 2:
            a[r, rng.random(cols) < 0.5] = -np.inf
        elif kind == 3:
            a[r] = -np.inf
        elif kind == 4:
            a[r, rng.integers(0, cols, int(rng.integers(1, 3)))] = np.inf
        elif kind == 5:  # one finite entry among -inf
            a[r] = -np.inf
            a[r, rng.integers(0, cols)] = rng.normal()
    return a


def test_row_logsumexp_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(20071)
    for _ in range(3000):
        a = _lse_case(rng)
        before = a.tobytes()
        assert _logsumexp_rows(a).tobytes() == logsumexp(a, axis=1).tobytes()
        assert a.tobytes() == before


class DeadRows(LinearGaussianModel):
    """Linear-Gaussian model whose densities underflow for the
    individuals whose first observation is above ``cut``."""

    def __init__(self, q, cut):
        super().__init__(q)
        self.cut = cut

    def log_cond_density_pairs(self, ys, xs, theta):
        logp, stat = super().log_cond_density_pairs(ys, xs, theta)
        dead = np.broadcast_to(np.atleast_2d(ys)[:, 0] > self.cut, logp.shape)
        return np.where(dead, -np.inf, logp), stat


@pytest.mark.parametrize("block_rows", [50, 10**9])
def test_underflowing_weights_name_the_first_dead_individual(monkeypatch, block_rows):
    # the three individuals with the largest first observation underflow;
    # with 50 rows a block holds one individual, with 10**9 all of them
    model, data, m, sigma, theta = _linear_setup(n=12, seed=3)
    ordered = data.for_model(model)
    bad = DeadRows(2, np.sort(ordered.y[:, 0])[-4])
    dead = [i for i, y in zip(ordered.ids, ordered.y) if y[0] > bad.cut]
    assert len(dead) == 3 and dead[0] != ordered.ids[0]
    monkeypatch.setattr(models, "_BLOCK_ROWS", block_rows)
    match = "all 50 importance weights underflowed for individual %s$" % dead[0]
    with pytest.raises(DegenerateWeightError, match=match):
        loglik_is(bad, data, m, sigma, theta, n_samples=50, seed=0)
    with pytest.raises(DegenerateWeightError, match=match):
        fisher_se(bad, data, m, sigma, theta, ZeroPattern([], dim=2), n_samples=50, seed=0)


@pytest.mark.parametrize("block_rows", [300, 128, 10**9])
def test_likelihood_bytes_do_not_depend_on_the_block_size(monkeypatch, block_rows):
    # one individual per block; an individual cut into 128-row pieces;
    # every row in one block
    data, cfg = cortisol_example()
    st = cfg.init
    args = (cfg.model, data, st.m, st.sigma, st.theta)
    ref = loglik_is(*args, n_samples=300, seed=4)
    model, lin, m, sigma, theta = _linear_setup(n=10, seed=2)
    lin_args = (model, lin, m, sigma, theta, ZeroPattern([], dim=2))
    ref_se = fisher_se(*lin_args, n_samples=300, seed=4)
    monkeypatch.setattr(models, "_BLOCK_ROWS", block_rows)
    calls = record_density_calls(monkeypatch, CortisolModel)
    est = loglik_is(*args, n_samples=300, seed=4)
    assert (est.loglik, est.mc_se) == (ref.loglik, ref.mc_se)
    assert max(rows for _, _, rows in calls) == min(block_rows, 300 * data.n)
    assert sum(rows for _, _, rows in calls) == 300 * data.n
    se = fisher_se(*lin_args, n_samples=300, seed=4)
    assert (se.se, se.flagged) == (ref_se.se, ref_se.flagged)
    # a block streamed alone draws the bytes a whole-dataset draw holds
    # for its rows, normals and uniforms alike
    seeds = lin.for_model(model).seeds(4)
    whole = models.Draws(lin.n * 300, 2, uniforms=(lin.n, 7))
    whole.draw(seeds, 300)
    for first, last, _ in row_blocks(lin.y, 300):
        part = models.Draws((last - first) * 300, 2, uniforms=(last - first, 7))
        part.draw(seeds[first:last], 300)
        assert part.z.tobytes() == whole.z[first * 300:last * 300].tobytes()
        assert part.u.tobytes() == whole.u[first:last].tobytes()


def test_no_density_call_exceeds_a_block():
    # a 5000-draw likelihood, the standard errors and a fit of the example
    data, cfg = cortisol_example()
    st = cfg.init
    with pytest.MonkeyPatch.context() as mp:
        calls = record_density_calls(mp, CortisolModel)
        loglik_is(cfg.model, data, st.m, st.sigma, st.theta, n_samples=5000, seed=1)
        fisher_se(cfg.model, data, st.m, st.sigma, st.theta, cfg.pattern, n_samples=300,
                  seed=1)
        fit(cfg.model, data, cfg.pattern, cfg.init, replace(cfg.fit, max_outer=2))
    rows = [r for _, _, r in calls]
    assert max(rows) <= models._BLOCK_ROWS
    assert sum(rows) == 5000 * 30 + 183 * 300 * 30 + 2 * 30 * 601


def test_free_parameter_labels_skip_constrained_entries():
    pat = ZeroPattern([(1, 3)], dim=3)
    assert free_param_labels(pat) == [
        "m1", "m2", "m3",
        "sigma_1_1", "sigma_2_1", "sigma_2_2", "sigma_3_2", "sigma_3_3",
        "theta",
    ]


def test_parameter_packing_round_trip():
    pat = ZeroPattern([(1, 3), (2, 4)], dim=4)
    entries = np.diag([1.0, 2.0, 3.0, 4.0])
    entries[1, 0] = entries[0, 1] = 0.3
    entries[3, 2] = entries[2, 3] = -0.2
    sigma = SpdMatrix(entries, pattern=pat)
    m = np.array([1.5, -2.0, 0.25, 3.0])
    vec = pack_params(m, sigma, 0.7, pat)
    labels = free_param_labels(pat)
    assert len(vec) == len(labels) == 4 + (10 - 2) + 1
    assert "sigma_3_1" not in labels and "sigma_4_2" not in labels
    assert vec[labels.index("sigma_2_1")] == 0.3
    assert vec[labels.index("sigma_4_3")] == -0.2
    # a plain nested list (a report's sigma) packs to the same vector
    assert np.array_equal(pack_params(list(m), entries.tolist(), 0.7, pat), vec)
    m_back, sigma_back, theta_back = _unpack_params(vec, pat)
    assert np.array_equal(m_back, m)
    assert np.array_equal(sigma_back.values, sigma.values)
    assert sigma_back.pattern == pat
    assert theta_back == 0.7


def test_standard_errors_track_the_sampling_variance_of_the_mean():
    model, data, m, sigma, theta = _linear_setup(n=100, seed=8)
    res = fisher_se(model, data, m, sigma, theta, ZeroPattern([], dim=2),
                    n_samples=600, seed=1)
    theory = np.sqrt(np.diag(sigma.values + theta * np.eye(2)) / 100.0)
    for i, label in enumerate(("m1", "m2")):
        assert label in res.se
        assert res.se[label] == pytest.approx(theory[i], rel=0.35)


def test_standard_errors_equal_a_stencil_through_loglik_is():
    model, data, m, sigma, theta = _linear_setup(n=60, seed=2)
    res = fisher_se(model, data, m, sigma, theta, ZeroPattern([], dim=2),
                    n_samples=300, seed=4)

    v0 = np.array([m[0], m[1], sigma.values[0, 0], sigma.values[1, 0],
                   sigma.values[1, 1], theta])
    steps = 1e-3 * np.maximum(np.abs(v0), 1e-6)

    def f(offsets):
        v = v0.copy()
        for idx, mult in offsets.items():
            v[idx] += mult * steps[idx]
        s = SpdMatrix(np.array([[v[2], v[3]], [v[3], v[4]]]))
        return -loglik_is(model, data, v[:2], s, v[5], n_samples=300, seed=4).loglik

    f0 = f({})
    up = [f({i: 1}) for i in range(6)]
    down = [f({i: -1}) for i in range(6)]
    hess = np.zeros((6, 6))
    for i in range(6):
        hess[i, i] = (up[i] - 2.0 * f0 + down[i]) / steps[i] ** 2
        for j in range(i):
            # 7-point mixed derivative (Abramowitz & Stegun 25.3.27)
            hess[i, j] = hess[j, i] = (
                f({i: 1, j: 1}) + f({i: -1, j: -1})
                - up[i] - down[i] - up[j] - down[j] + 2.0 * f0
            ) / (2.0 * steps[i] * steps[j])
    # the SEs present come from the Hessian block of their coordinates
    assert res.labels == ["m1", "m2", "sigma_1_1", "sigma_2_1", "sigma_2_2", "theta"]
    keep = [k for k, label in enumerate(res.labels) if label in res.se]
    assert {"m1", "m2"} <= set(res.se)
    se_ref = np.sqrt(np.diag(np.linalg.inv(hess[np.ix_(keep, keep)])))
    for k, ref in zip(keep, se_ref):
        assert res.se[res.labels[k]] == pytest.approx(ref, rel=1e-9)


def test_a_step_out_of_the_cone_flags_its_coordinate():
    # with rho = 0.9995 the default 0.1% steps on the covariance entries
    # leave Sigma indefinite; the mean coordinates keep their standard
    # errors
    model, data, m, _, theta = _linear_setup(n=40, seed=4)
    sigma = SpdMatrix(np.array([[1.0, 0.9995], [0.9995, 1.0]]))
    res = fisher_se(model, data, m, sigma, theta, ZeroPattern([], dim=2),
                    n_samples=200, seed=1)
    assert res.flagged
    assert "sigma_2_1" not in res.se
    assert "m1" in res.se and "m2" in res.se


@pytest.mark.parametrize("example", [False, True])
def test_a_clean_point_scores_each_stencil_point_once(monkeypatch, example):
    # each point is one density call per block of individuals, each on
    # its own draws, so a point scored twice repeats a call
    if example:
        data, cfg = cortisol_example()
        model, st, pattern = cfg.model, cfg.init, cfg.pattern
        m, sigma, theta = st.m, st.sigma, st.theta
    else:
        model, data, m, sigma, theta = _linear_setup(n=40, seed=4)
        pattern = ZeroPattern([], dim=2)
    calls = record_density_calls(monkeypatch, type(model))
    res = fisher_se(model, data, m, sigma, theta, pattern, n_samples=200, seed=1)
    p = len(res.labels)
    assert p == (13 if example else 6)
    blocks = len(list(row_blocks(data.y, 200)))
    assert blocks == (3 if example else 4)
    assert len(calls) == (1 + 2 * p + p * (p - 1)) * blocks  # 183 points for the example
    assert len(set(calls)) == len(calls)


def test_the_cross_points_of_a_bad_coordinate_are_not_scored(monkeypatch):
    # with rho = 0.9993 the +0.1% step on sigma_2_1 leaves the cone, so
    # neither its -0.1% step nor its 10 cross points are scored; the
    # (-, -) step on sigma_1_1 and sigma_2_2 leaves it too, which drops
    # their 4 cross points with theta
    model, data, m, _, theta = _linear_setup(n=40, seed=4)
    sigma = SpdMatrix(np.array([[1.0, 0.9993], [0.9993, 1.0]]))
    calls = record_density_calls(monkeypatch, LinearGaussianModel)
    res = fisher_se(model, data, m, sigma, theta, ZeroPattern([], dim=2),
                    n_samples=200, seed=1)
    # f0, 10 diagonal points, 7 pairs of good coordinates and the (+, +)
    # point of (sigma_2_2, sigma_1_1), each in 4 blocks of 10 individuals;
    # an unscored point raises in its first block's factorization
    assert len(calls) == (1 + 10 + 2 * 7 + 1) * len(list(row_blocks(data.y, 200)))
    assert len(set(calls)) == len(calls)
    assert res.flagged
    assert set(res.se) == {"m1", "m2", "theta"}


class BrokenOffCentre(LinearGaussianModel):
    """Fails with a programming error at any theta but ``centre``."""

    def __init__(self, q, centre):
        super().__init__(q)
        self.centre = centre

    def log_cond_density_pairs(self, ys, xs, th):
        if th != self.centre:
            raise RuntimeError("model bug")
        return super().log_cond_density_pairs(ys, xs, th)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_programming_error_in_the_model_propagates(monkeypatch, cpus):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
    model, data, m, sigma, theta = _linear_setup(n=5)
    broken = BrokenOffCentre(2, theta)
    with pytest.raises(RuntimeError, match="model bug"):
        fisher_se(broken, data, m, sigma, theta, ZeroPattern([], dim=2),
                  n_samples=50, seed=1)


@pytest.mark.parametrize("rho", [0.3, 0.9995])
def test_standard_errors_start_no_pool_at_any_cpu_count(monkeypatch, rho):
    # at rho = 0.9995 some stencil points raise
    model, data, m, _, theta = _linear_setup(n=40, seed=4)
    sigma = SpdMatrix(np.array([[1.0, rho], [rho, 1.0]]))
    pools = record_pools(monkeypatch)
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
        results.append(fisher_se(model, data, m, sigma, theta, ZeroPattern([], dim=2),
                                 n_samples=200, seed=1))
    assert pools == []
    if rho == 0.9995:
        assert results[0].flagged and "sigma_2_1" not in results[0].se
    assert results[1] == results[0] and results[2] == results[0]


def test_sample_counts_below_one_are_range_errors():
    model, data, m, sigma, theta = _linear_setup(n=2)
    with pytest.raises(ValueOutOfRangeError, match="n_samples must be >= 1"):
        loglik_is(model, data, m, sigma, theta, n_samples=0)
    with pytest.raises(ValueOutOfRangeError, match="n_samples must be >= 1"):
        fisher_se(model, data, m, sigma, theta, ZeroPattern([], dim=2), n_samples=0)


def test_a_dataset_that_does_not_fit_the_model_is_rejected():
    # the example cut to its first observation, and on a doubled dose grid
    data, cfg = cortisol_example()
    st = cfg.init
    for bad in (Dataset(data.ids, data.y[:, :1], data.design[:1]),
                Dataset(data.ids, data.y, 2.0 * data.design)):
        with pytest.raises(InputMismatchError):
            loglik_is(cfg.model, bad, st.m, st.sigma, st.theta, n_samples=200, seed=1)
        with pytest.raises(InputMismatchError):
            fisher_se(cfg.model, bad, st.m, st.sigma, st.theta, cfg.pattern,
                      n_samples=200, seed=1)
        with pytest.raises(InputMismatchError):
            fit(cfg.model, bad, cfg.pattern, st, cfg.fit)


def test_lr_statistic_and_pvalue_on_pinned_inputs():
    pat = ZeroPattern([(1, 4), (3, 4)], dim=4)
    res = lr_test(-754.23, -750.25, pat)
    assert res.stat == pytest.approx(7.96, abs=1e-9)
    assert res.df == 2
    # two constraints: survival function is exp(-s/2) exactly
    assert res.p_value == pytest.approx(math.exp(-3.98), abs=1e-12)


def test_lr_single_constraint_matches_the_erfc_tail():
    res = lr_test(-10.0, -9.0, ZeroPattern([(1, 2)], dim=2))
    assert res.stat == pytest.approx(2.0, abs=1e-12)
    assert res.df == 1
    assert res.p_value == pytest.approx(math.erfc(1.0), abs=1e-12)


def test_lr_without_constraints_is_vacuous():
    res = lr_test(-5.0, -5.0, ZeroPattern([], dim=3))
    assert res.stat == 0.0
    assert res.df == 0
    assert res.p_value == 1.0


def test_lr_clips_small_negative_statistics_with_a_warning():
    pat = ZeroPattern([(1, 2)], dim=2)
    with pytest.warns(RuntimeWarning):
        res = lr_test(-9.9, -10.0, pat)
    assert res.stat == 0.0
    assert res.p_value == 1.0
