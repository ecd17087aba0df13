"""Likelihood estimation and testing: importance-sampled marginal
likelihood, finite-difference standard errors, likelihood ratio test.

The importance sampler is checked against the closed-form marginal of
the linear reference model; the ratio test against analytic chi-square
tail formulas (exp(-s/2) at two constraints, erfc at one).
"""

import math

import numpy as np
import pytest

from zeromix.covariance import SpdMatrix, ZeroPattern
from zeromix.exceptions import DegenerateWeightError
from zeromix.harness import cortisol_example
from zeromix.inference import (fisher_se, free_param_labels, loglik_is,
                               lr_test)
from zeromix.models import LinearGaussianModel, simulate_dataset


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
    from zeromix.models import Dataset
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
    # 1000 samples put several individuals in one density call, 5000 one
    from zeromix.models import Dataset
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


def test_duplicated_individuals_double_the_result_exactly():
    from zeromix.models import Dataset
    model, data, m, sigma, theta = _linear_setup(n=3)
    base = loglik_is(model, data, m, sigma, theta, n_samples=400,
                     individual_seeds={i: int(k) for k, i in enumerate(data.ids)})
    doubled = Dataset(
        list(data.ids) + [f"{i}x" for i in data.ids],
        np.vstack([data.y, data.y]), data.design)
    seeds = {i: int(k) for k, i in enumerate(data.ids)}
    seeds.update({f"{i}x": int(k) for k, i in enumerate(data.ids)})
    est = loglik_is(model, doubled, m, sigma, theta, n_samples=400,
                    individual_seeds=seeds)
    assert est.loglik == pytest.approx(2.0 * base.loglik, abs=1e-9)


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
            return np.full(n, -np.inf), np.zeros(n, dtype=bool), np.zeros(n)

    model, data, m, sigma, theta = _linear_setup(n=2)
    bad = NoDomain(2)
    with pytest.raises(DegenerateWeightError):
        loglik_is(bad, data, m, sigma, theta, n_samples=50, seed=0)


def test_free_parameter_labels_skip_constrained_entries():
    pat = ZeroPattern([(1, 3)], dim=3)
    assert free_param_labels(pat) == [
        "m1", "m2", "m3",
        "sigma_1_1", "sigma_2_1", "sigma_2_2", "sigma_3_2", "sigma_3_3",
        "theta",
    ]


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
    hess = np.zeros((6, 6))
    for i in range(6):
        hess[i, i] = (f({i: 1}) - 2.0 * f0 + f({i: -1})) / steps[i] ** 2
        for j in range(i):
            hess[i, j] = hess[j, i] = (
                f({i: 1, j: 1}) - f({i: 1, j: -1}) - f({i: -1, j: 1}) + f({i: -1, j: -1})
            ) / (4.0 * steps[i] * steps[j])
    # the SEs present come from the Hessian block of their coordinates
    assert res.labels == ["m1", "m2", "sigma_1_1", "sigma_2_1", "sigma_2_2", "theta"]
    keep = [k for k, label in enumerate(res.labels) if label in res.se]
    assert {"m1", "m2"} <= set(res.se)
    se_ref = np.sqrt(np.diag(np.linalg.inv(hess[np.ix_(keep, keep)])))
    for k, ref in zip(keep, se_ref):
        assert res.se[res.labels[k]] == pytest.approx(ref, rel=1e-9)


def test_a_step_out_of_the_cone_flags_its_coordinate():
    # with rho = 0.95 a 10% step on the covariance entry leaves Sigma
    # indefinite; the mean coordinates keep their standard errors
    model, data, m, _, theta = _linear_setup(n=40, seed=4)
    sigma = SpdMatrix(np.array([[1.0, 0.95], [0.95, 1.0]]))
    res = fisher_se(model, data, m, sigma, theta, ZeroPattern([], dim=2),
                    n_samples=200, seed=1, step_scale=0.1)
    assert res.flagged
    assert "sigma_2_1" not in res.se
    assert "m1" in res.se and "m2" in res.se


def test_a_programming_error_in_the_model_propagates():
    model, data, m, sigma, theta = _linear_setup(n=5)

    class BrokenOffCentre(LinearGaussianModel):
        def log_cond_density_pairs(self, ys, xs, th):
            if th != theta:
                raise RuntimeError("model bug")
            return super().log_cond_density_pairs(ys, xs, th)

    with pytest.raises(RuntimeError, match="model bug"):
        fisher_se(BrokenOffCentre(2), data, m, sigma, theta, ZeroPattern([], dim=2),
                  n_samples=50, seed=1)


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
