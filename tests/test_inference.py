"""Likelihood estimation and testing: importance-sampled marginal
likelihood, finite-difference standard errors, likelihood ratio test.

The importance sampler is checked against the closed-form marginal of
the linear reference model; the ratio test's chi-square tail against
exact identities (erfc at one constraint, exp(-s/2) at two, 1 at zero,
never rising with the statistic) and, to 1e-12 relative, against
``scipy.stats.chi2.sf`` as an oracle; the row log-sum-exp against
``scipy.special.logsumexp`` to 4 ulps.
"""

import itertools
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from scipy.special import logsumexp
from scipy.stats import chi2

from helpers import (block_size_case, random_pattern, random_spd, record_density_calls,
                     record_pools, slice_rows)
from zeromix import _pool, models
from zeromix.covariance import SpdMatrix, ZeroPattern, min_eig_repair, zero_forced
from zeromix.exceptions import (DegenerateWeightError, InputMismatchError,
                                ValueOutOfRangeError)
from zeromix.harness import cortisol_example
from zeromix.inference import (_chi2_sf, _logsumexp_rows, _unpack_params, fisher_se,
                               free_param_labels, loglik_is, lr_test, pack_params)
from zeromix.mcem import fit
from zeromix.models import CortisolModel, Dataset, LinearGaussianModel, simulate_dataset

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


def test_row_logsumexp_matches_scipy_within_4_ulps():
    # finite rows within 4 ulps of max(1, |scipy|), non-finite exactly
    # where scipy's are, and the input keeps its bytes
    rng = np.random.default_rng(20071)
    for _ in range(3000):
        a = _lse_case(rng)
        before = a.tobytes()
        got, want = _logsumexp_rows(a), logsumexp(a, axis=1)
        assert a.tobytes() == before
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        ulp = np.spacing(np.maximum(1.0, np.abs(want[finite])))
        assert np.all(np.abs(got[finite] - want[finite]) <= 4 * ulp)


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


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("block_rows", [50, 10**9])
def test_underflowing_weights_name_the_first_dead_individual(monkeypatch, block_rows, cpus):
    # the three individuals with the largest first observation underflow;
    # with 50 rows a call holds one individual, with 10**9 all of a score's;
    # the standard errors' centre, where the error is raised, is scored in
    # this process whatever the CPU count
    monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
    model, data, m, sigma, theta = _linear_setup(n=12, seed=3)
    ordered = data.for_model(model)
    bad = DeadRows(2, np.sort(ordered.y[:, 0])[-4])
    dead = [i for i, y in zip(ordered.ids, ordered.y) if y[0] > bad.cut]
    assert len(dead) == 3 and dead[0] != ordered.ids[0]
    monkeypatch.setattr(models, "_BLOCK_ROWS", block_rows)
    match = "all 50 importance weights underflowed for individual %s$" % dead[0]
    with pytest.raises(DegenerateWeightError, match=match):
        loglik_is(bad, data, m, sigma, theta, n_samples=50, seed=0)
    scores = []
    score = models.Draws.score

    def counted(self, *args, **kwargs):
        scores.append(args[1].shape[0])
        return score(self, *args, **kwargs)

    monkeypatch.setattr(models.Draws, "score", counted)
    with pytest.raises(DegenerateWeightError, match=match):
        fisher_se(bad, data, m, sigma, theta, ZeroPattern([], dim=2), n_samples=50, seed=0)
    # this process scores the first share, and stops it at the failed centre
    assert scores == [data.n]


class DeadOffCentre(LinearGaussianModel):
    """Every weight underflows at any theta but ``centre``."""

    def __init__(self, q, centre):
        super().__init__(q)
        self.centre = centre

    def log_cond_density_pairs(self, ys, xs, th):
        logp, stat = super().log_cond_density_pairs(ys, xs, th)
        return (logp if th == self.centre else np.full_like(logp, -np.inf)), stat


@pytest.mark.parametrize("cpus", [1, 2])
def test_underflowing_weights_off_the_centre_flag_their_coordinate(monkeypatch, cpus):
    # every point that moves theta underflows; its DegenerateWeightError
    # comes back as that point's value, from a worker's share on 2 CPUs,
    # so theta is flagged instead of the error ending the call
    monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
    model, data, m, sigma, theta = _linear_setup(n=40, seed=4)
    res = fisher_se(DeadOffCentre(2, theta), data, m, sigma, theta, ZeroPattern([], dim=2),
                    n_samples=200, seed=1)
    assert res.flagged
    assert "theta" not in res.se and {"m1", "m2"} <= set(res.se)


@pytest.mark.parametrize("case, block_rows", [
    pytest.param("example", 300, id="300"),
    pytest.param("example", 128, id="128"),
    pytest.param("example", 10**9, id="1000000000"),
    pytest.param("example", 1, id="example-1"),
    pytest.param("cortisol12", 1, id="cortisol12-1"),
    pytest.param("cortisol12", 128, id="cortisol12-128"),
    pytest.param("linear8", 1, id="linear8-1"),
    pytest.param("linear8", 128, id="linear8-128"),
])
def test_likelihood_bytes_do_not_depend_on_the_block_size(monkeypatch, case, block_rows):
    # 300 draws per individual: an individual per call; every row alone;
    # individuals cut into 128-row slices; each score in one call.  The
    # standard errors score 3 individuals at 20 draws, where most are
    # flagged, so every score of every stencil point is compared too, on
    # one CPU so that every score is made in this process.
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    model, data, m, sigma, theta, pattern = block_size_case(case)
    args = (model, data, m, sigma, theta)
    few = Dataset(data.ids[:3], data.y[:3], data.design)
    se_args = (model, few, m, sigma, theta, pattern)
    scores = []
    density = type(model).log_cond_density_pairs

    def recording(self, ys, xs, th):
        scores.append(density(self, ys, xs, th))
        return scores[-1]

    def scored():
        joined = [np.concatenate(out).tobytes() for out in zip(*scores)]
        scores.clear()
        return joined

    monkeypatch.setattr(type(model), "log_cond_density_pairs", recording)
    ref = loglik_is(*args, n_samples=300, seed=4)
    ref_se = fisher_se(*se_args, n_samples=20, seed=4)
    ref_scores = scored()
    monkeypatch.setattr(models, "_BLOCK_ROWS", block_rows)
    calls = record_density_calls(monkeypatch, type(model))
    est = loglik_is(*args, n_samples=300, seed=4)
    assert (est.loglik, est.mc_se) == (ref.loglik, ref.mc_se)
    assert [rows for _, _, rows in calls] == slice_rows(300) * data.n
    se = fisher_se(*se_args, n_samples=20, seed=4)
    assert (se.se, se.flagged) == (ref_se.se, ref_se.flagged)
    assert scored() == ref_scores
    # an individual streamed alone draws the bytes a whole-dataset draw
    # holds for its rows, normals and uniforms alike
    seeds = data.seeds(4)
    whole = models.Draws(data.n * 300, model.q, uniforms=(data.n, 7))
    whole.draw(seeds, 300)
    one = models.Draws(300, model.q, uniforms=(1, 7))
    for i, seed in enumerate(seeds):
        one.draw([seed], 300)
        assert one.z.tobytes() == whole.z[i * 300:(i + 1) * 300].tobytes()
        assert one.u.tobytes() == whole.u[i].tobytes()


def test_no_density_call_exceeds_a_block(monkeypatch):
    # a 5000-draw likelihood, the standard errors and a fit of the example,
    # on one CPU so that every density call is made in this process
    data, cfg = cortisol_example()
    st = cfg.init
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
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


@pytest.mark.parametrize("q", range(1, 9))
def test_parameter_packing_round_trip_at_every_order(q):
    rng = np.random.default_rng(2900 + q)
    patterns = [ZeroPattern([], dim=q)]
    if q > 1:
        patterns += [random_pattern(rng, q, max_pairs=q * (q - 1) // 2) for _ in range(3)]
    for pat in patterns:
        sigma = SpdMatrix(min_eig_repair(zero_forced(random_spd(rng, q), pat), 100).values,
                          pattern=pat)
        m, theta = rng.standard_normal(q), float(rng.standard_normal())
        vec = pack_params(m, sigma, theta, pat)
        assert len(vec) == len(free_param_labels(pat)) == q + q * (q + 1) // 2 - len(pat) + 1
        m_back, sigma_back, theta_back = _unpack_params(vec, pat)
        assert m_back.tobytes() == m.tobytes()
        assert sigma_back.values.tobytes() == sigma.values.tobytes()
        assert sigma_back.pattern == pat
        assert theta_back == theta


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
    # each point is one density call per slice of its rows, each on its
    # own draws, so a point scored twice repeats a call; on one CPU, so
    # that every call is made in this process, which draws the common
    # normals once
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    if example:
        data, cfg = cortisol_example()
        model, st, pattern = cfg.model, cfg.init, cfg.pattern
        m, sigma, theta = st.m, st.sigma, st.theta
    else:
        model, data, m, sigma, theta = _linear_setup(n=40, seed=4)
        pattern = ZeroPattern([], dim=2)
    calls = record_density_calls(monkeypatch, type(model))
    draw = models.Draws.draw
    draws = []

    def recording(self, seeds, unit):
        draws.append(unit)
        return draw(self, seeds, unit)

    monkeypatch.setattr(models.Draws, "draw", recording)
    res = fisher_se(model, data, m, sigma, theta, pattern, n_samples=200, seed=1)
    assert draws == [200]  # the common normals, drawn once
    p = len(res.labels)
    assert p == (13 if example else 6)
    assert slice_rows(data.n * 200) == ([2048, 2048, 1904] if example else [2048] * 3 + [1856])
    points = 1 + 2 * p + p * (p - 1)  # 183 for the example
    assert [rows for _, _, rows in calls] == slice_rows(data.n * 200) * points
    assert len(set(calls)) == len(calls)


def test_a_bad_coordinate_is_flagged_and_each_point_scored_at_most_once(monkeypatch):
    # with rho = 0.9993 the +0.1% step on sigma_2_1 leaves the cone, which
    # flags it, and so does the (-, -) step on sigma_1_1 and sigma_2_2,
    # which flags both; every other point is scored all the same, once,
    # its value unused when it involves a flagged coordinate; on one CPU,
    # so that every call is made in this process
    model, data, m, _, theta = _linear_setup(n=40, seed=4)
    sigma = SpdMatrix(np.array([[1.0, 0.9993], [0.9993, 1.0]]))
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    calls = record_density_calls(monkeypatch, LinearGaussianModel)
    res = fisher_se(model, data, m, sigma, theta, ZeroPattern([], dim=2),
                    n_samples=200, seed=1)
    # f0, 11 of the 12 axis points and 26 of the 30 cross points, each in
    # the 4 slices of its 8000 rows: the + step on sigma_2_1, its (+, +)
    # points with m1, m2 and theta, and the (-, -) point of (sigma_2_2,
    # sigma_1_1) raise in their factorization before any call
    assert [rows for _, _, rows in calls] == slice_rows(40 * 200) * (1 + 11 + 26)
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


class BrokenElsewhere(LinearGaussianModel):
    """Fails with a programming error in any process but the one that made it."""

    def __init__(self, q):
        super().__init__(q)
        self.home = os.getpid()

    def log_cond_density_pairs(self, ys, xs, th):
        if os.getpid() != self.home:
            raise RuntimeError("model bug")
        return super().log_cond_density_pairs(ys, xs, th)


@pytest.mark.parametrize("cpus,where", [
    pytest.param(1, "off_centre", id="1"),
    pytest.param(2, "off_centre", id="2"),
    pytest.param(2, "in_a_worker", id="2-in-a-worker"),
])
def test_a_programming_error_in_the_model_propagates(monkeypatch, cpus, where):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
    model, data, m, sigma, theta = _linear_setup(n=5)
    broken = BrokenOffCentre(2, theta) if where == "off_centre" else BrokenElsewhere(2)
    with pytest.raises(RuntimeError, match="model bug"):
        fisher_se(broken, data, m, sigma, theta, ZeroPattern([], dim=2),
                  n_samples=50, seed=1)


@pytest.mark.parametrize("case", ["0.3", "0.9995", "example"])
def test_standard_errors_are_the_same_at_any_cpu_count(monkeypatch, case):
    # at rho = 0.9995 some cross points raise inside worker shares
    if case == "example":
        data, cfg = cortisol_example()
        model, st, pattern = cfg.model, cfg.init, cfg.pattern
        m, sigma, theta = st.m, st.sigma, st.theta
    else:
        model, data, m, _, theta = _linear_setup(n=40, seed=4)
        rho = float(case)
        sigma = SpdMatrix(np.array([[1.0, rho], [rho, 1.0]]))
        pattern = ZeroPattern([], dim=2)
    pools = record_pools(monkeypatch)
    results, pools_per_count = [], []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
        results.append(fisher_se(model, data, m, sigma, theta, pattern,
                                 n_samples=200, seed=1))
        pools_per_count.append(pools[:])
        pools.clear()
    # this process scores the first share of the stencil
    assert pools_per_count == [[], [1], [2]]
    if case == "0.9995":
        assert results[0].flagged and "sigma_2_1" not in results[0].se
    assert results[1] == results[0] and results[2] == results[0]


def _se_in_a_worker(*args):
    with pytest.MonkeyPatch.context() as mp:
        pools = record_pools(mp)
        return os.getpid(), fisher_se(*args), pools


def test_standard_errors_in_a_worker_start_no_pool(monkeypatch):
    model, data, m, sigma, theta = _linear_setup(n=40, seed=4)
    args = (model, data, m, sigma, theta, ZeroPattern([], dim=2), 200, 1)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    alone = fisher_se(*args)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    for pid, res, pools in _pool.run_tasks(_se_in_a_worker, [args, args]):
        assert pid != os.getpid()
        assert pools == []
        assert res == alone


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


# statistics 0..3000: a grid, finer below 50 where the tails of df <= 40
# fall from near 1, geometric below that where terms sum to nearly 1
_CHI2_GRID = np.unique(np.concatenate([np.linspace(0.0, 3000.0, 12001),
                                       np.linspace(0.0, 50.0, 10001),
                                       np.geomspace(1e-12, 3000.0, 4000),
                                       [1e-300, 1e-12, 0.5, 1.0, 50.0, 700.0, 1491.0]]))


@pytest.mark.parametrize("df", range(1, 41))
def test_lr_pvalue_matches_scipy_stats_within_1e12(df):
    # scipy's chi-square tail as an oracle, wherever it is at least 1e-300
    got = np.array([_chi2_sf(float(x), df) for x in _CHI2_GRID])
    want = chi2.sf(_CHI2_GRID, df)
    keep = want >= 1e-300
    assert keep.sum() > 1000
    assert np.max(np.abs(got[keep] - want[keep]) / want[keep]) <= 1e-12
    # the tail never rises with the statistic, down to 0 past 1e-300
    assert got[0] == 1.0 and np.all(np.diff(got) <= 0.0) and 0.0 <= got[-1] < 1e-300
    pat = ZeroPattern(list(itertools.combinations(range(1, 11), 2))[:df], dim=10)
    for stat in (0.0, 1e-300, 1.0, float(df), 5.0 * df, 1e4, math.inf):
        res = lr_test(0.0, stat / 2.0, pat)
        assert (res.stat, res.df) == (stat, df)
        assert res.p_value == _chi2_sf(stat, df)


def test_chi2_tail_meets_its_exact_identities():
    # one degree of freedom is the erfc tail, two the exponential, bit
    # for bit; every tail is 1 at 0
    for x in (1e-300, 1e-12, 1e-5, 0.3, 1.0, 2.0, 7.5, 100.0, 1400.0, 1600.0):
        assert _chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))
        assert _chi2_sf(x, 2) == math.exp(-x / 2)
    assert all(_chi2_sf(0.0, df) == 1.0 for df in range(1, 41))


def test_lr_clips_small_negative_statistics_with_a_warning():
    pat = ZeroPattern([(1, 2)], dim=2)
    with pytest.warns(RuntimeWarning):
        res = lr_test(-9.9, -10.0, pat)
    assert res.stat == 0.0
    assert res.p_value == 1.0
