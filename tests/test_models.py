"""Model layer: dose-response mean, conditional densities, conjugate
reference model, simulation, and dataset serialization.

Density values are checked against scipy.stats oracles; mean values
against hand-evaluated fractions of the response formula.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from zeromix import covariance
from zeromix.covariance import SpdMatrix
from zeromix.exceptions import (DataFormatError, DegenerateDrawError,
                                DomainError, ValueOutOfRangeError)
from zeromix.harness import example_paths
from zeromix.models import (DEFAULT_DOSES, CortisolModel, Dataset,
                            LinearGaussianModel, load_dataset, save_dataset,
                            simulate_dataset, simulate_individual)

# the density works in place; a NaN or overflow it lets escape fails here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_default_dose_grid():
    assert DEFAULT_DOSES == (0.005, 0.01, 0.1, 0.5, 1.0, 2.0, 10.0)
    model = CortisolModel()
    assert model.q == 4 and model.n_obs == 7
    assert np.array_equal(model.design, np.asarray(DEFAULT_DOSES))


def test_mean_response_by_hand():
    model = CortisolModel()
    f = model.mean(np.array([50.0, 70.0, 1.0, 0.1]))
    # x3 = 1: F(d) = 50 + 70 d / (0.1 + d)
    assert f[0] == pytest.approx(50.0 + 70.0 * 0.005 / 0.105, abs=1e-12)
    assert f[2] == pytest.approx(85.0, abs=1e-12)
    assert f[6] == pytest.approx(50.0 + 700.0 / 10.1, abs=1e-12)
    f2 = CortisolModel(doses=(0.5,)).mean(np.array([50.0, 70.0, 2.0, 0.25]))
    # 0.5^2 / (0.25^2 + 0.5^2) = 0.8
    assert f2[0] == pytest.approx(106.0, abs=1e-12)


@pytest.mark.parametrize("doses", [(), (0.5, 0.0), (-1.0,), ((0.5, 1.0),)])
def test_doses_must_be_positive_numbers_at_least_one(doses):
    with pytest.raises(ValueOutOfRangeError, match="doses must be positive numbers, at least one"):
        CortisolModel(doses)


def test_mean_rejects_off_domain_points():
    model = CortisolModel()
    with pytest.raises(DomainError):
        model.mean(np.array([50.0, 70.0, 1.0, 0.0]))
    with pytest.raises(DomainError):
        model.mean(np.array([50.0, 70.0, 1.0, -0.5]))
    with pytest.raises(DomainError):
        model.mean(np.array([np.nan, 70.0, 1.0, 0.1]))
    with pytest.raises(DomainError):
        # a mean beyond the largest float in either form
        model.mean(np.array([1e308, 1e308, 1.0, 0.1]))
    # 10^x3 overflows against x4^x3 ~ inf/inf: the exp form's finite limit
    assert model.mean(np.array([50.0, 70.0, 1e300, 2.0])).tolist() == [50.0] * 5 + [85.0, 120.0]


def test_scale_is_proportional_to_the_mean():
    model = CortisolModel()
    x = np.array([50.0, 70.0, 1.0, 0.1])
    g = model.scale(x, 0.04)
    assert g.shape == (7,)
    assert np.allclose(g, 0.2 * model.mean(x), atol=1e-12)
    assert np.array_equal(LinearGaussianModel(3).scale(x[:3], 0.25), np.full(3, 0.5))


def test_simulation_rejects_a_negative_residual_variance():
    sigma = SpdMatrix(np.eye(4))
    m = np.array([50.0, 70.0, 1.0, 0.1])
    for model in (CortisolModel(), LinearGaussianModel(4)):
        with pytest.raises(DomainError, match="nonnegative"):
            simulate_individual(model, m, sigma, -1.0, 0)


def test_conditional_density_matches_scipy():
    model = CortisolModel()
    x = np.array([48.0, 65.0, 1.2, 0.09])
    theta = 0.02
    f = model.mean(x)
    rng = np.random.default_rng(0)
    ys = f * (1.0 + 0.1 * rng.standard_normal((5, 7)))
    logp, _ = model.log_cond_density_pairs(ys, np.tile(x, (5, 1)), theta)
    assert np.all(np.isfinite(logp))
    for i in range(5):
        expected = multivariate_normal(mean=f, cov=theta * np.diag(f * f)).logpdf(ys[i])
        assert logp[i] == pytest.approx(expected, abs=1e-10)


def test_conditional_density_handles_negative_means():
    # a negative response leg is fine as long as no component is zero
    model = CortisolModel(doses=(0.5, 2.0))
    x = np.array([1.0, -3.0, 1.0, 0.5])
    f = model.mean(x)
    assert np.any(f < 0.0) and np.all(f != 0.0)
    y = np.array([-0.4, -1.5])
    expected = multivariate_normal(mean=f, cov=0.05 * np.diag(f * f)).logpdf(y)
    logp, _ = model.log_cond_density_pairs(y, x[None, :], 0.05)
    assert logp[0] == pytest.approx(expected, abs=1e-10)


def test_theta_stat_sums_squared_relative_residuals():
    model = CortisolModel()
    x = np.array([50.0, 70.0, 1.0, 0.1])
    f = model.mean(x)
    y = f * 1.1
    logp, stat = model.log_cond_density_pairs(y, x[None, :], 0.03)
    assert np.isfinite(logp[0])
    assert stat[0] == pytest.approx(7 * 0.01, abs=1e-12)


@pytest.mark.parametrize("n_doses", [7, 8, 12])
def test_paired_density_agrees_with_one_row_calls(n_doses):
    # from 8 observations on, numpy sums one column pairwise, not in row
    # order; the per-row sums must add in row order whatever the call size
    model = CortisolModel((DEFAULT_DOSES + (20.0, 0.02, 0.05, 0.2, 5.0))[:n_doses])
    theta = 0.03
    rng = np.random.default_rng(4)
    xs = np.column_stack([
        rng.normal(50, 5, 8), rng.normal(70, 5, 8),
        rng.normal(1.2, 0.2, 8), rng.normal(0.1, 0.02, 8),
    ])
    xs[3, 3] = -0.01  # off-domain row
    xs[5, :2] = 0.0  # zero mean response: singular residual scale
    ys = rng.normal(80, 5, (8, n_doses))
    logp, stat = model.log_cond_density_pairs(ys, xs, theta)
    assert np.isneginf(logp[[3, 5]]).all()
    for i in range(8):
        logp_i, stat_i = model.log_cond_density_pairs(ys[i], xs[i:i + 1], theta)
        if i not in (3, 5):
            f = model.mean(xs[i])
            expected = multivariate_normal(mean=f, cov=theta * np.diag(f * f)).logpdf(ys[i])
            assert logp[i] == pytest.approx(expected, abs=1e-10)
            assert logp_i[0] == logp[i]
            r = (ys[i] - f) / f
            assert stat[i] == pytest.approx(float(r @ r), abs=1e-10)
            assert stat_i[0] == stat[i]
        else:
            assert logp[i] == -np.inf and logp_i[0] == -np.inf


@pytest.mark.parametrize("doses", [DEFAULT_DOSES, (0.02, 0.3, 1.0, 5.0, 40.0)],
                         ids=["default", "five"])
def test_block_mean_matches_the_scalar_mean(doses):
    # the density's mean block (exp form) against ``mean`` (power form):
    # observing each row's own mean makes the theta statistic the sum of
    # squared relative differences, so every one is within 1e-13
    model = CortisolModel(doses)
    rng = np.random.default_rng(11)
    xs = np.column_stack([rng.normal(50, 5, 400), rng.normal(70, 5, 400),
                          rng.uniform(0.2, 4.0, 400), rng.lognormal(np.log(0.1), 1.0, 400)])
    ys = np.array([model.mean(x) for x in xs])
    logp, stat = model.log_cond_density_pairs(ys, xs, 0.03)
    assert np.all(np.isfinite(logp))
    assert np.all(stat <= 1e-26)


def test_an_overflowing_power_scores_its_finite_limit():
    # d^400 overflows at d = 2 and 10; the mean is x1 below x4 and
    # x1 + x2 above it, to the last bit, in ``mean`` as in the density,
    # so simulation accepts the row.  With x4 at a dose, d^400 and x4^400
    # overflow together there, and the mean is x1 + x2/2
    model = CortisolModel()
    x = np.array([50.0, 70.0, 400.0, 0.3])
    f = np.where(model.design < 0.3, 50.0, 120.0)
    assert model.mean(x).tobytes() == f.tobytes() and model.draw_ok(x)
    at_dose = np.array([50.0, 70.0, 400.0, 1.0])
    assert model.mean(at_dose).tolist() == [50.0, 50.0, 50.0, 50.0, 85.0, 120.0, 120.0]
    for row in (x, at_dose, np.array([50.0, 70.0, -400.0, 0.3])):
        # a row observed at its own mean has relative residuals of 0
        _, own = model.log_cond_density_pairs(model.mean(row)[None, :], row[None, :], 0.03)
        assert own[0] == 0.0
    ys = np.array([[52.0, 49.0, 51.0, 118.0, 125.0, 119.0, 122.0]])
    logp, stat = model.log_cond_density_pairs(ys, x[None, :], 0.03)
    r = (ys[0] - f) / f
    assert stat[0] == pytest.approx(float(r @ r), rel=1e-14)
    expected = multivariate_normal(mean=f, cov=0.03 * np.diag(f * f)).logpdf(ys[0])
    assert logp[0] == pytest.approx(expected, abs=1e-10)


def test_a_half_effect_dose_that_is_not_positive_and_finite_reads_minus_inf():
    # log x4 is -inf at 0 and NaN below it; at 0 the exp form alone would
    # give the finite mean x1 + x2
    model = CortisolModel()
    x4 = np.array([0.1, 0.0, -0.0, -0.5, -np.inf, np.inf, np.nan])
    xs = np.column_stack([np.full(7, 50.0), np.full(7, 70.0), np.full(7, 1.2), x4])
    ys = np.tile(model.mean(xs[0]), (7, 1))
    logp, stat = model.log_cond_density_pairs(ys, xs, 0.03)
    assert np.isfinite(logp[0]) and np.isfinite(stat[0])
    assert np.all(logp[1:] == -np.inf)


@pytest.mark.parametrize("order", ["C", "F"])
def test_density_leaves_its_inputs_unchanged(order):
    # off-domain, zero-mean and huge-shape (x3 = 900) rows
    model = CortisolModel()
    rng = np.random.default_rng(8)
    xs = np.column_stack([rng.normal(50, 5, 40), rng.normal(70, 5, 40),
                          rng.normal(1.2, 0.2, 40), rng.normal(0.1, 0.02, 40)])
    xs[3, 3] = -0.01
    xs[5, :2] = 0.0
    xs[7, 2] = 900.0
    xs = np.array(xs, order=order)
    ys = rng.normal(80, 5, (40, 7))
    ys.setflags(write=False)
    xs_before, ys_before = xs.copy(order="K"), ys.copy()
    logp, stat = model.log_cond_density_pairs(ys, xs, 0.03)
    assert xs.tobytes(order="A") == xs_before.tobytes(order="A")
    assert xs.flags.f_contiguous == (order == "F")
    assert ys.tobytes() == ys_before.tobytes()
    assert np.isneginf(logp[[3, 5]]).all()
    # one observation row scored against every latent row, read-only too
    one, _ = model.log_cond_density_pairs(ys[0], xs, 0.03)
    assert ys.tobytes() == ys_before.tobytes()
    assert one[0] == logp[0]


def test_draw_ok_requires_positive_response():
    model = CortisolModel()
    assert model.draw_ok(np.array([50.0, 70.0, 1.0, 0.1]))
    assert not model.draw_ok(np.array([50.0, 70.0, 1.0, 0.0]))
    assert not model.draw_ok(np.array([1.0, -300.0, 1.0, 0.1]))
    assert not model.draw_ok(np.array([np.inf, 70.0, 1.0, 0.1]))


def test_linear_gaussian_posterior_moments_by_direct_algebra():
    model = LinearGaussianModel(3)
    rng = np.random.default_rng(9)
    m = rng.standard_normal(3)
    sigma = SpdMatrix(np.array([[2.0, 0.4, 0.0], [0.4, 1.5, -0.3],
                                [0.0, -0.3, 1.0]]))
    theta = 0.7
    y = rng.standard_normal(3)
    mean, cov = model.posterior_moments(y, m, sigma, theta)
    prec = np.linalg.inv(sigma.values) + np.eye(3) / theta
    cov_exp = np.linalg.inv(prec)
    mean_exp = cov_exp @ (np.linalg.solve(sigma.values, m) + y / theta)
    assert np.allclose(cov, cov_exp, atol=1e-12)
    assert np.allclose(mean, mean_exp, atol=1e-12)


def test_linear_gaussian_marginal_matches_scipy():
    model = LinearGaussianModel(2)
    m = np.array([1.0, -2.0])
    sigma = SpdMatrix(np.array([[1.0, 0.3], [0.3, 2.0]]))
    theta = 0.5
    ys = np.array([[1.2, -1.5], [0.0, 0.0]])
    expected = multivariate_normal(
        mean=m, cov=sigma.values + theta * np.eye(2)).logpdf(ys).sum()
    assert model.marginal_loglik(ys, m, sigma, theta) == pytest.approx(
        expected, abs=1e-10)


def test_simulate_individual_is_deterministic():
    model = CortisolModel()
    m = np.array([50.0, 70.0, 1.5, 0.08])
    sigma = SpdMatrix(np.diag([20.0, 2.5, 0.05, 1e-5]))
    x1, y1 = simulate_individual(model, m, sigma, 0.015, 42)
    x2, y2 = simulate_individual(model, m, sigma, 0.015, 42)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert model.draw_ok(x1)
    assert y1.shape == (7,)


def test_simulate_individual_gives_up_after_retries():
    class Hopeless(CortisolModel):
        def draw_ok(self, x):
            return False

    model = Hopeless()
    sigma = SpdMatrix(np.eye(4))
    with pytest.raises(DegenerateDrawError, match="in 100 attempts"):
        simulate_individual(model, np.zeros(4), sigma, 0.01, 0)


def test_simulate_dataset_shape_ids_and_determinism():
    model = CortisolModel()
    m = np.array([50.0, 70.0, 1.5, 0.08])
    sigma = SpdMatrix(np.diag([20.0, 2.5, 0.05, 1e-5]))
    data, lat = simulate_dataset(model, m, sigma, 0.015, 6, 3)
    assert data.ids == tuple(str(i) for i in range(1, 7))
    assert data.y.shape == (6, 7) and lat.shape == (6, 4)
    data2, lat2 = simulate_dataset(model, m, sigma, 0.015, 6, 3)
    assert np.array_equal(data.y, data2.y) and np.array_equal(lat, lat2)


def test_simulate_dataset_factors_the_truth_once(monkeypatch):
    factorizations = []
    chol = covariance._chol

    def counting(a):
        factorizations.append(a.shape)
        return chol(a)

    monkeypatch.setattr(covariance, "_chol", counting)
    simulate_dataset(CortisolModel(), np.array([50.0, 70.0, 1.5, 0.08]),
                     np.diag([20.0, 2.5, 0.05, 1e-5]), 0.015, 6, 3)
    assert factorizations == [(4, 4)]


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        Dataset(["a", "a"], np.zeros((2, 3)), np.arange(1.0, 4.0))


def test_dataset_round_trip_is_bitwise(tmp_path):
    model = CortisolModel()
    sigma = SpdMatrix(np.diag([20.0, 2.5, 0.05, 1e-5]))
    data, _ = simulate_dataset(model, np.array([50.0, 70.0, 1.5, 0.08]),
                               sigma, 0.015, 4, 11)
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    back = load_dataset(path)
    assert back.ids == data.ids
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.design, data.design)


def test_a_byte_order_mark_before_the_header_is_skipped(tmp_path):
    csv_path, _ = example_paths()
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + Path(csv_path).read_bytes())
    back, data = load_dataset(path), load_dataset(csv_path)
    assert back.ids == data.ids
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.design, data.design)


@pytest.mark.parametrize("content,fragment", [
    ("", "row 1: file is empty"),
    ("id,obs,design_value,y\n", "row 1: expected header"),
    ("id,obs_index,design_value,y\n1,1,0.5\n", "row 2: expected 4 fields"),
    ("id,obs_index,design_value,y\n1,x,0.5,2.0\n", "row 2: obs_index"),
    ("id,obs_index,design_value,y\n1,1,0.5,abc\n", "row 2: non-numeric"),
    ("id,obs_index,design_value,y\n1,1,0.5,inf\n", "row 2: non-finite"),
    ("id,obs_index,design_value,y\n1,1,0.5,2.0\n1,1,0.5,2.1\n",
     "row 3: duplicate obs_index"),
    ("id,obs_index,design_value,y\n", "row 1: no data rows"),
    ("id,obs_index,design_value,y\n1,1,0.5,2.0\n1,2,1.0,2.1\n2,1,0.5,2.2\n",
     "row 4: id 2"),
    ("id,obs_index,design_value,y\n1,1,0.5,2.0\n2,1,0.7,2.2\n",
     "row 3: id 2 has a design grid different"),
])
def test_malformed_csv_errors_cite_rows(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DataFormatError) as err:
        load_dataset(path)
    assert fragment in str(err.value)
