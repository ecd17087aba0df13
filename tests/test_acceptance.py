"""Acceptance battery: one test per shipped contract, pinned tolerances.

Every test prints a single PASS/FAIL line with the measured numbers so
a run of this file doubles as a checklist.  All randomness is seeded;
the stochastic checks state their Monte-Carlo tolerance explicitly.
Nothing here may be loosened to make a failing check pass: a red line
means the package, not the test, needs attention.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from helpers import (
    brute_force_constrained_objective,
    oracle_starts,
    random_pattern,
    random_spd,
)
from zeromix.covariance import (
    SpdMatrix,
    SufficientStats,
    ZeroPattern,
    icf_column_update,
    icf_solve,
    min_eig_repair,
    objective,
    schur_split,
    zero_forced,
)
from zeromix.harness import (
    SimStudyConfig,
    cortisol_example,
    qq_data,
    run_simulation_study,
)
from zeromix.inference import loglik_is, lr_test
from zeromix.mcem import FitConfig, FitState, fit
from zeromix.models import LinearGaussianModel, simulate_dataset


def _line(status, name, detail):
    print(f"[{status}] {name}: {detail}")


def test_corner_split_identities_hold_at_scale():
    """det(Sigma) = det(A) * s and the bordered quadratic-form identity
    hold to 1e-10 relative on 1000 random SPD matrices, within 5 s."""
    rng = np.random.default_rng(1)
    worst_det = 0.0
    worst_quad = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        q = int(rng.integers(2, 9))
        sigma = random_spd(rng, q)
        z = rng.standard_normal(q)
        j = int(rng.integers(1, q + 1))
        split = schur_split(sigma, j)
        det_full = float(np.linalg.det(sigma))
        det_split = float(np.linalg.det(split.a)) * split.s
        worst_det = max(worst_det, abs(det_full - det_split) / abs(det_full))
        rest = [t for t in range(q) if t != j - 1]
        u, v = z[rest], z[j - 1]
        au = np.linalg.solve(split.a, u)
        quad_full = float(z @ np.linalg.solve(sigma, z))
        quad_split = float(u @ au) + (v - float(split.b @ au)) ** 2 / split.s
        worst_quad = max(worst_quad, abs(quad_full - quad_split) / abs(quad_full))
    elapsed = time.perf_counter() - start
    ok = worst_det < 1e-10 and worst_quad < 1e-10 and elapsed < 5.0
    _line("PASS" if ok else "FAIL", "corner split identities",
          f"1000 matrices q=2..8, det rel err {worst_det:.2e}, "
          f"quadratic-form rel err {worst_quad:.2e}, {elapsed:.2f}s (< 5s)")
    assert worst_det < 1e-10
    assert worst_quad < 1e-10
    assert elapsed < 5.0


@pytest.fixture(scope="module")
def solver_battery():
    """400 constrained solves checked two ways at once.

    For each problem the columnwise solver runs to convergence and is
    compared against an independent quasi-Newton minimizer; the
    identical update sequence is then replayed one column at a time,
    checking descent, positive definiteness and exact zeros after
    every single update.
    """
    rng = np.random.default_rng(20240817)
    cases = []
    for pair in ((1, 2), (1, 3), (2, 3)):
        pat = ZeroPattern([pair], dim=3)
        cases.extend((random_spd(rng, 3), pat) for _ in range(50))
    patterns = []
    while len(patterns) < 5:
        cand = random_pattern(rng, 4)
        if cand not in patterns:
            patterns.append(cand)
    for pat in patterns:
        cases.extend((random_spd(rng, 4), pat) for _ in range(50))

    start = time.perf_counter()
    max_gap = 0.0
    max_kkt = 0.0
    updates = 0
    descent_bad = 0
    pd_bad = 0
    zeros_bad = 0
    for xt, pat in cases:
        stats = SufficientStats(xt, n=100)
        sol, diag = icf_solve(stats, pat)
        max_kkt = max(max_kkt, diag.kkt)
        best = brute_force_constrained_objective(xt, pat, oracle_starts(xt, pat))
        max_gap = max(max_gap, abs(objective(sol, stats) - best))

        q = pat.dim
        mask = pat.mask()
        sigma = SpdMatrix(np.diag(np.diag(xt)), pattern=pat)
        obj = objective(sigma, stats)
        for _ in range(max(diag.sweeps, 1)):
            for j in range(1, q + 1):
                sigma = icf_column_update(sigma, stats, j, pat)
                new_obj = objective(sigma, stats)
                updates += 1
                if not new_obj <= obj + 1e-12:
                    descent_bad += 1
                if not np.all(sigma.values[mask] == 0.0):
                    zeros_bad += 1
                try:
                    np.linalg.cholesky(sigma.values)
                except np.linalg.LinAlgError:
                    pd_bad += 1
                obj = new_obj
    elapsed = time.perf_counter() - start
    return {
        "n_cases": len(cases),
        "max_gap": max_gap,
        "max_kkt": max_kkt,
        "updates": updates,
        "descent_bad": descent_bad,
        "pd_bad": pd_bad,
        "zeros_bad": zeros_bad,
        "elapsed": elapsed,
    }


def test_constrained_solver_matches_brute_force_oracle(solver_battery):
    """Across 3 single-pair patterns at order 3 and 5 random patterns at
    order 4, 50 problems each: objective within 1e-8 of a restarted
    quasi-Newton oracle, stationarity residual below 1e-6, within 2 min."""
    b = solver_battery
    ok = b["max_gap"] < 1e-8 and b["max_kkt"] < 1e-6 and b["elapsed"] < 120.0
    _line("PASS" if ok else "FAIL", "columnwise solver vs brute force",
          f"{b['n_cases']} problems, objective gap {b['max_gap']:.2e} (< 1e-8), "
          f"stationarity {b['max_kkt']:.2e} (< 1e-6), {b['elapsed']:.1f}s (< 120s)")
    assert b["max_gap"] < 1e-8
    assert b["max_kkt"] < 1e-6
    assert b["elapsed"] < 120.0


def test_every_column_update_descends_and_preserves_structure(solver_battery):
    """Replaying every column update of the battery: the objective never
    increases and every iterate is positive definite with exact zeros."""
    b = solver_battery
    ok = b["descent_bad"] == 0 and b["pd_bad"] == 0 and b["zeros_bad"] == 0
    _line("PASS" if ok else "FAIL", "per-update descent and structure",
          f"{b['updates']} column updates, {b['descent_bad']} descent / "
          f"{b['pd_bad']} definiteness / {b['zeros_bad']} zero violations")
    assert b["descent_bad"] == 0
    assert b["pd_bad"] == 0
    assert b["zeros_bad"] == 0


def test_zero_forcing_running_example_and_repair():
    """On the 3x3 running example with the corner constrained: forcing
    gives the exact printed matrix, its smallest eigenvalue is the
    known negative value, and the diagonal repair restores definiteness
    without touching the zeros."""
    sigma_uc = np.array([[4.0, -3.0, 3.0], [-3.0, 4.0, -3.0], [3.0, -3.0, 4.0]])
    pat = ZeroPattern([(1, 3)], dim=3)
    forced = zero_forced(sigma_uc, pat)
    expected = np.array([[4.0, -3.0, 0.0], [-3.0, 4.0, -3.0], [0.0, -3.0, 4.0]])
    exact = bool(np.array_equal(forced, expected))
    lam = float(np.linalg.eigvalsh(forced).min())
    lam_ref = 4.0 - 3.0 * math.sqrt(2.0)
    repaired = min_eig_repair(forced, 30)
    try:
        np.linalg.cholesky(repaired.values)
        repaired_pd = True
    except np.linalg.LinAlgError:
        repaired_pd = False
    zeros_kept = repaired.values[0, 2] == 0.0 and repaired.values[2, 0] == 0.0
    ok = exact and abs(lam - lam_ref) < 1e-6 and lam < 0.0 and repaired_pd and zeros_kept
    _line("PASS" if ok else "FAIL", "zero forcing and repair example",
          f"exact match {exact}, min eigenvalue {lam:.10f} vs {lam_ref:.10f} "
          f"(tol 1e-6), repair PD {repaired_pd}, zeros kept {zeros_kept}")
    assert exact
    assert lam == pytest.approx(lam_ref, abs=1e-6)
    assert lam < 0.0
    assert repaired_pd and zeros_kept


def test_linear_gaussian_end_to_end_recovery():
    """Identity-mean Gaussian model, 300 individuals, known truth: the
    importance-sampled log likelihood agrees with the closed form within
    3 Monte-Carlo SEs, and the unconstrained fit recovers the latent
    mean within 3 theoretical SEs per component, all within 5 min."""
    start = time.perf_counter()
    q = 3
    model = LinearGaussianModel(q)
    truth_m = np.array([1.0, -0.5, 2.0])
    truth_sigma = np.array([[1.0, 0.3, 0.0], [0.3, 0.8, -0.2], [0.0, -0.2, 1.5]])
    truth_theta = 0.5
    data, _ = simulate_dataset(model, truth_m, truth_sigma, truth_theta,
                               n=300, seed=11)

    exact = model.marginal_loglik(data.y, truth_m, truth_sigma, truth_theta)
    est = loglik_is(model, data, truth_m, truth_sigma, truth_theta,
                    n_samples=10000, seed=5)
    gap = abs(est.loglik - exact)
    loglik_ok = gap <= 3.0 * est.mc_se

    init = FitState(m=np.zeros(q), sigma=SpdMatrix(np.eye(q)), theta=1.0)
    result = fit(model, data, ZeroPattern([], dim=q), init, FitConfig(seed=3))
    se_theory = np.sqrt(np.diag(truth_sigma + truth_theta * np.eye(q)) / data.n)
    dev = np.abs(result.state.m - truth_m) / se_theory
    mean_ok = bool(np.all(dev <= 3.0))
    elapsed = time.perf_counter() - start
    ok = loglik_ok and mean_ok and elapsed < 300.0
    _line("PASS" if ok else "FAIL", "linear-Gaussian end to end",
          f"loglik gap {gap:.3f} vs 3*mc_se {3.0 * est.mc_se:.3f}, "
          f"mean deviations {np.round(dev, 2).tolist()} SEs (<= 3), "
          f"converged {result.converged}, {elapsed:.1f}s (< 300s)")
    assert loglik_ok
    assert mean_ok
    assert elapsed < 300.0


def test_cortisol_fit_keeps_exact_zeros_across_seeds():
    """Fitting the bundled dose-response dataset with the corner and
    steepness-versus-half-dose entries constrained: for 5 sampler seeds
    the returned covariance carries bitwise zeros at the constrained
    positions and admits a Cholesky factorization."""
    data, cfg = cortisol_example()
    bad = []
    for seed in range(5):
        fc = dataclasses.replace(cfg.fit, seed=seed)
        result = fit(cfg.model, data, cfg.pattern, cfg.init, fc)
        vals = result.state.sigma.values
        zeros = (vals[0, 3] == 0.0 and vals[3, 0] == 0.0
                 and vals[2, 3] == 0.0 and vals[3, 2] == 0.0)
        try:
            np.linalg.cholesky(vals)
            pd_ok = True
        except np.linalg.LinAlgError:
            pd_ok = False
        if not (zeros and pd_ok):
            bad.append(seed)
    ok = not bad
    _line("PASS" if ok else "FAIL", "constrained fit zero contract",
          f"5 seeds, bitwise zeros and PD factorization "
          f"{'on every seed' if ok else 'violated for seeds %r' % bad}")
    assert not bad


def test_study_constrained_estimator_beats_unconstrained():
    """20-replicate simulation study at the documented truth: the
    constrained estimator's rows for the two constrained entries are
    exactly 0/0/0, and its root mean quadratic error for the
    covariance entry next to them is below the unconstrained EM's.
    A ratio in [1.0, 1.2] is flagged, not failed: with 20 replicates
    the ordering check is directional.  Within 10 min."""
    start = time.perf_counter()
    report = run_simulation_study(SimStudyConfig())
    elapsed = time.perf_counter() - start

    rows = {row["param"]: row for row in report.rows}
    assert len(report.rows) == 15
    zero_rows_ok = all(
        rows[label]["icf_mean"] == 0.0
        and rows[label]["icf_se"] == 0.0
        and rows[label]["icf_rmqe"] == 0.0
        for label in ("sigma_4_1", "sigma_4_3")
    )
    ratio = rows["sigma_3_1"]["icf_rmqe"] / rows["sigma_3_1"]["em_rmqe"]
    detail = (
        f"{report.n_used}/{report.n_replicates} replicates used, "
        f"constrained rows exact zeros {zero_rows_ok}, "
        f"rmqe ratio constrained/unconstrained {ratio:.3f}, "
        f"{elapsed:.0f}s (< 600s)"
    )
    if zero_rows_ok and ratio < 1.0 and elapsed < 600.0:
        _line("PASS", "simulation study accuracy gain", detail)
    elif zero_rows_ok and ratio <= 1.2 and elapsed < 600.0:
        _line("FLAG", "simulation study accuracy gain",
              detail + " (ratio in [1.0, 1.2]: directional check flagged)")
    else:
        _line("FAIL", "simulation study accuracy gain", detail)
    assert zero_rows_ok
    assert ratio <= 1.2
    assert elapsed < 600.0


def test_likelihood_ratio_mechanics_and_qq_calibration():
    """The documented log-likelihood pair with two constrained entries
    gives statistic 7.96 and tail probability exp(-3.98); 100 seeded
    uniform p-values stay inside the 95% Kolmogorov band."""
    pat = ZeroPattern([(1, 4), (3, 4)], dim=4)
    res = lr_test(-754.23, -750.25, pat)
    stat_ok = abs(res.stat - 7.96) < 1e-9
    p_ref = math.exp(-3.98)
    p_ok = abs(res.p_value - p_ref) < 1e-3

    rng = np.random.default_rng(123)
    pairs = qq_data(rng.uniform(size=100))
    ks_gap = max(abs(u - p) for u, p in pairs)
    ks_ok = ks_gap < 0.17
    ok = stat_ok and p_ok and ks_ok
    _line("PASS" if ok else "FAIL", "likelihood ratio mechanics",
          f"stat {res.stat:.6f} (= 7.96), p {res.p_value:.6f} vs "
          f"{p_ref:.6f} (tol 1e-3), qq max gap {ks_gap:.3f} (< 0.17)")
    assert stat_ok
    assert p_ok
    assert ks_ok
