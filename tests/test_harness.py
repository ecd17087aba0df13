"""Study harness: aggregation, QQ data, report writers, and the
bundled example."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import record_pools
from zeromix import _pool, harness
from zeromix.exceptions import DomainError, InputMismatchError, ValueOutOfRangeError
from zeromix.harness import (ESTIMATOR_NAMES, SimStudyConfig, SimStudyReport,
                             _aggregate, _replicate_seeds, cortisol_example,
                             fit_and_test, fit_report, qq_data, run_simulation_study,
                             write_example_bundle,
                             write_json, write_qq_csv, write_table_csv,
                             write_trace_csv, example_paths)
from zeromix.mcem import FitConfig, FitResult, FitState, TraceRow
from zeromix.covariance import SpdMatrix, ZeroPattern, min_eig_repair, zero_forced
from zeromix.inference import free_param_labels
from zeromix.models import simulate_dataset


def test_table_labels_cover_means_covariance_and_theta():
    labels = free_param_labels(ZeroPattern([], dim=4))
    assert len(labels) == 15
    assert labels[:4] == ["m1", "m2", "m3", "m4"]
    assert labels[4] == "sigma_1_1"
    assert labels[-2] == "sigma_4_4"
    assert labels[-1] == "theta"


def test_qq_pairs_sorted_against_plotting_positions():
    assert qq_data([0.75, 0.25]) == [(0.25, 0.25), (0.75, 0.75)]
    assert qq_data([]) == []
    u, p = zip(*qq_data([0.9, 0.1, 0.5]))
    assert u == (1 / 6, 0.5, 5 / 6)
    assert p == (0.1, 0.5, 0.9)


def test_qq_rejects_values_outside_the_unit_interval():
    with pytest.raises(ValueOutOfRangeError):
        qq_data([0.5, 1.0000001])
    with pytest.raises(ValueOutOfRangeError):
        qq_data([-0.1])
    with pytest.raises(ValueOutOfRangeError):
        qq_data([np.nan])


def test_qq_on_seeded_uniforms_stays_inside_the_ks_band():
    rng = np.random.default_rng(123)
    pairs = qq_data(rng.random(100))
    gap = max(abs(u - p) for u, p in pairs)
    assert gap < 1.36 / np.sqrt(100)


def test_aggregate_identity_rmqe_squared_is_bias_plus_variance():
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((12, 6)) * [1, 10, 0.1, 100, 1e-4, 1]
    truth = rng.standard_normal(6)
    mean, se, rmqe = _aggregate(vectors, truth)
    bias = mean - truth
    gap = rmqe ** 2 - (se ** 2 + bias ** 2)
    assert np.all(np.abs(gap) <= 1e-12 * np.maximum(rmqe ** 2, 1e-300))


def test_aggregate_single_replicate_has_zero_spread():
    mean, se, rmqe = _aggregate(np.array([[2.0, 3.0]]), np.array([1.0, 3.0]))
    assert np.array_equal(se, [0.0, 0.0])
    assert np.allclose(rmqe, [1.0, 0.0], atol=1e-15)


def test_study_config_validation():
    with pytest.raises(ValueOutOfRangeError):
        SimStudyConfig(n_replicates=0)
    with pytest.raises(Exception):
        # truth with a nonzero entry at a constrained position
        SimStudyConfig(truth_sigma=(
            (20.0, -4.5, -0.3, 0.5),
            (-4.5, 2.5, -0.1, -2e-3),
            (-0.3, -0.1, 0.05, 0.0),
            (0.5, -2e-3, 0.0, 1e-5),
        ))


def test_study_config_rejects_truth_of_another_order():
    # four means, so the pattern is declared for order 4; the 5 x 5 truth
    # would otherwise fail only inside the simulation
    with pytest.raises(ValueError, match="declared for order 4 but the matrix has order 5"):
        SimStudyConfig(truth_sigma=tuple(map(tuple, np.eye(5))))


def test_study_config_rejects_an_empty_pattern():
    # the study has no free fit to compare against without a zero
    with pytest.raises(InputMismatchError, match="pattern has no zero to test"):
        SimStudyConfig(pattern=ZeroPattern([], dim=4))


@pytest.mark.parametrize("field, value", [
    ("truth_theta", -0.015),
    ("truth_theta", float("nan")),
    ("truth_theta", float("inf")),
    ("truth_m", (50.0, float("nan"), 1.5, 0.08)),
    ("truth_m", (50.0, 70.0, float("inf"), 0.08)),
])
def test_study_config_rejects_an_unusable_truth(field, value):
    # each of these fails every replicate of the study if it gets through
    with pytest.raises(ValueOutOfRangeError, match=field):
        SimStudyConfig(**{field: value})


def test_replicate_seeds_differ_across_replicates_and_attempts():
    a = _replicate_seeds(0, 0, 0)
    b = _replicate_seeds(0, 1, 0)
    c = _replicate_seeds(0, 0, 1)
    assert set(a) == {"data", "em", "em_icf", "loglik"}
    assert a != b and a != c and b != c


def _stub_record(cfg, replicate, attempt):
    est = {"m": list(cfg.truth_m), "sigma": [list(row) for row in cfg.truth_sigma],
           "theta": cfg.truth_theta}
    return {"replicate": replicate, "attempt": attempt,
            "estimates": {name: est for name in ESTIMATOR_NAMES},
            "loglik": {"em": -1.0, "em_icf": -1.0}, "lr": {"p": 0.5}}


def test_retries_and_exclusions_are_kept_in_replicate_order(monkeypatch):
    # (replicate, attempt) -> outcome; every pair not listed succeeds
    plan = {(1, 0): "raise", (2, 0): ["em"], (2, 1): "raise", (3, 0): ["em_icf"]}
    calls = []

    def stub(cfg, replicate, attempt):
        calls.append((replicate, attempt))
        outcome = plan.get((replicate, attempt), [])
        if outcome == "raise":
            raise DomainError(f"stub failure {replicate}/{attempt}")
        return _stub_record(cfg, replicate, attempt), outcome

    monkeypatch.setattr(harness, "_run_replicate", stub)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    pools = record_pools(monkeypatch)
    report = run_simulation_study(SimStudyConfig(n_replicates=4))
    assert pools == []

    assert calls == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]
    assert [(rec["replicate"], rec["attempt"]) for rec in report.records] == [
        (0, 0), (1, 1), (3, 1)]
    assert report.n_used == 3 and report.n_replicates == 4
    assert report.retried == [
        {"replicate": 1, "attempts": [{"attempt": 0, "error": "stub failure 1/0"}]},
        {"replicate": 3, "attempts": [{"attempt": 0, "error": "not converged: em_icf"}]},
    ]
    assert report.excluded == [
        {"replicate": 2, "attempts": [{"attempt": 0, "error": "not converged: em"},
                                      {"attempt": 1, "error": "stub failure 2/1"}]},
    ]
    assert report.p_values == [0.5, 0.5, 0.5]


def test_pooled_study_matches_the_in_process_study(monkeypatch):
    # Short chains and a cap near the iteration counts these datasets
    # need: replicate 0 is excluded, replicate 1 kept on its retry and
    # replicate 2 kept at once, so every kind of record crosses the
    # process boundary.  Three replicates on two workers load them unevenly.
    fit_cfg = FitConfig(chain_length=40, burn_in=10, max_outer=17, outer_tol=0.05,
                        warmup=3, gamma_b=1.0)
    cfg = SimStudyConfig(n_replicates=3, n_individuals=8, master_seed=0, fit=fit_cfg)
    pools = record_pools(monkeypatch)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    serial = run_simulation_study(cfg)
    assert pools == []
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    pooled = run_simulation_study(cfg)
    assert pools == [2]

    assert [x["replicate"] for x in serial.excluded] == [0]
    assert [x["replicate"] for x in serial.retried] == [1]
    assert [(rec["replicate"], rec["attempt"]) for rec in serial.records] == [(1, 1), (2, 0)]
    as_bytes = [json.dumps(rep.to_dict(), indent=2, sort_keys=True).encode()
                for rep in (serial, pooled)]
    assert as_bytes[0] == as_bytes[1]


def _nested_pids():
    return os.getpid(), _pool.run_tasks(os.getpid, [(), ()], here_first=True)


def test_a_worker_runs_nested_tasks_itself(monkeypatch):
    # a replicate's worker runs both fits: a run_tasks call in a worker
    # starts no pool of its own, whatever the CPU count
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    outer = _pool.run_tasks(_nested_pids, [(), ()])
    for worker, inner in outer:
        assert worker != os.getpid()
        assert inner == [worker, worker]


def _estimate(m, sigma, theta):
    return {"m": [float(v) for v in m], "sigma": [[float(v) for v in row] for row in sigma],
            "theta": float(theta)}


def test_a_study_record_is_fit_and_test_at_the_replicate_seeds(monkeypatch):
    fit_cfg = FitConfig(chain_length=40, burn_in=10, max_outer=15, outer_tol=10.0, warmup=3)
    cfg = SimStudyConfig(n_replicates=1, n_individuals=8, master_seed=1, fit=fit_cfg)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    record, = run_simulation_study(cfg).records

    seeds = _replicate_seeds(1, 0, record["attempt"])
    data, _ = simulate_dataset(cfg.model, np.asarray(cfg.truth_m), np.asarray(cfg.truth_sigma),
                               cfg.truth_theta, 8, seeds["data"])
    icf, icf_ll, em, em_ll, lr = fit_and_test(
        cfg.model, data, cfg.pattern, cfg.init, replace(fit_cfg, seed=seeds["em_icf"]),
        seeds["em"], harness._LR_SAMPLES, seeds["loglik"])
    zf = zero_forced(em.state.sigma.values, cfg.pattern)
    assert record["estimates"] == {
        "em": _estimate(em.state.m, em.state.sigma.values, em.state.theta),
        "em_icf": _estimate(icf.state.m, icf.state.sigma.values, icf.state.theta),
        "zero_forced": dict(_estimate(em.state.m, min_eig_repair(zf, 8).values,
                                      em.state.theta),
                            min_eig_before_repair=float(np.linalg.eigvalsh(zf)[0])),
    }
    assert record["loglik"] == {"em": em_ll.loglik, "em_mc_se": em_ll.mc_se,
                                "em_icf": icf_ll.loglik, "em_icf_mc_se": icf_ll.mc_se}
    assert record["lr"] == {"stat": lr.stat, "df": 2, "p": lr.p_value}


def test_fit_and_test_has_nothing_to_test_for_an_empty_pattern(monkeypatch):
    data, cfg = cortisol_example()
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    pools = record_pools(monkeypatch)
    quick = replace(cfg.fit, chain_length=40, burn_in=10, max_outer=3)
    fit, ll, *rest = fit_and_test(cfg.model, data, ZeroPattern([], dim=4), cfg.init, quick,
                                  1, 50, 2)
    assert rest == [None, None, None] and pools == []
    assert fit.iterations == 3 and np.isfinite(ll.loglik)


def _fake_report():
    labels = free_param_labels(ZeroPattern([], dim=4))
    rows = []
    for idx, label in enumerate(labels):
        rows.append({
            "param": label, "true": float(idx),
            "em_mean": 1.0, "em_se": 0.5, "em_rmqe": 1.2,
            "icf_mean": 0.9, "icf_se": 0.4, "icf_rmqe": 1.0,
        })
    return SimStudyReport(
        n_replicates=2, n_used=2, rows=rows,
        loglik_row={"em_mean": -800.0, "em_se": 3.0,
                    "icf_mean": -801.0, "icf_se": 3.1},
        p_values=[0.3, 0.8], lr_df=2, records=[], excluded=[], retried=[],
        master_seed=0)


def test_table_writer_emits_fifteen_rows_plus_loglik(tmp_path):
    report = _fake_report()
    path = tmp_path / "table1.csv"
    write_table_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "param,true,em_mean,em_se,em_rmqe,icf_mean,icf_se,icf_rmqe"
    assert len(lines) == 1 + 15 + 1
    assert lines[-1].startswith("loglik,,-800.0,3.0,,-801.0,3.1,")
    assert lines[1].split(",")[0] == "m1"


def test_qq_writer_format(tmp_path):
    path = tmp_path / "qq.csv"
    write_qq_csv(qq_data([0.75, 0.25]), path)
    assert path.read_text() == "u,p\n0.25,0.25\n0.75,0.75\n"


def test_json_writer_is_stable_and_parseable(tmp_path):
    report = _fake_report()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(report.to_dict(), p1)
    write_json(report.to_dict(), p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = json.loads(p1.read_text())
    assert back["n_used"] == 2
    assert back["lr"]["p_values"] == [0.3, 0.8]
    assert len(back["rows"]) == 15


def test_trace_writer_round_trip(tmp_path):
    sigma = np.diag([1.0, 2.0])
    trace = [TraceRow(k=k, m=np.array([0.1 * k, -0.1 * k]), sigma=sigma,
                      theta=0.5, accept_rate=0.4, delta=0.01 / (k + 1))
             for k in (1, 2, 3)]
    state = FitState(m=trace[-1].m, sigma=SpdMatrix(sigma), theta=0.5)
    result = FitResult(state=state, converged=True, iterations=3, trace=trace,
                       accept_rate=0.4, domain_rejects=0, icf_sweeps=0,
                       icf_unconverged=0, icf_ridged=0)
    path = tmp_path / "trace.csv"
    write_trace_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["k", "m1", "m2"]
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "1"


def test_fit_report_assembles_the_documented_shape():
    sigma = SpdMatrix(np.diag([1.0, 2.0]))
    state = FitState(m=np.array([0.5, -0.5]), sigma=sigma, theta=0.3)
    result = FitResult(state=state, converged=True, iterations=7,
                       trace=[], accept_rate=0.5, domain_rejects=5, icf_sweeps=40,
                       icf_unconverged=1, icf_ridged=2)
    report = fit_report(result)
    assert report["params"]["m"] == [0.5, -0.5]
    assert report["params"]["sigma"] == [[1.0, 0.0], [0.0, 2.0]]
    assert report["params"]["theta"] == 0.3
    assert report["converged"] is True
    assert report["se"] is None and report["lr"] is None
    assert report["loglik"] is None and report["mc_se"] is None
    assert (report["domain_rejects"], report["icf_sweeps"], report["icf_unconverged"],
            report["icf_ridged"]) == (5, 40, 1, 2)


def test_bundled_example_loads_with_the_documented_start_values():
    data, cfg = cortisol_example()
    assert data.n == 30 and data.n_obs == 7
    assert cfg.pattern.pairs == ((1, 4), (3, 4))
    assert np.array_equal(cfg.init.m, [50.0, 70.0, 1.0, 0.1])
    assert np.array_equal(np.diag(cfg.init.sigma.values),
                          [25.0, 49.0, 0.01, 0.0001])
    assert cfg.init.theta == 0.04


def test_bundled_example_regenerates_byte_identically(tmp_path):
    csv_path, ini_path = write_example_bundle(tmp_path)
    bundled_csv, bundled_ini = example_paths()
    assert open(csv_path, "rb").read() == open(bundled_csv, "rb").read()
    assert open(ini_path, "rb").read() == open(bundled_ini, "rb").read()


def test_readme_quick_start_runs(tmp_path):
    # the README's library example, verbatim, as a script: the free fit
    # may run in a worker process, which needs the script's __main__ guard
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    script = tmp_path / "quick_start.py"
    script.write_text(block.split("```", 1)[0], encoding="utf-8")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert "LrTestResult(" in out.stdout
