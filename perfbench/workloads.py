"""The benchmark's workloads: seeded inputs, one job, output checks.

Every workload has three parts.  ``setup`` makes the inputs from the
seed and parses them the way the program would; it is timed and
repeated.  ``job`` is the measured call.  ``finish`` checks a job's
outputs outside the timed region and returns its counts and a
fingerprint; two jobs of one seed must give equal fingerprints.

A broken invariant raises ``CheckFailed``.  A convergence miss is not
an invariant break: it is counted as a failed attempt.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import zeromix.cli
import zeromix.config
import zeromix.covariance
import zeromix.harness
import zeromix.inference
import zeromix.models
from zeromix.exceptions import ZeromixError

# Replicates per study job: small, and even so that a pool of two
# workers would divide them evenly.  Four rather than two, because the
# datasets of one seed set the fits' iteration counts, and more of them
# average that out.
STUDY_REPLICATES = 4
# Cold-start solves per icf_batch job.  The seed sets the problems and
# so the sweeps they need; 96 problems average that out.  More q=4 than
# q=8 problems, so that the median solve falls inside the q=4 mode and
# the p90 inside the q=8 mode instead of between them.
ICF_PROBLEMS = {4: 72, 8: 24}
ICF_DRAWS = 30
ICF_TOL = 1e-8
ICF_MAX_SWEEPS = 500
# Scale-free stationarity bound for converged solves; converged solves
# at ICF_TOL reach about 1e-7.
ICF_KKT_MAX = 1e-5
# The example's IS log likelihood must lie within this many combined MC
# standard errors of the stored high-sample reference.
LOGLIK_SE_MULTIPLE = 5.0

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class CheckFailed(Exception):
    """An output invariant broke: the program is wrong, not slow."""


@dataclass
class Outcome:
    """What ``finish`` learns from one job."""

    fingerprint: bytes
    attempted: int
    failed: int
    # durations of the constrained fit calls, or of the solves on icf_batch
    fit_s: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _seed_rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _check_sigma(values, pattern, where):
    """Constrained entries exactly 0.0 on both sides, matrix PD."""
    values = np.asarray(values, dtype=float)
    for i, j in pattern.pairs:
        if values[i - 1, j - 1] != 0.0 or values[j - 1, i - 1] != 0.0:
            raise CheckFailed(f"{where}: entry ({i},{j}) is not exactly zero")
    try:
        np.linalg.cholesky(values)
    except np.linalg.LinAlgError:
        raise CheckFailed(f"{where}: covariance is not positive definite") from None


def _fit_outcome(tracer):
    """Attempts, failures, constrained fit times and iterations per fit."""
    fits = tracer.named("mcem.fit")
    failed = sum(1 for s in fits if not s.counts.get("converged", 0))
    fit_s = [s.duration for s in fits if s.counts.get("constrained", 0)]
    return len(fits), failed, fit_s, [s.counts.get("iterations", 0) for s in fits]


# -- example_report -------------------------------------------------------


def setup_example(seed, workdir):
    """Seeded copy of the bundled INI plus the bundled CSV, parsed."""
    csv_src, ini_src = zeromix.harness.example_paths()
    parser = configparser.ConfigParser()
    with open(ini_src, encoding="utf-8") as fh:
        parser.read_file(fh)
    parser["mcem"]["seed"] = str(int(seed))
    ini = os.path.join(workdir, "example.ini")
    data_csv = os.path.join(workdir, "example.csv")
    with open(ini, "w", encoding="utf-8") as fh:
        parser.write(fh)
    shutil.copyfile(csv_src, data_csv)
    cfg = zeromix.config.load_config(ini)
    data = zeromix.models.load_dataset(data_csv)
    return {"ini": ini, "csv": data_csv, "cfg": cfg, "data": data, "seed": int(seed)}


def job_example(inputs, workdir, index):
    out_dir = os.path.join(workdir, f"report{index}")
    # the CLI's own summary lines would otherwise mix into the result
    with contextlib.redirect_stdout(io.StringIO()):
        code = zeromix.cli.main(["fit", "--data", inputs["csv"], "--config", inputs["ini"],
                                 "--out-dir", out_dir])
    return {"code": code, "out_dir": out_dir}


def _check_trace_csv(path, pattern):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckFailed("trace.csv has no rows")
    q = pattern.dim
    for row in rows:
        sigma = np.zeros((q, q))
        for i in range(q):
            for j in range(i + 1):
                sigma[i, j] = sigma[j, i] = float(row[f"sigma_{i + 1}_{j + 1}"])
        _check_sigma(sigma, pattern, f"trace.csv iteration {row['k']}")
    return len(rows)


def finish_example(inputs, out, tracer):
    attempted, failed, fit_s, iterations = _fit_outcome(tracer)
    if out["code"] != 0:
        # a numerical failure of the CLI is a failed attempt, not a crash
        return Outcome(f"exit {out['code']}".encode(), max(attempted, 1), failed + 1, fit_s)
    report_path = os.path.join(out["out_dir"], "report.json")
    trace_path = os.path.join(out["out_dir"], "trace.csv")
    with open(report_path, "rb") as fh:
        report_bytes = fh.read()
    with open(trace_path, "rb") as fh:
        trace_bytes = fh.read()
    report = json.loads(report_bytes)
    pattern = inputs["cfg"].pattern
    _check_sigma(report["params"]["sigma"], pattern, "report.json")
    trace_rows = _check_trace_csv(trace_path, pattern)
    if trace_rows != report["iterations"]:
        raise CheckFailed(f"trace.csv has {trace_rows} rows for {report['iterations']} iterations")
    if not (np.isfinite(report["loglik"]) and report["mc_se"] > 0.0):
        raise CheckFailed(f"report.json log likelihood {report['loglik']} "
                          f"(mc se {report['mc_se']}) is not a finite estimate")
    counts = {"fit_iterations": iterations, "loglik_mc_se": report["mc_se"],
              "se_present": len(report["se"] or {})}
    return Outcome(report_bytes + trace_bytes, attempted, failed, fit_s, counts)


def check_example_loglik(inputs):
    """IS log likelihood at the stored example estimate vs its reference.

    The fitted point moves with the fit seed by more than the MC error,
    so the stored reference is taken at one fixed estimate.  The
    estimate under test uses the CLI's default sample count and a
    sample seed derived from the run seed.
    """
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)["example_loglik"]
    cfg, data = inputs["cfg"], inputs["data"]
    sigma = zeromix.covariance.SpdMatrix(np.asarray(ref["sigma"]), pattern=cfg.pattern)
    est = zeromix.inference.loglik_is(cfg.model, data, np.asarray(ref["m"]), sigma,
                                      ref["theta"], n_samples=ref["check_samples"],
                                      seed=inputs["seed"])
    tol = LOGLIK_SE_MULTIPLE * float(np.hypot(est.mc_se, ref["mc_se"]))
    if not abs(est.loglik - ref["loglik"]) <= tol:
        raise CheckFailed(f"example log likelihood {est.loglik:.4f} is more than "
                          f"{LOGLIK_SE_MULTIPLE} MC SE ({tol:.4f}) from the "
                          f"{ref['samples']}-sample reference {ref['loglik']:.4f}")
    return {"loglik_check": est.loglik, "loglik_check_mc_se": est.mc_se,
            "loglik_reference": ref["loglik"]}


# -- study ----------------------------------------------------------------


def setup_study(seed, workdir):
    return {"cfg": zeromix.harness.SimStudyConfig(n_replicates=STUDY_REPLICATES,
                                                  master_seed=int(seed))}


def job_study(inputs, workdir, index):
    return zeromix.harness.run_simulation_study(inputs["cfg"])


def finish_study(inputs, report, tracer):
    cfg = inputs["cfg"]
    pattern = cfg.pattern
    for rec in report.records:
        where = f"study replicate {rec['replicate']}"
        est = rec["estimates"]
        _check_sigma(est["em_icf"]["sigma"], pattern, where + " em_icf")
        _check_sigma(est["zero_forced"]["sigma"], pattern, where + " zero_forced")
        _check_sigma(est["em"]["sigma"], zeromix.covariance.ZeroPattern([], cfg.q), where + " em")
    failed_attempts = sum(len(r["attempts"]) for r in report.retried + report.excluded)
    attempted = len(report.records) + failed_attempts
    if attempted < cfg.n_replicates:
        raise CheckFailed(f"study accounts for {attempted} attempts of {cfg.n_replicates} replicates")
    _, _, fit_s, iterations = _fit_outcome(tracer)
    mc_se = [rec["loglik"]["em_icf_mc_se"] for rec in report.records]
    counts = {"harness.replicate.attempts": attempted,
              "harness.replicate.retried": len(report.retried),
              "harness.replicate.excluded": len(report.excluded),
              "fit_iterations": iterations,
              "loglik_mc_se": float(np.median(mc_se)) if mc_se else 0.0}
    blob = json.dumps(report.to_dict(), indent=2, sort_keys=True).encode()
    return Outcome(blob, attempted, failed_attempts, fit_s, counts)


# -- icf_batch ------------------------------------------------------------


def _icf_truths():
    """The study truth (q=4) and its 2x2 block extension (q=8) with patterns.

    The q=8 truth [[T, T/2], [T/2, T]] is kron([[1, .5], [.5, 1]], T):
    positive definite, with the 8 structural zeros of the blocks.
    """
    t4 = np.asarray(zeromix.harness.SimStudyConfig().truth_sigma, dtype=float)
    out = {}
    for q, truth in ((4, t4), (8, np.kron([[1.0, 0.5], [0.5, 1.0]], t4))):
        pairs = [(i + 1, j + 1) for i in range(q) for j in range(i + 1, q) if truth[i, j] == 0.0]
        out[q] = (truth, zeromix.covariance.ZeroPattern(pairs, dim=q))
    return out


def setup_icf(seed, workdir):
    rng = _seed_rng(seed, 3)
    problems = []
    for q, (truth, pattern) in _icf_truths().items():
        chol = np.linalg.cholesky(truth)
        for _ in range(ICF_PROBLEMS[q]):
            draws = rng.standard_normal((ICF_DRAWS, q)) @ chol.T
            xtilde = np.cov(draws, rowvar=False, bias=True)
            problems.append((zeromix.covariance.SufficientStats(xtilde, ICF_DRAWS), pattern))
    return {"problems": problems}


def job_icf(inputs, workdir, index):
    results = []
    for stats, pattern in inputs["problems"]:
        t0 = time.perf_counter()
        try:
            sol, diag = zeromix.covariance.icf_solve(stats, pattern, tol=ICF_TOL,
                                                     max_sweeps=ICF_MAX_SWEEPS)
        except ZeromixError as exc:
            sol, diag = None, exc
        results.append((time.perf_counter() - t0, sol, diag))
    return results


def scale_free_kkt(sigma, xtilde, pattern):
    """max |D grad D| over free entries, D = sqrt(diag Sigma).

    grad = S^-1 - S^-1 X S^-1 is the objective's gradient; the scaling
    makes the residual independent of the units of each coordinate.
    """
    inv = np.linalg.inv(sigma)
    grad = inv - inv @ xtilde @ inv
    d = np.sqrt(np.diag(sigma))
    scaled = d[:, None] * grad * d[None, :]
    return float(np.max(np.abs(scaled[~pattern.mask()])))


def finish_icf(inputs, results, tracer):
    failed = 0
    sweeps = 0
    worst_kkt = 0.0
    parts = []
    for k, ((stats, pattern), (_, sol, diag)) in enumerate(zip(inputs["problems"], results)):
        if sol is None:
            failed += 1
            parts.append(f"{k} raised {type(diag).__name__}".encode())
            continue
        _check_sigma(sol.values, pattern, f"icf problem {k} (q={pattern.dim})")
        sweeps += diag.sweeps
        parts.append(sol.values.tobytes() + bytes([diag.converged]))
        if not diag.converged:
            failed += 1
            continue
        kkt = scale_free_kkt(sol.values, stats.xtilde, pattern)
        if not kkt <= ICF_KKT_MAX:
            raise CheckFailed(f"icf problem {k} (q={pattern.dim}) converged with "
                              f"scale-free KKT residual {kkt:.3e} > {ICF_KKT_MAX:g}")
        worst_kkt = max(worst_kkt, kkt)
    counts = {"sweeps": sweeps, "worst_scale_free_kkt": worst_kkt}
    return Outcome(b"".join(parts), len(results), failed, [t for t, _, _ in results], counts)


# name -> (setup, job, finish, check run once per run on the inputs,
#          least jobs per run).  The example runs twice so that its
#          report files can be compared; a study job fills a run alone.
WORKLOADS = {
    "example_report": (setup_example, job_example, finish_example, check_example_loglik, 2),
    "study": (setup_study, job_study, finish_study, None, 1),
    "icf_batch": (setup_icf, job_icf, finish_icf, None, 1),
}
